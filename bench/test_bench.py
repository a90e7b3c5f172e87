"""Tests of the benchmark itself: the oracle, the tracer and the checks.

    python3 -m pytest -q bench/test_bench.py
"""

import cmath
import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from isingpulse import (  # noqa: E402
    ChainParams,
    build_entanglement_protocol,
    cli,
    exact,
    fidelity,
    ground_state,
    pert,
    run_protocol,
)
from tracing import Tracer  # noqa: E402


def _walk_state(L, J):
    prot = build_entanglement_protocol(ChainParams(L=L, a=100.0, J=J), 0.118)
    pulses = [(p.nu, p.Omega, p.phi, p.t_start, p.duration) for p in prot.pulses]
    return run_protocol(ground_state(L), prot).amplitudes, oracle.final_state(L, 0.0, 100.0, J, pulses)


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _sweep_inputs(values):
    argv = ["sweep", "--param", "J", "--values", ",".join(map(repr, values)), "--L", "6",
            *workloads.MODEL, "--propagator", "both", "--order", "block+pt1"]
    return {"argvs": [argv], "ops": len(values), "values": values, "oracle": [1]}


def _with_column(text, row, col, change):
    lines = text.splitlines()
    fields = lines[row + 1].split(",")
    fields[col] = repr(change(float(fields[col])))
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("J", [0.5, 1.945, 7.0])
def test_oracle_matches_run_protocol(L, J):
    psi_p, psi_o = _walk_state(L, J)
    ok, err = oracle.check_amplitudes(psi_p, psi_o, 1e-9)
    assert ok, err


def test_oracle_steps_agree():
    prot = build_entanglement_protocol(ChainParams(L=5, a=100.0, J=1.945), 0.118)
    pulses = [(p.nu, p.Omega, p.phi, p.t_start, p.duration) for p in prot.pulses]
    by_expm = oracle.final_state(5, 0.0, 100.0, 1.945, pulses, oracle.expm_step)
    by_eigh = oracle.final_state(5, 0.0, 100.0, 1.945, pulses, oracle.eigh_step)
    assert oracle.check_amplitudes(by_eigh, by_expm, 1e-10)[0]


def test_traced_run_gives_identical_output_and_restores_the_program():
    runs = [
        ["sweep", "--param", "J", "--values", "0.8,1.945,6", "--L", "5", *workloads.MODEL,
         "--propagator", "both", "--order", "block+pt1"],
        ["slope", "--J", "1.945", *workloads.MODEL, "--from", "3", "--to", "5"],
    ]
    plain = [_cli(argv) for argv in runs]
    originals = (fidelity.run_protocol, pert.partition_blocks, exact.scipy,
                 exact.PulsePropagator.__dict__["build"], cli.cmd_sweep)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_cli(argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (fidelity.run_protocol, pert.partition_blocks, exact.scipy,
            exact.PulsePropagator.__dict__["build"], cli.cmd_sweep) == originals
    m = tracer.metrics([1.0], [1.0])
    assert m["exact.eigh_calls"] > 0 and m["pert.splu_calls"] > 0
    assert m["pert.partitions_per_pulse"] == pytest.approx((2 * 24 + 18) / (24 + 18))
    assert m["pert.lu_fill_ratio"] > 0


def test_sweep_checks_pass_on_program_output_and_reject_corruptions():
    inp = _sweep_inputs([0.9, 1.945, 6.0])
    text = _cli(inp["argvs"][0])
    sweep = workloads.SweepJL6()
    assert sweep.check(inp, [text]).ok

    shifted_pert = sweep.check(inp, [_with_column(text, 0, 3, lambda f: f + 1e-4)])
    assert shifted_pert.failed == {0} and shifted_pert.checks["pt_adequacy"][1] == 1

    # Within the adequacy tolerance, but not what the dynamics give.
    shifted_exact = sweep.check(inp, [_with_column(text, 1, 2, lambda f: f - 1e-6)])
    assert shifted_exact.failed == {1} and shifted_exact.checks["oracle_f_exact"][1] == 1

    bad_status = sweep.check(inp, [text.replace(",ok,", ",NumericalError,", 1)])
    assert bad_status.failed == {0}


def test_rotated_phase_fails_the_amplitude_check():
    psi_p, psi_o = _walk_state(4, 1.945)
    k = int(np.argmax(np.abs(psi_p)))
    rotated = psi_p.copy()
    rotated[k] *= cmath.exp(1e-6j)
    assert oracle.check_amplitudes(psi_p, psi_o)[0]
    assert not oracle.check_amplitudes(rotated, psi_o)[0]


def test_pert_oracle_check_rejects_a_shifted_fidelity():
    prot = build_entanglement_protocol(ChainParams(L=4, a=100.0, J=1.945), 0.118)
    f = fidelity.protocol_fidelity(prot.params, 0.118, "pert", "block+pt1").f_pert
    for shift, ok in ((0.0, True), (1e-5, False)):
        v = workloads.Verdicts(1)
        workloads._oracle_checks(v, 0, 4, 1.945, f + shift, "oracle_f_pert",
                                 workloads.PT1_ORACLE_TOL, exact_amplitudes=False)
        assert v.ok is ok


def test_support_bound_rejects_fidelity_above_the_ideal_support():
    psi = np.zeros(16, dtype=complex)
    psi[0] = psi[9] = 0.5
    psi[3] = math.sqrt(0.5)
    assert oracle.check_support_bound(0.5, psi, 9)[0]
    assert not oracle.check_support_bound(0.5 + 1e-9, psi, 9)[0]
    assert not oracle.check_unit_interval(1.0 + 1e-12)[0]


def _slope_report(J, slope):
    eps = oracle.pulse_error(0.118, J)
    ls = workloads.SLOPE_LENGTHS
    fs = [1.0 + 1.5 * eps - eps * L for L in ls]
    own = oracle.least_squares_slope(ls, fs)
    return "\n".join([
        "L " + " ".join(map(str, ls)),
        "F " + " ".join(repr(f) for f in fs),
        f"fitted_slope = {own * slope / -eps!r}",
    ]) + "\n"


def test_slope_check_rejects_a_flipped_sign():
    J = 1.2
    inp = {"J": J, "ops": len(workloads.SLOPE_LENGTHS)}
    slope_wl = workloads.SlopeL4to9()
    assert slope_wl.check(inp, [_slope_report(J, -oracle.pulse_error(0.118, J))]).ok
    flipped = slope_wl.check(inp, [_slope_report(J, oracle.pulse_error(0.118, J))])
    assert flipped.failed == set(range(inp["ops"])) and flipped.checks["linear_law"][1] == 1


def test_block_check_rejects_a_flipped_decrement():
    J = 1.0
    eps = oracle.pulse_error(0.118, J)
    block = workloads.BlockL13to15()
    inp = {"J": J, "ops": 3}

    def csv(sign):
        rows = [f"L,{L},,{1 - 0.1 + sign * eps * (L - 13)!r},,ok,"
                for L in workloads.BLOCK_LENGTHS]
        return "\n".join([cli.CSV_HEADER, *rows]) + "\n"

    assert block.check(inp, [csv(-1)]).ok
    assert block.check(inp, [csv(+1)]).failed == {0, 1, 2}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_draw_their_inputs_from_the_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(7, 2) == wl.inputs(7, 2)
    assert wl.inputs(7, 2)["argvs"] != wl.inputs(7, 3)["argvs"]
    assert wl.inputs(7, 2)["argvs"] != wl.inputs(8, 2)["argvs"]
