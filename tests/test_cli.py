import concurrent.futures
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import isingpulse
from isingpulse import ChainParams, validate_selective
from isingpulse.cli import (
    CSV_HEADER,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)

GOLDEN = Path(__file__).parent / "data" / "cli"


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path) as fh:
        return fh.read()


def test_run_reference_point(tmp_path, capsys):
    out = tmp_path / "run.txt"
    code = run_cli(
        "run", "--L", "6", "--J", "1", "--a", "100", "--omega", "0.118",
        "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "pulses = 10" in text
    f = float(next(l for l in text.splitlines() if l.startswith("f_exact")).split("=")[1])
    assert 0.0 < f < 1.0
    assert "f_pert" not in text


def test_run_both_propagators(tmp_path):
    out = tmp_path / "run.txt"
    code = run_cli(
        "run", "--L", "4", "--J", "1", "--a", "100", "--omega", "0.118",
        "--propagator", "both", "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "f_exact =" in text
    assert "f_pert =" in text


def test_run_too_short_chain_is_usage_error(capsys):
    assert run_cli("run", "--L", "2") == EXIT_USAGE


def test_run_dressed_perturbative_order(tmp_path):
    out = tmp_path / "r.txt"
    code = run_cli(
        "run", "--L", "4", "--J", "1", "--a", "100", "--omega", "0.118",
        "--propagator", "pert", "--order", "block+pt1", "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "f_pert =" in text
    assert "f_exact" not in text


def test_run_strict_validation_gate(tmp_path):
    # Omega equal to a is far outside the selective regime.
    code = run_cli(
        "run", "--L", "6", "--J", "1", "--a", "100", "--omega", "100",
        "--strict", "--out", str(tmp_path / "x.txt"),
    )
    assert code == EXIT_VALIDATION


def test_run_state_dump(tmp_path):
    dump = tmp_path / "state.txt"
    code = run_cli(
        "run", "--L", "3", "--J", "1", "--a", "100", "--omega", "0.2",
        "--dump-state", str(dump), "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_OK
    lines = read(dump).strip().splitlines()
    assert len(lines) == 1 + 8
    probs = [float(l.split()[4]) for l in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("propagator", ["exact", "both", "pert"])
def test_run_state_dump_is_the_reported_route(tmp_path, propagator):
    # The dump is the final state the run computed: the exact route's under
    # exact and both, the block route's under pert.
    from isingpulse import (
        ChainParams, build_entanglement_protocol, ground_state, run_protocol,
        run_protocol_pert,
    )
    from isingpulse.basis import format_state_table

    dump = tmp_path / "state.txt"
    code = run_cli(
        "run", "--L", "5", "--J", "1.945", "--a", "100", "--omega", "0.118",
        "--propagator", propagator, "--dump-state", str(dump),
        "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_OK
    prot = build_entanglement_protocol(
        ChainParams(L=5, omega0=0.0, a=100.0, J=1.945), 0.118
    )
    route = run_protocol_pert if propagator == "pert" else run_protocol
    assert read(dump) == format_state_table(route(ground_state(5), prot))


def test_run_pert_state_dump_beyond_the_dense_cap(tmp_path):
    dump = tmp_path / "state.txt"
    code = run_cli(
        "run", "--L", "15", "--J", "1.945", "--a", "100", "--omega", "0.118",
        "--propagator", "pert", "--dump-state", str(dump),
        "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_OK
    lines = read(dump).splitlines()
    assert len(lines) == 1 + (1 << 15)
    probs = [float(l.split()[4]) for l in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_run_exact_at_L14_is_past_the_dense_cap(tmp_path, capsys):
    # One L = 14 eigh would need about 9 GB, so the exact route refuses the
    # chain before building anything; the pert route still runs it.
    args = ("run", "--L", "14", "--J", "1.945", "--a", "100", "--omega", "0.118")
    assert run_cli(*args, "--propagator", "exact") == EXIT_NUMERICAL
    assert "exceeds the dense-propagator cap 13" in capsys.readouterr().err
    out = str(tmp_path / "r.txt")
    assert run_cli(*args, "--propagator", "pert", "--out", out) == EXIT_OK


def test_sweep_csv_schema_and_determinism(tmp_path):
    args = (
        "sweep", "--param", "J", "--from", "0.5", "--to", "2.0", "--steps", "4",
        "--L", "4", "--a", "100", "--omega", "0.118", "--propagator", "both",
    )
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run_cli(*args, "--out", str(out1)) == EXIT_OK
    assert run_cli(*args, "--out", str(out2)) == EXIT_OK
    b1, b2 = read(out1), read(out2)
    assert b1 == b2  # byte-stable
    lines = b1.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    row = lines[1].split(",")
    assert row[0] == "J"
    assert float(row[1]) == 0.5
    f_exact, f_pert = float(row[2]), float(row[3])
    assert 0 < f_exact <= 1 and 0 < f_pert <= 1
    assert float(row[4]) == pytest.approx(1.0 - f_exact, abs=1e-15)
    assert row[5] == "ok"
    # block-level agreement between the two columns at a clean point
    assert abs(f_exact - f_pert) < 10 * 4 * (0.118**2 / 4e4) + 0.05 * (1 - f_exact)


def test_sweep_single_point_matches_run(tmp_path):
    s = tmp_path / "s.csv"
    r = tmp_path / "r.txt"
    assert run_cli(
        "sweep", "--param", "J", "--values", "1.0", "--L", "4", "--a", "100",
        "--omega", "0.118", "--out", str(s),
    ) == EXIT_OK
    assert run_cli(
        "run", "--L", "4", "--J", "1.0", "--a", "100", "--omega", "0.118",
        "--out", str(r),
    ) == EXIT_OK
    f_sweep = float(read(s).strip().splitlines()[1].split(",")[2])
    f_run = float(
        next(l for l in read(r).splitlines() if l.startswith("f_exact")).split("=")[1]
    )
    assert f_sweep == f_run


def test_sweep_records_per_point_failures(tmp_path):
    # L beyond the dense cap: those rows carry the error, the sweep finishes.
    out = tmp_path / "s.csv"
    assert run_cli(
        "sweep", "--param", "L", "--values", "4,15", "--J", "1", "--a", "100",
        "--omega", "0.118", "--out", str(out),
    ) == EXIT_OK
    lines = read(out).strip().splitlines()
    assert lines[1].split(",")[5] == "ok"
    assert lines[2].split(",")[5] == "CapacityError"
    assert lines[2].split(",")[2] == ""


def test_sweep_flags_fake_window_and_cycle_points(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(
        "sweep", "--param", "J", "--values", "24.9,37.5", "--L", "4", "--a",
        "100", "--omega", "0.118", "--out", str(out),
    ) == EXIT_OK
    lines = read(out).strip().splitlines()
    assert "fake-window" in lines[1].split(",")[6]
    assert lines[2].split(",")[6] == ""
    # The flag is the validator's verdict, over a grid that straddles the
    # a/4, a/3, a/2 and 2a/3 families at both chain lengths; offsets just
    # inside and just outside the 2% window pin its edges.
    grid = sorted((100.0 * r * (1.0 + d), abs(d) < 0.02)
                  for r in (1 / 4, 1 / 3, 1 / 2, 2 / 3)
                  for d in (-0.03, -0.021, -0.019, 0.0, 0.019, 0.021, 0.03))
    for L in (5, 6):
        out_l = tmp_path / f"grid{L}.csv"
        assert run_cli(
            "sweep", "--param", "J", "--values", ",".join(repr(j) for j, _ in grid),
            "--L", str(L), "--a", "100", "--omega", "0.118",
            "--propagator", "pert", "--out", str(out_l),
        ) == EXIT_OK
        rows = [line.split(",") for line in read(out_l).splitlines()[1:]]
        flagged = ["fake-window" in row[6].split(";") for row in rows]
        assert flagged == [inside for _, inside in grid]
        assert flagged == [
            bool(validate_selective(
                ChainParams(L=L, a=100.0, J=float(row[1])), 0.118
            ).fake_hits)
            for row in rows
        ]
    out2 = tmp_path / "s2.csv"
    om2 = 2 * 1.0 / math.sqrt(15.0)  # full-cycle drive for J=1, k=2
    assert run_cli(
        "sweep", "--param", "omega", "--values", f"{om2:.6f}", "--L", "4",
        "--J", "1", "--a", "100", "--out", str(out2),
    ) == EXIT_OK
    assert "two-pi-k" in read(out2).strip().splitlines()[1].split(",")[6]


def test_sweep_requires_increasing_values():
    assert run_cli(
        "sweep", "--param", "J", "--values", "2.0,1.0", "--L", "4"
    ) == EXIT_USAGE
    assert run_cli("sweep", "--param", "J", "--L", "4") == EXIT_USAGE


def test_sweep_parallel_matches_serial(tmp_path):
    args = (
        "sweep", "--param", "J", "--from", "0.5", "--to", "1.5", "--steps", "3",
        "--L", "4", "--a", "100", "--omega", "0.118",
    )
    s1, s2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert run_cli(*args, "--workers", "1", "--out", str(s1)) == EXIT_OK
    assert run_cli(*args, "--workers", "2", "--out", str(s2)) == EXIT_OK
    assert read(s1) == read(s2)


class _CountingPool:
    """Stand-in for ProcessPoolExecutor that records its size and maps in
    this process, so no worker ever starts."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    map = staticmethod(map)


@pytest.mark.parametrize("values, workers, cpus, size", [
    ("1,2", 8, 4, 2),
    ("1,2,3", 8, 2, 2),
    ("1,2,3", 2, 4, 2),
    ("1,2,3", 8, 1, None),
    ("1", 8, 4, None),
], ids=["points", "cpus", "requested", "one-cpu-serial", "one-point-serial"])
def test_sweep_workers_are_bounded_by_points_and_cpus(
        tmp_path, monkeypatch, values, workers, cpus, size):
    monkeypatch.setattr(_CountingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    args = ("sweep", "--param", "J", "--values", values, "--L", "4")
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert run_cli(*args, "--out", str(serial)) == EXIT_OK
    assert run_cli(*args, "--workers", str(workers), "--out", str(pooled)) == EXIT_OK
    assert _CountingPool.sizes == ([] if size is None else [size])
    assert read(pooled) == read(serial)


def test_slope_command(tmp_path):
    out = tmp_path / "slope.txt"
    code = run_cli(
        "slope", "--J", "5.01", "--a", "100", "--omega", "0.118",
        "--from", "4", "--to", "7", "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    slope = float(next(l for l in text.splitlines()
                       if l.startswith("fitted_slope")).split("=")[1])
    m_th = float(next(l for l in text.splitlines()
                      if l.startswith("m_th")).split("=")[1])
    assert m_th == pytest.approx(-(0.118**2) / (4 * 5.01**2))
    assert slope < 0
    assert run_cli("slope", "--from", "4", "--to", "5") == EXIT_USAGE


def test_slope_at_zero_coupling(tmp_path):
    # The predicted slope -Omega^2/(4 J^2) diverges at J = 0; the command
    # reports it as -inf instead of failing.
    out = tmp_path / "slope.txt"
    code = run_cli(
        "slope", "--J", "0", "--a", "100", "--omega", "0.118",
        "--from", "3", "--to", "5", "--out", str(out),
    )
    assert code == EXIT_OK
    lines = read(out).splitlines()
    assert "m_th = -inf" in lines
    assert any(l.startswith("fitted_slope = ") for l in lines)


def test_chaos_command(tmp_path):
    out = tmp_path / "chaos.txt"
    code = run_cli(
        "chaos", "--L", "6", "--J", "1", "--a", "100", "--omega", "0.118",
        "--out", str(out),
    )
    assert code == EXIT_OK
    text = read(out)
    assert "m_f = 6" in text
    cr = float(next(l for l in text.splitlines()
                    if l.startswith("omega_cr_approx")).split("=")[1])
    assert cr == pytest.approx(100.0 + 1.0 / 6.0)
    assert "no chaos" in text


def test_validate_command(tmp_path):
    assert run_cli(
        "validate", "--L", "6", "--J", "1", "--a", "100", "--omega", "0.118",
        "--out", str(tmp_path / "v.txt"),
    ) == EXIT_OK
    assert "verdict: ok" in read(tmp_path / "v.txt")
    assert run_cli(
        "validate", "--L", "6", "--J", "1", "--a", "100", "--omega", "100",
        "--strict", "--out", str(tmp_path / "v2.txt"),
    ) == EXIT_VALIDATION


def test_protocol_dump_command(tmp_path):
    out = tmp_path / "prot.txt"
    assert run_cli(
        "protocol-dump", "--L", "5", "--J", "1", "--a", "100",
        "--omega", "0.118", "--out", str(out),
    ) == EXIT_OK
    lines = read(out).strip().splitlines()
    assert len(lines) == 1 + 8  # header + 2L-2 pulses


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("L = 4\nJ = 2.0\na = 100\nomega = 0.118  # drive\n")
    out1 = tmp_path / "o1.txt"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == EXIT_OK
    assert "L = 4" in read(out1)
    assert "J = 2" in read(out1)
    out2 = tmp_path / "o2.txt"
    assert run_cli(
        "run", "--config", str(cfg), "--J", "3.0", "--out", str(out2)
    ) == EXIT_OK
    assert "J = 3" in read(out2)  # flag beats config


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("nonsense = 1\n")
    assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
    cfg2 = tmp_path / "cfg2.txt"
    cfg2.write_text("J\n")
    assert run_cli("run", "--config", str(cfg2)) == EXIT_USAGE


def test_unknown_arguments_are_usage_errors():
    assert run_cli("run", "--nonsense", "1") == EXIT_USAGE
    assert run_cli("sweep", "--param", "phi") == EXIT_USAGE


@pytest.mark.parametrize(
    "config, argv, code, check",
    [
        # A flag given with its default value still beats the config file;
        # check reads the output file.
        pytest.param("L = 8\n", ["protocol-dump", "--L", "6"], EXIT_OK,
                     lambda out: len(out.splitlines()) == 1 + 10,
                     id="flag-at-default-beats-config"),
        pytest.param("propagator = both\n",
                     ["run", "--L", "4", "--propagator", "exact"], EXIT_OK,
                     lambda out: "f_exact" in out and "f_pert" not in out,
                     id="choice-at-default-beats-config"),
        pytest.param("omega = 0.2\n", ["chaos", "--omega", "0.118"], EXIT_OK,
                     lambda out: f"omega = {0.118:.17g}\n" in out,
                     id="float-at-default-beats-config"),
        # Config values pass the flags' choices and type checks, and the
        # message names the file; check reads stderr.
        pytest.param("propagator = bogus\n", ["run", "--L", "4"], EXIT_USAGE,
                     lambda err: "cfg.txt: argument --propagator: invalid choice" in err,
                     id="config-choice-checked"),
        # Chain lengths are integers: no silent truncation, flag or config.
        pytest.param("", ["slope", "--from", "4.7", "--to", "6"], EXIT_USAGE,
                     lambda err: "error: argument --from: invalid int value" in err,
                     id="slope-flag-lengths-are-integers"),
        pytest.param("from = 4.7\n", ["slope", "--to", "6"], EXIT_USAGE,
                     lambda err: "cfg.txt: argument --from: invalid int value" in err,
                     id="slope-config-lengths-are-integers"),
    ],
)
def test_command_line_wins_and_config_is_checked(
    tmp_path, capsys, config, argv, code, check
):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == code
    assert check(read(out) if code == EXIT_OK else capsys.readouterr().err)


def test_large_chains_fail_per_point_not_at_compile(tmp_path):
    # Compiling the walk needs no 2^L array: L = 21 reaches the state-vector
    # cap and records it in its row, and L = 200 still compiles and dumps.
    out = tmp_path / "s.csv"
    assert run_cli(
        "sweep", "--param", "L", "--values", "4,21", "--J", "1", "--a", "100",
        "--omega", "0.118", "--propagator", "pert", "--out", str(out),
    ) == EXIT_OK
    rows = [line.split(",") for line in read(out).strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["ok", "CapacityError"]
    dump = tmp_path / "prot.txt"
    assert run_cli(
        "protocol-dump", "--L", "200", "--J", "1", "--a", "100",
        "--omega", "0.118", "--out", str(dump),
    ) == EXIT_OK
    assert len(read(dump).strip().splitlines()) == 1 + 2 * 200 - 2


@pytest.mark.parametrize("argv, code, err, row", [
    (("validate",), EXIT_OK, "", None),
    (("run", "--strict", "--propagator", "pert"), EXIT_VALIDATION,
     "Omega*sqrt(L/2)/J = 263.856 [fail]", None),
    (("run", "--propagator", "pert"), EXIT_NUMERICAL, "CapacityError", None),
    (("sweep", "--param", "L", "--values", "1e7", "--propagator", "pert"), EXIT_OK,
     "", "L,10000000,,,,CapacityError,"),
], ids=["validate", "run-strict", "run", "sweep"])
def test_huge_chains_are_judged_in_constant_time(tmp_path, capsys, argv, code, err, row):
    # Validation costs the same at any L, so --strict fails on the regime
    # before the state-vector cap is met.
    out = tmp_path / "out.txt"
    t0 = time.perf_counter()
    assert run_cli(*argv, "--L", "10000000", "--J", "1", "--a", "100",
                   "--omega", "0.118", "--out", str(out)) == code
    assert time.perf_counter() - t0 < 5
    assert err in capsys.readouterr().err
    if row is not None:
        assert read(out).splitlines()[1:] == [row]


# ---------------------------------------------------------------- golden

# Reference outputs of the invocations below, kept so that a refactor is
# held to the bytes of the code before it.  A change of output made on
# purpose regenerates them (``python -m isingpulse <argv> >
# tests/data/cli/<file>``) and says so in CHANGES.md.
REF = ("--L", "6", "--J", "1", "--a", "100", "--omega", "0.118")
GOLDEN_SWEEP = ("sweep", "--param", "J", "--values", "0.8,1.945,24.9,33.4,50.1",
                "--L", "5", "--propagator", "both", "--order", "block+pt1")


@pytest.mark.parametrize("command, name", [
    ("protocol-dump", "protocol_dump.txt"),
    ("validate", "validate.txt"),
    ("chaos", "chaos.txt"),
])
def test_reference_outputs_match_golden_bytes(tmp_path, command, name):
    # No BLAS or vectorised libm on these paths: the bytes are portable.
    out = tmp_path / name
    assert run_cli(command, *REF, "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _assert_matches_golden_sweep(text, name="sweep_J_L5.csv"):
    # Text columns exactly, fidelities to 1e-12 (they pass through BLAS).
    got = text.splitlines()
    want = read(GOLDEN / name).splitlines()
    assert got[0] == want[0] == CSV_HEADER
    assert len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        g, w = g.split(","), w.split(",")
        assert [g[i] for i in (0, 1, 5, 6)] == [w[i] for i in (0, 1, 5, 6)]
        for i in (2, 3, 4):
            assert (g[i] == w[i] == "") or float(g[i]) == pytest.approx(
                float(w[i]), rel=0, abs=1e-12)


def test_sweep_csv_matches_golden(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(*GOLDEN_SWEEP, "--out", str(out)) == EXIT_OK
    _assert_matches_golden_sweep(read(out))


def test_block_sweep_past_dense_cap_matches_golden(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--param", "L", "--values", "11,12,13", "--J", "1.945",
                   "--propagator", "pert", "--order", "block",
                   "--out", str(out)) == EXIT_OK
    _assert_matches_golden_sweep(read(out), "sweep_L11_13_block.csv")


# ---------------------------------------------------------------- fresh process

# This session has imported scipy long ago; a command's own start-up is seen
# only in a new interpreter.
_FRESH_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(isingpulse.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
_DEFERRED = ("scipy.linalg", "scipy.sparse", "concurrent.futures.process", "fractions")


def _python(*args):
    proc = subprocess.run([sys.executable, *args], env=_FRESH_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fresh_process_sweep_matches_golden():
    # Here eigh and splu run on scipy modules loaded at their first call.
    _assert_matches_golden_sweep(_python("-m", "isingpulse", *GOLDEN_SWEEP))


@pytest.mark.parametrize("argv", [
    None,
    ("validate", *REF),
    ("chaos", *REF),
    ("protocol-dump", *REF),
    ("run", *REF, "--propagator", "pert", "--order", "block"),
], ids=["import", "validate", "chaos", "protocol-dump", "run-block"])
def test_cold_start_loads_no_scipy_linalg_sparse_or_process_pool(argv):
    call = "" if argv is None else (
        f"assert cli.main({list(argv) + ['--out', os.devnull]!r}) == 0\n")
    loaded = _python("-c", (
        "import sys\n"
        "from isingpulse import cli\n"
        "cli.make_parser()\n"
        f"{call}"
        f"print(*[m for m in {_DEFERRED!r} if m in sys.modules])\n"
    ))
    assert loaded.split() == []


# ---------------------------------------------------------------- bad input


@pytest.mark.parametrize("argv", [
    ("run", "--omega", "0"),
    ("slope", "--a", "-1", "--from", "3", "--to", "5"),
    ("protocol-dump", "--omega", "-1"),
    ("sweep", "--steps=-1", "--from", "1", "--to", "1"),
    ("run", "--config", "{missing}/cfg.txt"),
    ("chaos", "--out", "{missing}/x"),
    ("sweep", "--values", "1,2", "--workers", "0"),
    ("sweep", "--L", "4", "--param", "J", "--values", "2,nan,1"),
    ("sweep", "--param", "J", "--values", ",", "--L", "4"),
    ("sweep", "--param", "J", "--from", "2", "--to", "2", "--steps", "0", "--L", "4"),
    ("validate", "--omega", "-1"),
    ("validate", "--omega", "0", "--strict"),
], ids=["run-omega-0", "slope-a-negative", "dump-omega-negative",
        "sweep-steps-negative", "missing-config", "missing-out-dir",
        "sweep-workers-0", "sweep-values-nan", "sweep-values-empty",
        "sweep-steps-0", "validate-omega-negative", "validate-omega-0-strict"])
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_records_invalid_model_values_per_point(tmp_path):
    out, r = tmp_path / "s.csv", tmp_path / "r.txt"
    assert run_cli(
        "sweep", "--param", "a", "--values=-1,0,50", "--L", "4", "--J", "1",
        "--out", str(out),
    ) == EXIT_OK
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert [row[5] for row in rows] == ["ValueError", "ValueError", "ok"]
    assert run_cli("run", "--L", "4", "--J", "1", "--a", "50", "--out", str(r)) == EXIT_OK
    f_run = next(l for l in read(r).splitlines() if l.startswith("f_exact"))
    assert rows[2][2] == f_run.split(" = ")[1]


@pytest.mark.parametrize("flags, field", [
    (("--J", "nan"), "J"),
    (("--J", "1", "--a", "inf"), "a"),
    (("--J", "1", "--omega0", "nan"), "omega0"),
], ids=["J-nan", "a-inf", "omega0-nan"])
def test_non_finite_model_values_are_usage_errors(capsys, flags, field):
    assert run_cli("run", "--L", "4", *flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: {field} must be finite, got {flags[-1]}\n"


@pytest.mark.parametrize("spec, want", [
    (("--values", "4,inf"), [("4", "ok"), ("inf", "ValueError")]),
    (("--from", "4", "--to", "6", "--steps", "4"),
     [("4", "ok"), ("4.666666666666667", "ValueError"),
      ("5.333333333333333", "ValueError"), ("6", "ok")]),
], ids=["infinite", "fractional"])
def test_sweep_records_non_integer_chain_lengths_per_point(tmp_path, spec, want):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--param", "L", *spec, "--J", "1", "--a", "100",
                   "--omega", "0.118", "--out", str(out)) == EXIT_OK
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert [(r[1], r[5]) for r in rows] == want
    assert all(r[2] == "" for r in rows if r[5] != "ok")


def test_sweep_records_non_finite_values_per_point(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--param", "J", "--values", "nan", "--L", "4",
                   "--out", str(out)) == EXIT_OK
    assert read(out).splitlines()[1:] == ["J,nan,,,,ValueError,"]
