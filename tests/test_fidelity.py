import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from isingpulse import (
    CapacityError,
    ChainParams,
    FrameError,
    NumericalError,
    ProtocolError,
    StateVector,
    build_entanglement_protocol,
    build_ideal_state,
    dynamical_fidelity,
    epsilon_param,
    ground_state,
    protocol_fidelity,
    run_protocol,
    spectator_detunings,
    two_pi_k_omega,
)
from isingpulse import fidelity
from isingpulse.basis import Support, SupportState
from isingpulse.exact import propagate_protocol, rotating_step
from isingpulse.hamiltonian import rotating_energy_table
from isingpulse.pert import _block_u, partition_blocks
from isingpulse.protocol import Protocol

from chain_helpers import eta_param, pair_delta, protocol_target_index, reference_ideal_step

P6 = ChainParams(L=6, omega0=0.0, a=100.0, J=1.0)


# ------------------------------------------------------ overlap fidelity


def test_fidelity_identical_states():
    psi = ground_state(3)
    assert dynamical_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_orthogonal_states():
    a = ground_state(2)
    amps = np.zeros(4, dtype=complex)
    amps[3] = 1.0
    b = StateVector(amps)
    assert dynamical_fidelity(a, b) == 0.0


def test_fidelity_global_phase_invariant():
    rng = np.random.default_rng(2)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    a = StateVector(amps)
    b = StateVector(amps * np.exp(1j * 0.83))
    assert dynamical_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_contract_checks():
    a = ground_state(2)
    with pytest.raises(FrameError, match="qubit counts differ"):
        dynamical_fidelity(a, ground_state(3))
    with pytest.raises(FrameError, match="times differ"):
        dynamical_fidelity(a, StateVector(a.amplitudes, time=5.0))
    with pytest.raises(FrameError, match="times differ"):
        dynamical_fidelity(StateVector(ground_state(3).amplitudes, time=math.nan),
                           ground_state(3))


# ------------------------------------------------------ ideal state


def test_ideal_state_structure():
    prot = build_entanglement_protocol(P6, 0.118)
    ideal = build_ideal_state(prot)
    target = protocol_target_index(prot)
    probs = np.abs(ideal.amplitudes) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[target] == pytest.approx(0.5, abs=1e-12)
    others = np.delete(probs, [0, target])
    assert np.max(others) < 1e-24
    assert ideal.time == pytest.approx(prot.total_time)
    assert dynamical_fidelity(ideal, ideal) == pytest.approx(1.0, abs=1e-12)


def _reference_ideal_state(prot):
    """The ideal state as first written: all four block coefficients of
    every block, then the unit phase of u11 and u22 through np.angle."""
    p = prot.params

    @rotating_step
    def step(amps, pulse):
        src, k = pulse.target
        tgt = src.index ^ (1 << k)
        mm, pp = min(src.index, tgt), max(src.index, tgt)
        part = partition_blocks(pulse, p)
        e_rot = rotating_energy_table(p, pulse.nu)
        out = amps.copy()
        tau = pulse.duration
        u11, _, _, u22 = _block_u(
            pulse.Omega, pair_delta(part), tau, e_rot[part.m_idx], e_rot[part.p_idx]
        )
        out[part.m_idx] = amps[part.m_idx] * np.exp(1j * np.angle(u11))
        out[part.p_idx] = amps[part.p_idx] * np.exp(1j * np.angle(u22))
        s = part.singletons
        out[s] = amps[s] * np.exp(-1j * e_rot[s] * tau)
        d = e_rot[pp] - e_rot[mm]
        v11, v12, v21, v22 = _block_u(pulse.Omega, d, tau, e_rot[mm], e_rot[pp])
        am, ap = amps[mm], amps[pp]
        out[mm] = v11 * am + v12 * ap
        out[pp] = v21 * am + v22 * ap
        return out

    return propagate_protocol(ground_state(p.L), prot, step)


@pytest.mark.parametrize("L", range(6, 13))
def test_ideal_state_matches_block_u_reference(L):
    # The ideal step takes each block's diagonal phases as u / |u|; the
    # state must be the np.angle construction's.
    for mirror in (False, True):
        for J in (0.8, 1.945, 25.0):
            p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
            prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
            new = build_ideal_state(prot).amplitudes
            ref = _reference_ideal_state(prot).amplitudes
            assert np.max(np.abs(new - ref)) < 1e-13, f"L={L} J={J} mirror={mirror}"


def _all_blocks_ideal_state(prot):
    """The ideal step with the phases of every pair and singleton
    evaluated, zero amplitudes included."""
    p = prot.params

    @rotating_step
    def step(amps, pulse):
        src, k = pulse.target
        tgt = src.index ^ (1 << k)
        mm, pp = min(src.index, tgt), max(src.index, tgt)
        part = partition_blocks(pulse, p)
        e_rot = rotating_energy_table(p, pulse.nu)
        out = amps.copy()
        tau = pulse.duration
        u11, _, _, u22 = _block_u(
            pulse.Omega, pair_delta(part), tau, e_rot[part.m_idx], e_rot[part.p_idx]
        )
        out[part.m_idx] = amps[part.m_idx] * (u11 / np.abs(u11))
        out[part.p_idx] = amps[part.p_idx] * (u22 / np.abs(u22))
        s = part.singletons
        out[s] = amps[s] * np.exp(-1j * e_rot[s] * tau)
        d = e_rot[pp] - e_rot[mm]
        v11, v12, v21, v22 = _block_u(pulse.Omega, d, tau, e_rot[mm], e_rot[pp])
        am, ap = amps[mm], amps[pp]
        out[mm] = v11 * am + v12 * ap
        out[pp] = v21 * am + v22 * ap
        return out

    return propagate_protocol(ground_state(p.L), prot, step)


@pytest.mark.parametrize("L", [13, 15])
def test_ideal_state_holds_one_amplitude_per_pulse_and_matches_all_blocks(L):
    # |0...0> plus at most one amplitude per pulse, so the phases of the
    # zero entries need not be evaluated.
    for mirror in (False, True):
        p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=1.945)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        new = build_ideal_state(prot).amplitudes
        assert np.count_nonzero(new) <= len(prot.pulses) + 1
        ref = _all_blocks_ideal_state(prot).amplitudes
        assert np.max(np.abs(new - ref)) < 1e-15, f"L={L} mirror={mirror}"


@pytest.mark.parametrize("L, J", [(19, 1.945), (20, 1.945), (19, 33.4)])
def test_ideal_state_on_its_support_equals_whole_partition_reference(L, J):
    # Past the sizes of the live-partition oracle in test_pert: the support
    # step against the dense step on the whole partition's live blocks,
    # with every energy read from the whole table.  At J = 33.4 (8J > a)
    # two qubits are in reach and the step takes the whole-table fallback.
    for mirror in (False, True):
        p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        got = build_ideal_state(prot).amplitudes
        want = propagate_protocol(ground_state(L), prot, partial(reference_ideal_step, p))
        assert np.array_equal(got, want.amplitudes), f"L={L} J={J} mirror={mirror}"


def test_ideal_support_step_builds_no_basis_sized_array():
    # Warm, the walk on its support at L = 20 allocates less than one
    # 2^20 bool mask, let alone the 16 MB of one 2^20 complex array.
    p = ChainParams(L=20, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    ground = SupportState(Support(np.array([0]), np.array([1.0])), p.L)
    step = partial(fidelity._ideal_step, p)
    propagate_protocol(ground, prot, step)
    tracemalloc.start()
    try:
        psi = propagate_protocol(ground, prot, step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert len(psi.amplitudes.indices) == len(prot.pulses) + 1


def test_block_fidelity_at_L20_keeps_its_bits():
    rep = protocol_fidelity(ChainParams(L=20, a=100.0, J=1.945), 0.118, "pert", "block")
    assert rep.f_pert.hex() == "0x1.f7a275e501a7ap-1"


def test_ideal_state_rejects_custom_protocols():
    prot = build_entanglement_protocol(P6, 0.118)
    custom = Protocol(pulses=prot.pulses, params=P6, kind="custom")
    with pytest.raises(ProtocolError):
        build_ideal_state(custom)


def test_exact_run_close_to_ideal_at_reference_point():
    rep = protocol_fidelity(P6, 0.118, propagator="both")
    assert 5e-3 < 1.0 - rep.f_exact < 3e-2
    assert abs(rep.f_exact - rep.f_pert) < 1e-3
    # stronger coupling: infidelity drops to the 1e-3 decade
    rep2 = protocol_fidelity(ChainParams(L=6, a=100.0, J=1.945), 0.118)
    assert 1e-3 < 1.0 - rep2.f_exact < 1e-2


def test_exact_run_at_full_cycle_drive_point():
    # At the drive strength that cancels near-resonant leakage the residual
    # infidelity drops to the non-resonant scale.
    p = ChainParams(L=8, omega0=0.0, a=100.0, J=1.945)
    rep = protocol_fidelity(p, 0.1216)
    assert 1e-5 < 1.0 - rep.f_exact < 2e-4


# ------------------------------------------------------ invariances


def test_fidelity_invariant_under_common_frequency_shift():
    r0 = protocol_fidelity(ChainParams(L=6, omega0=0.0, a=100.0, J=1.0), 0.118)
    r7 = protocol_fidelity(ChainParams(L=6, omega0=7.31, a=100.0, J=1.0), 0.118)
    assert abs(r0.f_exact - r7.f_exact) < 1e-10


def test_fidelity_invariant_under_basis_relabeling():
    # Permuting both states by the qubit-reversal map leaves F untouched.
    prot = build_entanglement_protocol(P6, 0.118)
    ideal = build_ideal_state(prot)
    real = run_protocol(ground_state(6), prot)
    perm = np.array(
        [int(format(i, "06b")[::-1], 2) for i in range(1 << 6)]
    )
    f = dynamical_fidelity(ideal, real)
    ideal_p = StateVector(ideal.amplitudes[perm], time=ideal.time)
    real_p = StateVector(real.amplitudes[perm], time=real.time)
    assert dynamical_fidelity(ideal_p, real_p) == pytest.approx(f, abs=1e-14)


def test_mirror_walk_gives_same_fidelity_scale():
    # Orientation of the walk is a convention: running it from the other end
    # reproduces the infidelity to within a few percent (the residual is the
    # non-resonant level-shift asymmetry of the finite chain).  All end-qubit
    # transition energies must stay positive, hence omega0 > J.
    p = ChainParams(L=6, omega0=50.0, a=100.0, J=1.945)
    up = protocol_fidelity(p, 0.118)
    down = protocol_fidelity(p, 0.118, mirror=True)
    lo = 1.0 - up.f_exact
    assert abs((1.0 - down.f_exact) - lo) <= 0.10 * lo


# ------------------------------------------------------ error envelope


def test_infidelity_within_factor_ten_of_per_pulse_errors():
    Om = 0.118
    prot = build_entanglement_protocol(P6, Om)
    eps_sum = sum(
        epsilon_param(Om, d, math.pi / Om) for d in spectator_detunings(prot)
    )
    envelope = eps_sum + 10 * P6.L * eta_param(Om, P6.a)
    rep = protocol_fidelity(P6, Om)
    assert (1.0 - rep.f_exact) <= 10.0 * envelope
    assert (1.0 - rep.f_exact) >= envelope / 10.0


def test_fake_transition_collapses_fidelity():
    # On a dynamically active fake resonance the walk fails outright, while
    # the midpoint between fakes stays clean.
    bad = protocol_fidelity(ChainParams(L=6, omega0=0.0, a=100.0, J=50.075), 0.118)
    good = protocol_fidelity(ChainParams(L=6, omega0=0.0, a=100.0, J=37.5), 0.118)
    assert 1.0 - bad.f_exact > 0.9
    assert 1.0 - good.f_exact < 5e-3


def test_coupling_scan_dips_at_predicted_minimum():
    # A J-scan has a local infidelity minimum where Omega is the drive that
    # closes two full cycles of the 2J detuning, two_pi_k_omega(J, 2).
    Om = 0.118
    js = np.arange(0.20, 0.26, 0.001)
    vals = [
        1.0 - protocol_fidelity(ChainParams(L=6, a=100.0, J=float(j)), Om).f_exact
        for j in js
    ]
    i = int(np.argmin(vals))
    assert 0 < i < len(js) - 1  # interior minimum
    assert abs(two_pi_k_omega(js[i], 2) - Om) / Om < 0.02


def test_infidelity_improves_with_coupling():
    oneminus = [
        1.0 - protocol_fidelity(ChainParams(L=6, a=100.0, J=J), 0.118).f_exact
        for J in (0.5, 1.0, 5.01)
    ]
    assert oneminus[0] > oneminus[1] > oneminus[2]


def test_report_fields():
    rep = protocol_fidelity(P6, 0.118, propagator="both")
    assert rep.m_th == pytest.approx(-(0.118**2) / 4.0)
    assert len(rep.spectator) == 2 * 6 - 3
    assert rep.one_minus_f == pytest.approx(1.0 - rep.f_exact)
    assert 0.0 <= rep.f_exact <= 1.0
    assert 0.0 <= rep.f_pert <= 1.0
    assert rep.total_time == pytest.approx(
        math.pi / (2 * 0.118) + 9 * math.pi / 0.118
    )
    # M counts the pulses after the first, on either walk.
    for mirror in (False, True):
        p = ChainParams(L=6, omega0=100.0 if mirror else 0.0, a=100.0, J=1.945)
        rep = protocol_fidelity(p, 0.118, "pert", mirror=mirror)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        assert rep.M == len(prot.pulses) - 1 == 9
        assert rep.m_th == pytest.approx(-9.20e-4, abs=5e-7)


def _never_called(*args, **kwargs):
    raise AssertionError("reached past an up-front check")


@pytest.mark.parametrize("stage, L, propagator", [
    ("build_entanglement_protocol", 21, "pert"),
    ("build_ideal_state", 15, "exact"),
], ids=["state-cap-before-compile", "dense-cap-before-ideal-state"])
def test_capacity_errors_come_before_costly_work(monkeypatch, stage, L, propagator):
    monkeypatch.setattr(fidelity, stage, _never_called)
    with pytest.raises(CapacityError):
        protocol_fidelity(ChainParams(L=L, a=100.0, J=1.0), 0.118, propagator)


@pytest.mark.parametrize("propagator", ["exact", "pert", "both"])
def test_unknown_order_is_rejected_before_any_route_runs(monkeypatch, propagator):
    for stage in ("build_entanglement_protocol", "run_protocol", "run_protocol_pert",
                  "build_ideal_state"):
        monkeypatch.setattr(fidelity, stage, _never_called)
    with pytest.raises(ValueError, match="unknown order"):
        protocol_fidelity(P6, 0.118, propagator, order="bogus")


def test_unknown_propagator_is_rejected_before_any_route_runs(monkeypatch):
    for stage in ("build_entanglement_protocol", "run_protocol", "run_protocol_pert",
                  "build_ideal_state"):
        monkeypatch.setattr(fidelity, stage, _never_called)
    with pytest.raises(ValueError, match="unknown propagator 'bogus'"):
        protocol_fidelity(P6, 0.118, "bogus")


def test_pert_fidelity_outside_unit_interval_is_rejected(monkeypatch):
    # The same guard as on f_exact: a pert state whose norm grew reads a
    # fidelity above 1, and that is an error, not a printed number.
    run_pert = fidelity.run_protocol_pert

    def scaled(psi0, prot, order):
        psi = run_pert(psi0, prot, order)
        return StateVector(1.1 * psi.amplitudes, time=psi.time)

    monkeypatch.setattr(fidelity, "run_protocol_pert", scaled)
    with pytest.raises(NumericalError, match="outside"):
        protocol_fidelity(P6, 0.118, "pert")
