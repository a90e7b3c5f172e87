import math

import numpy as np
import pytest

from isingpulse import (
    BasisState,
    ChainParams,
    FrameError,
    PairingError,
    Pulse,
    StateVector,
    build_entanglement_protocol,
    epsilon_param,
    eta_param,
    ground_state,
    partition_blocks,
    resonance_frequency,
    run_protocol,
    run_protocol_pert,
    two_pi_k_omega,
)
from isingpulse.pert import ORDER_BLOCK_PT1, _block_u, default_threshold
from isingpulse.protocol import Protocol

P6 = ChainParams(L=6, omega0=0.0, a=100.0, J=1.0)


def _block_evolve(Delta, c_m, c_p, tau, Omega, E_m, E_p):
    """The block step's closed-form two-level rotation on one pair."""
    u11, u12, u21, u22 = _block_u(Omega, Delta, tau, E_m, E_p)
    return u11 * c_m + u12 * c_p, u21 * c_m + u22 * c_p


# ------------------------------------------------------ partition


def test_partition_first_pulse_resonant_block():
    prot = build_entanglement_protocol(P6, 0.118)
    part = partition_blocks(prot.pulses[0], P6)
    pairs = {(int(m), int(p)): d for m, p, d in
             zip(part.m_idx, part.p_idx, part.delta)}
    assert (0, 1) in pairs
    assert pairs[(0, 1)] == pytest.approx(0.0, abs=1e-12)


def test_partition_covers_basis_exactly_once():
    prot = build_entanglement_protocol(P6, 0.118)
    for pu in prot.pulses:
        part = partition_blocks(pu, P6)
        seen = np.concatenate([part.m_idx, part.p_idx, part.singletons])
        assert sorted(seen.tolist()) == list(range(1 << 6))
        assert len(part.m_idx) <= 1 << 5  # at most 2^(L-1) blocks


def test_partition_spectator_block_detuning():
    prot = build_entanglement_protocol(P6, 0.118)
    # second pulse: parked |0...0> sits in a block at Delta = 2J
    part = partition_blocks(prot.pulses[1], P6)
    d0 = {int(m): d for m, d in zip(part.m_idx, part.delta)}
    assert 0 in d0
    assert d0[0] == pytest.approx(2 * P6.J, abs=1e-9)
    # fourth pulse: 4J
    part4 = partition_blocks(prot.pulses[3], P6)
    d0 = {int(m): d for m, d in zip(part4.m_idx, part4.delta)}
    assert d0[0] == pytest.approx(4 * P6.J, abs=1e-9)


def test_partition_pairing_is_mutual_over_J_range():
    # Strict pairing succeeds across the clean part of the coupling range.
    for J in (0.3, 0.7, 1.0, 1.945, 3.0, 5.01, 9.99, 14.0):
        p = ChainParams(L=6, omega0=0.0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118)
        for pu in prot.pulses:
            part = partition_blocks(pu, p, strict=True)
            assert part.n_conflicts == 0


def test_partition_conflict_near_one_fifth_a():
    # Around J = a/5 two transition classes become equidistant: the strict
    # partition refuses, the greedy one resolves and reports the conflict.
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=18.0)
    prot = build_entanglement_protocol(p, 0.118)
    conflicted = [pu for pu in prot.pulses
                  if partition_blocks(pu, p).n_conflicts > 0]
    assert conflicted
    with pytest.raises(PairingError):
        partition_blocks(conflicted[0], p, strict=True)


def test_partition_blocks_object_view():
    prot = build_entanglement_protocol(P6, 0.118)
    part = partition_blocks(prot.pulses[0], P6)
    i0 = int(np.flatnonzero(part.m_idx == 0)[0])
    assert part.p_idx[i0] == 1
    assert len(part.m_idx) == len(part.p_idx) == len(part.delta)
    assert 2 * len(part.m_idx) + len(part.singletons) <= 1 << 6


def test_two_level_block_validates_single_flip():
    # Every pair of every walk pulse differs in exactly one bit.
    prot = build_entanglement_protocol(P6, 0.118)
    for pu in prot.pulses:
        part = partition_blocks(pu, P6)
        diff = part.m_idx ^ part.p_idx
        assert np.all(diff > 0) and np.all(diff & (diff - 1) == 0)


# ------------------------------------------------------ block evolution


def test_block_evolve_half_pulse_splits_evenly():
    Om = 0.2
    cm, cp = _block_evolve(0.0, 1.0, 0.0, math.pi / (2 * Om), Om, -1.0, 2.5)
    assert abs(cm) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(cp) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_block_evolve_pi_pulse_transfers_fully():
    Om = 0.2
    cm, cp = _block_evolve(0.0, 1.0, 0.0, math.pi / Om, Om, 0.0, 0.0)
    assert abs(cp) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert cp == pytest.approx(1j, abs=1e-9)  # i sin(pi/2) phase


def test_block_evolve_zero_drive_is_pure_phase():
    cm, cp = _block_evolve(1.3, 0.6 + 0.1j, 0.3j, 2.0, 0.0, 1.1, 2.4)
    assert abs(cm) == pytest.approx(abs(0.6 + 0.1j), abs=1e-12)
    assert abs(cp) == pytest.approx(0.3, abs=1e-12)


def test_block_evolve_is_unitary():
    rng = np.random.default_rng(5)
    for _ in range(50):
        Om = float(rng.uniform(0, 2))
        Delta = float(rng.uniform(-3, 3))
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c /= np.linalg.norm(c)
        cm, cp = _block_evolve(
            Delta, c[0], c[1], float(rng.uniform(0, 20)), Om,
            float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
        )
        assert abs(cm) ** 2 + abs(cp) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_block_evolve_consistent_with_epsilon():
    rng = np.random.default_rng(6)
    for _ in range(100):
        Om = float(rng.uniform(0.01, 1.5))
        Delta = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(0, 30))
        _, cp = _block_evolve(Delta, 1.0, 0.0, tau, Om, 0.7, -0.3)
        assert abs(cp) ** 2 == pytest.approx(
            epsilon_param(Om, Delta, tau), abs=1e-12
        )


# ------------------------------------------------------ error parameters


def test_epsilon_resonant_pi_pulse():
    assert epsilon_param(0.2, 0.0, math.pi / 0.2) == pytest.approx(1.0, abs=1e-12)


def test_epsilon_vanishes_on_full_cycles():
    J = 1.0
    Om = two_pi_k_omega(J, 2)
    assert epsilon_param(Om, 2 * J, math.pi / Om) <= 1e-12


def test_epsilon_weak_drive_bound():
    # Omega << Delta: eps bounded by (Omega/Delta)^2, the 2J-detuned scale.
    Om, J = 0.01, 1.0
    eps = epsilon_param(Om, 2 * J, math.pi / Om)
    assert eps <= (Om / (2 * J)) ** 2 + 1e-15


def test_eta_value():
    # Omega = 0.118, a = 100: (0.118^2) / (4 * 100^2) = 3.481e-7
    assert eta_param(0.118, 100.0) == pytest.approx(3.481e-7, rel=1e-4)
    assert eta_param(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        eta_param(0.1, 0.0)


def test_eta_much_smaller_than_epsilon_off_cycle():
    Om, J, a = 0.118, 1.0, 100.0
    eps = epsilon_param(Om, 2 * J, 0.6 * math.pi / Om)  # generic, off-cycle
    assert eta_param(Om, a) < 0.01 * eps


# ------------------------------------------------------ protocol runs


def test_first_pulse_only_gives_equal_superposition():
    prot = build_entanglement_protocol(P6, 0.118)
    first = Protocol(pulses=prot.pulses[:1], params=P6, kind="custom")
    out = run_protocol_pert(ground_state(6), first)
    probs = np.abs(out.amplitudes) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[1] == pytest.approx(0.5, abs=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_pert_route_checks_the_state_clock():
    # The shared pulse driver refuses a state whose clock is not at the
    # first pulse's start, as the exact route does.
    prot = build_entanglement_protocol(P6, 0.118)
    stale = StateVector(ground_state(6).amplitudes, time=5.0)
    for order in ("block", ORDER_BLOCK_PT1):
        with pytest.raises(FrameError):
            run_protocol_pert(stale, prot, order)


def test_zero_drive_protocol_is_identity_up_to_phase():
    pulses = []
    t = 0.0
    for nu in (50.0, 100.0):
        pulses.append(Pulse(nu=nu, Omega=0.0, phi=0.0, duration=2.0, t_start=t))
        t += 2.0
    prot = Protocol(pulses=tuple(pulses), params=P6, kind="custom")
    pert = run_protocol_pert(ground_state(6), prot)
    exact = run_protocol(ground_state(6), prot)
    assert np.abs(pert.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
    overlap = abs(np.vdot(pert.amplitudes, exact.amplitudes)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", ["block", ORDER_BLOCK_PT1])
def test_pert_protocol_preserves_norm(order):
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    out = run_protocol_pert(ground_state(6), prot, order)
    assert abs(out.norm() - 1.0) < 1e-10


def test_pert_runs_through_pairing_conflict_region():
    # Greedy matching keeps the propagator usable at the J = a/5 tie point.
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=20.0)
    prot = build_entanglement_protocol(p, 0.118)
    out = run_protocol_pert(ground_state(6), prot, "block")
    assert abs(out.norm() - 1.0) < 1e-10
    with pytest.raises(PairingError):
        run_protocol_pert(ground_state(6), prot, "block", strict=True)


def test_embedded_pair_matches_exact_when_drive_is_weak():
    # One resonant pulse in a 3-qubit chain: block model vs exact propagation.
    p = ChainParams(L=3, omega0=0.0, a=400.0, J=0.2)
    Om = 4e-4
    zero = BasisState(0, 3)
    pu = Pulse(
        nu=resonance_frequency(zero, 1, p), Omega=Om, phi=0.0,
        duration=math.pi / Om, t_start=0.0,
    )
    prot = Protocol(pulses=(pu,), params=p, kind="custom")
    exact = run_protocol(ground_state(3), prot)
    pert = run_protocol_pert(ground_state(3), prot, "block")
    pair = [0, 0b010]
    assert np.max(np.abs(exact.amplitudes[pair] - pert.amplitudes[pair])) < 1e-8
    # everything outside the pair is non-resonant leakage, bounded by eta
    others = [i for i in range(8) if i not in pair]
    assert np.max(np.abs(exact.amplitudes[others]) ** 2) < 10 * eta_param(Om, p.a)


def test_block_and_pt1_agree_with_exact_fidelity():
    from isingpulse import build_ideal_state, dynamical_fidelity

    eta = eta_param(0.118, 100.0)
    for J in (0.5, 1.0, 1.945):
        p = ChainParams(L=6, omega0=0.0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118)
        ideal = build_ideal_state(prot)
        f_exact = dynamical_fidelity(ideal, run_protocol(ground_state(6), prot))
        for order in ("block", ORDER_BLOCK_PT1):
            f_pert = dynamical_fidelity(
                ideal, run_protocol_pert(ground_state(6), prot, order)
            )
            assert abs(f_exact - f_pert) <= 10 * 6 * eta + 0.05 * (1 - f_exact)


def test_nonresonant_leakage_bound():
    # Overlap deficit of the dressed propagator against the exact one stays
    # below C*L*eta with C from a one-time L=6 calibration (C = 10 bounds the
    # measured value with orders-of-magnitude margin).
    C = 10.0
    Om = 0.118
    eta = eta_param(Om, 100.0)
    for L in (5, 6, 7, 8):
        p = ChainParams(L=L, omega0=0.0, a=100.0, J=1.0)
        prot = build_entanglement_protocol(p, Om)
        exact = run_protocol(ground_state(L), prot)
        pert = run_protocol_pert(ground_state(L), prot, ORDER_BLOCK_PT1)
        overlap = abs(np.vdot(exact.amplitudes, pert.amplitudes)) ** 2
        assert overlap >= 1.0 - C * L * eta


def test_default_threshold_is_half_step():
    assert default_threshold(P6) == pytest.approx(50.0)


def test_block_eigensystem_diagonalizes_block_hamiltonian():
    # The analytic per-block eigensystem and the non-resonant split must
    # reconstruct the dense rotating-frame Hamiltonian exactly.
    from isingpulse.hamiltonian import build_rot_ham
    from isingpulse.pert import _block_eigensystem, _nonresonant_coupling

    p = ChainParams(L=4, omega0=0.0, a=30.0, J=1.2)
    prot = build_entanglement_protocol(p, 0.15)
    for pu in prot.pulses[:4]:
        part = partition_blocks(pu, p)
        eps0, w = _block_eigensystem(part, pu.Omega)
        v = _nonresonant_coupling(part, pu.Omega)
        h = build_rot_ham(p, pu).dense()
        hb = h - v.toarray()
        wd = w.toarray()
        assert np.max(np.abs(hb @ wd - wd @ np.diag(eps0))) < 1e-12
        assert np.max(np.abs(wd.T @ wd - np.eye(1 << 4))) < 1e-12
        assert np.max(np.abs(hb + v.toarray() - h)) == 0.0


def test_partition_with_zero_threshold_keeps_resonant_pair_only():
    prot = build_entanglement_protocol(P6, 0.118)
    part = partition_blocks(prot.pulses[0], P6, threshold=0.0)
    assert len(part.m_idx) >= 1
    assert all(d == 0.0 for d in part.delta)
    tight = partition_blocks(prot.pulses[1], P6, threshold=1e-12)
    # pulse 2 still has exactly resonant moving-branch pairs
    assert len(tight.m_idx) >= 1
    assert len(tight.singletons) == (1 << 6) - 2 * len(tight.m_idx)


def test_pt1_degenerate_denominators_are_skipped(caplog):
    # At the exact tie J = a/5 the dressing hits near-degenerate denominators;
    # they are dropped (with a warning) instead of blowing up.
    import logging

    p = ChainParams(L=6, omega0=0.0, a=100.0, J=20.0)
    prot = build_entanglement_protocol(p, 0.118)
    with caplog.at_level(logging.WARNING, logger="isingpulse.pert"):
        out = run_protocol_pert(ground_state(6), prot, ORDER_BLOCK_PT1)
    assert abs(out.norm() - 1.0) < 1e-10
