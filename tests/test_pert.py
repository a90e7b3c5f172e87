import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from isingpulse import (
    BasisState,
    ChainParams,
    FrameError,
    Pulse,
    StateVector,
    build_entanglement_protocol,
    build_ideal_state,
    dynamical_fidelity,
    epsilon_param,
    eta_param,
    ground_state,
    partition_blocks,
    resonance_frequency,
    run_protocol,
    run_protocol_pert,
    two_pi_k_omega,
)
from isingpulse.exact import propagate_protocol
from isingpulse.hamiltonian import rotating_energy_table
from isingpulse.pert import (
    ORDER_BLOCK_PT1,
    _apply_pt1,
    _block_rotation,
    _block_u,
    _cayley_factor,
    _pt1_dressing,
    _rotate,
    default_threshold,
)
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
    # Every state pairs with its closest partner across the clean part of
    # the coupling range.
    for J in (0.3, 0.7, 1.0, 1.945, 3.0, 5.01, 9.99, 14.0):
        p = ChainParams(L=6, omega0=0.0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118)
        for pu in prot.pulses:
            assert partition_blocks(pu, p).n_conflicts == 0
            assert _reference_partition(pu, p)[-1] == 0


def _conflict_counts(prot):
    """Per pulse, the partition's ``n_conflicts`` and the reference loop's."""
    p = prot.params
    return ([partition_blocks(pu, p).n_conflicts for pu in prot.pulses],
            [_reference_partition(pu, p)[-1] for pu in prot.pulses])


def test_partition_conflict_near_one_fifth_a():
    # Around J = a/5 two transition classes become equidistant: the greedy
    # matching resolves and reports the conflicts, on exactly the pulses
    # and in the numbers the reference loop counts.
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=18.0)
    got, want = _conflict_counts(build_entanglement_protocol(p, 0.118))
    assert any(got)
    assert got == want


def _reference_partition(pulse, p):
    """The per-candidate greedy matching, with a second pass over all
    detunings to count conflicts: the direct form of the algorithm, kept as
    a reference for partition_blocks.  Returns (m_idx, p_idx, delta,
    singletons, n_conflicts)."""
    threshold = default_threshold(p)
    L, n = p.L, 1 << p.L
    idx = np.arange(n)
    e_rot = rotating_energy_table(p, pulse.nu)

    pair_m, pair_p, pair_d = [], [], []
    best_abs = np.full(n, np.inf)
    for k in range(L):
        bit = 1 << k
        d_k = e_rot[idx ^ bit] - e_rot[idx]
        np.minimum(best_abs, np.abs(d_k), out=best_abs)
        lo = idx[(idx & bit) == 0]
        d_lo = d_k[lo]
        keep = np.abs(d_lo) <= threshold
        pair_m.append(lo[keep])
        pair_p.append(lo[keep] ^ bit)
        pair_d.append(d_lo[keep])
    cand_m = np.concatenate(pair_m)
    cand_p = np.concatenate(pair_p)
    cand_d = np.concatenate(pair_d)

    order = np.lexsort((cand_p, cand_m, np.abs(cand_d)))
    taken = np.zeros(n, dtype=bool)
    partner_of = np.full(n, -1, dtype=np.int64)
    sel = []
    for i in order:
        m, q = int(cand_m[i]), int(cand_p[i])
        if not taken[m] and not taken[q]:
            taken[m] = taken[q] = True
            partner_of[m], partner_of[q] = q, m
            sel.append(i)
    sel = np.array(sel, dtype=int)
    sel = sel[np.argsort(cand_m[sel])]  # pairs in ascending m

    in_thr = best_abs <= threshold
    happy = np.zeros(n, dtype=bool)
    for k in range(L):
        bit = 1 << k
        d_k = np.abs(e_rot[idx ^ bit] - e_rot[idx])
        happy |= (partner_of == (idx ^ bit)) & (d_k == best_abs)
    n_conflicts = int(np.count_nonzero(in_thr & ~happy))
    return cand_m[sel], cand_p[sel], cand_d[sel], idx[~taken], n_conflicts


MATCHING_J = (0.3, 1.945, 9.99, 100.0 / 5, 100.0 / 4, 100.0 / 3, 100.0 / 2)


def _reach_pulses(p):
    """Hand-built pulses that probe which qubits the partition scans: nu on
    a grid between and beyond the site frequencies, and nu just inside and
    just outside the reach bound |omega_k - nu| = a/2 + 2J of the end and
    middle qubits."""
    edge = default_threshold(p) + 2.0 * p.J
    nus = list(np.linspace(p.omega(0) - p.a, p.omega(p.L - 1) + p.a, 8))
    for k in sorted({0, p.L // 2, p.L - 1}):
        for side in (-1.0, 1.0):
            nus += [p.omega(k) + side * (edge + 1e-9),
                    p.omega(k) + side * (edge - 1e-9)]
    return [Pulse(nu=nu, Omega=0.118, duration=1.0, t_start=0.0)
            for nu in nus]


@pytest.mark.parametrize("L", range(3, 11))
def test_partition_matches_reference_greedy_loop_bit_for_bit(L, monkeypatch):
    # Both walk orientations (the mirror walk at omega0 = a, where its
    # intended energies are positive), over couplings from the selective
    # regime to the a/5 .. a/2 collisions, plus hand-built pulses at and
    # around the reach bound, which no walk pulse comes near.
    import isingpulse.pert as pert

    greedy_calls = []
    greedy = pert._greedy_matching

    def counted(*args):
        greedy_calls.append(1)
        return greedy(*args)

    monkeypatch.setattr(pert, "_greedy_matching", counted)
    n_pulses = n_conflicted = 0
    for mirror in (False, True):
        for J in MATCHING_J:
            p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
            prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
            for pu in prot.pulses + tuple(_reach_pulses(p)):
                n_conflicts = _assert_matches_reference(pu, p)
                n_pulses += 1
                n_conflicted += n_conflicts > 0
    # Both branches ran, and every conflicted pulse took the greedy one.
    assert 0 < n_conflicted <= len(greedy_calls) < n_pulses


def _assert_matches_reference(pulse, p):
    """Compare the partition with the reference byte for byte; returns
    the conflict count."""
    part = partition_blocks(pulse, p)
    got = (part.m_idx, part.p_idx, part.delta, part.singletons)
    *want, n_conflicts = _reference_partition(pulse, p)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert part.n_conflicts == n_conflicts
    return n_conflicts


@pytest.mark.parametrize("omega0", [1e12, 1e15, 1e16])
def test_partition_reach_covers_table_rounding(omega0):
    # At omega0 >> a the energy table's differences round by as much as a
    # or more; the reach widens by a bound on that rounding, so the
    # partition still equals the scan over every qubit.
    p = ChainParams(L=6, omega0=omega0, a=1.0, J=0.3)
    for pu in _reach_pulses(p):
        _assert_matches_reference(pu, p)


def test_partition_blocks_object_view():
    prot = build_entanglement_protocol(P6, 0.118)
    part = partition_blocks(prot.pulses[0], P6)
    i0 = int(np.flatnonzero(part.m_idx == 0)[0])
    assert part.p_idx[i0] == 1
    assert len(part.m_idx) == len(part.p_idx) == len(part.delta)
    assert 2 * len(part.m_idx) + len(part.singletons) <= 1 << 6


def test_two_level_block_validates_single_flip():
    # Every pair of every walk pulse differs in exactly one bit, and the
    # pairs come in strictly ascending m.
    prot = build_entanglement_protocol(P6, 0.118)
    for pu in prot.pulses:
        part = partition_blocks(pu, P6)
        diff = part.m_idx ^ part.p_idx
        assert np.all(diff > 0) and np.all(diff & (diff - 1) == 0)
        assert np.all(np.diff(part.m_idx) > 0)


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
        pulses.append(Pulse(nu=nu, Omega=0.0, duration=2.0, t_start=t))
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
    # Greedy matching keeps the propagator usable at the J = a/5 tie point,
    # where the reference loop counts conflicts on the same pulses.
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=20.0)
    prot = build_entanglement_protocol(p, 0.118)
    out = run_protocol_pert(ground_state(6), prot, "block")
    assert abs(out.norm() - 1.0) < 1e-10
    got, want = _conflict_counts(prot)
    assert any(got)
    assert got == want


def test_embedded_pair_matches_exact_when_drive_is_weak():
    # One resonant pulse in a 3-qubit chain: block model vs exact propagation.
    p = ChainParams(L=3, omega0=0.0, a=400.0, J=0.2)
    Om = 4e-4
    zero = BasisState(0, 3)
    pu = Pulse(
        nu=resonance_frequency(zero, 1, p), Omega=Om,
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

    # A driven sequence that is no walk: two pi/2 pulses on qubit 0 of
    # |0000>, then a pi/2 pulse at qubit 1's resonance from |1000>.  The
    # first two chain through the frame transforms on one transition, the
    # third splits the state; every amplitude is compared.
    p = ChainParams(L=4, omega0=0.0, a=100.0, J=1.945)
    Om = 0.118
    half = math.pi / (2 * Om)
    nus = [resonance_frequency(BasisState(0, 4), 0, p)] * 2
    nus.append(resonance_frequency(BasisState(0b0001, 4), 1, p))
    pulses = tuple(
        Pulse(nu=nu, Omega=Om, duration=half, t_start=i * half)
        for i, nu in enumerate(nus)
    )
    prot = Protocol(pulses=pulses, params=p, kind="custom")
    exact = run_protocol(ground_state(4), prot).amplitudes
    for order, tol in (("block", 5e-3), (ORDER_BLOCK_PT1, 1e-4)):
        pert = run_protocol_pert(ground_state(4), prot, order).amplitudes
        assert np.max(np.abs(exact - pert)) < tol, order


def test_block_and_pt1_agree_with_exact_fidelity():
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


def _closed_form_block_run(prot):
    """The block step in closed form, the block route's oracle: each pair's
    2x2 unitary applied to its gathered amplitudes, each singleton its
    diagonal phase."""
    p = prot.params

    def step(amps, pulse):
        part = partition_blocks(pulse, p)
        tau = pulse.duration
        m, q, s = part.m_idx, part.p_idx, part.singletons
        u11, u12, u21, u22 = _block_u(
            pulse.Omega, part.delta, tau, part.e_rot[m], part.e_rot[q])
        out = amps.copy()
        out[m] = u11 * amps[m] + u12 * amps[q]
        out[q] = u21 * amps[m] + u22 * amps[q]
        out[s] = amps[s] * np.exp(-1j * part.e_rot[s] * tau)
        return out

    return propagate_protocol(ground_state(p.L), prot, step)


ORACLE_J = (0.3, 1.945, 9.99, 20.0, 25.0, 100.0 / 3, 100.0 / 2, 50.1, 100.0)


@pytest.mark.parametrize("L", range(3, 13))
def test_block_route_matches_closed_form_block_step(L):
    # The eigen form W e^{-i eps0 tau} W^T against the closed form, on both
    # walks from the selective regime through the collisions.  Neither is
    # exact: phase arguments reach about 7e4 rad at L = 12, whose ulp is
    # 1.5e-11, and the two forms round them differently.
    for mirror in (False, True):
        for J in ORACLE_J:
            p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
            prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
            got = run_protocol_pert(ground_state(L), prot, "block")
            want = _closed_form_block_run(prot)
            ideal = build_ideal_state(prot)
            where = f"L={L} J={J} mirror={mirror}"
            assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-10, where
            assert abs(dynamical_fidelity(ideal, got)
                       - dynamical_fidelity(ideal, want)) <= 1e-11, where


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


def _dense_rotation(part, c, s):
    """W as a dense matrix from the per-pair rotation arrays."""
    w = np.eye(1 << part.L)
    m, q = part.m_idx, part.p_idx
    w[m, m] = w[q, q] = c
    w[q, m] = s
    w[m, q] = -s
    return w


def _dense_nonresonant_coupling(part, Omega):
    """V: the -Omega/2 single-flip couplings that no pair holds."""
    n = 1 << part.L
    idx = np.arange(n)
    v = np.zeros((n, n))
    for k in range(part.L):
        v[idx ^ (1 << k), idx] = -0.5 * Omega
    v[part.m_idx, part.p_idx] = v[part.p_idx, part.m_idx] = 0.0
    return v


def test_block_eigensystem_diagonalizes_block_hamiltonian():
    # The per-pair rotations and the non-resonant split must reconstruct the
    # dense rotating-frame Hamiltonian exactly, and the gathered rotations
    # must apply W^T and W.
    from isingpulse.hamiltonian import RotFrameHam

    p = ChainParams(L=4, omega0=0.0, a=30.0, J=1.2)
    prot = build_entanglement_protocol(p, 0.15)
    rng = np.random.default_rng(3)
    for pu in prot.pulses[:4]:
        part = partition_blocks(pu, p)
        eps0, c, s = _block_rotation(part, pu.Omega)
        wd = _dense_rotation(part, c, s)
        v = _dense_nonresonant_coupling(part, pu.Omega)
        h = RotFrameHam(p, pu.nu, pu.Omega).dense()
        hb = h - v
        assert np.max(np.abs(hb @ wd - wd @ np.diag(eps0))) < 1e-12
        assert np.max(np.abs(wd.T @ wd - np.eye(1 << 4))) < 1e-12
        assert np.max(np.abs(hb + v - h)) == 0.0
        x = rng.normal(size=1 << 4) + 1j * rng.normal(size=1 << 4)
        assert np.max(np.abs(_rotate(part, c, s, x) - wd.T @ x)) < 1e-15
        assert np.max(np.abs(_rotate(part, c, -s, x) - wd @ x)) < 1e-15


def test_pt1_degenerate_denominators_are_skipped(caplog):
    # Near-degenerate denominators are dropped instead of blowing up, with
    # one warning a pulse that counts them as the sparse triple product
    # does.  At the tie J = a/5 no denominator is that small; at a/2 and a
    # four and ten of the L = 6 walk's pulses skip 8 to 24 terms each.
    import logging

    for J in (100.0 / 5, 100.0 / 2, 100.0):
        p = ChainParams(L=6, omega0=0.0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118)
        want = []
        for pu in prot.pulses:
            *_, n_skip = _reference_pt1_dressing(
                partition_blocks(pu, p), pu.Omega, 1e-9 * p.a
            )
            if n_skip:
                want.append(n_skip)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="isingpulse.pert"):
            out = run_protocol_pert(ground_state(6), prot, ORDER_BLOCK_PT1)
        assert abs(out.norm() - 1.0) < 1e-10
        got = [r.args[0] for r in caplog.records
               if r.name == "isingpulse.pert" and "near-degenerate" in r.getMessage()]
        assert got == want, J
        assert bool(want) == (J != 100.0 / 5), J


# ------------------------------------------------------ Cayley step


def _reference_pt1_dressing(part, Omega, degeneracy_tol):
    """The dressing as first written, as sparse matrices: the block
    eigensystem W, the non-resonant coupling V and the triple product
    W^T V W.  Returns (eps0, eps, W, A, number of skipped terms)."""
    n = 1 << part.L
    eps0 = part.e_rot.copy()
    rows = [part.singletons]
    cols = [part.singletons]
    vals = [np.ones(len(part.singletons))]
    if len(part.m_idx):
        m, q, d = part.m_idx, part.p_idx, part.delta
        lam = np.hypot(Omega, d)
        mean = 0.5 * (part.e_rot[m] + part.e_rot[q])
        eps0[m] = mean - 0.5 * lam
        eps0[q] = mean + 0.5 * lam
        half = 0.5 * np.arctan2(Omega, d)
        c, s = np.cos(half), np.sin(half)
        rows += [m, q, m, q]
        cols += [m, m, q, q]
        vals += [c, s, -s, c]
    w = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()

    idx = np.arange(n)
    rows = np.concatenate([idx ^ (1 << k) for k in range(part.L)])
    cols = np.concatenate([idx] * part.L)
    partner = np.full(n, -1, dtype=np.int64)
    partner[part.m_idx] = part.p_idx
    partner[part.p_idx] = part.m_idx
    keep = partner[cols] != rows
    rows, cols = rows[keep], cols[keep]
    v = scipy.sparse.coo_matrix(
        (np.full(len(rows), -0.5 * Omega), (rows, cols)), shape=(n, n)
    ).tocsr()

    mm = (w.T @ v @ w).tocoo()
    den = eps0[mm.col] - eps0[mm.row]
    ok = np.abs(den) > degeneracy_tol
    data = np.zeros_like(mm.data)
    data[ok] = mm.data[ok] / den[ok]
    a = scipy.sparse.coo_matrix((data, (mm.row, mm.col)), shape=mm.shape)
    shift = np.zeros_like(eps0)
    np.add.at(shift, mm.col[ok], mm.data[ok] ** 2 / den[ok])
    return eps0, eps0 + shift, w, a.tocsc(), int(np.count_nonzero(~ok))


def _as_csc(a):
    n = len(a.indptr) - 1
    return scipy.sparse.csc_matrix((a.data, a.indices, a.indptr), shape=(n, n))


def _one_norm(a):
    return scipy.sparse.linalg.norm(_as_csc(a), 1)


CAYLEY_J = (0.3, 1.945, 9.99, 100.0 / 5, 100.0 / 4, 100.0 / 3, 100.0 / 2, 100.0)


def _walk_partitions(L, J, mirror):
    """(params, pulse, partition) of every pulse of the walk at a = 100,
    Omega = 0.118; the mirror walk runs at omega0 = a so its intended
    energies are positive."""
    a = 100.0
    p = ChainParams(L=L, omega0=a if mirror else 0.0, a=a, J=J)
    prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
    return [(p, pu, partition_blocks(pu, p)) for pu in prot.pulses]


@pytest.mark.parametrize("L", range(3, 11))
def test_pt1_dressing_matches_sparse_triple_product_reference(L, caplog):
    # The dressing built from the partition's arrays gives the triple
    # product's eps and A, and A's pattern is a subset of the reference's:
    # entries that cancel there may vanish here, none may appear.
    import logging

    rng = np.random.default_rng(L)
    for mirror in (False, True):
        for J in CAYLEY_J:
            for p, pu, part in _walk_partitions(L, J, mirror):
                tol = 1e-9 * p.a
                with caplog.at_level(logging.ERROR, logger="isingpulse.pert"):
                    eps, c, s, a = _pt1_dressing(part, pu.Omega, tol)
                    eps0_ref, eps_ref, w_ref, a_ref, _ = _reference_pt1_dressing(
                        part, pu.Omega, tol
                    )
                where = f"L={L} J={J} mirror={mirror}"
                a = _as_csc(a)
                assert np.max(np.abs(eps - eps_ref)) < 1e-12, where
                assert abs(a - a_ref).max() < 1e-12, where
                assert ((a != 0) > (a_ref != 0)).nnz == 0, where
                assert a.nnz <= a_ref.nnz, where
                eps0, c, s = _block_rotation(part, pu.Omega)
                assert np.array_equal(eps0, eps0_ref), where
                x = rng.normal(size=1 << L)
                assert np.array_equal(_rotate(part, c, s, x), w_ref.T @ x), where
                assert np.array_equal(_rotate(part, c, -s, x), w_ref @ x), where


def _reference_apply_pt1(c, eps, tau, a):
    """The Cayley step as first written: ``I - A/2`` cast to complex and
    factored with SuperLU's default COLAMD ordering."""
    n = c.shape[0]
    eye = scipy.sparse.identity(n, format="csc")
    lu = scipy.sparse.linalg.splu((eye - 0.5 * a).astype(np.complex128))
    cin = lu.solve((eye - 0.5 * a) @ c, trans="T")
    cmid = np.exp(-1j * eps * tau) * cin
    return (eye + 0.5 * a) @ lu.solve(cmid)


def _walk_dressings(L, J, mirror):
    """(pulse, eps, A) of every pulse of the walk at a = 100, Omega = 0.118."""
    out = []
    for p, pu, part in _walk_partitions(L, J, mirror):
        eps, _, _, gen = _pt1_dressing(part, pu.Omega, 1e-9 * p.a)
        out.append((pu, eps, gen))
    return out


def test_cayley_step_matches_complex_colamd_reference():
    # The real, symmetric-mode factorisation must give the complex COLAMD
    # step's result, including at the collisions where ||A/2||_1 reaches
    # 0.71.  Every pulse is checked up to L = 7; from L = 8 on, where the
    # reference factor grows to 0.18 s at L = 10, the pulse with the largest
    # ||A/2||_1.
    rng = np.random.default_rng(11)
    for L in range(3, 11):
        n = 1 << L
        for mirror in (False, True):
            for J in CAYLEY_J:
                steps = _walk_dressings(L, J, mirror)
                if L > 7:
                    steps = [max(steps, key=lambda s: _one_norm(s[2]))]
                for pu, eps, gen in steps:
                    c = rng.normal(size=n) + 1j * rng.normal(size=n)
                    c /= np.linalg.norm(c)
                    new = _apply_pt1(c, eps, pu.duration, gen)
                    ref = _reference_apply_pt1(c, eps, pu.duration, _as_csc(gen))
                    where = f"L={L} J={J} mirror={mirror}"
                    assert np.max(np.abs(new - ref)) < 1e-12, where
                    assert abs(np.linalg.norm(new) - 1.0) < 1e-12, where


def test_cayley_factor_fill_stays_low():
    # Minimum degree on A^T + A keeps the L = 10 factor at 223k nonzeros a
    # pulse on average and 227k at most (294k and 332k while A kept the
    # rounding residue of cancelling couplings); the complex COLAMD factor
    # had 600k on average and never fewer than 531k.
    for _, _, gen in _walk_dressings(10, 1.945, mirror=False):
        _, lu = _cayley_factor(gen)
        assert lu.L.nnz + lu.U.nnz < 400_000
