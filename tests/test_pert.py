import dataclasses
import math
import weakref
from functools import partial
from types import SimpleNamespace

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
    ground_state,
    partition_blocks,
    run_protocol,
    run_protocol_pert,
    two_pi_k_omega,
)
from isingpulse import pert as pert_module
from isingpulse.exact import propagate_protocol, propagate_pulse, rotating_step
from isingpulse.hamiltonian import rotating_energy_table
from isingpulse.pert import (
    ORDER_BLOCK_PT1,
    BlockPartition,
    _apply_pt1,
    _block_rotation,
    _block_u,
    _cayley_factor,
    _pt1_dressing,
    _rotate,
    default_threshold,
)
from isingpulse.protocol import Protocol

from chain_helpers import (
    assert_energies_from_table,
    eta_param,
    pair_delta,
    paper_transition,
    reference_block_step,
    reference_greedy_partition,
    reference_ideal_step,
    resonance_frequency,
)

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
             zip(part.m_idx, part.p_idx, pair_delta(part))}
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
    d0 = {int(m): d for m, d in zip(part.m_idx, pair_delta(part))}
    assert 0 in d0
    assert d0[0] == pytest.approx(2 * P6.J, abs=1e-9)
    # fourth pulse: 4J
    part4 = partition_blocks(prot.pulses[3], P6)
    d0 = {int(m): d for m, d in zip(part4.m_idx, pair_delta(part4))}
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


@pytest.mark.parametrize("L", [*range(3, 11), 12])
def test_partition_matches_reference_greedy_loop_bit_for_bit(L, monkeypatch):
    # Both walk orientations (the mirror walk at omega0 = a, where its
    # intended energies are positive), over couplings from the selective
    # regime to the a/5 .. a/2 collisions, plus hand-built pulses at and
    # around the reach bound, which no walk pulse comes near.  At L = 12
    # one selective coupling and the a/3 collision, where two or more
    # qubits are in reach.
    import isingpulse.pert as pert

    greedy_calls = []
    greedy = pert._greedy_partition

    def counted(*args):
        greedy_calls.append(1)
        return greedy(*args)

    monkeypatch.setattr(pert, "_greedy_partition", counted)
    n_pulses = n_conflicted = 0
    live_cases = []
    for mirror in (False, True):
        for J in MATCHING_J if L <= 10 else (1.945, 33.4):
            p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
            prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
            supports = _block_supports(prot)
            for i, pu in enumerate(prot.pulses + tuple(_reach_pulses(p))):
                n_conflicts = _assert_matches_reference(pu, p)
                n_pulses += 1
                n_conflicted += n_conflicts > 0
                live_cases.append((pu, p, _live_sets(prot, supports[i:i + 1], i)))
    # Both branches ran, and every conflicted pulse took the matcher.
    assert 0 < n_conflicted <= len(greedy_calls) < n_pulses
    # Given the live states, the partition returns the whole partition's
    # blocks that hold one, on one qubit in reach and on the fallback.
    for pu, p, live_sets in live_cases:
        for live in live_sets:
            _assert_live_blocks_of_whole_partition(pu, p, live)


class _CountRounds:
    """Stands in for numpy inside pert and counts ``np.full`` calls: the
    matcher makes one a round."""

    def __init__(self):
        self.rounds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def full(self, *args, **kwargs):
        self.rounds += 1
        return np.full(*args, **kwargs)


def _random_candidates(rng, n, n_cand, levels):
    """Distinct random pairs of distinct states among n, with rotating
    energies drawn from ``levels`` values so that |Delta| ties."""
    m, q = rng.integers(n, size=(2, n_cand))
    keep = m != q
    pairs = np.unique(np.sort(np.stack([m[keep], q[keep]]), axis=0), axis=1)
    pairs = pairs[:, rng.permutation(pairs.shape[1])]
    return pairs[0], pairs[1], rng.integers(levels, size=n).astype(float)


def _walk_candidates(J, L, mirror):
    """The whole-basis candidates of every walk pulse with two or more
    qubits in reach, as partition_blocks builds them."""
    p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
    n = 1 << L
    for pu in build_entanglement_protocol(p, 0.118, mirror=mirror).pulses:
        reach = pert_module._reach(p, pu.nu)
        if len(reach) > 1:
            e_rot = rotating_energy_table(p, pu.nu)
            cands = [pert_module._flip_candidates(e_rot, 1 << k, default_threshold(p))
                     for k in reach]
            yield (*(np.concatenate(c) for c in zip(*cands)), e_rot, n)


def test_greedy_rounds_equal_one_by_one_scan(monkeypatch):
    # The rounds select what the one-by-one scan selects, in scan order,
    # and count the same conflicts: on seeded random graphs with tied
    # |Delta| and states in three or more candidates, on a path whose
    # ranks fall along it, on the empty and one-candidate sets, and on
    # the walks' collision pulses.
    rng = np.random.default_rng(17)
    cases = [_random_candidates(rng, n, c, levels) + (n,)
             for n, c, levels in [(8, 20, 2), (16, 60, 3), (40, 200, 4),
                                  (64, 150, 1), (300, 900, 5), (1000, 1500, 50)]]
    # Edge i joins states i and i + 1 with |Delta| = 12 - i, so each round
    # takes only the last free edge of the path: six rounds.
    path, on_path = np.arange(12), len(cases)
    cases.append((path, path + 1, np.cumsum(np.arange(13, 0, -1.0)), 13))
    empty = np.empty(0, dtype=np.intp)
    cases += [(empty, empty, np.zeros(4), 4),
              (np.array([2]), np.array([3]), np.array([0.0, 1.0, 2.0, 5.0]), 4)]
    n_built = len(cases)
    for J in (24.9, 33.4, 50.1, 75.0):
        for L in (14, 16):
            for mirror in (False, True):
                cases += _walk_candidates(J, L, mirror)
    rounds = _CountRounds()
    monkeypatch.setattr(pert_module, "np", rounds)
    n_rounds, n_conflicted = [], 0
    for cand_m, cand_p, e_rot, n in cases:
        before = rounds.rounds
        *got, n_conflicts = pert_module._greedy_partition(cand_m, cand_p, e_rot, n)
        n_rounds.append(rounds.rounds - before)
        *want, want_conflicts = reference_greedy_partition(cand_m, cand_p, e_rot, n)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert n_conflicts == want_conflicts
        n_conflicted += n_conflicts > 0
    assert n_rounds[on_path] == 6
    assert len(cases) - n_built > 20 and n_conflicted > 20


def _block_supports(prot):
    """The states the block route's state holds at the start of each pulse."""
    p = prot.params
    supports = []

    def step(amps, pulse, to_rot, to_lab):
        supports.append(np.flatnonzero(amps))
        return reference_block_step(p, amps, pulse, to_rot, to_lab)

    propagate_protocol(ground_state(p.L), prot, step)
    return supports


def _live_sets(prot, supports, seed):
    """Sets of live states to ask a partition of the chain for: the given
    block-route supports, the states of the walk's path, a seeded random
    subset, one state and every state."""
    n = 1 << prot.params.L
    path = {0} | {pu.target[0].index ^ (1 << pu.target[1]) for pu in prot.pulses}
    rng = np.random.default_rng(seed)
    return [*supports, np.array(sorted(path)), np.flatnonzero(rng.random(n) < 0.3),
            rng.integers(n, size=1), np.arange(n)]


def _assert_live_blocks_of_whole_partition(pulse, p, live):
    whole = partition_blocks(pulse, p)
    part = partition_blocks(pulse, p, live)
    held = np.zeros(1 << p.L, dtype=bool)
    held[live] = True
    pairs = held[whole.m_idx] | held[whole.p_idx]
    want = (whole.m_idx[pairs], whole.p_idx[pairs], whole.singletons[held[whole.singletons]])
    for g, w in zip((part.m_idx, part.p_idx, part.singletons), want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert_energies_from_table(part, p, pulse.nu)
    assert_energies_from_table(whole, p, pulse.nu)
    assert part.n_conflicts == whole.n_conflicts


def _assert_matches_reference(pulse, p):
    """Compare the partition with the reference byte for byte; returns
    the conflict count."""
    part = partition_blocks(pulse, p)
    got = (part.m_idx, part.p_idx, pair_delta(part), part.singletons)
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


def _reach_by_formula(p, nu):
    """The reach bound of pert._reach with each site frequency evaluated
    where it is used."""
    L = p.L
    scale = sum(abs(p.omega(k)) for k in range(L)) + L * (p.J + abs(nu))
    slack = 4 * (L + 1) * np.finfo(float).eps * scale
    reach = default_threshold(p) + 2.0 * p.J + slack
    return [k for k in range(L) if abs(p.omega(k) - nu) <= reach]


def test_reach_equals_formula_and_reads_each_site_once(monkeypatch):
    cases = []
    for omega0 in (0.0, 100.0, 1e12, 1e16):
        for J in (0.3, 1.945, 100.0 / 3):
            p = ChainParams(L=7, omega0=omega0, a=100.0, J=J)
            pulses = build_entanglement_protocol(p, 0.118).pulses + tuple(_reach_pulses(p))
            cases += [(p, pu.nu, _reach_by_formula(p, pu.nu)) for pu in pulses]
    calls = []
    omega = ChainParams.omega

    def counted(self, k):
        calls.append(k)
        return omega(self, k)

    monkeypatch.setattr(ChainParams, "omega", counted)
    for p, nu, want in cases:
        calls.clear()
        assert pert_module._reach(p, nu) == want, (p, nu)
        assert calls == list(range(p.L))


def test_partition_blocks_object_view():
    prot = build_entanglement_protocol(P6, 0.118)
    part = partition_blocks(prot.pulses[0], P6)
    i0 = int(np.flatnonzero(part.m_idx == 0)[0])
    assert part.p_idx[i0] == 1
    assert len(part.m_idx) == len(part.p_idx) == len(pair_delta(part))
    assert 2 * len(part.m_idx) + len(part.singletons) <= 1 << 6


def test_partition_stores_pairs_not_detunings():
    # A pair is two states and their energies, each the rotating table's
    # entry at its state; its detuning is their difference.
    names = [f.name for f in dataclasses.fields(BlockPartition)]
    assert names == ["L", "m_idx", "p_idx", "singletons", "e_m", "e_p", "e_single",
                     "n_conflicts"]
    pulse = build_entanglement_protocol(P6, 0.118).pulses[3]
    part = partition_blocks(pulse, P6)
    assert_energies_from_table(part, P6, pulse.nu)
    e_rot = rotating_energy_table(P6, pulse.nu)
    assert np.array_equal(pair_delta(part), e_rot[part.p_idx] - e_rot[part.m_idx])
    assert np.all(np.abs(pair_delta(part)) <= default_threshold(P6))


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

    @rotating_step
    def step(amps, pulse):
        part = partition_blocks(pulse, p)
        tau = pulse.duration
        m, q, s = part.m_idx, part.p_idx, part.singletons
        u11, u12, u21, u22 = _block_u(pulse.Omega, pair_delta(part), tau, part.e_m, part.e_p)
        out = amps.copy()
        out[m] = u11 * amps[m] + u12 * amps[q]
        out[q] = u21 * amps[m] + u22 * amps[q]
        out[s] = amps[s] * np.exp(-1j * part.e_single * tau)
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


def _dense_block_run(psi0, prot):
    """The block route with the dense step W e^{-i eps0 tau} W^T over every
    pair and singleton, whether or not it holds amplitude."""
    p = prot.params

    @rotating_step
    def step(amps, pulse):
        part = partition_blocks(pulse, p)
        eps0, c, s = _block_rotation(part, pulse.Omega)
        out = np.exp(-1j * eps0 * pulse.duration) * _rotate(part, c, s, amps)
        return _rotate(part, c, -s, out)

    return propagate_protocol(psi0, prot, step)


@pytest.mark.parametrize("L", range(3, 10))
def test_block_route_equals_dense_block_step(L):
    # The route steps only the blocks that hold amplitude, in the dense
    # step's expression order, and leaves the zeros that the dense step
    # also gives.  ORACLE_J takes both walks through the collisions, where
    # pairs conflict and singletons hold amplitude.
    for mirror in (False, True):
        for J in ORACLE_J:
            p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
            prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
            got = run_protocol_pert(ground_state(L), prot, "block")
            want = _dense_block_run(ground_state(L), prot)
            assert np.array_equal(got.amplitudes, want.amplitudes), (L, J, mirror)


def test_block_route_equals_dense_step_on_singletons_and_full_support():
    # A pulse far from every site frequency pairs nothing, so every state
    # is a singleton; a resonant one on a state with no zero entry makes
    # every pair live.
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=1.945)
    far = p.omega(p.L - 1) + 10.0 * p.a
    prot = Protocol(
        [Pulse(nu=far, Omega=0.118, duration=3.0, t_start=0.0),
         Pulse(nu=p.omega(0), Omega=0.118, duration=2.0, t_start=3.0)],
        p,
    )
    assert len(partition_blocks(prot.pulses[0], p).m_idx) == 0
    rng = np.random.default_rng(5)
    amps = rng.normal(size=1 << p.L) + 1j * rng.normal(size=1 << p.L)
    psi0 = StateVector(amps / np.linalg.norm(amps))
    got = run_protocol_pert(psi0, prot, "block")
    want = _dense_block_run(psi0, prot)
    assert np.array_equal(got.amplitudes, want.amplitudes)


LIVE_ORACLE_J = (0.8, 1.945, 9.99, 24.9, 33.4, 50.1)


@pytest.mark.parametrize("L, Js", [
    *(pytest.param(L, LIVE_ORACLE_J, id=f"L{L}") for L in range(3, 17)),
    pytest.param(18, (1.945,), id="L18"),
])
def test_live_partition_states_equal_whole_partition_reference(L, Js):
    # The block and ideal steps ask the partition for the live blocks
    # alone; the references select them from the whole partition.  Past
    # L = 15 the live pairs reach numpy's temporary-elision size, and
    # J >= 24.9 takes the two-qubit fallback.
    for mirror in (False, True):
        for J in Js:
            p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
            prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
            where = f"L={L} J={J} mirror={mirror}"
            got = run_protocol_pert(ground_state(L), prot, "block").amplitudes
            want = propagate_protocol(ground_state(L), prot, partial(reference_block_step, p))
            assert np.array_equal(got, want.amplitudes), where
            got = build_ideal_state(prot).amplitudes
            want = propagate_protocol(ground_state(L), prot, partial(reference_ideal_step, p))
            assert np.array_equal(got, want.amplitudes), where


def test_live_partition_with_one_qubit_in_reach_reads_no_table(monkeypatch):
    # With at most one qubit in reach the partition reads energies at its
    # states and their flips alone, for the walk's pulses and for a pulse
    # that pairs nothing: live blocks, and whole partitions as the
    # partition of every state, which equal the ones built with the table
    # readable bit for bit.
    p = ChainParams(L=8, omega0=0.0, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    far = Pulse(nu=p.omega(p.L - 1) + 10.0 * p.a, Omega=0.118, duration=1.0, t_start=0.0)
    live = np.array([0, 3, 77, 200])
    pulses = [*prot.pulses, far]
    wholes = [partition_blocks(pu, p) for pu in pulses]
    want = [run_protocol_pert(ground_state(p.L), prot, "block").amplitudes,
            build_ideal_state(prot).amplitudes]

    def whole_table(*args):
        raise AssertionError("a partition with one qubit in reach read the whole table")

    monkeypatch.setattr(pert_module, "rotating_energy_table", whole_table)
    got = [run_protocol_pert(ground_state(p.L), prot, "block").amplitudes,
           build_ideal_state(prot).amplitudes]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    for pu, whole in zip(pulses, wholes):
        part = partition_blocks(pu, p)
        for field in dataclasses.fields(part):
            g, w = getattr(part, field.name), getattr(whole, field.name)
            if isinstance(g, np.ndarray):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field.name
            else:
                assert g == w, field.name
    part = partition_blocks(far, p, live)
    assert len(part.m_idx) == 0 and np.array_equal(part.singletons, live)
    assert part.e_single.tobytes() == wholes[-1].e_single[live].tobytes()


@pytest.mark.parametrize("J, counts", [
    (1.945, (2, 4, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128, 256, 256)),
    (33.4, (2, 3, 4, 5, 7, 8, 11, 12, 16, 17, 22, 23, 29, 30)),
])
def test_block_state_support_grows_with_the_walk(J, counts):
    # What stepping only the live blocks saves: the block state gains basis
    # states only as the walk reaches new qubits.
    p = ChainParams(L=8, omega0=0.0, a=100.0, J=J)
    prot = build_entanglement_protocol(p, 0.118)
    got = tuple(
        int(np.count_nonzero(run_protocol_pert(
            ground_state(p.L), Protocol(prot.pulses[:k], p), "block").amplitudes))
        for k in range(1, len(prot.pulses) + 1)
    )
    assert got == counts


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
                partition_blocks(pu, p), rotating_energy_table(p, pu.nu), pu.Omega, 1e-9 * p.a
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


def _reference_pt1_dressing(part, e_rot, Omega, degeneracy_tol):
    """The dressing as first written, as sparse matrices: the block
    eigensystem W, the non-resonant coupling V and the triple product
    W^T V W, with the energies read from the whole rotating table
    ``e_rot``.  Returns (eps0, eps, W, A, number of skipped terms)."""
    n = 1 << part.L
    eps0 = e_rot.copy()
    rows = [part.singletons]
    cols = [part.singletons]
    vals = [np.ones(len(part.singletons))]
    if len(part.m_idx):
        m, q, d = part.m_idx, part.p_idx, pair_delta(part)
        lam = np.hypot(Omega, d)
        mean = 0.5 * (e_rot[m] + e_rot[q])
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
                        part, rotating_energy_table(p, pu.nu), pu.Omega, tol
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
                    new = _apply_pt1(c, eps, pu.duration, gen, _cayley_factor)
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


# ------------------------------------------------------ shared Cayley factors


def _unshared_pt1_step(p):
    """The block+pt1 step with a Cayley factor of its own for every pulse."""
    tol = 1e-9 * max(p.a, 1.0)

    @rotating_step
    def step(amps, pulse):
        part = partition_blocks(pulse, p)
        eps, c, s, a = _pt1_dressing(part, pulse.Omega, tol)
        out = _apply_pt1(
            _rotate(part, c, s, amps), eps, pulse.duration, a, _cayley_factor
        )
        return _rotate(part, c, -s, out)

    return step


def _watch_factors(monkeypatch):
    """Wrap ``pert.scipy`` so that every Cayley LU is recorded as it is
    made, and ``pert.propagate_protocol`` so that the factors still alive
    are recorded after each pulse.  Returns (made, live): weak references
    to the factors in build order, and per pulse the indices of the live
    ones."""
    splu = scipy.sparse.linalg.splu
    made, live = [], []

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def recording_splu(*args, **kwargs):
        factor = Factor(splu(*args, **kwargs))
        made.append(weakref.ref(factor))
        return factor

    def recording_protocol(psi0, prot, step):
        psi = psi0
        for pu in prot.pulses:
            psi = propagate_pulse(psi, pu, prot.params, step)
            live.append([i for i, ref in enumerate(made) if ref() is not None])
        return psi

    monkeypatch.setattr(pert_module, "scipy", SimpleNamespace(sparse=SimpleNamespace(
        csc_matrix=scipy.sparse.csc_matrix,
        linalg=SimpleNamespace(splu=recording_splu),
    )))
    monkeypatch.setattr(pert_module, "propagate_protocol", recording_protocol)
    return made, live


def _walk_repeats(prot):
    """Of the walk's repeated transitions on paper, how many repeat the
    first pulse's nu bit for bit and how many differ from it by rounding."""
    first, equal, rounded = {}, 0, 0
    for pu in prot.pulses:
        key = paper_transition(pu)
        if key in first:
            equal += first[key] == pu.nu
            rounded += first[key] != pu.nu
        else:
            first[key] = pu.nu
    return equal, rounded


def test_shared_factors_leave_the_walk_bit_identical():
    # At L = 10, J = 1.945 every repeated transition repeats its nu bit for
    # bit and shares its factor; the state must be the one that a factor
    # per pulse gives, to the last bit.
    p = ChainParams(L=10, omega0=0.0, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    equal, rounded = _walk_repeats(prot)
    assert equal > 0 and rounded == 0
    shared = run_protocol_pert(ground_state(10), prot, ORDER_BLOCK_PT1)
    alone = propagate_protocol(ground_state(10), prot, _unshared_pt1_step(p))
    assert np.array_equal(shared.amplitudes, alone.amplitudes)


@pytest.mark.parametrize("L, J, mirror", [
    (10, 1.945, False), (8, 19.0, False), (6, 100.0 / 3, False), (7, 1.945, True),
])
def test_walk_factors_one_per_distinct_pulse(L, J, mirror, monkeypatch):
    p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
    prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
    made, _ = _watch_factors(monkeypatch)
    run_protocol_pert(ground_state(L), prot, ORDER_BLOCK_PT1)
    assert len(made) == len({(pu.nu, pu.Omega) for pu in prot.pulses})


def test_walk_factors_are_freed_after_their_last_pulse(monkeypatch):
    p = ChainParams(L=10, omega0=0.0, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    made, live = _watch_factors(monkeypatch)
    run_protocol_pert(ground_state(10), prot, ORDER_BLOCK_PT1)
    keys = [(pu.nu, pu.Omega) for pu in prot.pulses]
    last = {key: t for t, key in enumerate(keys)}
    # Factor i belongs to the first pulse with a key not seen before it.
    owners = [t for t, key in enumerate(keys) if key not in keys[:t]]
    assert len(owners) == len(made) < len(keys)
    for t in range(len(keys)):
        want = [i for i, t0 in enumerate(owners) if t0 <= t < last[keys[t0]]]
        assert live[t] == want, t
        # Besides the next pulse's own, at most one factor waits through it.
        if t + 1 < len(keys):
            waiting = [i for i in live[t] if keys[owners[i]] != keys[t + 1]]
            assert len(waiting) <= 1, t


def test_repeated_hand_built_pulse_shares_one_factor(monkeypatch):
    p = ChainParams(L=4, omega0=0.0, a=100.0, J=1.945)
    nu = resonance_frequency(BasisState(0, 4), 0, p)
    pulses = tuple(
        Pulse(nu=nu, Omega=0.118, duration=5.0, t_start=5.0 * i) for i in range(3)
    )
    prot = Protocol(pulses=pulses, params=p, kind="custom")
    alone = propagate_protocol(ground_state(4), prot, _unshared_pt1_step(p))
    made, live = _watch_factors(monkeypatch)
    shared = run_protocol_pert(ground_state(4), prot, ORDER_BLOCK_PT1)
    assert len(made) == 1
    assert live == [[0], [0], []]
    assert np.array_equal(shared.amplitudes, alone.amplitudes)
