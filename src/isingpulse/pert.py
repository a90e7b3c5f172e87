"""Perturbative propagation: two-level blocks plus optional dressing.

Per pulse the basis is partitioned into pairs connected by a resonant or
near-resonant single-flip transition (rotating-frame detuning within the
threshold a/2) and leftover singletons.  A flip of qubit k detunes by
omega_k - nu give or take 2J from its neighbours, so only the qubits with
|omega_k - nu| <= a/2 + 2J can pair, one on a walk pulse while 8J < a.
Reach alone picks the partition's path.  With at most one qubit in reach
each state's one candidate is its flip of that qubit, so the partition
reads the rotating energies of the states it is given and of their flips,
and needs no table, mask or scan; a whole partition is that partition of
every state.  With two or more, the rotating table is scanned for each
qubit's in-threshold flips, and the candidates are matched greedily in
order of |detuning|, in rounds of array operations.  Pairs come in
ascending index of their lower state.  A pair is two basis states and
their rotating-frame energies, each the rotating energy table's entry at
its state, bit for bit; a pair's detuning is the difference of the two,
formed where it is used.  Every consumer gathers and scatters the pairs by
index, so their order changes no result.  Each pair's 2x2 block is
diagonalised in closed form by a (c, s) rotation W, applied by gathering
the pair's two amplitudes; singletons keep their diagonal energy.  The
block step is W e^{-i eps0 tau} W^T; the pulse loop, with its clock
check, lab-frame check and norm guard, is the exact propagator's, which
hands the step the lab amplitudes and the pulse's frame levels.

The block step evaluates that form only on the pairs and singletons that
hold a nonzero amplitude, and applies the frame phases to those entries
alone, as it gathers and scatters them; every other entry stays the zero
that the dense form also gives.  It asks :func:`partition_blocks` for
just those blocks (the ``live`` argument), as the ideal state does, so on
a walk pulse the partition costs O(live).  In the selective regime the
live set needs no sort, since it is closed under the flips of the qubits
the walk has reached, and a new qubit's bit is clear in every live state.
The state reaches new basis states only as the walk reaches new qubits:
at L = 8, J = 1.945 it holds 2, 4, 8, 8, 16, 16, ... 256 nonzero
amplitudes after successive pulses, so the early pulses of a walk touch a
small share of the basis.  Each live entry is computed in the expression
order of the dense form framed on the whole array, so final states equal
that form's bit for bit, bar the sign of zeros.  The pt1 dressing needs
every pair, so block+pt1 partitions, rotates and frames the whole basis.

The same evolution as closed-form two-level amplitudes,

    c_m(tau) = c_m(0) [cos(lt/2) + i (D/l) sin(lt/2)] e^{-i D tau/2 - i E_m tau}
    c_p(tau) = c_m(0) [i (Omega/l) sin(lt/2)]        e^{+i D tau/2 - i E_p tau}

with l = sqrt(Omega^2 + D^2), extended to a full unitary 2x2 rotation for
nonzero initial c_p (``_block_u``), is the ideal state's evaluator: near
collisions the eigen form's u11 = c^2 z- + s^2 z+ cancels, where this form
keeps its phase.

The first-order mode additionally dresses each pulse with the eigenstate
corrections built from the left-over (non-resonant) coupling V:

    |q> -> |q0> + sum_{q'} <q'0|V|q0> / (e_q - e_q') |q'0>

applied as an exactly unitary Cayley factor at the pulse boundaries, and
shifts the block eigenvalues by the level corrections sum |V_qq'|^2/(e_q -
e_q') that the same matrix elements imply.  This captures both the leaked
population and the differential level shifts of the parked branches.

The dressing is built from the partition's index arrays, with no sparse
matrix products.  M = W^T V W is formed in closed form from the
single-flip couplings between blocks, column by column, so A needs no
sort and no summing of duplicates.  The only sparse matrix a pulse builds
is ``I - A/2``, for its LU.  Couplings between pairs whose mixing angles
agree cancel exactly, so A carries no rounding residue there.

The Cayley factor costs one real sparse LU per distinct ``(nu, Omega)``
of a run, the sharing rule of every route (:class:`exact._SharedByDrive`):
pulses that repeat a drive bit for bit share it, and it is freed after
the last of them (:func:`run_protocol_pert`).  The walk tunes every pulse
of one transition to the same nu, so its 2L - 2 pulses take L + 1
factors, 11 for the 18 pulses at L = 10.  ``I - A/2`` is built as real
CSC, and both complex right-hand sides are solved as one real n x 2
block.  A is real antisymmetric, so the factor's pattern is symmetric and
is ordered by minimum degree on A^T + A.  The factor is column
diagonally dominant while ||A/2||_1 < 1, so SuperLU's symmetric mode keeps
the diagonal pivots; where the 0.1 threshold fails it still pivots off the
diagonal.  On both walks at a = 100, Omega = 0.118, L = 3..10 and J up to
a, ||A/2||_1 peaks at 0.709, at the collisions.  The README gives the
measured cost of the dressing, the factor and the Cayley step.

scipy is imported bare: ``scipy.sparse`` and its ``linalg`` load at the
first pt1 pulse, so the block route never pays for them.  The CSC build
and the LU go through the module-level name ``scipy`` so that a tracer
replacing that one name sees every call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy

from .basis import StateVector
from .exact import _SharedByDrive, frame_phase, propagate_protocol, rotating_step
# Unused frame transforms stay imported: bench/tracing.py patches them here.
from .exact import from_rotating, to_rotating  # noqa: F401
from .hamiltonian import ChainParams, rotating_energies, rotating_energy_table
from .protocol import Protocol, Pulse

log = logging.getLogger(__name__)

ORDER_BLOCK = "block"
ORDER_BLOCK_PT1 = "block+pt1"

_EPS = np.finfo(float).eps


def default_threshold(p: ChainParams) -> float:
    """Pairing threshold |Delta| <= a/2: half the inter-qubit frequency step
    separates near-resonant (~J) from non-resonant (~a) transitions."""
    return 0.5 * p.a


def epsilon_param(Omega: float, Delta: float, tau: float) -> float:
    """Transition probability of one pulse on a two-level pair.

    (Omega^2 / (Omega^2 + Delta^2)) * sin^2(tau/2 * sqrt(Omega^2 + Delta^2));
    vanishes at the full-cycle drive strengths 2J/sqrt(4k^2-1) for Delta=2J.
    """
    if tau < 0:
        raise ValueError(f"pulse length must be >= 0, got {tau}")
    lam2 = Omega * Omega + Delta * Delta
    if lam2 == 0.0:
        return 0.0
    return (Omega * Omega / lam2) * np.sin(0.5 * tau * np.sqrt(lam2)) ** 2


def _block_u(Omega, Delta, tau, e_m, e_p):
    """Elementwise 2x2 unitaries for arrays of blocks (lab or rotating,
    depending on which energies are passed in).  Returns (u11, u12, u21, u22).
    """
    Delta = np.asarray(Delta, dtype=float)
    lam = np.hypot(Omega, Delta)
    theta = 0.5 * lam * tau
    cos = np.cos(theta)
    sin = np.sin(theta)
    if Omega:
        dl, ol = Delta / lam, Omega / lam
    else:
        # Undriven, lam = |D|; its lam -> 0 limit: sin(theta)*D/lam -> D*tau/2 = 0.
        dl, ol = np.sign(Delta), np.zeros_like(lam)
    ph_m = np.exp(-0.5j * Delta * tau - 1j * np.asarray(e_m) * tau)
    ph_p = np.exp(+0.5j * Delta * tau - 1j * np.asarray(e_p) * tau)
    u11 = (cos + 1j * dl * sin) * ph_m
    off = 1j * ol * sin
    u12 = off * ph_m
    u21 = off * ph_p
    u22 = (cos - 1j * dl * sin) * ph_p
    return u11, u12, u21, u22


@dataclass(frozen=True)
class BlockPartition:
    """Partition of the basis into two-level pairs and singletons, or the
    blocks of one that hold a given set of live states.

    Array view: a pair is two basis states, ``m_idx`` (the state with the
    flipped bit clear) in strictly ascending order and ``p_idx``, with
    their rotating-frame energies ``e_m`` and ``e_p``; its detuning is
    ``e_p - e_m``.  ``singletons`` lists the leftover states in ascending
    order, with their energies ``e_single``.  Each energy is the entry of
    :func:`rotating_energy_table` at its state, bit for bit, and the
    partition carries no other.  ``n_conflicts`` counts states whose
    closest in-threshold partner ended up paired elsewhere (resolved by
    the greedy matching of two or more qubits' candidates, the one place
    where pairs are ordered by |delta|); it is the whole partition's
    count, with live states or without.
    """

    L: int
    m_idx: np.ndarray
    p_idx: np.ndarray
    singletons: np.ndarray
    e_m: np.ndarray
    e_p: np.ndarray
    e_single: np.ndarray
    n_conflicts: int


def _greedy_partition(cand_m, cand_p, e_rot, n):
    """Greedy matching of the candidates in order of increasing |Delta|,
    ties broken by state indices, and its conflict count.  Returns the
    selected (m, p) in that scan order and ``n_conflicts``.

    A candidate's rank is its position in the scan.  The matching is built
    in rounds: each round takes every remaining candidate that ranks first
    at both of its states, then drops the candidates that touch a taken
    state.  In a strict order this is the one-by-one scan's matching
    (Preis, STACS 1999; Manne & Bisseling, PPAM 2007), and a candidate set
    that is already a matching is taken whole in one round.
    """
    cand_abs = np.abs(e_rot[cand_p] - e_rot[cand_m])
    order = np.lexsort((cand_p, cand_m, cand_abs))
    m, q, d = cand_m[order], cand_p[order], cand_abs[order]
    live = np.arange(len(d))
    won = np.zeros(len(d), dtype=bool)
    taken = np.zeros(n, dtype=bool)
    first = None
    while first is None or live.size:
        ml, ql = m[live], q[live]
        # Each state's lowest live rank, one 1-D call per end: numpy 2.4's
        # ufunc.at misreads a 2-D index with broadcast values.
        top = np.full(n, len(d))
        np.minimum.at(top, ml, live)
        np.minimum.at(top, ql, live)
        first = top if first is None else first
        win = (top[ml] == live) & (top[ql] == live)
        won[live[win]] = True
        taken[ml[win]] = taken[ql[win]] = True
        live = live[~(taken[ml] | taken[ql])]
    m_idx, p_idx, abs_delta = m[won], q[won], d[won]
    # A state is "conflicted" when it has a candidate but is not paired
    # through its closest one, the first-round lowest rank; a paired state
    # is "happy" when its pair's |Delta| is that closest one's.
    happy = [np.count_nonzero(abs_delta == d[first[s]]) for s in (m_idx, p_idx)]
    n_conflicts = int(np.count_nonzero(first < len(d)) - sum(happy))
    return m_idx, p_idx, n_conflicts


def _reach(p: ChainParams, nu: float) -> list[int]:
    """The qubits whose flip can come within threshold of a drive at nu.

    Flipping qubit k moves the rotating energy by omega_k - nu plus at most
    2J from its two neighbours, so only qubits with |omega_k - nu| <=
    a/2 + 2J can pair.  The bound is widened by four times the rounding
    of a table difference: each entry takes 2L + 1 roundings of partial
    sums no larger than ``scale / 2``, so a difference is off by at most
    (L + 1) eps scale, and none that reads in threshold is missed, even
    where omega0 dwarfs a.
    """
    L = p.L
    omegas = [p.omega(k) for k in range(L)]
    scale = sum(map(abs, omegas)) + L * (p.J + abs(nu))
    slack = 4 * (L + 1) * _EPS * scale
    reach = default_threshold(p) + 2.0 * p.J + slack
    return [k for k, w in enumerate(omegas) if abs(w - nu) <= reach]


def _flip_candidates(e_rot, bit, threshold):
    """The in-threshold flips of one bit over the whole basis, as (m, p)
    in ascending m, where m has the bit clear and p = m ^ bit: the table
    scan that :func:`partition_blocks` runs only with two or more qubits
    in reach."""
    # Axis 1 of this view is the bit: [:, 0] holds the states with it
    # clear, in ascending order, and [:, 1] their flip partners.
    e = e_rot.reshape(-1, 2, bit)
    lo = np.flatnonzero(np.abs(e[:, 1] - e[:, 0]) <= threshold)
    # Entry f of [:, 0] is state (f // bit) * 2 bit + f % bit.
    lo += lo & -bit
    return lo, lo | bit


def _live_partition(p: ChainParams, nu: float, reach, threshold, states):
    """:func:`partition_blocks` of the ascending ``states`` (every state
    for a whole partition) with at most one qubit in ``reach``, in
    O(len(states)): it reads no table and builds no array longer than
    ``states``.

    Each state's block is its flip of that qubit, a pair when their
    detuning is within ``threshold``; the energies are read only at the
    states and the flips they need (:func:`rotating_energies`).  With no
    qubit in reach, qubit 0 stands in and every state comes out a
    singleton.  The pairs' m come deduplicated in ascending order without
    a sort while no state has the bit set (a pulse on a qubit the state
    has not reached) or every state's flip is in ``states`` too (one the
    state has reached, in the selective regime, and a whole partition);
    otherwise ``np.unique`` merges them.
    """
    # Out of reach, every flip detunes by more than a/2 + slack: none pairs.
    bit = 1 << (reach[0] if reach else 0)
    m = states & ~bit
    up = m != states
    n_up = np.count_nonzero(up)
    if not n_up:
        e_m = e_s = rotating_energies(p, nu, m)
        e_p = rotating_energies(p, nu, m | bit)
        ok = np.abs(e_p - e_m) <= threshold
        single = ~ok
    elif 2 * n_up == len(states) and np.array_equal(lo := m[~up], m[up]):
        m = lo
        e_s = rotating_energies(p, nu, states)
        e_m, e_p = e_s[~up], e_s[up]
        ok = np.abs(e_p - e_m) <= threshold
        single = np.empty(len(states), dtype=bool)
        single[~up] = single[up] = ~ok
    else:
        # Each state's pair; a live state and its live flip give it twice.
        n = len(states)
        e = rotating_energies(p, nu, np.concatenate((m, m | bit)))
        e_m, e_p = e[:n], e[n:]
        ok = np.abs(e_p - e_m) <= threshold
        single = ~ok
        e_s = np.where(up, e_p, e_m)
        m, first = np.unique(m, return_index=True)
        e_m, e_p, ok = e_m[first], e_p[first], ok[first]
    m = m[ok]
    return BlockPartition(p.L, m, m | bit, states[single], e_m[ok], e_p[ok], e_s[single], 0)


def partition_blocks(pulse: Pulse, p: ChainParams, live=None) -> BlockPartition:
    """Pair every basis state with its closest single-flip partner, or,
    given the ascending states ``live``, return only the blocks that hold
    one of them: the pairs whose m or p is live and the live singletons.
    A whole partition is the partition of every state live.

    Candidate pairs are the single-flip pairs whose rotating-frame detuning
    has magnitude at most :func:`default_threshold` (a/2).  Only the qubits
    in :func:`_reach` can pair, one on a walk pulse while 8J < a and none
    when nu is far from every site frequency.  Pairs come in ascending
    ``m_idx``, and each block carries the energies of its states.

    Reach alone picks the path.  With at most one qubit in reach each state
    has at most one candidate, its flip of that qubit (with none, of a
    stand-in qubit, never in threshold), and the candidates form a
    matching: the partition reads rotating energies only at the states
    and their flips (:func:`_live_partition`).  With two or more,
    every state's flips are scanned over the rotating table
    (:func:`_flip_candidates`) and matched greedily in order of increasing
    |detuning|, ties broken by state indices, a state keeping its best
    partner that is still free (:func:`_greedy_partition`, in rounds).
    Candidates that already form a matching (no state in two of them, as
    in the selective regime) are all taken in its first round with
    ``n_conflicts`` 0.  Otherwise ``n_conflicts`` counts the in-threshold
    states that lost their closest candidate and fell through to their
    next candidate or a singleton.  Flips outside the threshold take no
    part in that count: they cannot put a state in threshold, nor tie with
    an in-threshold |detuning|.  The matching then becomes a partner map,
    each state's partner or itself for a singleton, and the live states'
    entries give the live singletons and, in ascending m, the pairs that
    hold a live state.
    """
    threshold = default_threshold(p)
    reach = _reach(p, pulse.nu)
    states = np.arange(1 << p.L) if live is None else live
    if len(reach) < 2:
        return _live_partition(p, pulse.nu, reach, threshold, states)
    e_rot = rotating_energy_table(p, pulse.nu)
    n = len(e_rot)
    cands = [_flip_candidates(e_rot, 1 << k, threshold) for k in reach]
    cand_m, cand_p = (np.concatenate(c) for c in zip(*cands))
    m_idx, p_idx, n_conflicts = _greedy_partition(cand_m, cand_p, e_rot, n)
    partner = np.arange(n)
    partner[m_idx], partner[p_idx] = p_idx, m_idx
    mine = partner[states]
    singletons = states[mine == states]
    m_idx = np.unique(np.minimum(states, mine)[mine != states])
    p_idx = partner[m_idx]
    return BlockPartition(
        L=p.L,
        m_idx=m_idx,
        p_idx=p_idx,
        singletons=singletons,
        e_m=e_rot[m_idx],
        e_p=e_rot[p_idx],
        e_single=e_rot[singletons],
        n_conflicts=n_conflicts,
    )


class _Generator(NamedTuple):
    """The dressing generator A as CSC arrays.  Column q lists the rows q'
    of its nonzero A_{q'q}, in no particular order."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)


def _block_rotation(part: BlockPartition, Omega: float):
    """Analytic eigensystem of the block Hamiltonian of a whole partition,
    in basis-index slots.

    Slot m of a pair holds the lower eigenvalue of its 2x2 block, with
    eigenvector c|m> + s|p>, and slot p the upper one, with -s|m> + c|p>,
    where (c, s) = (cos, sin)(phi/2) and phi = atan2(Omega, Delta).
    Singletons keep their diagonal energy and basis vector.  These columns
    form the orthogonal W; returns (eps0, c, s) with c, s per pair.
    """
    eps0 = np.empty(1 << part.L)
    eps0[part.singletons] = part.e_single
    eps0[part.m_idx], eps0[part.p_idx], c, s = _pair_eigen(Omega, part.e_m, part.e_p)
    return eps0, c, s


def _pair_eigen(Omega, e_m, e_p):
    """Eigenvalues and rotation of 2x2 blocks with diagonal (e_m, e_p),
    detuned by delta = e_p - e_m and coupled by the drive Omega:
    (eps_m, eps_p, c, s), elementwise, with eps_m below eps_p as
    :func:`_block_rotation` slots them."""
    delta = e_p - e_m
    lam = np.hypot(Omega, delta)
    mean = 0.5 * (e_m + e_p)
    half = 0.5 * np.arctan2(Omega, delta)
    return mean - 0.5 * lam, mean + 0.5 * lam, np.cos(half), np.sin(half)


def _turn(c, s, xm, xp):
    """The rotation [[c, s], [-s, c]] on gathered pair amplitudes."""
    return c * xm + s * xp, c * xp - s * xm


def _rotate(part: BlockPartition, c, s, x):
    """W^T x: the rotation [[c, s], [-s, c]] on each pair's (x_m, x_p),
    singletons unchanged.  Passing -s gives W x."""
    out = x.copy()
    m, p = part.m_idx, part.p_idx
    out[m], out[p] = _turn(c, s, x[m], x[p])
    return out


def _block_step(part: BlockPartition, Omega: float, tau: float, amps, to_rot, to_lab):
    """W e^{-i eps0 tau} W^T on the pairs and singletons of ``part``, from
    the lab amplitudes ``amps``, inside the frame that the levels
    ``to_rot`` and ``to_lab`` enter and leave (:func:`exact.propagate_pulse`).

    Each pair and singleton takes the arithmetic of the dense form
    ``_rotate(part, c, -s, exp(-i eps0 tau) _rotate(part, c, s, amps))``
    framed on the whole array (:func:`exact.rotating_step`), in the same
    order, so its entries match that form bit for bit.  Every entry
    outside ``part`` is returned zero: given the live blocks, that is the
    zero the dense form also gives, bar its sign.
    """
    m, p, single = part.m_idx, part.p_idx, part.singletons
    # A pair's p state holds one more excitation than its m state.
    cm = np.bitwise_count(m)
    cp = cm + 1
    eps_m, eps_p, c, s = _pair_eigen(Omega, part.e_m, part.e_p)
    ym, yp = _turn(
        c, s, frame_phase(amps[m], cm, to_rot), frame_phase(amps[p], cp, to_rot)
    )
    ym = np.exp(-1j * eps_m * tau) * ym
    yp = np.exp(-1j * eps_p * tau) * yp
    # Every temporary of a pulse is 2^(L-1) entries long when all pairs
    # are live: free these before the output is allocated.
    del eps_m, eps_p
    zm, zp = _turn(c, -s, ym, yp)
    del ym, yp
    out = np.zeros_like(amps)
    out[m] = frame_phase(zm, cm, to_lab)
    out[p] = frame_phase(zp, cp, to_lab)
    cs = np.bitwise_count(single)
    x = frame_phase(amps[single], cs, to_rot)
    out[single] = frame_phase(np.exp(-1j * part.e_single * tau) * x, cs, to_lab)
    return out


def _pt1_dressing(part: BlockPartition, Omega: float, degeneracy_tol: float):
    """First-order correction generator A, level-shifted eigenvalues and the
    block rotation.

    A_{q'q} = M_{q'q} / (eps_q - eps_q') with M = W^T V W, V the -Omega/2
    single-flip couplings not inside any pair, skipping near-degenerate
    denominators.  The returned eigenvalues include the level corrections
    sum_{q'} M_{q'q}^2 / (eps_q - eps_q') implied by the same elements.
    Returns (eps, c, s, A).

    M is formed from the partition's arrays.  Column x couples through bit j
    to the block of r1 = x ^ 2^j (rows r1 and its partner p(r1)) and, when x
    is paired, through its partner's flip to the block of r2 = p(x) ^ 2^j.
    The two edges reach the same pair exactly when r2 = p(r1), and their
    products are then summed in one slot; otherwise the two blocks differ.
    So every row of a column appears once, and A is laid out column by
    column without a sort.  Entries that vanish are dropped, so A's pattern
    never exceeds that of the sparse product W^T V W.
    """
    L, n = part.L, 1 << part.L
    eps0, c, s = _block_rotation(part, Omega)
    m, p = part.m_idx, part.p_idx
    idx = np.arange(n)
    partner = idx.copy()
    partner[m] = p
    partner[p] = m
    # W[x, x] and W[x, p(x)] for every basis state x.
    w_diag = np.ones(n)
    w_diag[m] = w_diag[p] = c
    w_off = np.zeros(n)
    w_off[m] = -s
    w_off[p] = s

    bits = 1 << np.arange(L)
    r1 = idx[:, None] ^ bits
    r2 = partner[:, None] ^ bits
    pr1 = partner[r1]
    wx = w_diag[:, None]
    wpx = w_off[partner][:, None]  # W[p(x), x]: 0 for a singleton
    e1_like, e1_unlike = w_diag[r1] * wx, w_off[r1] * wx  # rows r1, p(r1)
    e2_like, e2_unlike = w_diag[r2] * wpx, w_off[r2] * wpx  # rows r2, p(r2)
    same = r2 == pr1
    own = r1 == partner[:, None]  # the pair's own flip, which V leaves out
    # A flip that is not next to the pair's own bit leaves its detuning, and
    # so its mixing angle, unchanged: the unlike slots' cs - sc is then
    # exactly zero, though the two angles may differ by rounding.
    pair_bit = (idx ^ partner)[:, None]
    same_angle = (bits << 1 != pair_bit) & (bits != pair_bit << 1)
    prod = np.stack((
        np.where(same, np.where(own, 0.0, e1_like + e2_unlike), e1_like),
        np.where(same, np.where(same_angle, 0.0, e1_unlike + e2_like), e1_unlike),
        np.where(same, 0.0, e2_like),
        np.where(same, 0.0, e2_unlike),
    ), axis=-1)
    prod *= -0.5 * Omega
    rows = np.stack((r1, pr1, r2, partner[r2]), axis=-1)

    nz = np.flatnonzero(prod)  # ascending, so grouped by column
    col = nz // (4 * L)
    row = rows.reshape(-1)[nz]
    val = prod.reshape(-1)[nz]
    den = eps0[col] - eps0[row]
    ok = np.abs(den) > degeneracy_tol
    n_skip = int(np.count_nonzero(~ok))
    if n_skip:
        log.warning(
            "skipped %d near-degenerate dressing terms (|den| <= %g)",
            n_skip,
            degeneracy_tol,
        )
        col, row, val, den = col[ok], row[ok], val[ok], den[ok]
    data = val / den
    eps = eps0 + np.bincount(col, weights=val * data, minlength=n)
    indptr = np.searchsorted(col, np.arange(n + 1)).astype(np.intc)
    return eps, c, s, _Generator(data, row.astype(np.intc), indptr)


def _cayley_factor(a: _Generator):
    """``I - A/2`` as real CSC, and its LU in the symmetric ordering and
    diagonal pivoting that the module docstring explains."""
    n = len(a.indptr) - 1
    # Each column of I - A/2 holds its diagonal 1 first, then -A/2; splu
    # sorts the rows of each column itself.
    starts = a.indptr[:-1]
    indices = np.insert(a.indices, starts, np.arange(n, dtype=np.intc))
    data = np.insert(-0.5 * a.data, starts, 1.0)
    indptr = a.indptr + np.arange(n + 1, dtype=np.intc)
    minus = scipy.sparse.csc_matrix((data, indices, indptr), shape=(n, n))
    lu = scipy.sparse.linalg.splu(
        minus,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.1,
        options=dict(SymmetricMode=True),
    )
    return minus, lu


def _solve_complex(lu, b, trans="N"):
    """Solve a real factor against a complex vector as one n x 2 real block."""
    x = lu.solve(np.column_stack((b.real, b.imag)), trans=trans)
    return x[:, 0] + 1j * x[:, 1]


def _apply_pt1(c, eps, tau, a, factor):
    """Cayley-unitarized dressing: S e^{-i eps tau} S^T with S ~ I + A.
    ``factor(a)`` gives ``I - A/2`` and its LU, as :func:`_cayley_factor`
    does; a walk passes one that shares them between its pulses."""
    minus, lu = factor(a)
    # S^T c = (I + A/2)^{-1} (I - A/2) c ; (I + A/2) = (I - A/2)^T.
    cin = _solve_complex(lu, minus @ c, trans="T")
    cmid = np.exp(-1j * eps * tau) * cin
    # S y = (I + A/2) (I - A/2)^{-1} y, and I + A/2 = 2I - (I - A/2).
    y = _solve_complex(lu, cmid)
    return 2.0 * y - minus @ y


def run_protocol_pert(
    psi0: StateVector,
    prot: Protocol,
    order: str = ORDER_BLOCK,
) -> StateVector:
    """Propagate through a protocol with the block (or block+pt1) model.

    ``order`` selects plain block evolution or the additional first-order
    dressing; both conserve the norm exactly (to solver precision).

    Under block+pt1, pulses with the same ``(nu, Omega)`` bit for bit share
    one Cayley factor, built at the first of them and freed after the
    last: the partition, the dressing and so the factor are functions of
    those two and the chain alone, so sharing changes no bit.  Every pulse
    of one walk transition has the same nu, so the walk takes L + 1.
    """
    if order not in (ORDER_BLOCK, ORDER_BLOCK_PT1):
        raise ValueError(f"unknown order {order!r}")
    p = prot.params
    degeneracy_tol = 1e-9 * max(p.a, 1.0)
    factors = _SharedByDrive(prot.pulses)

    def block_step(amps: np.ndarray, pulse: Pulse, to_rot, to_lab) -> np.ndarray:
        part = partition_blocks(pulse, p, np.flatnonzero(amps != 0))
        return _block_step(part, pulse.Omega, pulse.duration, amps, to_rot, to_lab)

    @rotating_step
    def pt1_step(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
        part = partition_blocks(pulse, p)
        eps, c, s, a = _pt1_dressing(part, pulse.Omega, degeneracy_tol)
        factor = partial(factors.take, pulse, _cayley_factor)
        out = _apply_pt1(_rotate(part, c, s, amps), eps, pulse.duration, a, factor)
        return _rotate(part, c, -s, out)

    return propagate_protocol(psi0, prot, block_step if order == ORDER_BLOCK else pt1_step)
