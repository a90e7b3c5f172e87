"""Reference quantities and steps the tests check the package against.

The package does not compute the quantities itself; each is written here
from its definition.  The reference steps select the live blocks from the
whole partition, the form the package's steps replaced (the ideal one on
2^L amplitudes with every energy read from the whole table), and
:func:`full_array_step` frames a step with one exponential per basis
state, not with the pulse driver's L + 1 frame levels.
"""

import dataclasses
from fractions import Fraction
from functools import lru_cache

import numpy as np

from isingpulse import BasisState, ChainParams, h0_energy_table
from isingpulse.exact import frame_phase
from isingpulse.hamiltonian import RotFrameHam, rotating_energy_table
from isingpulse.pert import BlockPartition, _block_step, _block_u, partition_blocks
from isingpulse.protocol import Protocol, _canonical_pair


def spin_z(s: BasisState, k: int) -> float:
    """Spin-z eigenvalue of qubit k: +1/2 for bit 0 (ground), -1/2 for bit 1."""
    return 0.5 - s.bit(k)


def spin_z_columns(L: int) -> list[np.ndarray]:
    """Spin-z of each qubit k over all 2^L states, as the tensor product
    1 x ... x diag(+1/2, -1/2) x ... x 1 with qubit k on bit k of the index."""
    return [np.kron(np.ones(1 << (L - 1 - k)), np.kron([0.5, -0.5], np.ones(1 << k)))
            for k in range(L)]


@lru_cache(maxsize=8)
def total_spin_z(L: int) -> np.ndarray:
    """Total spin-z of every basis state: the sum of the qubit columns."""
    tot = sum(spin_z_columns(L))
    tot.setflags(write=False)
    return tot


def full_array_step(step):
    """Adapt ``step(amps, pulse)``, which evolves rotating-frame amplitudes
    over a pulse, to the pulse driver's contract without reading the frame
    levels it passes: every entry enters the frame as amps[s] * exp(-i nu
    t_start Sz(s)) and leaves it as x[s] * exp(+i nu t_end Sz(s)), with
    Sz from :func:`total_spin_z`."""

    def framed(amps, pulse, to_rot, to_lab):
        tsz = total_spin_z(len(amps).bit_length() - 1)
        rot = np.multiply(amps, np.exp(-1j * pulse.nu * pulse.t_start * tsz))
        return np.multiply(step(rot, pulse), np.exp(1j * pulse.nu * pulse.t_end * tsz))

    return framed


def reference_walk_order(L: int, mirror: bool) -> list[int]:
    """The qubit each walk pulse flips, with each orientation written out:
    from qubit 0, flip j then j - 1 for j = 2..L-1 after 0, 1; from qubit
    L - 1, flip j then j + 1 for j = L-3..0 after L - 1, L - 2."""
    if not mirror:
        flips = [0, 1]
        for j in range(2, L):
            flips += [j, j - 1]
    else:
        flips = [L - 1, L - 2]
        for j in range(L - 3, -1, -1):
            flips += [j, j + 1]
    return flips


def reference_cayley_arrays(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSC (data, indices, indptr) of I - A/2 for a generator A given
    as CSC arrays: each column's diagonal 1 first, then its entries of
    -A/2 in A's order, placed by a mask of the diagonal slots."""
    n = len(a.indptr) - 1
    indptr = a.indptr + np.arange(n + 1, dtype=np.intc)
    first = indptr[:-1]
    rest = np.ones(indptr[-1], dtype=bool)
    rest[first] = False
    indices = np.empty(indptr[-1], dtype=np.intc)
    indices[first] = np.arange(n)
    indices[rest] = a.indices
    data = np.empty(indptr[-1])
    data[first] = 1.0
    data[rest] = -0.5 * a.data
    return data, indices, indptr


def single_flip_deltas(s: BasisState, p: ChainParams) -> list[tuple[int, float]]:
    """|E0(flip(s,k)) - E0(s)| for every qubit k, by direct evaluation.

    Closed forms: a bulk spin gives |w_k +- 2J| or |w_k| depending on the
    neighbour configuration, a border spin gives |w_k +- J|.
    """
    e = h0_energy_table(p, [s.index] + [s.index ^ (1 << k) for k in range(p.L)])
    return [(k, float(abs(e[1 + k] - e[0]))) for k in range(p.L)]


def resonance_frequency(s: BasisState, k: int, p: ChainParams) -> float:
    """Drive frequency resonant with flipping qubit k of state s: the exact
    |E0(flip) - E0(source)| of the transition's canonical pair, the pair
    whose energies tune every pulse of that transition."""
    e_src, e_dst = h0_energy_table(p, _canonical_pair(s, k))
    return float(abs(e_dst - e_src))


def eta_param(Omega: float, a: float) -> float:
    """Non-resonant transition probability Omega^2 / (4 a^2)."""
    if not a > 0:
        raise ValueError(f"frequency step a must be positive, got {a}")
    return Omega * Omega / (4.0 * a * a)


def pair_delta(part: BlockPartition) -> np.ndarray:
    """Rotating-frame detuning of each pair, e_p - e_m."""
    return part.e_p - part.e_m


def greedy_matching(order, cand_m, cand_p):
    """The entries of ``order`` whose candidate pair still has both states
    free when a scan in that order reaches it."""
    taken = set()
    sel = []
    pairs = zip(order.tolist(), cand_m[order].tolist(), cand_p[order].tolist())
    for i, m, q in pairs:
        if m not in taken and q not in taken:
            taken.update((m, q))
            sel.append(i)
    return np.array(sel, dtype=int)


def reference_greedy_partition(cand_m, cand_p, e_rot, n):
    """The one-by-one greedy scan of the candidates in order of increasing
    |Delta|, ties broken by state indices, and a second pass over every
    candidate that counts the states not paired through their closest one.
    Returns the selected (m, p) in scan order and ``n_conflicts``."""
    cand_abs = np.abs(e_rot[cand_p] - e_rot[cand_m])
    order = greedy_matching(np.lexsort((cand_p, cand_m, cand_abs)), cand_m, cand_p)
    m_idx, p_idx = cand_m[order], cand_p[order]
    best_abs = np.full(n, np.inf)
    np.minimum.at(best_abs, cand_m, cand_abs)
    np.minimum.at(best_abs, cand_p, cand_abs)
    happy = np.zeros(n, dtype=bool)
    abs_delta = cand_abs[order]
    happy[m_idx] = abs_delta == best_abs[m_idx]
    happy[p_idx] = abs_delta == best_abs[p_idx]
    n_conflicts = int(np.count_nonzero(np.isfinite(best_abs) & ~happy))
    return m_idx, p_idx, n_conflicts


def live_blocks(part: BlockPartition, amps: np.ndarray) -> BlockPartition:
    """The pairs and singletons of a whole partition that hold a nonzero
    entry of ``amps``, selected by masks over every block."""
    live = amps != 0
    pairs = live[part.m_idx] | live[part.p_idx]
    single = live[part.singletons]
    return dataclasses.replace(
        part,
        m_idx=part.m_idx[pairs],
        p_idx=part.p_idx[pairs],
        singletons=part.singletons[single],
        e_m=part.e_m[pairs],
        e_p=part.e_p[pairs],
        e_single=part.e_single[single],
    )


def reference_block_step(p: ChainParams, amps, pulse, to_rot, to_lab):
    """The block route's step on the live blocks of the whole partition."""
    part = live_blocks(partition_blocks(pulse, p), amps)
    return _block_step(part, pulse.Omega, pulse.duration, amps, to_rot, to_lab)


def reference_ideal_step(p: ChainParams, amps, pulse, to_rot, to_lab):
    """The ideal state's step on 2^L amplitudes and the live blocks of the
    whole partition, with every energy read from the whole rotating
    table: the block phases of those blocks, then the intended pair's
    transition in full, each entry framed where it is gathered."""
    src, k = pulse.target
    tgt = src.index ^ (1 << k)
    mm, pp = min(src.index, tgt), max(src.index, tgt)
    part = live_blocks(partition_blocks(pulse, p), amps)
    e_rot = rotating_energy_table(p, pulse.nu)
    out = np.zeros_like(amps)
    tau = pulse.duration
    m, q, s = part.m_idx, part.p_idx, part.singletons
    e_m, e_q = e_rot[m], e_rot[q]
    u11, _, _, u22 = _block_u(pulse.Omega, e_q - e_m, tau, e_m, e_q)
    live = np.concatenate((m, q, s))
    phase = np.concatenate(
        (u11 / np.abs(u11), u22 / np.abs(u22), np.exp(-1j * e_rot[s] * tau))
    )
    counts = np.bitwise_count(live)
    x = frame_phase(amps[live], counts, to_rot)
    out[live] = frame_phase(x * phase, counts, to_lab)
    d = e_rot[pp] - e_rot[mm]
    v11, v12, v21, v22 = _block_u(pulse.Omega, d, tau, e_rot[mm], e_rot[pp])
    ends = np.array([mm, pp])
    counts = np.bitwise_count(ends)
    am, ap = frame_phase(amps[ends], counts, to_rot)
    y = np.array([v11 * am + v12 * ap, v21 * am + v22 * ap])
    out[ends] = frame_phase(y, counts, to_lab)
    return out


def assert_energies_from_table(part: BlockPartition, p: ChainParams, nu: float):
    """Each energy a partition carries is the whole rotating energy
    table's entry at its state, bit for bit."""
    e_rot = rotating_energy_table(p, nu)
    for states, e in ((part.m_idx, part.e_m), (part.p_idx, part.e_p),
                      (part.singletons, part.e_single)):
        assert e.dtype == e_rot.dtype and e.tobytes() == e_rot[states].tobytes()


def protocol_target_index(prot: Protocol) -> int:
    """Basis index of the excited branch after the last pulse of a walk."""
    idx = 0
    for pu in prot.pulses:
        _, k = pu.target
        idx ^= 1 << k
    return idx


def paper_transition(pulse) -> tuple[int, int]:
    """The transition a walk pulse drives on paper: the flipped qubit k and
    how many of k's neighbours its source state has excited."""
    src, k = pulse.target
    return k, sum(src.bit(j) for j in (k - 1, k + 1) if 0 <= j < src.L)


def xi(ham: RotFrameHam) -> np.ndarray:
    """Rotating-frame site detunings xi_k = w_k - nu."""
    return np.array([ham.params.omega(k) - ham.nu for k in range(ham.params.L)])


def fake_transitions(p: ChainParams) -> list[float]:
    """Coupling values J at which an unwanted transition becomes resonant.

    Four families: a*k/4 and a*k/2 for k = 1..L-3, and a*k and a*k/3 for
    k = 1..L-2.  Returned sorted without duplicates.

    These are the generic single-flip collisions of the chain, listed
    whether or not a given pulse sequence populates the states involved.
    Which ones the entanglement walk activates depends on its orientation.
    At L = 6 and J <= a, the walk from qubit 0 activates a/3, a/2, 2a/3
    and a: its one 4J pulse flips qubit 1 back, and the lower-frequency
    neighbour is the border qubit 0, so that collision falls at a/3 and
    never at a/4.  The mirror walk (with omega0 > J) activates a/4, a/2,
    3a/4 and a: its 4J pulse flips qubit L-2 back, resonant with qubit L-3
    of the parked |0...0> branch at J = a/4.
    """
    if p.L < 3:
        raise ValueError(f"fake-transition analysis needs L >= 3, got {p.L}")
    ratios: set[Fraction] = set()
    for k in range(1, p.L - 2):
        ratios.add(Fraction(k, 4))
        ratios.add(Fraction(k, 2))
    for k in range(1, p.L - 1):
        ratios.add(Fraction(k, 1))
        ratios.add(Fraction(k, 3))
    return [p.a * float(r) for r in sorted(ratios)]
