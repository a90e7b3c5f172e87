"""Reference quantities the tests check the package against.

The package does not compute these itself; each is written here from its
definition.
"""

from fractions import Fraction

import numpy as np

from isingpulse import BasisState, ChainParams, h0_energy_table
from isingpulse.hamiltonian import RotFrameHam
from isingpulse.protocol import Protocol


def spin_z_columns(L: int) -> list[np.ndarray]:
    """Spin-z of each qubit k over all 2^L states, as the tensor product
    1 x ... x diag(+1/2, -1/2) x ... x 1 with qubit k on bit k of the index."""
    return [np.kron(np.ones(1 << (L - 1 - k)), np.kron([0.5, -0.5], np.ones(1 << k)))
            for k in range(L)]


def total_spin_z(L: int) -> np.ndarray:
    """Total spin-z of every basis state: the sum of the qubit columns."""
    return sum(spin_z_columns(L))


def single_flip_deltas(s: BasisState, p: ChainParams) -> list[tuple[int, float]]:
    """|E0(flip(s,k)) - E0(s)| for every qubit k, by direct evaluation.

    Closed forms: a bulk spin gives |w_k +- 2J| or |w_k| depending on the
    neighbour configuration, a border spin gives |w_k +- J|.
    """
    e = h0_energy_table(p, [s.index] + [s.index ^ (1 << k) for k in range(p.L)])
    return [(k, float(abs(e[1 + k] - e[0]))) for k in range(p.L)]


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
