"""Static chain Hamiltonian, rotating-frame pulse Hamiltonian, and the
stationary-analysis helpers built on them.

The static (drive-off) part is diagonal in the computational basis,

    E0(s) = - sum_k w_k * sz_k(s) - 2 J sum_k sz_k(s) * sz_{k+1}(s),

with site frequencies w_k = omega0 + a*k and nearest-neighbour Ising
coupling J.  During a pulse of frequency nu the frame co-rotating with the
drive sees the stationary Hamiltonian whose diagonal uses the detunings
xi_k = w_k - nu and whose only off-diagonal elements sit between basis
states that differ by a single spin flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .basis import BasisState, spin_z_column, total_spin_z

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .protocol import Pulse


@dataclass(frozen=True)
class ChainParams:
    """Static model of the chain: qubit count and the three frequencies.

    All quantities are dimensionless angular frequencies in one common
    unit (hbar = 1); times are inverse frequencies.
    """

    L: int
    omega0: float = 0.0
    a: float = 1.0
    J: float = 0.0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need at least one qubit, got L={self.L}")
        if not self.a > 0:
            raise ValueError(f"frequency step a must be positive, got {self.a}")
        if self.J < 0:
            raise ValueError(f"Ising coupling J must be >= 0, got {self.J}")

    def omega(self, k: int) -> float:
        """Larmor frequency of site k."""
        if not 0 <= k < self.L:
            raise ValueError(f"site index {k} outside [0, {self.L})")
        return self.omega0 + self.a * k


def h0_energy_table(p: ChainParams, idx=None) -> np.ndarray:
    """Lab-frame static energies of the basis states ``idx`` (vectorized).

    Without ``idx``, all 2^L states in index order.  A subset costs
    O(L * len(idx)) and no 2^L array, and each entry is computed by the same
    operations in the same order as in the full table, so it agrees with
    the full table's entry bit for bit.
    """
    if idx is None:
        def column(k):
            return spin_z_column(p.L, k)
        e = np.zeros(1 << p.L)
    else:
        # Indices of chains longer than int64 holds stay Python ints.
        idx = np.asarray(idx, dtype=np.int64 if p.L < 63 else object)

        def column(k):
            return 0.5 - ((idx >> k) & 1).astype(float)
        e = np.zeros(idx.shape)
    for k in range(p.L):
        e -= p.omega(k) * column(k)
    for k in range(p.L - 1):
        e -= 2.0 * p.J * column(k) * column(k + 1)
    return e


def rotating_energy_table(p: ChainParams, nu: float) -> np.ndarray:
    """Diagonal of the rotating-frame Hamiltonian for drive frequency nu.

    Equals the static diagonal with every w_k replaced by xi_k = w_k - nu,
    i.e. the lab energies shifted by nu times the total spin-z.
    """
    return h0_energy_table(p) + nu * total_spin_z(p.L)


def single_flip_deltas(s: BasisState, p: ChainParams) -> list[tuple[int, float]]:
    """|E0(flip(s,k)) - E0(s)| for every qubit k, by direct evaluation.

    Closed forms: a bulk spin gives |w_k +- 2J| or |w_k| depending on the
    neighbour configuration, a border spin gives |w_k +- J|.
    """
    e = h0_energy_table(p, [s.index] + [s.index ^ (1 << k) for k in range(p.L)])
    return [(k, float(abs(e[1 + k] - e[0]))) for k in range(p.L)]


@dataclass(frozen=True)
class RotFrameHam:
    """Stationary rotating-frame Hamiltonian of one pulse.

    Stored as the diagonal (rotating energies) plus the implicit single-flip
    off-diagonal structure; only the dense propagator materializes the full
    matrix.  With phase phi the off-diagonal element for a ground-to-excited
    flip is -(alpha - i*beta)/2 where alpha = Omega*cos(phi),
    beta = Omega*sin(phi); for phi = 0 every such element is -Omega/2 and
    the matrix is real symmetric.
    """

    params: ChainParams
    nu: float
    Omega: float
    phi: float = 0.0
    xi: np.ndarray = field(init=False, repr=False)
    diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("nu", "Omega", "phi"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"pulse field {name} must be finite")
        xi = np.array([self.params.omega(k) - self.nu for k in range(self.params.L)])
        xi.setflags(write=False)
        diag = rotating_energy_table(self.params, self.nu)
        diag.setflags(write=False)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "diagonal", diag)

    @property
    def alpha(self) -> float:
        return self.Omega * np.cos(self.phi)

    @property
    def beta(self) -> float:
        return self.Omega * np.sin(self.phi)

    @property
    def dim(self) -> int:
        return 1 << self.params.L

    @property
    def is_real(self) -> bool:
        return self.beta == 0.0

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (real symmetric when beta = 0)."""
        L, n = self.params.L, self.dim
        idx = np.arange(n)
        if self.is_real:
            h = np.zeros((n, n))
            np.fill_diagonal(h, self.diagonal)
            off = -0.5 * self.alpha
            for k in range(L):
                h[idx ^ (1 << k), idx] = off
        else:
            h = np.zeros((n, n), dtype=complex)
            np.fill_diagonal(h, self.diagonal)
            up = -0.5 * (self.alpha - 1j * self.beta)  # ground -> excited
            for k in range(L):
                bit = 1 << k
                lo = idx[(idx & bit) == 0]
                h[lo ^ bit, lo] = up
                h[lo, lo ^ bit] = np.conj(up)
        return h


def build_rot_ham(p: ChainParams, pulse: "Pulse") -> RotFrameHam:
    """Rotating-frame Hamiltonian for one pulse."""
    return RotFrameHam(p, nu=pulse.nu, Omega=pulse.Omega, phi=pulse.phi)


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


@dataclass(frozen=True)
class ChaosEstimate:
    """Connectivity and level-spacing estimate for the drive-coupled states.

    ``omega_cr`` is the border value 2 * (max coupled spread) / (coupled
    count); ``omega_cr_approx`` is the rounded form a + J/L quoted alongside
    it.  Drive strengths below the border cannot mix the directly coupled
    many-body states into chaotic superpositions.
    """

    m_f: int
    delta_e_f: float
    delta_f: float
    omega_cr: float
    omega_cr_approx: float

    def is_below_border(self, Omega: float) -> bool:
        return Omega < min(self.omega_cr, self.omega_cr_approx)


def chaos_border(p: ChainParams) -> ChaosEstimate:
    """Chaos-border estimate with the drive tuned to the first site.

    Every basis state couples to exactly L single-flip partners, and the
    largest energy difference among them is a*(L-1) + J, so the mean coupled
    spacing is (a*(L-1) + J) / L.
    """
    m_f = p.L
    delta_e_f = p.a * (p.L - 1) + p.J
    delta_f = delta_e_f / m_f
    return ChaosEstimate(
        m_f=m_f,
        delta_e_f=delta_e_f,
        delta_f=delta_f,
        omega_cr=2.0 * delta_f,
        omega_cr_approx=p.a + p.J / p.L,
    )
