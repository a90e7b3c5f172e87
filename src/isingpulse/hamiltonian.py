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

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import excitation_count, spin_z_levels


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
        # The one check of the chain length: an integral number, kept as int.
        integral = isinstance(self.L, float) and self.L.is_integer()
        if not (integral or isinstance(self.L, (int, np.integer))):
            raise ValueError(f"chain length L must be an integer, got {self.L!r}")
        object.__setattr__(self, "L", int(self.L))
        for name in ("omega0", "a", "J"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


def _h0_energies(p: ChainParams, idx) -> np.ndarray:
    """Lab-frame static energies of the basis states ``idx``, the package's
    one energy evaluator: every field term, then every coupling term."""
    # Indices of chains longer than int64 holds stay Python ints.
    idx = np.asarray(idx, dtype=np.int64 if p.L < 63 else object)

    def column(k):
        # float even for Python-int indices, or ``e -=`` cannot cast.
        return 0.5 - ((idx >> k) & 1).astype(float)

    e = np.zeros(idx.shape)
    for k in range(p.L):
        e -= p.omega(k) * column(k)
    right = column(0)  # each column is built once per loop
    for k in range(p.L - 1):
        left, right = right, column(k + 1)
        e -= 2.0 * p.J * left * right
    return e


@lru_cache(maxsize=1)
def _static_energy_table(p: ChainParams) -> np.ndarray:
    """Read-only lab-frame energies of all 2^L states, kept for the last
    chain asked: every pulse of a run reads the same table."""
    e = _h0_energies(p, np.arange(1 << p.L))
    e.setflags(write=False)
    return e


def h0_energy_table(p: ChainParams, idx=None) -> np.ndarray:
    """Lab-frame static energies of the basis states ``idx`` (vectorized).

    Without ``idx``, all 2^L states in index order, as a fresh writable
    copy of the cached table.  A subset costs O(L * len(idx)) and no 2^L
    array; it comes from the table's evaluator, so it agrees bit for bit.
    An index that is not an integer in [0, 2^L) raises ValueError.
    """
    if idx is None:
        return _static_energy_table(p).copy()
    # Checked as Python ints, so the bound holds past int64 too.
    bad = [i for i in np.asarray(idx, dtype=object).flat
           if not isinstance(i, (int, np.integer)) or not 0 <= i < 1 << p.L]
    if bad:
        raise ValueError(f"basis index {bad[0]!r} is not an integer in [0, 2^{p.L})")
    return _h0_energies(p, idx)


def rotating_energy_table(p: ChainParams, nu: float) -> np.ndarray:
    """Diagonal of the rotating-frame Hamiltonian for drive frequency nu.

    Equals the static diagonal with every w_k replaced by xi_k = w_k - nu,
    i.e. the lab energies shifted by nu times the total spin-z, gathered
    from the L + 1 levels by excitation count.  The lab energies are built
    once per chain and cached read-only, so a call costs one O(2^L) gather
    and multiply-add; the result is a fresh array.  Reach alone decides
    whether a partition reads it: only with two or more qubits in reach
    (:func:`pert.partition_blocks`).
    """
    return _static_energy_table(p) + nu * spin_z_levels(p.L)[excitation_count(p.L)]


def rotating_energies(p: ChainParams, nu: float, states: np.ndarray) -> np.ndarray:
    """The entries of :func:`rotating_energy_table` at the basis states
    ``states``, in O(len(states)): each is the static table's entry plus
    nu times the state's spin-z level, the table's own two float
    operations, so the two agree bit for bit.  The states are not checked."""
    levels = spin_z_levels(p.L)[np.bitwise_count(states)]
    return _static_energy_table(p)[states] + nu * levels


@dataclass(frozen=True)
class RotFrameHam:
    """Stationary rotating-frame Hamiltonian of one pulse.

    Stored as the diagonal (rotating energies) plus the implicit single-flip
    off-diagonal structure, every element of which is -Omega/2: pulses are
    real, so the matrix is real symmetric.  Only the dense propagator
    materializes it.
    """

    params: ChainParams
    nu: float
    Omega: float
    diagonal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        diag = rotating_energy_table(self.params, self.nu)
        diag.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)

    def dense(self) -> np.ndarray:
        """Materialize the full real symmetric matrix."""
        L = self.params.L
        idx = np.arange(1 << L)
        h = np.zeros((idx.size, idx.size))
        np.fill_diagonal(h, self.diagonal)
        for k in range(L):
            h[idx ^ (1 << k), idx] = -0.5 * self.Omega
        return h


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
