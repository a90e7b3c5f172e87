"""Computational basis of the L-qubit chain and state-vector container.

Basis states are labelled by integers whose binary digits give the state of
each qubit: bit k = 0 means qubit k is in its single-particle ground state
(spin-z eigenvalue +1/2), bit k = 1 means it is excited (-1/2).  The
all-zero string is therefore the lowest configuration of the static field
term, and flipping one bit changes exactly one spin.  Per-state spin values
are cached only as excitation counts and the L + 1 total spin-z levels.

A state is held in one of two forms: :class:`StateVector`, all 2^L
amplitudes, or :class:`SupportState`, the ascending indices of the entries
that may be nonzero and their amplitudes.  Either is its amplitudes
plus a clock, always in the laboratory frame, and
:func:`exact.propagate_pulse` steps either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapacityError

# State vectors are dense arrays of 2^L complex amplitudes; above this the
# memory cost stops being desk-scale.
MAX_QUBITS_STATE = 20

NORM_TOL = 1e-10

# Relative tolerance of every clock comparison: pulse starts, a state's
# clock against a pulse, and the two states a fidelity compares.
CLOCK_TOL = 1e-9


def clocks_differ(t: float, ref: float) -> bool:
    """Whether time ``t`` is off the reference clock ``ref`` by more than
    CLOCK_TOL * (1 + |ref|).  Written so that a NaN time differs."""
    return not abs(t - ref) <= CLOCK_TOL * (1.0 + abs(ref))


@dataclass(frozen=True)
class BasisState:
    """One computational basis state of an L-qubit chain."""

    index: int
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need at least one qubit, got L={self.L}")
        if not 0 <= self.index < (1 << self.L):
            raise ValueError(
                f"index {self.index} outside [0, 2^{self.L}) basis range"
            )

    def bit(self, k: int) -> int:
        if not 0 <= k < self.L:
            raise ValueError(f"qubit index {k} outside [0, {self.L})")
        return (self.index >> k) & 1

    def bits(self) -> str:
        """Bit string read left to right as qubit 0 to qubit L-1."""
        return "".join(str(self.bit(k)) for k in range(self.L))


def flip(s: BasisState, k: int) -> BasisState:
    """Basis state with qubit k flipped; involution on the basis."""
    if not 0 <= k < s.L:
        raise ValueError(f"qubit index {k} outside [0, {s.L})")
    return BasisState(s.index ^ (1 << k), s.L)


@lru_cache(maxsize=64)
def excitation_count(L: int) -> np.ndarray:
    """Number of excited qubits (set bits) of every basis state."""
    cnt = np.bitwise_count(np.arange(1 << L))
    cnt.setflags(write=False)
    return cnt


@lru_cache(maxsize=64)
def spin_z_levels(L: int) -> np.ndarray:
    """The L + 1 values of total spin-z, L/2 - c for c excited qubits."""
    levels = 0.5 * L - np.arange(L + 1)
    levels.setflags(write=False)
    return levels


def _norm(values: np.ndarray) -> float:
    """2-norm of complex values, read as one contiguous float vector: one
    dot product where ``np.linalg.norm`` takes two strided ones.  A NaN
    entry gives a NaN norm."""
    x = np.ascontiguousarray(values).view(float)
    return math.sqrt(x @ x)


@dataclass(frozen=True)
class StateVector:
    """2^L complex amplitudes at a given time.

    Amplitudes are the full complex coefficients in the fixed global
    basis, in the laboratory frame.
    """

    amplitudes: np.ndarray
    time: float = 0.0
    L: int = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be a 1-d array, got shape {amps.shape}")
        n = len(amps)
        if n < 2:
            raise ValueError(f"need at least one qubit (2 amplitudes), got {n}")
        L = n.bit_length() - 1
        if (1 << L) != n:
            raise ValueError(f"amplitude array length {n} is not a power of two")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "L", L)

    def norm(self) -> float:
        return _norm(self.amplitudes)


class Support(NamedTuple):
    """The entries of a state that may be nonzero: basis indices in
    ascending order and their complex amplitudes."""

    indices: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SupportState:
    """An L-qubit state held as its support, at a given time, in the
    laboratory frame as :class:`StateVector` is.

    ``amplitudes`` is a :class:`Support`, its indices integers that
    ascend strictly within [0, 2^L); every entry it does not list is
    zero.  Nothing here is 2^L long, so a step on this form costs what its
    support costs.
    """

    amplitudes: Support
    L: int
    time: float = 0.0

    def __post_init__(self):
        idx, vals = self.amplitudes
        idx, vals = np.asarray(idx), np.asarray(vals, dtype=complex)
        if idx.ndim != 1 or idx.shape != vals.shape:
            raise ValueError(
                f"support needs 1-d indices and amplitudes of one length, "
                f"got shapes {idx.shape} and {vals.shape}"
            )
        if self.L < 1:
            raise ValueError(f"need at least one qubit, got L={self.L}")
        # A few calls on at most 2L - 1 entries: the driver rebuilds the
        # state every pulse.
        if idx.dtype.kind not in "iu" or idx.size and (
                idx[0] < 0 or idx[-1] >> self.L or np.count_nonzero(idx[1:] <= idx[:-1])):
            raise ValueError(f"support indices must be integers that ascend strictly "
                             f"within [0, 2^{self.L}), got {idx}")
        object.__setattr__(self, "amplitudes", Support(idx, vals))

    def norm(self) -> float:
        return _norm(self.amplitudes.values)

    def dense(self) -> StateVector:
        """The same state as 2^L amplitudes, at the same time."""
        check_state_capacity(self.L)
        amps = np.zeros(1 << self.L, dtype=complex)
        amps[self.amplitudes.indices] = self.amplitudes.values
        return StateVector(amps, time=self.time)


def check_state_capacity(L: int) -> None:
    """Raise :class:`CapacityError` when a 2^L state vector exceeds the cap."""
    if L > MAX_QUBITS_STATE:
        raise CapacityError(f"L={L} exceeds the state-vector cap {MAX_QUBITS_STATE}")


def ground_state(L: int) -> StateVector:
    """Lab-frame |0...0> at time zero."""
    if L < 1:
        raise ValueError(f"need at least one qubit, got L={L}")
    check_state_capacity(L)
    amps = np.zeros(1 << L, dtype=complex)
    amps[0] = 1.0
    return StateVector(amps, time=0.0)


def format_state_table(psi: StateVector) -> str:
    """Plain-text dump: index, bit string (qubit 0 leftmost), Re, Im, |c|^2."""
    lines = ["# index bits re im prob"]
    for i, c in enumerate(psi.amplitudes):
        bits = "".join(str((i >> k) & 1) for k in range(psi.L))
        lines.append(
            f"{i} {bits} {c.real:.17g} {c.imag:.17g} {abs(c) ** 2:.17g}"
        )
    return "\n".join(lines) + "\n"
