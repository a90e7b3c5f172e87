"""Exact time-ordered propagation through a pulse sequence.

Within one pulse the rotating-frame Hamiltonian is stationary, so the pulse
unitary is a single matrix exponential obtained from a full Hermitian
eigendecomposition (machine-precision unitary), computed by LAPACK's
divide-and-conquer driver (``evd``).  A run builds one eigensystem per
distinct ``(nu, Omega)``, the sharing rule of every route
(:class:`_SharedByDrive`): the walk tunes each pulse of one transition to
the same nu bit for bit, so its 2L - 2 pulses take L + 1.  Each
eigensystem is freed after the last pulse that uses it.
Between frames the states pick up the diagonal phases

    lab -> rotating:   c_s *= exp(-i nu t Sz(s))
    rotating -> lab:   c_s *= exp(+i nu t Sz(s))

evaluated at global time t, which is what keeps the relative phases of the
branches right when pulses of different frequencies are chained.  Total
spin-z takes only the L + 1 values L/2 - c, c the number of excited
qubits, so a pulse's two transforms are L + 1 exponentials each, the
frame levels.  The pulse driver builds the levels and hands them to the
route's step, which applies them with :func:`frame_phase` where it
gathers amplitudes: the block step and the ideal step on the entries that
hold amplitude, the exact dense step and block+pt1, which need every
entry, on the whole array through :func:`rotating_step`.  These levels
are the program's one frame arithmetic.  A state is its lab-frame
amplitudes plus a clock: rotating-frame amplitudes live only inside a
step, so no state can hold them.

scipy is imported bare: its ``linalg`` submodule loads at the first eigh,
so commands that never take this route (``validate``, ``chaos``, the block
routes) never pay for it.  The eigh goes through the module-level name
``scipy`` so that a tracer replacing that one name sees every call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np
import scipy

from .basis import (
    NORM_TOL,
    StateVector,
    SupportState,
    clocks_differ,
    excitation_count,
    spin_z_levels,
)
from .errors import CapacityError, FrameError, NumericalError
from .hamiltonian import ChainParams, RotFrameHam
from .protocol import Protocol, Pulse

# One evd eigh of the n x n pulse matrix, n = 2^L, peaks at about 4.3 n^2
# doubles: the matrix, its eigenvectors and dsyevd's 2 n^2 workspace
# (580 MB measured at L = 12).  That is about 2.3 GB at L = 13 and 9.2 GB
# at L = 14, more than an 8 GB machine holds, so L = 14 would exhaust
# memory instead of raising CapacityError.
MAX_QUBITS_DENSE = 13


def check_dense_capacity(L: int) -> None:
    """Raise :class:`CapacityError` when an L-qubit pulse is past the dense cap."""
    if L > MAX_QUBITS_DENSE:
        raise CapacityError(f"L={L} exceeds the dense-propagator cap {MAX_QUBITS_DENSE}")


def _frame_levels(x: complex, L: int) -> np.ndarray:
    """exp(x * Sz_total) at each of the L + 1 levels of total spin-z."""
    return np.exp(x * spin_z_levels(L))


def frame_phase(values: np.ndarray, counts: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``values`` times the frame phase of the states with ``counts``
    excitations, read from the L + 1 ``levels``: the program's one frame
    transform, on the whole array or on gathered entries.

    The value is always the left operand, so an entry takes the same
    rounding whichever step frames it.  ``np.multiply`` is called rather
    than ``*``: numpy may evaluate ``x * temporary`` in place in the
    temporary, with the operands swapped, and on complex values a * b and
    b * a can differ in the last bit.
    """
    return np.multiply(values, levels[counts])


# The two array transforms below are called by no route.  They stay
# because bench/tracing.py patches their names here and in pert and
# fidelity, and the tests read them as a reference frame transform.
def to_rotating(amps: np.ndarray, nu: float, t: float) -> np.ndarray:
    """Lab-frame amplitudes expressed in the frame rotating at nu, at time t."""
    L = len(amps).bit_length() - 1
    return frame_phase(amps, excitation_count(L), _frame_levels(-1j * nu * t, L))


def from_rotating(amps: np.ndarray, nu: float, t: float) -> np.ndarray:
    """Inverse of :func:`to_rotating` at the same frequency and time."""
    L = len(amps).bit_length() - 1
    return frame_phase(amps, excitation_count(L), _frame_levels(1j * nu * t, L))


@dataclass(frozen=True)
class PulsePropagator:
    """Cached eigensystem of one pulse's rotating-frame Hamiltonian."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def build(cls, ham: RotFrameHam) -> "PulsePropagator":
        w, v = scipy.linalg.eigh(ham.dense(), check_finite=False, driver="evd")
        w.setflags(write=False)
        v.setflags(write=False)
        return cls(eigenvalues=w, eigenvectors=v)

    def apply(self, amps: np.ndarray, tau: float) -> np.ndarray:
        """exp(-i H tau) applied to rotating-frame amplitudes.  Every pulse
        is real, so are the eigenvectors: the real and imaginary parts are
        multiplied as two float columns, and v is never cast to complex."""
        v = self.eigenvectors
        phase = np.exp(-1j * self.eigenvalues * tau)
        x = np.ascontiguousarray(amps, dtype=complex).view(float).reshape(-1, 2)
        y = (v.T @ x).view(complex).ravel() * phase
        return (v @ y.view(float).reshape(-1, 2)).view(complex).ravel()


# A pulse's drive, ``(nu, Omega)``: the one key under which every route
# shares work between pulses.
_drive = attrgetter("nu", "Omega")


class _SharedByDrive:
    """Values shared by the pulses of one run that have the same drive,
    ``(nu, Omega)`` bit for bit.

    ``pulses`` lists every pulse the run will take a value for.  Each value
    is freed once the last listed pulse with its drive has taken it; a
    drive that no listed pulse has is freed after its one use.
    """

    def __init__(self, pulses):
        self._uses = Counter(map(_drive, pulses))
        self._held: dict = {}

    def take(self, pulse: Pulse, build, *args):
        """The value held for the drive of ``pulse``, or ``build(*args)``
        when none is held."""
        key = _drive(pulse)
        value = self._held.get(key)
        if value is None:
            value = self._held[key] = build(*args)
        self._uses[key] -= 1
        if self._uses[key] <= 0:
            del self._held[key], self._uses[key]
        return value


def rotating_step(step):
    """Adapt ``step(amps, pulse)``, which evolves rotating-frame amplitudes
    over a pulse, to the driver's contract: every entry enters the frame
    and leaves it through :func:`frame_phase` on the levels the driver
    passes."""

    def framed(amps, pulse, to_rot, to_lab):
        counts = excitation_count(len(amps).bit_length() - 1)
        rot = frame_phase(amps, counts, to_rot)
        return frame_phase(step(rot, pulse), counts, to_lab)

    return framed


def _dense_step(p: ChainParams, pulses=()):
    """Exact pulse step, with one eigensystem per distinct ``(nu, Omega)``.

    Each eigensystem is freed once the last of ``pulses`` that uses it has
    been stepped; a drive that ``pulses`` does not list is freed after its
    one step.
    """
    check_dense_capacity(p.L)
    props = _SharedByDrive(pulses)

    @rotating_step
    def step(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
        ham = RotFrameHam(p, pulse.nu, pulse.Omega)
        return props.take(pulse, PulsePropagator.build, ham).apply(amps, pulse.duration)

    return step


def propagate_pulse(psi, pulse: Pulse, p: ChainParams, step=None):
    """Evolve a state, its lab-frame amplitudes plus a clock, through one
    pulse.

    ``psi`` is a :class:`StateVector` or a :class:`SupportState`, and the
    result has its form.  Anything else, such as the bare array of
    rotating-frame amplitudes that :func:`to_rotating` returns, raises
    FrameError.  The state must have the chain's qubit count and its clock
    must sit at the pulse start; each mismatch raises FrameError.
    ``step(amps, pulse, to_rot, to_lab)`` takes the lab amplitudes at the
    pulse start, in the state's form
    (``psi.amplitudes``: 2^L entries, or a :class:`Support`), and returns
    those at its end in the same form, new arrays.  It applies the frame
    itself: entry s enters the rotating frame as ``amps[s] * to_rot[c]``
    and leaves it as ``x * to_lab[c]``, c the excitation count of s
    (:func:`frame_phase`), where ``to_rot`` and ``to_lab`` hold
    exp(-i nu t_start Sz) and exp(+i nu t_end Sz) at the L + 1 levels of
    total spin-z, built here once a pulse.  A step on rotating-frame
    amplitudes goes through :func:`rotating_step`, which applies these
    levels to every entry.  The step defaults to the exact dense step.
    Norm conservation is enforced to 1e-10 on the amplitudes the step
    returns, and a NaN norm fails it.
    """
    if step is None:
        step = _dense_step(p)
    if not isinstance(psi, (StateVector, SupportState)):
        raise FrameError(
            "expected lab-frame state, a StateVector or a SupportState, "
            f"got {type(psi).__name__}"
        )
    if psi.L != p.L:
        raise FrameError(f"state has {psi.L} qubits, the chain has {p.L}")
    if clocks_differ(psi.time, pulse.t_start):
        raise FrameError(
            f"state clock {psi.time} does not match pulse start {pulse.t_start}"
        )
    to_rot = _frame_levels(-1j * pulse.nu * pulse.t_start, p.L)
    to_lab = _frame_levels(1j * pulse.nu * pulse.t_end, p.L)
    amps = step(psi.amplitudes, pulse, to_rot, to_lab)
    out = replace(psi, amplitudes=amps, time=pulse.t_end)
    if not abs(out.norm() - 1.0) <= NORM_TOL:
        raise NumericalError(
            f"norm drifted to {out.norm():.15f} during pulse at nu={pulse.nu}"
        )
    return out


def propagate_protocol(psi0, prot: Protocol, step):
    """Run every pulse of a protocol through :func:`propagate_pulse` with
    one route's ``step``, on a :class:`StateVector` or a
    :class:`SupportState`."""
    psi = psi0
    for pulse in prot.pulses:
        psi = propagate_pulse(psi, pulse, prot.params, step)
    return psi


def run_protocol(psi0: StateVector, prot: Protocol) -> StateVector:
    """Sequential exact propagation through every pulse of a protocol."""
    return propagate_protocol(psi0, prot, _dense_step(prot.params, prot.pulses))
