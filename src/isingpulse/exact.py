"""Exact time-ordered propagation through a pulse sequence.

Within one pulse the rotating-frame Hamiltonian is stationary, so the pulse
unitary is a single matrix exponential obtained from a full Hermitian
eigendecomposition (machine-precision unitary), computed by LAPACK's
divide-and-conquer driver (``evd``).  A run builds one eigensystem per
transition the walk drives on paper, L + 1 for the 2L - 2 pulses of the
entanglement walk, and frees each one after the last pulse that uses it.
Between frames the states pick up the diagonal phases

    lab -> rotating:   c_s *= exp(-i nu t Sz(s))
    rotating -> lab:   c_s *= exp(+i nu t Sz(s))

evaluated at global time t, which is what keeps the relative phases of the
branches right when pulses of different frequencies are chained.  Total
spin-z takes only the L + 1 values L/2 - c, c the number of excited
qubits, so each transform evaluates L + 1 exponentials and gathers them
by the cached per-state count.

scipy is imported bare: its ``linalg`` submodule loads at the first eigh,
so commands that never take this route (``validate``, ``chaos``, the block
routes) never pay for it.  The eigh goes through the module-level name
``scipy`` so that a tracer replacing that one name sees every call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

from .basis import NORM_TOL, StateVector, excitation_count, spin_z_levels
from .errors import CapacityError, FrameError, NumericalError
from .hamiltonian import ChainParams, RotFrameHam
from .protocol import Protocol, Pulse

# One evd eigh of the n x n pulse matrix, n = 2^L, peaks at about 4.3 n^2
# doubles: the matrix, its eigenvectors and dsyevd's 2 n^2 workspace
# (580 MB measured at L = 12).  That is about 2.3 GB at L = 13 and 9.2 GB
# at L = 14, more than an 8 GB machine holds, so L = 14 would exhaust
# memory instead of raising CapacityError.
MAX_QUBITS_DENSE = 13


def _spin_z_phase(x: complex, L: int) -> np.ndarray:
    """exp(x * Sz_total) for every basis state, from the L + 1 levels."""
    return np.exp(x * spin_z_levels(L))[excitation_count(L)]


def to_rotating(psi: StateVector, nu: float, t: float) -> StateVector:
    """Transform a lab-frame state into the frame rotating at nu, at time t."""
    psi.require_lab()
    phase = _spin_z_phase(-1j * nu * t, psi.L)
    return StateVector(psi.amplitudes * phase, time=psi.time, rot_nu=nu)


def from_rotating(psi: StateVector, nu: float, t: float) -> StateVector:
    """Inverse of :func:`to_rotating` at the same frequency and time."""
    psi.require_rotating(nu)
    phase = _spin_z_phase(1j * nu * t, psi.L)
    return StateVector(psi.amplitudes * phase, time=psi.time, rot_nu=None)


@dataclass(frozen=True)
class PulsePropagator:
    """Cached eigensystem of one pulse's rotating-frame Hamiltonian."""

    ham: RotFrameHam
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def build(cls, ham: RotFrameHam) -> "PulsePropagator":
        w, v = scipy.linalg.eigh(ham.dense(), check_finite=False, driver="evd")
        w.setflags(write=False)
        v.setflags(write=False)
        return cls(ham=ham, eigenvalues=w, eigenvectors=v)

    def apply(self, amps: np.ndarray, tau: float) -> np.ndarray:
        """exp(-i H tau) applied to rotating-frame amplitudes.  Every pulse
        is real, so are the eigenvectors: the real and imaginary parts are
        multiplied as two float columns, and v is never cast to complex."""
        v = self.eigenvectors
        phase = np.exp(-1j * self.eigenvalues * tau)
        x = np.ascontiguousarray(amps, dtype=complex).view(float).reshape(-1, 2)
        y = (v.T @ x).view(complex).ravel() * phase
        return (v @ y.view(float).reshape(-1, 2)).view(complex).ravel()


def _transition_key(pulse: Pulse) -> tuple:
    """Cache key of a pulse's rotating-frame Hamiltonian.

    A walk pulse flips qubit k of its source state, and its frequency is
    fixed on paper by k and the number of k's excited neighbours, so that
    pair keys it instead of the float nu, whose last bits depend on which
    energies were subtracted.  A hand-built pulse keys by its nu.
    """
    if pulse.target is None:
        return (pulse.nu, pulse.Omega)
    src, k = pulse.target
    excited = sum(src.index >> j & 1 for j in (k - 1, k + 1) if 0 <= j < src.L)
    return (k, excited, pulse.Omega)


# Walk pulses that share a transition key differ in nu by rounding only,
# at most 2.8e-14 of nu on either walk for L = 3..14; a larger gap means
# the target annotation does not describe the pulse.
_SAME_NU_RTOL = 1e-12


def _dense_step(p: ChainParams, pulses=()):
    """Exact pulse step, with eigensystems shared by transition.

    Pulses that drive the same transition on paper (same
    :func:`_transition_key`) share one eigensystem, built from the first
    of them, so the entanglement walk's 2L - 2 pulses take L + 1.  Each
    eigensystem is freed once the last of ``pulses`` that uses it has
    been stepped; a key that ``pulses`` does not list is freed after its
    one step.  A pulse whose nu is not the cached one to within rounding
    gets an eigensystem of its own.
    """
    if p.L > MAX_QUBITS_DENSE:
        raise CapacityError(
            f"L={p.L} exceeds the dense-propagator cap {MAX_QUBITS_DENSE}"
        )
    uses = Counter(_transition_key(pu) for pu in pulses)
    cache: dict = {}

    def step(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
        key = _transition_key(pulse)
        prop = cache.get(key)
        if prop is None or abs(prop.ham.nu - pulse.nu) > _SAME_NU_RTOL * abs(pulse.nu):
            prop = PulsePropagator.build(RotFrameHam(p, pulse.nu, pulse.Omega))
            cache.setdefault(key, prop)
        uses[key] -= 1
        if uses[key] <= 0:
            del cache[key], uses[key]
        return prop.apply(amps, pulse.duration)

    return step


def propagate_pulse(
    psi: StateVector, pulse: Pulse, p: ChainParams, step=None
) -> StateVector:
    """Evolve a lab-frame state through one pulse.

    The state must have the chain's qubit count and its clock must sit at
    the pulse start; either mismatch raises FrameError.  ``step(amps, pulse)``
    evolves rotating-frame amplitudes over the pulse; it defaults to the
    exact dense step.  Returns the lab-frame state at the pulse end;
    norm conservation is enforced to 1e-10, and a NaN norm fails it.
    """
    if step is None:
        step = _dense_step(p)
    if psi.L != p.L:
        raise FrameError(f"state has {psi.L} qubits, the chain has {p.L}")
    if abs(psi.time - pulse.t_start) > 1e-9 * (1.0 + abs(pulse.t_start)):
        raise FrameError(
            f"state clock {psi.time} does not match pulse start {pulse.t_start}"
        )
    rot = to_rotating(psi, pulse.nu, pulse.t_start)
    evolved = StateVector(
        step(rot.amplitudes, pulse), time=pulse.t_end, rot_nu=pulse.nu
    )
    out = from_rotating(evolved, pulse.nu, pulse.t_end)
    if not abs(out.norm() - 1.0) <= NORM_TOL:
        raise NumericalError(
            f"norm drifted to {out.norm():.15f} during pulse at nu={pulse.nu}"
        )
    return out


def propagate_protocol(psi0: StateVector, prot: Protocol, step) -> StateVector:
    """Run every pulse of a protocol through :func:`propagate_pulse` with
    one route's ``step``."""
    psi = psi0
    for pulse in prot.pulses:
        psi = propagate_pulse(psi, pulse, prot.params, step)
    return psi


def run_protocol(psi0: StateVector, prot: Protocol) -> StateVector:
    """Sequential exact propagation through every pulse of a protocol."""
    return propagate_protocol(psi0, prot, _dense_step(prot.params, prot.pulses))
