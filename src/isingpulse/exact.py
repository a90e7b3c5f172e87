"""Exact time-ordered propagation through a pulse sequence.

Within one pulse the rotating-frame Hamiltonian is stationary, so the pulse
unitary is a single matrix exponential obtained from a full Hermitian
eigendecomposition (machine-precision unitary, one decomposition per
distinct pulse).  Between frames the states pick up the diagonal phases

    lab -> rotating:   c_s *= exp(-i nu t Sz(s))
    rotating -> lab:   c_s *= exp(+i nu t Sz(s))

evaluated at global time t, which is what keeps the relative phases of the
branches right when pulses of different frequencies are chained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import NORM_TOL, StateVector, total_spin_z
from .errors import CapacityError, FrameError, NumericalError
from .hamiltonian import ChainParams, RotFrameHam, build_rot_ham
from .protocol import Protocol, Pulse

# Dense eigendecompositions of 2^L x 2^L matrices stop being desk-feasible
# past this point.
MAX_QUBITS_DENSE = 14


def to_rotating(psi: StateVector, nu: float, t: float) -> StateVector:
    """Transform a lab-frame state into the frame rotating at nu, at time t."""
    psi.require_lab()
    phase = np.exp(-1j * nu * t * total_spin_z(psi.L))
    return StateVector(psi.amplitudes * phase, time=psi.time, rot_nu=nu)


def from_rotating(psi: StateVector, nu: float, t: float) -> StateVector:
    """Inverse of :func:`to_rotating` at the same frequency and time."""
    psi.require_rotating(nu)
    phase = np.exp(1j * nu * t * total_spin_z(psi.L))
    return StateVector(psi.amplitudes * phase, time=psi.time, rot_nu=None)


@dataclass(frozen=True)
class PulsePropagator:
    """Cached eigensystem of one pulse's rotating-frame Hamiltonian."""

    ham: RotFrameHam
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def build(cls, ham: RotFrameHam) -> "PulsePropagator":
        w, v = scipy.linalg.eigh(ham.dense(), check_finite=False)
        w.setflags(write=False)
        v.setflags(write=False)
        return cls(ham=ham, eigenvalues=w, eigenvectors=v)

    def apply(self, amps: np.ndarray, tau: float) -> np.ndarray:
        """exp(-i H tau) applied to rotating-frame amplitudes."""
        v = self.eigenvectors
        return v @ (np.exp(-1j * self.eigenvalues * tau) * (v.conj().T @ amps))


def _dense_step(p: ChainParams):
    """Exact pulse step; pulses with equal (nu, Omega, phi) share one
    eigensystem for the lifetime of the step."""
    if p.L > MAX_QUBITS_DENSE:
        raise CapacityError(
            f"L={p.L} exceeds the dense-propagator cap {MAX_QUBITS_DENSE}"
        )
    cache: dict = {}

    def step(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
        key = (pulse.nu, pulse.Omega, pulse.phi)
        prop = cache.get(key)
        if prop is None:
            prop = cache[key] = PulsePropagator.build(build_rot_ham(p, pulse))
        return prop.apply(amps, pulse.duration)

    return step


def propagate_pulse(
    psi: StateVector, pulse: Pulse, p: ChainParams, step=None
) -> StateVector:
    """Evolve a lab-frame state through one pulse.

    The state's clock must sit at the pulse start.  ``step(amps, pulse)``
    evolves rotating-frame amplitudes over the pulse; it defaults to the
    exact dense step.  Returns the lab-frame state at the pulse end;
    norm conservation is enforced to 1e-10.
    """
    if step is None:
        step = _dense_step(p)
    if abs(psi.time - pulse.t_start) > 1e-9 * (1.0 + abs(pulse.t_start)):
        raise FrameError(
            f"state clock {psi.time} does not match pulse start {pulse.t_start}"
        )
    rot = to_rotating(psi, pulse.nu, pulse.t_start)
    evolved = StateVector(
        step(rot.amplitudes, pulse), time=pulse.t_end, rot_nu=pulse.nu
    )
    out = from_rotating(evolved, pulse.nu, pulse.t_end)
    if abs(out.norm() - 1.0) > NORM_TOL:
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
    return propagate_protocol(psi0, prot, _dense_step(prot.params))
