"""Ideal target state, overlap fidelity, and the analytic fidelity model.

The ideal state is defined operationally: run the block step, through the
pulse driver shared with the other routes, but let only the intended
transition of each pulse act in full, while every other block contributes
its diagonal phases with the amplitude magnitudes kept (near-resonant
leakage zeroed).  The result has weight 1/sqrt(2) on each of
|0...0> and the end-to-end excited string, with the phase bookkeeping that
the pulse sequence itself implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import StateVector, ground_state
from .errors import FrameError, NumericalError, ProtocolError
# Unused frame transforms stay imported: bench/tracing.py patches them here.
from .exact import from_rotating, propagate_protocol, run_protocol, to_rotating  # noqa: F401
from .pert import ORDER_BLOCK, _block_u, partition_blocks, run_protocol_pert
from .protocol import (
    ENTANGLE_KIND,
    Protocol,
    Pulse,
    build_entanglement_protocol,
    spectator_detunings,
)
from .hamiltonian import ChainParams

TIME_TOL = 1e-9


def dynamical_fidelity(psi_i: StateVector, psi_r: StateVector) -> float:
    """Squared overlap |<i|r>|^2 of two states in the same frame and time."""
    if psi_i.L != psi_r.L:
        raise FrameError(f"qubit counts differ: {psi_i.L} vs {psi_r.L}")
    if psi_i.rot_nu != psi_r.rot_nu:
        raise FrameError(f"frames differ: {psi_i.rot_nu} vs {psi_r.rot_nu}")
    if abs(psi_i.time - psi_r.time) > TIME_TOL * (1.0 + abs(psi_r.time)):
        raise FrameError(f"times differ: {psi_i.time} vs {psi_r.time}")
    return float(abs(np.vdot(psi_i.amplitudes, psi_r.amplitudes)) ** 2)


def build_ideal_state(prot: Protocol) -> StateVector:
    """Phase-corrected two-component target of the entanglement walk."""
    if prot.kind != ENTANGLE_KIND or any(pu.target is None for pu in prot.pulses):
        raise ProtocolError(
            "the ideal state is defined for the built-in entanglement walk"
        )
    p = prot.params

    def step(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
        src, k = pulse.target
        tgt = src.index ^ (1 << k)
        mm, pp = min(src.index, tgt), max(src.index, tgt)
        part = partition_blocks(pulse, p)
        out = amps.copy()
        tau = pulse.duration
        # Every block contributes phases only, magnitudes kept.
        u11, _, _, u22 = _block_u(
            pulse.Omega, part.delta, tau, part.e_rot[part.m_idx], part.e_rot[part.p_idx]
        )
        out[part.m_idx] = amps[part.m_idx] * np.exp(1j * np.angle(u11))
        out[part.p_idx] = amps[part.p_idx] * np.exp(1j * np.angle(u22))
        s = part.singletons
        out[s] = amps[s] * np.exp(-1j * part.e_rot[s] * tau)
        # The intended transition acts in full (resonant by construction).
        d = part.e_rot[pp] - part.e_rot[mm]
        v11, v12, v21, v22 = _block_u(
            pulse.Omega, d, tau, part.e_rot[mm], part.e_rot[pp]
        )
        am, ap = amps[mm], amps[pp]
        out[mm] = v11 * am + v12 * ap
        out[pp] = v21 * am + v22 * ap
        return out

    return propagate_protocol(ground_state(p.L), prot, step)


def fidelity_minima_J(Omega: float, k: int) -> float:
    """Coupling value whose 2J detuning completes k full cycles per pi pulse.

    (Omega/2) * sqrt(4k^2 - 1); inverse of the full-cycle drive strength.
    """
    if k != int(k) or k < 1:
        raise ValueError(f"cycle index k must be a positive integer, got {k}")
    return 0.5 * Omega * math.sqrt(4.0 * k * k - 1.0)


@dataclass(frozen=True)
class PredictedFidelity:
    """Analytic protocol fidelity from the per-pulse error probability.

    ``f_ansatz`` evaluates (2 - M*eps + 2*sqrt(1 - M*eps))/4 with the
    worst-case eps = Omega^2/(4 J^2) and M = 2L-3 near-resonant pulses;
    ``f_linear`` is its linearization with slope m_th = -Omega^2/(4 J^2).
    Outside M*eps < 1 the ansatz is meaningless and ``valid`` is False.
    """

    L: int
    M: int
    epsilon: float
    f_ansatz: float
    f_linear: float
    m_th: float
    valid: bool


def predicted_fidelity(L: int, Omega: float, J: float) -> PredictedFidelity:
    if L < 2:
        raise ValueError(f"need at least two qubits, got L={L}")
    if not J > 0:
        raise ValueError(f"need J > 0 for the slope model, got {J}")
    eps = Omega * Omega / (4.0 * J * J)
    m = 2 * L - 3
    m_th = -eps
    f_lin = m_th * L + 1.0 + 1.5 * eps
    valid = m * eps < 1.0
    f_ans = (
        0.25 * (2.0 - m * eps + 2.0 * math.sqrt(1.0 - m * eps)) if valid else math.nan
    )
    return PredictedFidelity(
        L=L, M=m, epsilon=eps, f_ansatz=f_ans, f_linear=f_lin, m_th=m_th, valid=valid
    )


@dataclass(frozen=True)
class FidelityReport:
    """Result of one protocol run: fidelities and per-pulse diagnostics."""

    params: ChainParams
    Omega: float
    f_exact: float | None
    f_pert: float | None
    spectator: tuple[float, ...]
    M: int
    m_th: float
    total_time: float

    @property
    def one_minus_f(self) -> float | None:
        return None if self.f_exact is None else 1.0 - self.f_exact


def protocol_fidelity(
    p: ChainParams,
    Omega: float,
    propagator: str = "exact",
    order: str = ORDER_BLOCK,
    *,
    mirror: bool = False,
) -> FidelityReport:
    """Build the walk, run the requested propagator(s), and score the result."""
    if propagator not in ("exact", "pert", "both"):
        raise ValueError(f"unknown propagator {propagator!r}")
    prot = build_entanglement_protocol(p, Omega, mirror=mirror)
    psi_i = build_ideal_state(prot)
    f_exact = f_pert = None
    if propagator in ("exact", "both"):
        psi_r = run_protocol(ground_state(p.L), prot)
        f_exact = dynamical_fidelity(psi_i, psi_r)
    if propagator in ("pert", "both"):
        psi_p = run_protocol_pert(ground_state(p.L), prot, order)
        f_pert = dynamical_fidelity(psi_i, psi_p)
    if f_exact is not None and not -1e-12 <= f_exact <= 1.0 + 1e-12:
        raise NumericalError(f"fidelity {f_exact} outside [0, 1]")
    return FidelityReport(
        params=p,
        Omega=Omega,
        f_exact=f_exact,
        f_pert=f_pert,
        spectator=tuple(spectator_detunings(prot)),
        M=2 * p.L - 3,
        m_th=-(Omega * Omega) / (4.0 * p.J * p.J) if p.J > 0 else -math.inf,
        total_time=prot.total_time,
    )
