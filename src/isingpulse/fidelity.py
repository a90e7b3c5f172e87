"""Ideal target state, overlap fidelity, and the slope ``m_th``.

The ideal state is defined operationally: run the block step, through the
pulse driver shared with the other routes, but let only the intended
transition of each pulse act in full, while every other block contributes
its diagonal phases with the amplitude magnitudes kept (near-resonant
leakage zeroed).  The result has weight 1/sqrt(2) on each of
|0...0> and the end-to-end excited string, with the phase bookkeeping that
the pulse sequence itself implies.  It never holds more than one nonzero
amplitude per pulse plus |0...0>, so it is stepped on that support and
scattered into 2^L amplitudes only at the end; the overlap is taken over
all 2^L entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basis import (
    StateVector,
    Support,
    SupportState,
    check_state_capacity,
    clocks_differ,
    ground_state,
)
from .errors import FrameError, NumericalError, ProtocolError
from .exact import frame_phase, propagate_protocol, run_protocol
# Unused frame transforms stay imported: bench/tracing.py patches them here.
from .exact import from_rotating, to_rotating  # noqa: F401
from .pert import ORDER_BLOCK, ORDER_BLOCK_PT1, _block_u, partition_blocks, run_protocol_pert
from .protocol import (
    ENTANGLE_KIND,
    Protocol,
    Pulse,
    build_entanglement_protocol,
    spectator_detunings,
)
from .hamiltonian import ChainParams, rotating_energies


def dynamical_fidelity(psi_i: StateVector, psi_r: StateVector) -> float:
    """Squared overlap |<i|r>|^2 of two lab-frame states at the same time."""
    if psi_i.L != psi_r.L:
        raise FrameError(f"qubit counts differ: {psi_i.L} vs {psi_r.L}")
    if clocks_differ(psi_i.time, psi_r.time):
        raise FrameError(f"times differ: {psi_i.time} vs {psi_r.time}")
    return float(abs(np.vdot(psi_i.amplitudes, psi_r.amplitudes)) ** 2)


def _at(support: Support, states: np.ndarray) -> np.ndarray:
    """The amplitudes of ``states`` in ``support``, zero where it lists none."""
    idx, vals = support
    pos = idx.searchsorted(states)
    hit = idx.take(pos, mode="clip") == states
    return np.where(hit, vals.take(pos, mode="clip"), 0j)


def _ideal_step(p: ChainParams, amps: Support, pulse: Pulse, to_rot, to_lab) -> Support:
    """The ideal state's pulse step on its lab-frame support, under the
    driver's contract (:func:`exact.propagate_pulse`): the block phases of
    the blocks that hold amplitude, the intended pair's transition in
    full, and the frame phases of those entries alone.  Returns the
    support of the result: the blocks' entries and the intended pair that
    are nonzero, in ascending order."""
    src, k = pulse.target
    tgt = src.index ^ (1 << k)
    mm, pp = min(src.index, tgt), max(src.index, tgt)
    part = partition_blocks(pulse, p, amps.indices)
    tau = pulse.duration
    # Every live block contributes phases only, magnitudes kept.
    m, q, s = part.m_idx, part.p_idx, part.singletons
    u11, _, _, u22 = _block_u(pulse.Omega, part.e_p - part.e_m, tau, part.e_m, part.e_p)
    live = np.concatenate((m, q, s))
    phase = np.concatenate(
        (u11 / np.abs(u11), u22 / np.abs(u22), np.exp(-1j * part.e_single * tau))
    )
    ends = np.array([mm, pp])
    states = np.concatenate((live, ends))
    counts = np.bitwise_count(states)
    x = frame_phase(_at(amps, states), counts, to_rot)
    n = len(live)
    out = frame_phase(x[:n] * phase, counts[:n], to_lab)
    # The intended transition acts in full (resonant by construction).
    e_mm, e_pp = rotating_energies(p, pulse.nu, ends)
    v11, v12, v21, v22 = _block_u(pulse.Omega, e_pp - e_mm, tau, e_mm, e_pp)
    am, ap = x[n:]
    y = frame_phase(np.array([v11 * am + v12 * ap, v21 * am + v22 * ap]), counts[n:], to_lab)
    # A state listed twice keeps its second value, the intended pair's:
    # read backwards, that is the one np.unique finds first.
    idx, first = np.unique(states[::-1], return_index=True)
    vals = np.concatenate((out, y))[::-1][first]
    keep = vals != 0
    return Support(idx[keep], vals[keep])


def build_ideal_state(prot: Protocol) -> StateVector:
    """Phase-corrected two-component target of the entanglement walk.

    The state starts as |0...0> and each pulse's intended transition adds
    at most one nonzero amplitude, so it never holds more than
    ``len(prot.pulses) + 1`` of them.  The walk is therefore stepped on
    that support (:class:`SupportState`): each step asks
    :func:`partition_blocks` for the blocks that hold a nonzero amplitude
    alone, which reads the rotating energies of those states and their
    flips and no 2^L table, and evaluates the block phases, singleton
    exponentials and frame phases only for those blocks and the intended
    pair.  The result is scattered into 2^L amplitudes once, at the end.
    """
    if prot.kind != ENTANGLE_KIND or any(pu.target is None for pu in prot.pulses):
        raise ProtocolError(
            "the ideal state is defined for the built-in entanglement walk"
        )
    p = prot.params
    check_state_capacity(p.L)
    ground = SupportState(Support(np.zeros(1, dtype=np.intp), np.ones(1, dtype=complex)), p.L)
    return propagate_protocol(ground, prot, partial(_ideal_step, p)).dense()


@dataclass(frozen=True)
class FidelityReport:
    """Result of one protocol run: fidelities, per-pulse diagnostics and the
    final lab-frame state of each route that ran."""

    params: ChainParams
    Omega: float
    f_exact: float | None
    f_pert: float | None
    spectator: tuple[float, ...]
    m_th: float
    total_time: float
    psi_exact: StateVector | None = field(repr=False, compare=False)
    psi_pert: StateVector | None = field(repr=False, compare=False)

    @property
    def M(self) -> int:
        """Near-resonant pulse count: one spectator detuning a pulse after
        the first."""
        return len(self.spectator)

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
    if order not in (ORDER_BLOCK, ORDER_BLOCK_PT1):
        raise ValueError(f"unknown order {order!r}")
    # The caps come before costly work: the state-vector cap before the
    # walk compiles, the dense cap (in run_protocol) before the ideal state.
    # Each route gets a fresh ground state: one held across the whole run
    # makes a block run at L = 13-15 fault in a third more pages.
    check_state_capacity(p.L)
    prot = build_entanglement_protocol(p, Omega, mirror=mirror)
    psi_r = psi_p = None
    if propagator in ("exact", "both"):
        psi_r = run_protocol(ground_state(p.L), prot)
    if propagator in ("pert", "both"):
        psi_p = run_protocol_pert(ground_state(p.L), prot, order)
    psi_i = build_ideal_state(prot)
    f_exact = None if psi_r is None else dynamical_fidelity(psi_i, psi_r)
    f_pert = None if psi_p is None else dynamical_fidelity(psi_i, psi_p)
    for f in (f_exact, f_pert):
        if f is not None and not -1e-12 <= f <= 1.0 + 1e-12:
            raise NumericalError(f"fidelity {f} outside [0, 1]")
    return FidelityReport(
        params=p,
        Omega=Omega,
        f_exact=f_exact,
        f_pert=f_pert,
        spectator=tuple(spectator_detunings(prot)),
        m_th=-(Omega * Omega) / (4.0 * p.J * p.J) if p.J > 0 else -math.inf,
        total_time=prot.total_time,
        psi_exact=psi_r,
        psi_pert=psi_p,
    )
