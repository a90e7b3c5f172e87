"""Rf-pulse sequences: the remote-entanglement walk, resonance bookkeeping,
and the selective-regime validator.

The built-in protocol drives the ground state into an equal superposition of
|0...0> and the state with the two end qubits excited.  It uses 2L-2 pulses:
a pi/2 pulse splitting off the moving branch at qubit 0, then pi pulses that
carry the excitation down the chain (flip qubit j enabled by its excited
neighbour j-1, then flip j-1 back).  Every pulse frequency is the exact
static-energy difference of its intended transition, so the intended
transition is resonant while the parked |0...0> branch is detuned by 2J
(4J at the one pulse whose target has both neighbours excited).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .basis import BasisState, flip
from .errors import ProtocolError
from .hamiltonian import ChainParams, h0_energy_table

START_TIME_TOL = 1e-9

# Ratio levels for the ordering checks: "much less than" is taken as a
# quarter; anything at or past one has plainly left the regime.
RATIO_PASS = 0.25
RATIO_FAIL = 1.0

# Relative distance to a fake-transition coupling below which J is flagged.
FAKE_WINDOW = 0.02

# The chain's generic single-flip collisions, listed whether or not a given
# walk populates the states involved: (d, off) is the family J = a*k/d for
# k = 1..L-off.  Which ones a walk activates depends on its orientation (see
# the README's note on acceptance criterion 4).
FAKE_FAMILIES = ((4, 3), (2, 3), (1, 2), (3, 2))

ENTANGLE_KIND = "entangle"


@dataclass(frozen=True)
class Pulse:
    """One rectangular rf pulse.

    ``target`` annotates the transition the pulse is meant to drive as
    (source basis state, flipped qubit); it is None for hand-built pulses.
    """

    nu: float
    Omega: float
    duration: float
    t_start: float
    target: tuple[BasisState, int] | None = None
    # Every pulse is real.  The constant stays only because bench/workloads.py,
    # bench/test_bench.py and bench/oracle.py read it from walk pulses.
    phi: ClassVar[float] = 0.0

    def __post_init__(self):
        for name in ("nu", "Omega", "t_start", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"pulse {name} must be finite, got {value}")
        if not self.duration > 0:
            raise ValueError(f"pulse duration must be positive, got {self.duration}")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration


@dataclass(frozen=True)
class Protocol:
    """Ordered, contiguous pulse sequence on a fixed chain."""

    pulses: tuple[Pulse, ...]
    params: ChainParams
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        t = 0.0
        for i, pu in enumerate(self.pulses):
            if abs(pu.t_start - t) > START_TIME_TOL * (1.0 + abs(t)):
                raise ProtocolError(
                    f"pulse {i} starts at {pu.t_start}, expected {t} "
                    "(pulses must abut)"
                )
            t = pu.t_end

    @property
    def total_time(self) -> float:
        return self.pulses[-1].t_end if self.pulses else 0.0

    def __len__(self) -> int:
        return len(self.pulses)


def resonance_frequency(s: BasisState, k: int, p: ChainParams) -> float:
    """Drive frequency resonant with flipping qubit k of state s.

    The exact |E0(flip(s,k)) - E0(s)|; no closed-form shortcut, so the pulse
    stays resonant even when Ising shifts move the transition.  The absolute
    value only helps while the transition energy is positive: for a
    negative-energy transition the drive at |dE| is detuned from it by
    2|dE| and is resonant instead with any transition of energy +|dE|.
    """
    e_flip, e_s = h0_energy_table(p, [flip(s, k).index, s.index])
    return float(abs(e_flip - e_s))


def _check_drive(Omega: float) -> None:
    if not Omega > 0:
        raise ValueError(f"Rabi frequency must be positive, got {Omega}")


def _walk_order(L: int, mirror: bool) -> list[int]:
    if not mirror:
        flips = [0, 1]
        for j in range(2, L):
            flips += [j, j - 1]
    else:
        flips = [L - 1, L - 2]
        for j in range(L - 3, -1, -1):
            flips += [j, j + 1]
    return flips


def build_entanglement_protocol(
    p: ChainParams, Omega: float, *, mirror: bool = False
) -> Protocol:
    """Compile the end-to-end entanglement walk into explicit pulses.

    The first pulse lasts pi/(2*Omega) (equal-superposition pulse), the
    remaining 2L-3 last pi/Omega (full population transfer).  ``mirror``
    runs the walk from the other end of the chain.  The target state is the
    same either way provided every intended transition energy is positive,
    so that each pulse is resonant with its own target (see
    :func:`resonance_frequency`).  The walk from qubit 0 needs
    J < (omega0 + a)/2 for its 4J pulse.  The mirror walk turns qubit 0 on
    next to an excited neighbour at energy omega0 - J, so it needs
    omega0 > J, and J < (omega0 + a*(L-2))/2 for its 4J pulse.

    The orientation decides which fake resonances the walk meets (see
    :data:`FAKE_FAMILIES`): only the mirror walk's 4J pulse reaches the
    J = a/4 family.
    """
    if p.L < 3:
        raise ProtocolError(f"the entanglement walk needs L >= 3, got L={p.L}")
    _check_drive(Omega)
    order = _walk_order(p.L, mirror)
    path = [BasisState(0, p.L)]
    for k in order:
        path.append(flip(path[-1], k))
    # Pulse i is resonant with the step path[i] -> path[i+1], as in
    # resonance_frequency; one vectorised call gives every energy of the walk.
    energies = h0_energy_table(p, [s.index for s in path])
    pulses = []
    t = 0.0
    for i, k in enumerate(order):
        duration = math.pi / (2.0 * Omega) if i == 0 else math.pi / Omega
        pulses.append(
            Pulse(
                nu=float(abs(energies[i + 1] - energies[i])),
                Omega=Omega,
                duration=duration,
                t_start=t,
                target=(path[i], k),
            )
        )
        t += duration
    return Protocol(pulses=tuple(pulses), params=p, kind=ENTANGLE_KIND)


def spectator_detunings(prot: Protocol) -> list[float]:
    """Detuning of the parked |0...0> branch at each non-first pulse.

    Signed rotating-frame value: (qubit-k transition energy of |0...0>)
    minus the pulse frequency.  For the built-in walk this is 2J for every
    pulse except the single 4J one.
    """
    # Energies of |0...0> and of its L single flips only: no 2^L table.
    energies = h0_energy_table(prot.params, [0] + [1 << k for k in range(prot.params.L)])
    out = []
    for pu in prot.pulses[1:]:
        if pu.target is None:
            raise ProtocolError("spectator detunings need target annotations")
        _, k = pu.target
        gap = float(energies[1 + k] - energies[0])
        out.append(gap - pu.nu)
    return out


def two_pi_k_omega(J: float, k: int) -> float:
    """Drive strength at which a 2J-detuned pulse closes a full cycle.

    Omega_k = 2J / sqrt(4k^2 - 1); at these values the near-resonant
    transition probability of a pi pulse vanishes exactly.
    """
    if k != int(k) or k < 1:
        raise ValueError(f"cycle index k must be a positive integer, got {k}")
    return 2.0 * J / math.sqrt(4.0 * k * k - 1.0)


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    ratio: float
    level: str  # "pass" | "warn" | "fail"


@dataclass(frozen=True)
class SelectiveReport:
    """Margins of the selective-excitation inequalities, plus the
    fake-resonance couplings within :data:`FAKE_WINDOW` of J, ascending."""

    checks: tuple[RegimeCheck, ...]
    fake_hits: tuple[tuple[float, float], ...]  # (J_fake, relative distance)

    @property
    def ok(self) -> bool:
        return all(c.level == "pass" for c in self.checks) and not self.fake_hits

    @property
    def failed(self) -> bool:
        return any(c.level == "fail" for c in self.checks) or bool(self.fake_hits)


def _level(ratio: float) -> str:
    if ratio < RATIO_PASS:
        return "pass"
    if ratio < RATIO_FAIL:
        return "warn"
    return "fail"


def validate_selective(p: ChainParams, Omega: float) -> SelectiveReport:
    """Report each selective-regime ratio with a pass/warn/fail level.

    Checks Omega << J << a, a >> 4J, and the protocol-length conditions
    Omega*sqrt(L/2) << J and << a.  Raises ValueError for a drive that is
    not positive, as the walk compiler does; other degenerate inputs simply
    produce failing ratios.  ``fake_hits`` lists, sorted, each value of the
    :data:`FAKE_FAMILIES` within relative distance :data:`FAKE_WINDOW` of
    ``p.J``; this is also the sweep's ``fake-window`` flag.  Only the few k
    near d*J/a are tried, so the cost does not grow with L.
    """
    _check_drive(Omega)
    inf = math.inf
    ratios = [
        ("Omega/J", Omega / p.J if p.J > 0 else inf),
        ("J/a", p.J / p.a),
        ("4J/a", 4.0 * p.J / p.a),
        ("Omega*sqrt(L/2)/J", Omega * math.sqrt(p.L / 2.0) / p.J if p.J > 0 else inf),
        ("Omega*sqrt(L/2)/a", Omega * math.sqrt(p.L / 2.0) / p.a),
    ]
    checks = tuple(RegimeCheck(n, r, _level(r)) for n, r in ratios)
    hits = {}
    for d, off in FAKE_FAMILIES:
        # A hit needs x/(1 + FAKE_WINDOW) < k < x/(1 - FAKE_WINDOW); the
        # rounded-out bounds below only pick the k that the test then tries.
        x = d * p.J / p.a
        lo = x / (1.0 + FAKE_WINDOW)
        if lo >= p.L:  # no k in range; also x = inf
            continue
        hi = min(p.L - off, math.ceil(x / (1.0 - FAKE_WINDOW)))
        for k in range(max(1, math.floor(lo)), hi + 1):
            # Correctly rounded k/d: equal ratios of two families give one jf.
            jf = p.a * (k / d)
            rel = abs(p.J - jf) / jf
            if rel < FAKE_WINDOW:
                hits[jf] = rel
    return SelectiveReport(checks=checks, fake_hits=tuple(sorted(hits.items())))


def format_protocol_table(prot: Protocol) -> str:
    """One pulse per line: index, nu, Omega, tau, t_start, source bits
    (qubit 0 leftmost), flipped qubit."""
    lines = ["# pulse nu omega tau t_start source_bits flipped_qubit"]
    for i, pu in enumerate(prot.pulses):
        if pu.target is not None:
            src, k = pu.target
            bits, kq = src.bits(), str(k)
        else:
            bits, kq = "-", "-"
        lines.append(
            f"{i} {pu.nu:.17g} {pu.Omega:.17g} "
            f"{pu.duration:.17g} {pu.t_start:.17g} {bits} {kq}"
        )
    return "\n".join(lines) + "\n"
