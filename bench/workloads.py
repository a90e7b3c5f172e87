"""The benchmark's workloads: seeded inputs, and checks on the outputs.

A workload draws, for each round ``k`` of a run, a list of ``isingpulse``
command lines from the run's seed; a round runs each of them once.  An
operation is one protocol evaluation, a sweep point or a slope length,
together with its checks.  Every check compares the program's
output with a property or an independent computation (``oracle``), never
with a stored copy of earlier output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle
from isingpulse import (
    ChainParams,
    build_entanglement_protocol,
    build_ideal_state,
    ground_state,
    run_protocol,
)
from isingpulse.cli import CSV_HEADER

A = 100.0
OMEGA = 0.118
MODEL = ["--a", "100", "--omega", "0.118"]

# Tolerances, each set from a scan of its input range on this code (see
# README.md); the measured maxima are in the comments.
PT_ADEQUACY_TOL = 1e-5  # |f_exact - f_pert| at L = 6, J in [0.3, 20]: 8.7e-6
AMPLITUDE_TOL = 1e-9  # program vs oracle amplitudes at L = 6: 8.3e-11
OVERLAP_TOL = 1e-9  # CSV f_exact vs |<ideal|psi_oracle>|^2 at L = 6: 1.1e-11
PT1_ORACLE_TOL = 1e-6  # f_pert vs oracle F at L = 10, J in [1, 3]: 1.2e-7
SLOPE_LAW_FRAC = 0.1  # |slope + eps| / (Omega^2/4J^2), L 4..9, J in [1.2, 3]: 0.048
BLOCK_LAW_FRAC = 0.15  # same for the block model at L 13..15, J in [1, 3]: 0.058
RESONANCE_TOL = 1e-9
IDEAL_SUPPORT_TOL = 1e-10  # ideal-state magnitudes vs 1/sqrt(2) and 0: 1.4e-12 at L = 10

# A round evaluates one seeded draw of inputs; every round of a run draws
# anew from the seed's stream.  The costs that vary with J (LU fill-in at
# L = 10, and which exact-route pulses share a cached eigendecomposition)
# are therefore averaged by the median over a run's rounds instead of
# fixing one run to one J.
SWEEP_POINTS = 100
SWEEP_ORACLE_POINTS = 4
SLOPE_LENGTHS = list(range(4, 10))
BLOCK_LENGTHS = [13, 14, 15]


@dataclass
class Verdicts:
    """Outcome of every check on one round's output."""

    n_ops: int
    failed: set = field(default_factory=set)
    checks: dict = field(default_factory=dict)  # name -> [evaluated, failed, worst]

    def record(self, name, ops, result):
        ok, value = result
        entry = self.checks.setdefault(name, [0, 0, -math.inf])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            self.failed.update(ops)
        entry[2] = max(entry[2], float(value))

    def fail(self, name, ops=None):
        self.record(name, range(self.n_ops) if ops is None else ops, (False, math.nan))

    @property
    def ok(self):
        return not self.failed and all(e[1] == 0 for e in self.checks.values())


def _rng(name, seed, k):
    """The stream of round ``k`` of a run with ``seed``."""
    return random.Random(f"{name}:{seed}:{k}")


def _seeded_floats(rng, n, lo, hi):
    vals = set()
    while len(vals) < n:
        vals.add(rng.uniform(lo, hi))
    return sorted(vals)


def _sweep(param, values, *flags):
    return ["sweep", "--param", param, "--values", ",".join(map(repr, values)),
            *flags, *MODEL]


def _parse_sweep(text, n_ops, verdicts):
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != [CSV_HEADER] or len(rows) != n_ops or any(len(r) != 7 for r in rows):
        verdicts.fail("csv_shape")
        return None
    for i, r in enumerate(rows):
        verdicts.record("status_ok", [i], (r[5] == "ok", 0.0))
    return rows


def _oracle_checks(verdicts, op, L, J, f_reported, name, tol, exact_amplitudes):
    """Compare one protocol evaluation with the dense oracle.

    ``f_reported`` is the CSV fidelity of the route under test.  With
    ``exact_amplitudes`` the program's exact final state is compared too,
    and the oracle steps with ``expm``; without, the route under test is
    the perturbative one, which shares no code with ``eigh_step``.
    """
    prot = build_entanglement_protocol(ChainParams(L=L, a=A, J=J), OMEGA)
    target = 1 | (1 << (L - 1))
    ops = [op]
    tau = math.pi / OMEGA
    for i, pu in enumerate(prot.pulses):
        src, k = pu.target
        want = oracle.transition_energy(L, 0.0, A, J, src.index, k)
        err = abs(pu.nu - want) + abs(pu.duration - (tau / 2 if i == 0 else tau))
        verdicts.record("walk_resonant", ops, (err <= RESONANCE_TOL * (1 + want), err))
    pulses = [(pu.nu, pu.Omega, pu.phi, pu.t_start, pu.duration) for pu in prot.pulses]
    step = oracle.expm_step if exact_amplitudes else oracle.eigh_step
    psi_o = oracle.final_state(L, 0.0, A, J, pulses, step)
    psi_i = build_ideal_state(prot).amplitudes
    support = np.abs(psi_i)
    support[[0, target]] -= math.sqrt(0.5)
    err = float(np.max(np.abs(support)))
    verdicts.record("ideal_support", ops, (err <= IDEAL_SUPPORT_TOL, err))
    verdicts.record(name, ops, oracle.check_overlap(f_reported, psi_i, psi_o, tol))
    verdicts.record("support_bound", ops, oracle.check_support_bound(f_reported, psi_o, target))
    if exact_amplitudes:
        psi_p = run_protocol(ground_state(L), prot).amplitudes
        verdicts.record("oracle_amplitudes", ops,
                        oracle.check_amplitudes(psi_p, psi_o, AMPLITUDE_TOL))


class SweepJL6:
    """Infidelity against J at L = 6, exact and block+pt1 (the paper's
    headline figure); oracle on a seeded subset of the points."""

    name = "sweep-J-L6"

    def inputs(self, seed, k):
        rng = _rng(self.name, seed, k)
        values = _seeded_floats(rng, SWEEP_POINTS, 0.3, 20.0)
        argv = _sweep("J", values, "--L", "6", "--propagator", "both", "--order", "block+pt1")
        picks = sorted(rng.sample(range(SWEEP_POINTS), SWEEP_ORACLE_POINTS))
        return {"argvs": [argv], "ops": SWEEP_POINTS, "values": values, "oracle": picks}

    def check(self, inp, texts):
        v = Verdicts(inp["ops"])
        rows = _parse_sweep(texts[0], inp["ops"], v)
        if rows is None:
            return v
        for i, r in enumerate(rows):
            fe, fp = float(r[2] or "nan"), float(r[3] or "nan")
            v.record("unit_interval", [i], oracle.check_unit_interval(fe))
            v.record("unit_interval", [i], oracle.check_unit_interval(fp))
            v.record("pt_adequacy", [i], oracle.check_pt_adequacy(fe, fp, PT_ADEQUACY_TOL))
        for i in inp["oracle"]:
            _oracle_checks(v, i, 6, inp["values"][i], float(rows[i][2]),
                           "oracle_f_exact", OVERLAP_TOL, exact_amplitudes=True)
        return v


class SlopeL4to9:
    """Fidelity slope over L = 4..9 on the exact route at one seeded
    coupling, against the closed form."""

    name = "slope-L4-9"

    def inputs(self, seed, k):
        J = _rng(self.name, seed, k).uniform(1.2, 3.0)
        argv = ["slope", "--J", repr(J), *MODEL,
                "--from", str(SLOPE_LENGTHS[0]), "--to", str(SLOPE_LENGTHS[-1])]
        return {"argvs": [argv], "ops": len(SLOPE_LENGTHS), "J": J}

    def check(self, inp, texts):
        v = Verdicts(inp["ops"])
        ops = range(inp["ops"])
        try:
            fields = dict(line.split(" ", 1) for line in texts[0].splitlines())
            ls = [int(x) for x in fields["L"].split()]
            fs = [float(x) for x in fields["F"].split()]
            slope = float(fields["fitted_slope"].removeprefix("= "))
        except (KeyError, ValueError):
            v.fail("slope_report")
            return v
        v.record("chain_lengths", ops, (ls == SLOPE_LENGTHS and len(fs) == len(ls), 0.0))
        for op, f in zip(ops, fs):
            v.record("unit_interval", [op], oracle.check_unit_interval(f))
        own = oracle.least_squares_slope(ls, fs)
        err = abs(slope - own)
        v.record("fit", ops, (err <= 1e-9 * abs(own), err))
        v.record("linear_law", ops,
                 oracle.check_linear_law(slope, OMEGA, inp["J"], SLOPE_LAW_FRAC))
        return v


class Pt1L10:
    """block+pt1 at L = 10, the largest L the dense oracle covers, at one
    seeded coupling; the oracle checks the first round's point."""

    name = "pt1-L10"

    def inputs(self, seed, k):
        J = _rng(self.name, seed, k).uniform(1.0, 3.0)
        argv = _sweep("J", [J], "--L", "10", "--propagator", "pert", "--order", "block+pt1")
        return {"argvs": [argv], "ops": 1, "values": [J], "oracle": k == 0}

    def check(self, inp, texts):
        v = Verdicts(inp["ops"])
        rows = _parse_sweep(texts[0], inp["ops"], v)
        if rows is None:
            return v
        f = float(rows[0][3] or "nan")
        v.record("unit_interval", [0], oracle.check_unit_interval(f))
        if inp["oracle"]:
            _oracle_checks(v, 0, 10, inp["values"][0], f,
                           "oracle_f_pert", PT1_ORACLE_TOL, exact_amplitudes=False)
        return v


class BlockL13to15:
    """Block model at L = 13, 14, 15 and one seeded coupling; its per-qubit
    fidelity decrement against the closed form."""

    name = "block-L13-15"

    def inputs(self, seed, k):
        J = _rng(self.name, seed, k).uniform(1.0, 3.0)
        argv = _sweep("L", BLOCK_LENGTHS, "--J", repr(J), "--propagator", "pert",
                      "--order", "block")
        return {"argvs": [argv], "ops": len(BLOCK_LENGTHS), "J": J}

    def check(self, inp, texts):
        v = Verdicts(inp["ops"])
        rows = _parse_sweep(texts[0], inp["ops"], v)
        if rows is None:
            return v
        fs = [float(r[3] or "nan") for r in rows]
        for i, f in enumerate(fs):
            v.record("unit_interval", [i], oracle.check_unit_interval(f))
        slope = oracle.least_squares_slope(BLOCK_LENGTHS, fs)
        v.record("linear_law", range(len(fs)),
                 oracle.check_linear_law(slope, OMEGA, inp["J"], BLOCK_LAW_FRAC))
        return v


WORKLOADS = {w.name: w for w in (SweepJL6(), SlopeL4to9(), Pt1L10(), BlockL13to15())}
