"""Per-layer spans and counts, recorded from outside the program.

The program has no timers of its own.  ``Tracer.install`` replaces, in
this process only, the module-level names through which the layers call
each other (``fidelity.run_protocol``, ``pert.partition_blocks``, the
``scipy`` seen by ``exact`` and ``pert``, ...) with wrappers that time each
call; ``uninstall`` puts the originals back.  A span's self time is its
duration minus the time of the spans it encloses, so the self times of one
call tree add up to its root's duration, less the wrappers' own cost.
"""

from __future__ import annotations

import logging
import statistics
from collections import defaultdict
from time import perf_counter

import scipy
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from isingpulse import cli, exact, fidelity, hamiltonian, pert


class _Proxy:
    """Stand-in for a module or object: the given attributes replaced, the
    rest forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._open = []  # time covered by child spans, one slot per open span
        self._saved = []

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs outside it and
        is charged to no layer."""
        open_ = self._open

        def wrapped(*args, **kwargs):
            open_.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.self_s[name] += dur - open_.pop()
                self.calls[name] += 1
                if open_:
                    open_[-1] += dur
            if after is not None:
                t1 = perf_counter()
                after(result, args)
                if open_:
                    open_[-1] += perf_counter() - t1
            return result

        return wrapped

    def counter(self, name, fn):
        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _patch(self, owner, name, new):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self):
        span, patch, counts = self.span, self._patch, self.counts

        def walk(prot, _):
            counts["walk_pulses"] += len(prot.pulses)

        def partition(part, _):
            counts["pairs"] += len(part.m_idx)
            counts["conflicts"] += part.n_conflicts

        def generator(_, args):
            counts["generator_nnz"] += args[3].nnz

        def factor(lu, _):
            counts["lu_nnz"] += lu.L.nnz + lu.U.nnz

        timed_splu = span("pert.splu", scipy.sparse.linalg.splu, after=factor)

        def splu(*args, **kwargs):
            lu = timed_splu(*args, **kwargs)
            return _Proxy(lu, solve=span("pert.lu_solve", lu.solve))

        patch(cli, "cmd_sweep", span("cli", cli.cmd_sweep))
        patch(cli, "cmd_slope", span("cli", cli.cmd_slope))
        patch(cli, "protocol_fidelity", span("fidelity.report", cli.protocol_fidelity))
        patch(fidelity, "build_entanglement_protocol",
              span("protocol.compile", fidelity.build_entanglement_protocol, after=walk))
        patch(fidelity, "build_ideal_state",
              span("fidelity.ideal_state", fidelity.build_ideal_state))
        patch(fidelity, "dynamical_fidelity",
              span("fidelity.overlap", fidelity.dynamical_fidelity))
        patch(fidelity, "run_protocol", span("exact.run", fidelity.run_protocol))
        patch(fidelity, "run_protocol_pert", span("pert.run", fidelity.run_protocol_pert))
        for mod in (fidelity, pert):
            patch(mod, "partition_blocks",
                  span("pert.partition", mod.partition_blocks, after=partition))
        for mod in (exact, pert, fidelity):
            patch(mod, "to_rotating", span("exact.frame", mod.to_rotating))
            patch(mod, "from_rotating", span("exact.frame", mod.from_rotating))
        for mod in (hamiltonian, pert):
            patch(mod, "rotating_energy_table",
                  span("hamiltonian.energy_table", mod.rotating_energy_table))
        prop = exact.PulsePropagator
        patch(prop, "build", classmethod(self.counter("exact.build", prop.build.__func__)))
        patch(prop, "apply", span("exact.apply", prop.apply))
        patch(hamiltonian.RotFrameHam, "dense",
              span("hamiltonian.dense", hamiltonian.RotFrameHam.dense))
        patch(exact, "scipy", _Proxy(scipy, linalg=_Proxy(
            scipy.linalg, eigh=span("exact.eigh", scipy.linalg.eigh))))
        patch(pert, "scipy", _Proxy(scipy, sparse=_Proxy(
            scipy.sparse, linalg=_Proxy(scipy.sparse.linalg, splu=splu))))
        patch(pert, "_pt1_dressing", span("pert.dressing", pert._pt1_dressing))
        patch(pert, "_apply_pt1", span("pert.apply_pt1", pert._apply_pt1, after=generator))
        self._skipped = _CountRecords(counts)
        logging.getLogger(pert.__name__).addHandler(self._skipped)

    def uninstall(self):
        logging.getLogger(pert.__name__).removeHandler(self._skipped)
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def metrics(self, traced_walls, untraced_walls) -> dict:
        """Per-layer metrics per traced round, keyed by their benchmark names."""
        rounds = len(traced_walls)
        s, c, k = self.self_s, self.calls, self.counts
        pulses = k["walk_pulses"]
        exact_pulses = c["exact.apply"]

        def ratio(num, den):
            return num / den if den else 0.0

        per_round = {
            "exact.eigh_s": s["exact.eigh"],
            "exact.apply_s": s["exact.apply"],
            "exact.frame_s": s["exact.frame"],
            "exact.run_s": s["exact.run"],
            "hamiltonian.dense_s": s["hamiltonian.dense"],
            "hamiltonian.energy_table_s": s["hamiltonian.energy_table"],
            "pert.partition_s": s["pert.partition"],
            "pert.dressing_s": s["pert.dressing"],
            "pert.splu_s": s["pert.splu"],
            "pert.lu_solve_s": s["pert.lu_solve"],
            "pert.apply_pt1_s": s["pert.apply_pt1"],
            "pert.run_s": s["pert.run"],
            "fidelity.ideal_state_s": s["fidelity.ideal_state"],
            "fidelity.overlap_s": s["fidelity.overlap"],
            "fidelity.report_s": s["fidelity.report"],
            "protocol.compile_s": s["protocol.compile"],
            "cli.self_s": s["cli"],
            "exact.eigh_calls": c["exact.eigh"],
            "pert.splu_calls": c["pert.splu"],
            "pert.pairs": k["pairs"],
            "pert.conflicts": k["conflicts"],
            "pert.dressing_skipped": k["dressing_skipped"],
            "pert.lu_nnz": k["lu_nnz"],
        }
        out = {name: value / rounds for name, value in per_round.items()}
        out.update({
            "exact.cache_hit_ratio": ratio(exact_pulses - c["exact.build"], exact_pulses),
            "hamiltonian.energy_tables_per_pulse": ratio(c["hamiltonian.energy_table"], pulses),
            "pert.partitions_per_pulse": ratio(c["pert.partition"], pulses),
            "pert.lu_fill_ratio": ratio(k["lu_nnz"], k["generator_nnz"]),
            "trace.wall_s": statistics.median(traced_walls),
            "trace.overhead_s": statistics.median(traced_walls)
            - statistics.median(untraced_walls),
        })
        return out


class _CountRecords(logging.Handler):
    """Counts the pert logger's warnings about skipped dressing terms."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self._counts = counts

    def emit(self, record):
        self._counts["dressing_skipped"] += 1
