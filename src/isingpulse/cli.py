"""Command-line front end: single runs, parameter sweeps, slope fits,
chaos-border reports, regime validation, and protocol dumps.

Sweep output is CSV with the fixed schema

    param,value,f_exact,f_pert,one_minus_f,status,flags

one row per swept value, floats printed with 17 significant digits, unused
fields empty.  Output is byte-stable for identical configurations; points
that fail to propagate get their error recorded in the status column and
the sweep continues.

Exit codes: 0 ok, 1 usage error, 2 validation failure under --strict,
3 numerical failure.  Values outside the model's range (a <= 0, J < 0,
Omega <= 0, L < 3 for the walk, a NaN or infinite J, a or omega0), sweep
--workers < 1, and unreadable or unwritable files are usage errors; in a
sweep out-of-range values are recorded per point as ValueError (or
ProtocolError for L < 3).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

import numpy as np

from .basis import format_state_table
from .errors import ProtocolError, SpinChainError
from .exact import check_dense_capacity
from .fidelity import protocol_fidelity
from .hamiltonian import ChainParams, chaos_border
from .pert import ORDER_BLOCK, ORDER_BLOCK_PT1
from .protocol import (
    build_entanglement_protocol,
    check_drive,
    format_protocol_table,
    two_pi_k_omega,
    validate_selective,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "param,value,f_exact,f_pert,one_minus_f,status,flags"

TWO_PI_K_WINDOW = 0.01
TWO_PI_K_MAX = 32


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D401 - argparse contract
        raise _UsageError(message)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _read_config(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


# Config keys; each value is parsed as the flag --<key>.
_CONFIG_KEYS = ("L", "J", "a", "omega", "omega0", "param", "from", "to", "steps",
                "propagator", "order", "workers")
_CONFIG_DEST = {"from": "lo", "to": "hi"}


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's values are parsed as flags placed ahead
    of the command line's, so they pass the same checks and the command line
    wins."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    flags = []
    for key, raw in _read_config(args.config).items():
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"unknown config key {key!r}")
        if hasattr(args, _CONFIG_DEST.get(key, key)):
            flags.append(f"--{key}={raw}")
    # argv[0] is the subcommand: the top-level parser has no options.  The
    # command line parsed cleanly above, so an error here comes from the file.
    try:
        return parser.parse_args(argv[:1] + flags + argv[1:])
    except _UsageError as exc:
        raise _UsageError(f"{args.config}: {exc}") from exc


def _chain(args) -> ChainParams:
    return ChainParams(L=args.L, omega0=args.omega0, a=args.a, J=args.J)


def _add_model_args(p: argparse.ArgumentParser, chain_length: bool = True):
    if chain_length:
        p.add_argument("--L", type=int, default=6, help="number of qubits")
    p.add_argument("--J", type=float, default=1.0, help="Ising coupling")
    p.add_argument("--a", type=float, default=100.0, help="per-site frequency step")
    p.add_argument("--omega", type=float, default=0.118, help="Rabi frequency")
    p.add_argument("--omega0", type=float, default=0.0, help="base frequency")
    p.add_argument("--config", help="key=value config file (flags override it)")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_route_args(p: argparse.ArgumentParser):
    p.add_argument("--propagator", choices=("exact", "pert", "both"), default="exact")
    p.add_argument("--order", choices=(ORDER_BLOCK, ORDER_BLOCK_PT1), default=ORDER_BLOCK)


def _write(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_validation(report) -> str:
    lines = []
    for c in report.checks:
        lines.append(f"{c.name} = {c.ratio:.6g} [{c.level}]")
    for jf, rel in report.fake_hits:
        lines.append(f"fake-transition proximity: J within {rel:.2%} of {jf:.6g}")
    lines.append("verdict: " + ("ok" if report.ok else "outside selective regime"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- run


def cmd_run(args) -> int:
    params = _chain(args)
    if args.strict:
        check = validate_selective(params, args.omega)
        if check.failed:
            sys.stderr.write("selective-regime validation failed:\n")
            sys.stderr.write(_format_validation(check))
            return EXIT_VALIDATION
    report = protocol_fidelity(
        params, args.omega, propagator=args.propagator, order=args.order
    )
    lines = [
        f"L = {params.L}  J = {params.J:g}  a = {params.a:g}  "
        f"omega0 = {params.omega0:g}  Omega = {args.omega:g}",
        f"pulses = {report.M + 1}  near_resonant (M) = {report.M}",
        f"total_time = {_fmt(report.total_time)}",
        f"m_th = {_fmt(report.m_th)}",
        "spectator_detunings = " + " ".join(_fmt(d) for d in report.spectator),
    ]
    if report.f_exact is not None:
        lines.append(f"f_exact = {_fmt(report.f_exact)}")
        lines.append(f"one_minus_f = {_fmt(report.one_minus_f)}")
    if report.f_pert is not None:
        lines.append(f"f_pert = {_fmt(report.f_pert)}")
    _write(args, "\n".join(lines) + "\n")
    if args.dump_state:
        psi = report.psi_pert if report.psi_exact is None else report.psi_exact
        with open(args.dump_state, "w") as fh:
            fh.write(format_state_table(psi))
    return EXIT_OK


# ---------------------------------------------------------------- sweep


def _sweep_point(job) -> str:
    param, value, base, propagator, order = job
    kw = dict(base)
    kw[param] = value
    J, omega = kw["J"], kw["omega"]
    flags = []
    try:
        params = ChainParams(L=kw["L"], omega0=kw["omega0"], a=kw["a"], J=J)
        if validate_selective(params, omega).fake_hits:
            flags.append("fake-window")
        rep = protocol_fidelity(params, omega, propagator=propagator, order=order)
        f_exact = "" if rep.f_exact is None else _fmt(rep.f_exact)
        f_pert = "" if rep.f_pert is None else _fmt(rep.f_pert)
        omf = "" if rep.one_minus_f is None else _fmt(rep.one_minus_f)
        status = "ok"
    except (SpinChainError, ValueError) as exc:
        f_exact = f_pert = omf = ""
        status = type(exc).__name__
    if J > 0 and any(
        abs(omega - two_pi_k_omega(J, k)) / two_pi_k_omega(J, k) < TWO_PI_K_WINDOW
        for k in range(1, TWO_PI_K_MAX + 1)
    ):
        flags.append("two-pi-k")
    return f"{param},{_fmt(value)},{f_exact},{f_pert},{omf},{status},{';'.join(flags)}"


def _sweep_values(args) -> list[float]:
    if args.values:
        vals = [float(v) for v in args.values.split(",") if v.strip()]
    else:
        if args.lo is None or args.hi is None:
            raise _UsageError("sweep needs --from/--to or --values")
        if args.steps < 2 and args.lo != args.hi:
            raise _UsageError("sweep ranges need steps >= 2")
        vals = list(np.linspace(args.lo, args.hi, args.steps))
    if not vals:
        raise _UsageError("sweep needs at least one value")
    # Written so that a NaN, which compares False both ways, fails it.
    if any(not b > a for a, b in zip(vals, vals[1:])):
        raise _UsageError("swept values must be strictly increasing")
    return vals


def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where the OS cannot say
    (``os.sched_getaffinity`` exists only on some platforms, Linux among
    them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Default the BLAS and OpenMP thread counts to 1 for the processes
    started inside: sweep workers share the CPUs, and a pool of
    multi-threaded BLAS oversubscribes them.  A value already set wins;
    the variables set here are removed again on exit."""
    added = [var for var in _THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        yield
    finally:
        for var in added:
            os.environ.pop(var, None)


def cmd_sweep(args) -> int:
    if args.param not in ("J", "a", "omega", "L"):
        raise _UsageError(f"cannot sweep parameter {args.param!r}")
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    values = _sweep_values(args)
    base = {
        "L": args.L,
        "J": args.J,
        "a": args.a,
        "omega": args.omega,
        "omega0": args.omega0,
    }
    jobs = [(args.param, v, base, args.propagator, args.order) for v in values]
    # Never more workers than points or CPUs this process may run on.
    workers = min(args.workers, len(jobs), _usable_cpus())
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Spawned children load numpy afresh, so they read the thread
        # variables set here; a fork would inherit this process's BLAS.
        with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    _write(args, "\n".join([CSV_HEADER] + rows) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- slope


def fit_fidelity_slope(ls, fs):
    """Least-squares line through (L, F) points: slope, intercept, stderr."""
    ls = np.asarray(ls, dtype=float)
    fs = np.asarray(fs, dtype=float)
    A = np.vstack([ls, np.ones_like(ls)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, fs, rcond=None)
    resid = fs - (slope * ls + intercept)
    dof = len(ls) - 2
    denom = np.sum((ls - ls.mean()) ** 2)
    stderr = float(np.sqrt(np.sum(resid**2) / dof / denom)) if dof > 0 else np.inf
    return float(slope), float(intercept), stderr


def cmd_slope(args) -> int:
    if args.hi - args.lo < 2:
        raise _UsageError("slope fit needs at least 3 chain lengths")
    # Every L runs the exact route: check the largest before running any.
    check_dense_capacity(args.hi)
    ls = range(args.lo, args.hi + 1)
    fs = []
    for L in ls:
        params = ChainParams(L=L, omega0=args.omega0, a=args.a, J=args.J)
        rep = protocol_fidelity(params, args.omega, propagator="exact")
        fs.append(rep.f_exact)
    slope, intercept, stderr = fit_fidelity_slope(ls, fs)
    m_th = rep.m_th
    rel = abs(stderr / slope) if slope != 0 else np.inf
    lines = [
        "L " + " ".join(str(L) for L in ls),
        "F " + " ".join(_fmt(f) for f in fs),
        f"fitted_slope = {_fmt(slope)}",
        f"slope_stderr = {_fmt(stderr)}",
        f"slope_rel_err = {_fmt(rel) if np.isfinite(rel) else 'inf'}",
        f"m_th = {_fmt(m_th)}",
        f"slope/m_th = {_fmt(slope / m_th) if m_th != 0 else 'inf'}",
    ]
    if args.J <= 2 * args.omega:
        lines.append("note: J is within a factor 2 of Omega; the slope model "
                     "is unreliable here")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- chaos


def cmd_chaos(args) -> int:
    params = _chain(args)
    check_drive(args.omega)
    est = chaos_border(params)
    below = est.is_below_border(args.omega)
    lines = [
        f"m_f = {est.m_f}",
        f"delta_e_f = {_fmt(est.delta_e_f)}",
        f"delta_f = {_fmt(est.delta_f)}",
        f"omega_cr = {_fmt(est.omega_cr)}",
        f"omega_cr_approx = {_fmt(est.omega_cr_approx)}",
        f"omega = {_fmt(args.omega)}",
        "verdict: " + ("no chaos (drive below border)" if below
                       else "drive above border"),
    ]
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    params = _chain(args)
    report = validate_selective(params, args.omega)
    _write(args, _format_validation(report))
    if args.strict and report.failed:
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------- dump


def cmd_protocol_dump(args) -> int:
    prot = build_entanglement_protocol(_chain(args), args.omega)
    _write(args, format_protocol_table(prot))
    return EXIT_OK


# ---------------------------------------------------------------- main


def make_parser() -> _Parser:
    parser = _Parser(prog="isingpulse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the protocol once and report fidelity")
    _add_model_args(p_run)
    _add_route_args(p_run)
    p_run.add_argument("--strict", action="store_true",
                       help="fail (exit 2) when outside the selective regime")
    p_run.add_argument("--dump-state",
                       help="write the final lab-frame amplitudes to this "
                            "file: the exact route's under exact or both, "
                            "the pert route's under pert")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV")
    _add_model_args(p_sweep)
    p_sweep.add_argument("--param", choices=("J", "a", "omega", "L"), default="J")
    p_sweep.add_argument("--from", dest="lo", type=float, default=None)
    p_sweep.add_argument("--to", dest="hi", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=2)
    p_sweep.add_argument("--values", help="comma-separated explicit sweep values")
    _add_route_args(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_slope = sub.add_parser("slope", help="fit fidelity vs chain length")
    # slope sweeps L over --from..--to, so it takes no --L.
    _add_model_args(p_slope, chain_length=False)
    p_slope.add_argument("--from", dest="lo", type=int, default=4,
                         help="smallest chain length")
    p_slope.add_argument("--to", dest="hi", type=int, default=10,
                         help="largest chain length")
    p_slope.set_defaults(func=cmd_slope)

    p_chaos = sub.add_parser("chaos", help="chaos-border estimate")
    _add_model_args(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_val = sub.add_parser("validate", help="selective-regime margins")
    _add_model_args(p_val)
    p_val.add_argument("--strict", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("protocol-dump", help="print the compiled pulse table")
    _add_model_args(p_dump)
    p_dump.set_defaults(func=cmd_protocol_dump)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (_UsageError, ProtocolError, ValueError, OSError) as exc:
        # Bad options, values outside the model's range, a protocol the
        # model cannot express and unreadable files are all usage problems.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SpinChainError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
