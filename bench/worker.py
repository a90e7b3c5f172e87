"""One benchmark process, started fresh by ``run.py`` with one BLAS thread.

    python bench/worker.py probe
    python bench/worker.py run WORKLOAD SEED SECONDS TRACE

Both modes import ``isingpulse`` from this checkout, build the CLI parser
and print ``ready``; that is the set-up every ``isingpulse`` invocation
pays.  ``probe`` stops there.  ``run`` then calls ``isingpulse.cli.main``
in whole rounds, each on the command lines the workload draws for it from
SEED, until SECONDS have passed and at least three rounds have run.  It
checks every round's output outside the timed part and prints one JSON
line.  With TRACE = 1 each round is run a second time under the tracer, so
that the same process gives the layer times and the tracing overhead.
"""

import sys
from pathlib import Path


def ready():
    """Load the program as an ``isingpulse`` invocation does and say so."""
    import isingpulse.cli as cli

    cli.make_parser()
    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"isingpulse was imported from {cli.__file__}, not from {src}")
    print("ready", flush=True)


MIN_ROUNDS = 3  # untraced rounds, so that wall_s is a median, never one sample


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import io
    import resource
    import statistics
    from contextlib import redirect_stdout
    from time import perf_counter

    import numpy as np
    import scipy

    from isingpulse import cli
    from tracing import Tracer
    from workloads import WORKLOADS

    def play(argvs):
        calls = []
        t0 = perf_counter()
        for argv in argvs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(argv)
            calls.append((rc, buf.getvalue()))
        return perf_counter() - t0, calls

    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    walls, traced_walls, rounds, traced_differ = [], [], [], 0
    begin = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - begin < seconds:
        inp = workload.inputs(seed, len(rounds))
        elapsed, calls = play(inp["argvs"])
        walls.append(elapsed)
        rounds.append((inp, calls))
        if tracer is not None:
            # The same inputs again under the tracer: its layer times, its
            # overhead against the untraced round, and proof that tracing
            # leaves the output alone.
            tracer.install()
            try:
                elapsed, traced = play(inp["argvs"])
            finally:
                tracer.uninstall()
            traced_walls.append(elapsed)
            traced_differ += traced != calls
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, untimed, on every round's output.
    checks, failed, correct = {}, 0, traced_differ == 0
    for inp, calls in rounds:
        verdicts = workload.check(inp, [text for _, text in calls])
        if any(rc != 0 for rc, _ in calls):
            verdicts.fail("exit_code")
        failed += len(verdicts.failed)
        correct &= verdicts.ok
        for check, (evaluated, n_failed, worst) in verdicts.checks.items():
            entry = checks.setdefault(check, [0, 0, worst])
            entry[0] += evaluated
            entry[1] += n_failed
            entry[2] = max(entry[2], worst)
    if tracer is not None:
        checks["traced_identical"] = [len(rounds), traced_differ, traced_differ]
    result = {
        "rounds": len(rounds),
        "inputs": [inp["argvs"] for inp, _ in rounds],
        "walls": walls,
        "traced_walls": traced_walls,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(inp["ops"] for inp, _ in rounds),
        "failed": failed,
        "correct": correct,
        "checks": checks,
        "stamp": {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas()},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(traced_walls, walls)
    return result


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


if __name__ == "__main__":
    ready()
    if sys.argv[1:2] == ["run"]:
        import json

        name, seed, seconds, trace = sys.argv[2:6]
        out = run(name, int(seed), float(seconds), trace == "1")
        print(json.dumps(out), flush=True)
