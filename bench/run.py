"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep-J-L6 --seed 0 --seconds 15 --trace 0

The workload runs in a fresh ``worker.py`` process with OPENBLAS, OMP and
MKL thread counts set to 1 before numpy loads.  With ``--trace 0`` the
result holds the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  The report lists every metric by name and unit,
the operations attempted and failed, each check's verdict and an
environment stamp; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
is also written to ``bench/results/``.  Exits 1 without a result if the
program cannot be found or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 4  # set-up is sampled by these plus the workload's own process
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a worker; return the seconds until it was ready and its output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        out = proc.stdout.read()
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return ready_s, out


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "isingpulse" / "__init__.py").is_file():
        raise BenchError(f"no isingpulse sources under {ROOT / 'src'}")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.update({var: "1" for var in THREAD_VARS})

    setup = [_spawn(["probe"], env, deadline)[0] for _ in range(SETUP_PROBES)]
    ready_s, out = _spawn(
        ["run", args.workload, str(args.seed), str(args.seconds), str(args.trace)],
        env, deadline,
    )
    setup.append(ready_s)
    res = json.loads(out.splitlines()[-1])

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": res["wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    stamp = {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **res["stamp"],
        **{var: env[var] for var in THREAD_VARS},
        "seed": args.seed,
        "git_commit": _git_commit(),
    }

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  rounds {res['rounds']}")
    print("round walls (s): " + " ".join(f"{w:.4f}" for w in res["walls"]))
    if res["traced_walls"]:
        print("traced walls (s): " + " ".join(f"{w:.4f}" for w in res["traced_walls"]))
    print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (evaluated, failed, worst) in res["checks"].items():
        verdict = "pass" if failed == 0 else f"FAIL ({failed} of {evaluated})"
        print(f"  check {name}: {verdict}  evaluated {evaluated}  worst {worst:.3g}")
    print(f"operations attempted {res['attempted']}  failed {res['failed']}")
    print("stamp " + json.dumps(stamp))

    summary = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    record = {**res, **summary, "workload": args.workload, "setup_samples": setup, "stamp": stamp}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(1)
