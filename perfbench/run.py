"""finslergeo benchmark: seeded scenario mixes measured end to end.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Workloads are `orbits`, `zero-sets` and `distortion` (see workloads.py
and README.md).  The run measures the finslergeo sources under ./src of
the checkout, never an installed copy.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
in fresh worker processes, then one worker running the mix back to back
for --seconds.  The per-scenario time metrics are wall times scaled to a
fixed host speed, read off a reference kernel timed around each scenario
(hostspeed.py).  --trace 1 alternates untraced and traced passes in one
worker and reports the per-layer metrics.  Either way every verdict,
oracle and report-byte repeat is checked.

Prints one line per metric with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  A copy of the
result with the environment it ran in goes to .bench_out/.  Exits 1 if
any scenario failed, 2 if the run could not be made at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-up is measured in this many fresh workers
SETUP_WORKERS = 9
RUN_LIMIT_S = 170.0
THREAD_CAPS = {
    "FINSLERGEO_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = SRC
    return env


def _worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC] + args
    try:
        proc = subprocess.run(
            cmd,
            env=_worker_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the largest sample with ten larger ones.
    A run times every slot of its mix at least five times, so only failed
    scenarios can leave fewer than eleven samples; then the slowest one
    stands in, and the run is marked incorrect anyway.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "git_commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    setup = []
    if not trace:
        for _ in range(SETUP_WORKERS):
            setup.append(_worker(common + ["--mode", "setup"], deadline)["setup_s"])
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    run_args = common + ["--mode", "run", "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        run_args += ["--spans", stem + "-spans.jsonl.gz"]
    run = _worker(run_args, deadline)
    env["loadavg_end"] = os.getloadavg()
    env.update(run["versions"])

    attempted = run["attempted"]
    failed = len(run["failures"])
    notes = {
        "failed_ratio": f"{failed / attempted:.4f} ({failed} of {attempted} scenarios)",
    }
    if trace:
        metrics = run["per_layer"]
        notes["passes"] = f"{len(run['traced_pass_s'])} traced, {len(run['untraced_pass_s'])} untraced"
    else:
        slots = run["scaled_s"]
        scaled = [value for runs in slots for value in runs]
        tail, pct = tail_percentile(scaled)
        metrics = {
            "scenarios_per_s": len(slots) / sum(statistics.median(runs) for runs in slots if runs),
            "scenario_p50_s": statistics.median(scaled),
            "scenario_tail_s": tail,
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        passes = run["pass_s"]
        notes["scenarios_per_s"] = (
            f"{len(slots)} slots over the sum of their median times; "
            f"wall {run['pool_size'] * len(passes) / sum(passes):.4g}/s over {len(passes)} passes"
        )
        notes["scenario_p50_s"] = f"of {len(scaled)} runs; wall {statistics.median(s[1] for s in run['samples']):.4g} s"
        notes["scenario_tail_s"] = f"p{pct:.1f} of {len(scaled)} runs"
        notes["setup_s"] = f"median of {len(setup)} fresh workers"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "notes": notes,
        "failures": run["failures"],
        "metrics": metrics,
    }
    if not trace:
        # [slot, wall s, kernel s before, after] per scenario run
        record["samples"] = run["samples"]
        record["setup_samples_s"] = setup
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return record, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="finslergeo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finslergeo", "cli.py")):
        sys.stderr.write(f"error: no finslergeo sources under {SRC}\n")
        return 2
    try:
        record, attempted, failed = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = record["metrics"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for name, unit in units.items():
        note = record["notes"].get(name)
        print(f"{name} {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_ratio {record['notes']['failed_ratio']}")
    for failure in record["failures"][:10]:
        print(f"failure in scenario {failure['scenario']}: {failure['error']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
