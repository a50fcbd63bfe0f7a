"""One benchmark worker process: set up, then run a workload's mix.

Started by run.py with finslergeo's sources on PYTHONPATH and the BLAS
pools capped to one thread.  The worker starts no threads of its own and
runs scenarios back to back in one closed loop with one client.  It
prints one JSON object as the last line of its standard output.

  --mode setup   import finslergeo, generate and validate the mix, report
                 the wall time of that set-up, exit
  --mode run     the same set-up, then whole passes over the mix until
                 --seconds have gone by and at least MIN_PASSES are done,
                 timing the reference kernel around every scenario
                 (hostspeed.py); with --trace 1 untraced and traced passes
                 alternate and the traced ones record per-layer spans

Every scenario runs as the command line would run it:
scenario.scenario_from_dict -> cli.run_scenario -> reports.machine_report.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from metrics import PER_LAYER_UNITS  # noqa: E402

# traced passes needed to check that per-layer counts repeat exactly
MIN_TRACED_PASSES = 2
# untraced passes behind every slot's median, however short --seconds is
MIN_PASSES = 5


def _problems(item, report) -> list:
    """Every way a finished scenario misses the benchmark's expectations."""
    out = []
    payload = report.payload
    if not report.passed:
        out.append("the report's verdict disagrees with the scenario's expectation")
    for key, want in item["expect"].items():
        if key == "vanishing":
            tol = report.tolerances
            got = (
                payload["max_abs_s"] <= tol["abs_s"]
                and payload["tau_drift"] <= tol["tau_drift"]
                and abs(payload["s_at_start"]) <= tol["abs_s"]
            )
        else:
            got = payload.get(key)
        if got != want:
            out.append(f"{key} is {got!r}, theory says {want!r}")
    oracle = item["oracle"]
    if oracle and oracle["kind"] == "endpoint":
        err = max(
            max(abs(a - b) for a, b in zip(payload["endpoint_x"], oracle["x"])),
            max(abs(a - b) for a, b in zip(payload["endpoint_y"], oracle["y"])),
        )
        if not err <= oracle["tol"]:
            out.append(f"endpoint misses the closed form by {err:.3e} (tol {oracle['tol']:g})")
    elif oracle and oracle["kind"] == "s_at_start":
        err = abs(payload["s_at_start"] - oracle["value"])
        if not err <= oracle["tol"]:
            out.append(f"S at the start misses the closed form by {err:.3e} (tol {oracle['tol']:g})")
    return out


class Runner:
    """Runs a mix and keeps the outcome of every scenario."""

    def __init__(self, pool, program):
        self.pool = pool
        self.program = program  # the scenario, cli and reports modules
        self.attempted = 0
        self.failures = []
        # [slot, wall s, reference kernel s before, after] of every
        # successful bracketed run, in the order they ran
        self.samples = []
        self.digests = {}

    def run_pass(self, tracer=None, bracket=False) -> float:
        """One pass over the mix; `bracket` times the reference kernel
        around every scenario (see hostspeed.py)."""
        scenario, cli, reports = self.program
        start = time.perf_counter()
        before = after = 0.0
        for pos, item in enumerate(self.pool):
            self.attempted += 1
            if tracer is not None:
                tracer.scenario = pos
            try:
                scen = scenario.scenario_from_dict(copy.deepcopy(item["scenario"]))
                if bracket:
                    before = hostspeed.kernel_s()
                t0 = time.perf_counter()
                report = cli.run_scenario(scen)
                body = reports.machine_report(report)
                elapsed = time.perf_counter() - t0
                if bracket:
                    after = hostspeed.kernel_s()
            except Exception as exc:  # a raising scenario is a failed one
                self.failures.append({"scenario": pos, "error": f"{type(exc).__name__}: {exc}"})
                continue
            problems = _problems(item, report)
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            if self.digests.setdefault(pos, digest) != digest:
                problems.append("machine report bytes differ from an earlier run of this scenario")
            if problems:
                self.failures.append({"scenario": pos, "error": "; ".join(problems)})
            elif bracket:
                self.samples.append([pos, elapsed, before, after])
        return time.perf_counter() - start


def _per_layer(totals: dict, point_s: float, overhead: float) -> dict:
    """The named per-layer metrics from one traced pass.

    `point_s` is the s_curvature layer's inclusive time minus the
    integration it starts, so point_ms is the cost of one path point.
    """

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    steps = get("geodesic_flow.integrate", "steps")
    seeds = get("geodesic_vectors.find", "seeds")
    points = get("s_curvature", "points")
    derived = {
        "geodesic_vectors.representatives": get("geodesic_vectors.find", "representatives"),
        "geodesic_vectors.converged_ratio": get("geodesic_vectors.find", "converged") / seeds if seeds else 0.0,
        "geodesic_flow.step_us": 1e6 * get("geodesic_flow.integrate", "total_s") / steps if steps else 0.0,
        "s_curvature.point_ms": 1e3 * point_s / points if points else 0.0,
        "trace.overhead_ratio": overhead,
    }
    return {
        name: derived[name] if name in derived else get(*name.rsplit(".", 1))
        for name in PER_LAYER_UNITS
    }


def _run_traced(runner, seconds, spans_path):
    import tracer as tracing

    untraced, traced, per_pass, counts = [], [], [], None
    loop_start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass())
        recorder = tracing.Tracer()
        with recorder:
            traced.append(runner.run_pass(recorder))
        totals = tracing.layer_totals(recorder.spans)
        point_s = tracing.layer_time_excluding(recorder.spans, "s_curvature", "geodesic_flow.integrate")
        pass_counts = {
            layer: {k: v for k, v in entry.items() if not k.endswith("_s")} for layer, entry in totals.items()
        }
        if counts is None:
            counts = pass_counts
            with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
                for span in recorder.spans:
                    handle.write(json.dumps(span) + "\n")
        elif pass_counts != counts:
            runner.failures.append({"scenario": None, "error": "per-layer counts differ between traced passes"})
        per_pass.append((totals, point_s))
        if time.perf_counter() - loop_start >= seconds and len(traced) >= MIN_TRACED_PASSES:
            break
    overhead = statistics.median(traced) / statistics.median(untraced)
    layers = [_per_layer(totals, point_s, overhead) for totals, point_s in per_pass]
    # counts come from the first traced pass (they repeat exactly); times
    # are medians over the traced passes
    metrics = {
        name: (layers[0][name] if PER_LAYER_UNITS[name] == "count" else statistics.median(p[name] for p in layers))
        for name in PER_LAYER_UNITS
    }
    return {"per_layer": metrics, "traced_pass_s": traced, "untraced_pass_s": untraced}


def _run_untraced(runner, seconds):
    """Whole passes over the mix for `seconds`, at least MIN_PASSES,
    with every scenario bracketed by the reference kernel."""
    passes = []
    loop_start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(bracket=True))
        if time.perf_counter() - loop_start >= seconds and len(passes) >= MIN_PASSES:
            scaled = [[] for _ in runner.pool]
            for pos, *sample in runner.samples:
                scaled[pos].append(hostspeed.scaled(*sample))
            return {"pass_s": passes, "samples": runner.samples, "scaled_s": scaled}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="gzip JSON-lines file for the first traced pass's spans")
    parser.add_argument("--src", required=True, help="the finslergeo source tree to measure")
    args = parser.parse_args(argv)

    from finslergeo import cli, reports, scenario

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(args.src) + os.sep):
        raise SystemExit(f"finslergeo was imported from {cli.__file__}, not from {args.src}")
    pool = workloads.generate(args.workload, args.seed)
    for item in pool:
        scenario.scenario_from_dict(copy.deepcopy(item["scenario"]))
    setup_s = time.perf_counter() - _STARTED
    result = {"setup_s": setup_s}
    if args.mode == "run":
        runner = Runner(pool, (scenario, cli, reports))
        if args.trace:
            result.update(_run_traced(runner, args.seconds, args.spans))
        else:
            result.update(_run_untraced(runner, args.seconds))
        import numpy
        import scipy

        result.update(
            attempted=runner.attempted,
            failures=runner.failures,
            pool_size=len(pool),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
