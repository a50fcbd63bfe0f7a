"""Self-tests of the benchmark's generator, tracer and host-speed scaling.

Run from the root of a source checkout:

  python3 perfbench/selftest.py

They use finslergeo from ./src.  The tracer tests shrink every scenario
(short horizons, few solver seeds) so they finish in seconds; they
compare traced with untraced runs and never judge the verdicts.
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from finslergeo import cli, reports, scenario  # noqa: E402

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 7)


def _small(item) -> dict:
    data = copy.deepcopy(item["scenario"])
    params = data["params"]
    if "T" in params:
        params["T"] = 0.02
    if "stride" in params:
        params["stride"] = 2
    if data["task"] == "geodesic-vectors":
        params["samples"] = 256
    return data


def _small_mix() -> list:
    return [_small(item) for name in workloads.WORKLOADS for item in workloads.generate(name, 3)]


def _run(mix) -> list:
    return [reports.machine_report(cli.run_scenario(scenario.scenario_from_dict(copy.deepcopy(d)))) for d in mix]


def _traced_counts(mix) -> dict:
    recorder = tracer.Tracer()
    with recorder:
        _run(mix)
    totals = tracer.layer_totals(recorder.spans)
    return {layer: {k: v for k, v in entry.items() if not k.endswith("_s")} for layer, entry in totals.items()}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_mix(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(workloads.generate(name, seed), workloads.generate(name, seed))

    def test_different_seed_different_mix(self):
        for name in workloads.WORKLOADS:
            scenarios = [
                json.dumps([item["scenario"] for item in workloads.generate(name, seed)], sort_keys=True)
                for seed in SEEDS
            ]
            self.assertEqual(len(set(scenarios)), len(SEEDS), name)

    def test_every_scenario_validates(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                for item in workloads.generate(name, seed):
                    scenario.scenario_from_dict(copy.deepcopy(item["scenario"]))
                    self.assertTrue(item["basis"])


class TracerTest(unittest.TestCase):
    def test_originals_restored(self):
        before = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in tracer._targets()]
        aliases = {
            (name, attr): value
            for name, module in sys.modules.items()
            if name.startswith("finslergeo.")
            for attr, value in vars(module).items()
            if callable(value)
        }
        recorder = tracer.Tracer()
        with recorder:
            for owner, attr, original in before:
                self.assertIsNot(vars(owner)[attr], original)
        for owner, attr, original in before:
            self.assertIs(vars(owner)[attr], original)
        for (name, attr), value in aliases.items():
            self.assertIs(vars(sys.modules[name])[attr], value)

    def test_traced_reports_match_untraced(self):
        mix = _small_mix()
        plain = _run(mix)
        recorder = tracer.Tracer()
        with recorder:
            traced = _run(mix)
        self.assertEqual(plain, traced)
        self.assertTrue(recorder.spans)

    def test_counts_repeat(self):
        mix = _small_mix()
        first = _traced_counts(mix)
        self.assertEqual(first, _traced_counts(mix))
        self.assertIn("geodesic_flow.integrate", first)
        self.assertIn("sphere.quad_grid", first)

    def test_self_time_excludes_children(self):
        spans = [["outer", 0.0, 10.0, -1, 0, {}], ["inner", 2.0, 5.0, 0, 0, {"rows": 4}]]
        totals = tracer.layer_totals(spans)
        self.assertEqual(totals["outer"]["self_s"], 7.0)
        self.assertEqual(totals["inner"]["rows"], 4)
        self.assertEqual(tracer.layer_time_excluding(spans, "outer", "inner"), 7.0)


class HostSpeedTest(unittest.TestCase):
    def test_scaling_divides_out_the_host_speed(self):
        # a host at half speed doubles the scenario and the kernel alike
        ref = hostspeed.REF_S
        self.assertAlmostEqual(hostspeed.scaled(0.1, ref, ref), 0.1)
        self.assertAlmostEqual(hostspeed.scaled(0.2, 2 * ref, 2 * ref), 0.1)
        self.assertAlmostEqual(hostspeed.scaled(0.3, 2 * ref, 4 * ref), 0.1)
        self.assertGreater(hostspeed.kernel_s(3), 0.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        for key, table in (("end_to_end", metrics.END_TO_END_UNITS), ("per_layer", metrics.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, table)


if __name__ == "__main__":
    unittest.main()
