"""The benchmark's scenario mixes and tracer against the current package.

The benchmark under perfbench/ feeds generated scenarios through
`scenario_from_dict` and wraps named functions with its tracer.  A
parameter table stricter than those scenarios, a deleted traced name, or
a traced layer the mixes no longer reach, fails here instead of in a
benchmark run.
"""

import copy
import os
import subprocess
import sys

import numpy as np

from finslergeo import geodesic_flow, groups, norms, scenario

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_scenarios_parse():
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for item in workloads.generate(workload, seed):
                scenario.scenario_from_dict(copy.deepcopy(item["scenario"]))
                count += 1
    for path in scenario.bundled_scenarios():
        scenario.parse_scenario(path)
    assert count > 0


def test_tracer_installs_and_uninstalls():
    targets = tracer._targets()
    originals = [vars(owner)[attr] for _, owner, attr, _ in targets]
    probe = tracer.Tracer()
    probe.install()
    try:
        assert all(vars(owner)[attr] is not fn for (_, owner, attr, _), fn in zip(targets, originals))
    finally:
        probe.uninstall()
    assert all(vars(owner)[attr] is fn for (_, owner, attr, _), fn in zip(targets, originals))


def test_tracer_counts_trajectory_steps():
    # geodesic_flow.step_us divides by this count: the steps of the one
    # path a call integrates, whatever the representation of its points
    norm = norms.EuclideanNorm(np.diag([1.0, 2.0, 3.0]))
    y0 = np.random.RandomState(3).standard_normal(3)
    with tracer.Tracer() as probe:
        geodesic_flow.integrate_geodesic(groups.SU2(), norm, np.zeros(3), y0, T=0.5, step=0.01)
    assert tracer.layer_totals(probe.spans)["geodesic_flow.integrate"]["steps"] == 50


def test_benchmark_selftest_passes():
    # its own process: the self-test imports finslergeo from src/ and
    # installs the tracer over the whole package
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
