"""Names and units of the metrics the benchmark reports.

BENCHMARK.json lists the same names; selftest.py checks that they agree.
"""

# measured with tracing off, on every workload
END_TO_END_UNITS = {
    "scenarios_per_s": "1/s",
    "scenario_p50_s": "s",
    "scenario_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# measured in the traced run; counts come from argument and return
# shapes at each layer boundary and repeat exactly for a given seed
PER_LAYER_UNITS = {
    "scenario.validate.calls": "count",
    "scenario.validate.self_s": "s",
    "reports.machine_report.self_s": "s",
    "reports.machine_report.bytes": "count",
    "cli.run_scenario.self_s": "s",
    "norms.fundamental_matrix.calls": "count",
    "norms.fundamental_matrix.rows": "count",
    "norms.fundamental_matrix.self_s": "s",
    "norms.cartan.rows": "count",
    "norms.cartan.self_s": "s",
    "norms.value.rows": "count",
    "norms.value.self_s": "s",
    "jets.route.rows": "count",
    "jets.route.self_s": "s",
    "lie.ad.calls": "count",
    "lie.ad.self_s": "s",
    "lie.bracket.self_s": "s",
    "groups.body_jacobian.rows": "count",
    "groups.body_jacobian.self_s": "s",
    "groups.check_chart.calls": "count",
    "groups.orbit_curve.self_s": "s",
    "sphere.quad_grid.calls": "count",
    "sphere.quad_grid.self_s": "s",
    "sphere.seeds.self_s": "s",
    "geodesic_vectors.find.self_s": "s",
    "geodesic_vectors.converged_ratio": "ratio",
    "geodesic_vectors.representatives": "count",
    "geodesic_vectors.checks.self_s": "s",
    "geodesic_flow.integrate.steps": "count",
    "geodesic_flow.integrate.self_s": "s",
    "geodesic_flow.step_us": "us",
    "geodesic_flow.chart_tensor.rows": "count",
    "geodesic_flow.chart_tensor.self_s": "s",
    "geodesic_flow.berwald.self_s": "s",
    "s_curvature.points": "count",
    "s_curvature.self_s": "s",
    "s_curvature.point_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
