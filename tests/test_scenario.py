import json

import numpy as np
import pytest

from finslergeo import lie, norms, scenario
from finslergeo.errors import ParseError, ValidationError

I2 = [[1.0, 0.0], [0.0, 1.0]]
I3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def write_scenario(tmp_path, data, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def minimal(task="check-minkowski-lie", model="su2", norm=None, **extra):
    data = {"task": task, "model": model, "norm": norm or {"kind": "euclidean", "a": I3}}
    data.update(extra)
    return data


def test_minimal_scenario_fills_defaults(tmp_path):
    scen = scenario.parse_scenario(write_scenario(tmp_path, minimal()))
    assert scen.task == "check-minkowski-lie"
    assert scen.model.name == "su2"
    assert scen.seed == 0
    assert scen.params == {"samples": 200, "tol": 1.0e-10, "expect_passed": True}
    assert scen.raw["params"] == {}
    assert scen.split.m_indices == (0, 1, 2)
    assert scen.split.h_indices == ()
    assert scen.raw["seed"] == 0
    assert scen.raw["m_indices"] == [1, 2, 3]
    assert scen.raw["h_indices"] == []
    assert isinstance(scen.norm, norms.EuclideanNorm)


def test_bundled_scenarios_parse():
    paths = scenario.bundled_scenarios()
    assert len(paths) == 18
    tasks = set()
    for path in paths:
        scen = scenario.parse_scenario(path)
        assert scen.task in scenario.TASKS
        tasks.add(scen.task)
    assert tasks == set(scenario.TASKS)


def test_randers_unit_ball_violation(tmp_path):
    data = minimal(norm={"kind": "randers", "a": I3, "b": [1.2, 0.0, 0.0]})
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "‖b‖ < 1" in str(err.value)
    assert "1.2" in str(err.value)


def test_norm_dimension_mismatch_names_both(tmp_path):
    data = minimal(model="heisenberg3", norm={"kind": "euclidean", "a": [[1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "(2, 2)" in str(err.value)
    assert "3" in str(err.value)


def test_inline_algebra_matches_builtin(tmp_path):
    block = {
        "dim": 3,
        "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]],
    }
    scen = scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert scen.model is None
    assert np.max(np.abs(scen.split.algebra.c - lie.su2().c)) == 0.0


def test_inline_algebra_jacobi_violation(tmp_path):
    block = {"dim": 3, "structure_constants": [[1, 2, 2, 1.0], [2, 3, 1, 1.0]]}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert "Jacobi" in str(err.value)
    assert "(1, 2, 3)" in str(err.value)


def rotated_su2(scale):
    """su(2) as inline structure constants in a rotated orthonormal basis,
    scale·Q_ia Q_jb Q_kd ε_ijk for one rotation Q: exactly scale·ε_abd up
    to rounding."""
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))
    c = scale * np.einsum("ia,jb,kd,ijk->abd", q, q, q, lie.su2().c)
    entries = [[a + 1, b + 1, d + 1, float(c[a, b, d])] for a in range(3) for b in range(a + 1, 3) for d in range(3)]
    return {"dim": 3, "structure_constants": entries}


def test_inline_algebra_checks_scale_with_the_constants(tmp_path):
    # the Jacobi and split checks are relative to max|c|, so rounding in
    # a scaled basis passes them and a real defect at that scale does not
    scale = 1.0e5
    block = rotated_su2(scale)
    scen = scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert np.max(np.abs(scen.split.algebra.c - scale * lie.su2().c)) <= 1.0e-10 * scale
    data = minimal(task="check-nat-reductive", model=block, norm={"kind": "euclidean", "a": I2},
                   m_indices=[1, 2], h_indices=[3])
    assert scenario.parse_scenario(write_scenario(tmp_path, data)).split.h_indices == (2,)
    broken = [entry[:3] + [entry[3] + 1.0e-6 * scale] if entry[:3] == [1, 2, 1] else entry
              for entry in block["structure_constants"]]
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model={"dim": 3, "structure_constants": broken})))
    assert "Jacobi" in str(err.value)


def test_inline_algebra_duplicate_entry(tmp_path):
    block = {"dim": 3, "structure_constants": [[1, 2, 3, 1.0], [2, 1, 3, -1.0]]}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert "duplicate" in str(err.value)


def test_inline_algebra_bad_indices(tmp_path):
    block = {"dim": 3, "structure_constants": [[0, 2, 3, 1.0]]}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert "outside 1..3" in str(err.value)
    block = {"dim": 3, "structure_constants": [[1, 1, 2, 1.0]]}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert "always zero" in str(err.value)


def test_float_index_must_be_an_integer(tmp_path):
    block = {"dim": 3, "structure_constants": [[1.0, 2, 3, 1.0]]}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert "structure_constants[0].i = 1.0 must be an integer in 1..3" in str(err.value)
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(m_indices=[1.0, 2, 3])))
    assert "m_indices: index 1.0 must be an integer in 1..3" in str(err.value)


@pytest.mark.parametrize("dim", [0, -1, True])
def test_inline_algebra_dim_must_be_positive(tmp_path, dim):
    block = {"dim": dim, "structure_constants": []}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model=block)))
    assert "dim must be a positive integer" in str(err.value)


def test_inline_algebra_rejected_for_chart_tasks(tmp_path):
    block = {"dim": 3, "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]}
    data = minimal(task="integrate-geodesic", model=block, params={"y0": [1.0, 0.0, 0.0]})
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "named group model" in str(err.value)


def test_unknown_task_and_model(tmp_path):
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(task="solve-everything")))
    assert "solve-everything" in str(err.value)
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(model="so5")))
    assert "so5" in str(err.value)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"task": "berwald",\n  "model": }\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        scenario.parse_scenario(str(path))
    assert ":2:" in str(err.value)


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError) as err:
        scenario.parse_scenario("/no/such/scenario.json")
    assert "cannot read" in str(err.value)


def test_round_trip_preserves_canonical_form(tmp_path):
    data = minimal(
        task="check-nat-reductive",
        model="su2",
        norm={"kind": "euclidean", "a": I2},
        params={"samples": 50, "expect_passed": True},
        seed=3,
        m_indices=[1, 2],
        h_indices=[3],
    )
    scen = scenario.parse_scenario(write_scenario(tmp_path, data))
    assert scen.split.m_indices == (0, 1)
    assert scen.split.h_indices == (2,)
    again = scenario.parse_scenario(write_scenario(tmp_path, scen.raw, "b.json"))
    assert again.raw == scen.raw


@pytest.mark.parametrize("task", ["check-nat-reductive", "geodesic-vectors"])
def test_split_norm_must_be_ad_h_invariant(tmp_path, task):
    # SU(2)/U(1) with m = {e1, e2}, h = {e3}: exp(t·e3) rotates m, so only
    # a multiple of the round norm is the norm at o of a homogeneous
    # metric on S²; a = diag(1, 2) and a Randers b on m are not
    split = {"m_indices": [1, 2], "h_indices": [3]}
    stretched = {"kind": "euclidean", "a": [[1.0, 0.0], [0.0, 2.0]]}
    for norm in (stretched, {"kind": "randers", "a": I2, "b": [0.3, 0.0]}):
        with pytest.raises(ValidationError) as err:
            scenario.parse_scenario(write_scenario(tmp_path, minimal(task=task, norm=norm, **split)))
        assert "not Ad(H)-invariant" in str(err.value)
        assert "at Z = e3" in str(err.value)
    round_norm = {"kind": "euclidean", "a": [[2.5, 0.0], [0.0, 2.5]]}
    scen = scenario.parse_scenario(write_scenario(tmp_path, minimal(task=task, norm=round_norm, **split)))
    assert scen.split.h_indices == (2,)
    # su(2) + R with h = {e3, e4}: the central e4 fixes every norm, so the
    # worst Z is e3
    inline = {"dim": 4, "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]}
    data = minimal(task=task, model=inline, norm=stretched, m_indices=[1, 2], h_indices=[4, 3])
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "at Z = e3" in str(err.value)


@pytest.mark.parametrize("scale", [1.0e6, 1.0e7, 1.0e8, 1.0e-12])
def test_ad_h_invariance_bound_scales_with_the_constants(tmp_path, scale):
    # the bound is relative to max|c|·|g_y y|·|y|: rounding of a scaled
    # rotated su(2) passes it, a stretched norm fails it at any scale
    split = {"m_indices": [1, 2], "h_indices": [3]}
    data = minimal(task="check-nat-reductive", model=rotated_su2(scale), norm={"kind": "euclidean", "a": I2}, **split)
    assert scenario.parse_scenario(write_scenario(tmp_path, data)).split.h_indices == (2,)
    data["norm"] = {"kind": "euclidean", "a": [[1.0, 0.0], [0.0, 2.0]]}
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert str(err.value).endswith("at Z = e3")


def test_m_h_must_partition(tmp_path):
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(m_indices=[1, 2], h_indices=[2, 3])))
    assert "partition" in str(err.value)
    with pytest.raises(ValidationError):
        scenario.parse_scenario(write_scenario(tmp_path, minimal(m_indices=[1], h_indices=[2])))
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, minimal(m_indices=[1, 1, 2], h_indices=[3])))
    assert "distinct" in str(err.value)


@pytest.mark.parametrize(
    "split",
    [{"m_indices": 3}, {"m_indices": None}, {"m_indices": True}, {"m_indices": "12"},
     {"m_indices": {"1": 2}}, {"m_indices": [1, 2], "h_indices": 5}, {"m_indices": [1, 2], "h_indices": "3"}],
)
def test_split_indices_must_be_lists(tmp_path, split):
    data = minimal(task="check-nat-reductive", norm={"kind": "euclidean", "a": I2}, **split)
    with pytest.raises(ParseError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "must be a list of indices" in str(err.value)


def test_seed_validation(tmp_path):
    with pytest.raises(ParseError):
        scenario.parse_scenario(write_scenario(tmp_path, minimal(seed=-1)))
    with pytest.raises(ParseError):
        scenario.parse_scenario(write_scenario(tmp_path, minimal(seed=True)))


def test_missing_fields(tmp_path):
    with pytest.raises(ParseError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, {"model": "su2"}))
    assert "task" in str(err.value)
    with pytest.raises(ParseError):
        scenario.parse_scenario(write_scenario(tmp_path, {"task": "berwald", "model": "su2"}))
    with pytest.raises(ParseError):
        scenario.parse_scenario(write_scenario(tmp_path, {"task": "berwald", "norm": {"kind": "euclidean", "a": I3}}))


def test_string_expectations_rejected(tmp_path):
    # bool("false") is True, so a string here would turn into a silent pass
    cases = [
        ("s-curvature", "expect_vanishing", "false"),
        ("berwald", "expect_berwald", "no"),
        ("check-nat-reductive", "expect_passed", 0),
        ("geodesic-vectors", "expect_all_geodesic", "true"),
    ]
    for task, key, value in cases:
        params = {"y0": [1.0, 0.0, 0.0]} if task == "s-curvature" else {}
        data = minimal(task=task, params={**params, key: value})
        with pytest.raises(ValidationError) as err:
            scenario.parse_scenario(write_scenario(tmp_path, data))
        assert key in str(err.value)
        assert "true or false" in str(err.value)


def test_branch_count_expectation_must_be_count(tmp_path):
    for value in (True, -1, 2.0, "2"):
        data = minimal(task="geodesic-vectors", params={"expect_branches": value})
        with pytest.raises(ValidationError) as err:
            scenario.parse_scenario(write_scenario(tmp_path, data))
        assert "non-negative integer" in str(err.value)
    data = minimal(task="geodesic-vectors", params={"expect_branches": 0, "expect_all_geodesic": False})
    scen = scenario.parse_scenario(write_scenario(tmp_path, data))
    assert scen.params["expect_branches"] == 0


def test_unknown_expectation_rejected(tmp_path):
    data = minimal(task="geodesic-vectors", params={"expect_branch": 7})
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "expect_branch" in str(err.value)
    assert "expect_branches" in str(err.value)
    # an expectation of another task is not checked by this one
    data = minimal(task="berwald", params={"expect_vanishing": True})
    with pytest.raises(ValidationError) as err:
        scenario.parse_scenario(write_scenario(tmp_path, data))
    assert "expect_vanishing" in str(err.value)
    # so is any other key the task does not declare: a typo or a leftover
    for task, key in (("integrate-geodesic", "stide"), ("s-curvature", "dt")):
        data = minimal(task=task, params={"y0": [1.0, 0.0, 0.0], key: 2})
        with pytest.raises(ValidationError) as err:
            scenario.parse_scenario(write_scenario(tmp_path, data))
        assert repr(key) in str(err.value)
        assert ", ".join(scenario.TASKS[task].params) in str(err.value)


# every default the task runners used before the table, and the
# vectors a task cannot run without
DEFAULTS = {
    "geodesic-vectors": ({}, {"samples": 4096, "tol": 1.0e-9}),
    "check-nat-reductive": ({}, {"samples": 200, "tol": 1.0e-8, "expect_passed": True}),
    "check-minkowski-lie": ({}, {"samples": 200, "tol": 1.0e-10, "expect_passed": True}),
    "integrate-geodesic": (
        {"y0": [1.0, 0.0, 0.0]},
        {"x0": [0.0, 0.0, 0.0], "y0": [1.0, 0.0, 0.0], "T": 2.0, "step": 1.0e-3, "tol": 1.0e-6},
    ),
    "check-homogeneous": (
        {"X": [1.0, 0.0, 0.0]},
        {"X": [1.0, 0.0, 0.0], "T": 2.0, "step": 1.0e-3, "tol": 1.0e-6, "expect_passed": True},
    ),
    "s-curvature": (
        {"y0": [1.0, 0.0, 0.0]},
        {"x0": [0.0, 0.0, 0.0], "y0": [1.0, 0.0, 0.0], "T": 2.0, "step": 1.0e-3, "stride": 50,
         "tol": 1.0e-3, "tau_tol": 1.0e-6, "expect_vanishing": True},
    ),
    "berwald": ({}, {"x": [0.0, 0.0, 0.0], "samples": 8, "tol": 1.0e-5, "expect_berwald": True}),
}


def test_param_table_fills_defaults():
    assert set(DEFAULTS) == set(scenario.TASKS)
    for task, (given, expected) in DEFAULTS.items():
        scen = scenario.scenario_from_dict(minimal(task=task, params=given))
        typed = {key: value.tolist() if isinstance(value, np.ndarray) else value
                 for key, value in scen.params.items()}
        assert typed == expected, task
        assert all(type(typed[key]) is type(value) for key, value in expected.items()), task
        assert scen.raw["params"] == given
    # ints read as floats; counts and flags keep their types
    scen = scenario.scenario_from_dict(minimal(task="s-curvature", params={"y0": [1, 0, 0], "T": 1, "stride": 2}))
    assert scen.params["T"] == 1.0 and isinstance(scen.params["T"], float)
    assert scen.params["y0"].dtype == np.float64
    assert scen.params["stride"] == 2 and isinstance(scen.params["stride"], int)


BAD_VALUES = {
    "number": [None, True, "1", [1.0], float("nan"), float("inf"), -1, -1.0e-12],
    "count": [None, True, "2", 2.0, -1, -5],
    "vector": [None, "e1", [1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, True, 0.0], [1.0, "0", 0.0],
               [float("nan"), 0.0, 0.0]],
    "flag": [None, 0, 1, "true", "false"],
}


def test_param_table_rejects_bad_values():
    # every declared parameter of every task refuses the wrong kind and
    # every value out of its range; among them the repros tol = -1,
    # samples = -5 and 0, stride = -1 and 0
    for task, (given, _) in DEFAULTS.items():
        for key, param in scenario.TASKS[task].params.items():
            bad = list(BAD_VALUES[param.kind])
            if param.positive:
                bad += [0, 0.0] if param.kind == "number" else [0]
            for value in bad:
                data = minimal(task=task, params={**given, key: value})
                with pytest.raises(ValidationError) as err:
                    scenario.scenario_from_dict(data)
                assert repr(key) in str(err.value), (task, key, value)
    # a required vector may not be left out
    for task, key in (("integrate-geodesic", "y0"), ("check-homogeneous", "X"), ("s-curvature", "y0")):
        with pytest.raises(ValidationError) as err:
            scenario.scenario_from_dict(minimal(task=task))
        assert repr(key) in str(err.value)


def test_cross_key_rules_accept_their_boundaries():
    scen = scenario.scenario_from_dict(minimal(task="berwald", params={"samples": 2}))
    assert scen.params["samples"] == 2
    # 0.9 / 0.3 rounds to 3.0000000000000004: three whole steps
    scen = scenario.scenario_from_dict(
        minimal(task="integrate-geodesic", params={"y0": [1, 0, 0], "T": 0.9, "step": 0.3})
    )
    assert scen.params["T"] == 0.9
    for T in (0.3, 0.6000001, 0.1):
        with pytest.raises(ValidationError, match="'T'"):
            scenario.scenario_from_dict(minimal(task="s-curvature", params={"y0": [1, 0, 0], "T": T, "step": 0.2}))


def test_split_only_for_tasks_that_read_it():
    for task in scenario.TASKS:
        spec = scenario.TASKS[task]
        data = minimal(task=task, params=DEFAULTS[task][0], norm={"kind": "euclidean", "a": I2},
                       m_indices=[1, 2], h_indices=[3])
        if spec.reads_split:
            assert scenario.scenario_from_dict(data).norm.dim == 2
        else:
            with pytest.raises(ValidationError) as err:
                scenario.scenario_from_dict(data)
            assert "h_indices" in str(err.value)
    # with a split the norm is given on m, not on the whole algebra
    data = minimal(task="geodesic-vectors", m_indices=[1, 2], h_indices=[3])
    with pytest.raises(ValidationError) as err:
        scenario.scenario_from_dict(data)
    assert "dim m is 2" in str(err.value)
