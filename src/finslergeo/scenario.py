"""Scenario files: schema, parsing, validation, canonical serialization.

A scenario is a JSON object selecting a model (a built-in group by name,
or an inline Lie algebra given by structure constants), a norm block, a
task name, task parameters, and a seed.  Indices inside scenario files
are 1-based, matching the basis labels e1, e2, ...; everything internal
is 0-based.  The canonical serialized form (defaults filled, keys
sorted) is what run reports digest, so identical scenarios hash
identically.
"""

import glob
import json
import os
from dataclasses import dataclass

import numpy as np

from . import groups, lie, norms
from .errors import NonConvexNorm, ParseError, ValidationError

# tasks needing chart-level structure (a group model, not just an algebra)
CHART_TASKS = ("integrate-geodesic", "check-homogeneous", "s-curvature", "berwald")
# the expectations each task compares its verdict against; a key a task
# does not read would otherwise be ignored and the run would pass
EXPECTATIONS = {
    "geodesic-vectors": ("expect_all_geodesic", "expect_branches"),
    "check-nat-reductive": ("expect_passed",),
    "check-minkowski-lie": ("expect_passed",),
    "integrate-geodesic": (),
    "check-homogeneous": ("expect_passed",),
    "s-curvature": ("expect_vanishing",),
    "berwald": ("expect_berwald",),
}
TASKS = tuple(EXPECTATIONS)


@dataclass
class Scenario:
    task: str
    model_name: str | None
    model: groups.GroupModel | None
    algebra: lie.LieAlgebraData
    norm: norms.MinkowskiNorm
    m_indices: tuple
    h_indices: tuple
    params: dict
    seed: int
    raw: dict


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ParseError(f"{where}: missing required field {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _inline_algebra(block: dict) -> lie.LieAlgebraData:
    dim = _require(block, "dim", int, "model block")
    entries = _require(block, "structure_constants", list, "model block")
    c = np.zeros((dim, dim, dim))
    seen = set()
    for pos, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ParseError(
                f"model block: structure_constants[{pos}] must be [i, j, k, value] with 1-based indices"
            )
        i, j, k, value = entry
        for label, idx in (("i", i), ("j", j), ("k", k)):
            if not isinstance(idx, int) or not 1 <= idx <= dim:
                raise ValidationError(
                    f"model block: structure_constants[{pos}].{label} = {idx!r} is outside 1..{dim}"
                )
        if i == j:
            raise ValidationError(
                f"model block: structure_constants[{pos}] sets [e{i}, e{i}], which is always zero"
            )
        key = (i - 1, j - 1, k - 1)
        mirror = (j - 1, i - 1, k - 1)
        if key in seen or mirror in seen:
            raise ValidationError(f"model block: duplicate structure constant for [e{i}, e{j}] -> e{k}")
        seen.add(key)
        c[key] = float(value)
        c[mirror] = -float(value)
    algebra = lie.LieAlgebraData(dim=dim, c=c)
    residual, witness = lie.jacobi_residual(algebra)
    if residual > 1.0e-10:
        raise ValidationError(
            f"model block: structure constants violate the Jacobi identity "
            f"(residual {residual:.3e} at basis triple {tuple(int(w) + 1 for w in witness[:3])})"
        )
    return algebra


def _parse_norm(block: dict, dim: int) -> norms.MinkowskiNorm:
    kind = _require(block, "kind", str, "norm block")
    if kind not in ("euclidean", "randers"):
        raise ValidationError(f"norm block: unknown kind {kind!r}; use 'euclidean' or 'randers'")
    a = np.asarray(_require(block, "a", list, "norm block"), dtype=float)
    if a.shape != (dim, dim):
        raise ValidationError(
            f"norm block: matrix a has shape {a.shape}, model dimension is {dim}"
        )
    if kind == "euclidean":
        return norms.EuclideanNorm(a)
    b = np.asarray(_require(block, "b", list, "norm block"), dtype=float)
    if b.shape != (dim,):
        raise ValidationError(f"norm block: covector b has shape {b.shape}, model dimension is {dim}")
    try:
        return norms.make_randers(a, b)
    except NonConvexNorm as exc:
        raise ValidationError(
            f"norm block: Randers data violates ‖b‖ < 1 (computed ‖b‖_a = {exc.b_norm:.6f})"
        ) from None


def _parse_indices(block, dim: int, label: str) -> tuple:
    out = []
    for idx in block:
        if not isinstance(idx, int) or not 1 <= idx <= dim:
            raise ValidationError(f"{label}: index {idx!r} is outside 1..{dim}")
        out.append(idx - 1)
    if len(set(out)) != len(out):
        raise ValidationError(f"{label}: indices must be distinct")
    return tuple(out)


def _check_expectations(task: str, params: dict) -> None:
    known = EXPECTATIONS[task]
    for key, value in params.items():
        if not key.startswith("expect_"):
            continue
        if key not in known:
            listed = ", ".join(known) if known else "none"
            raise ValidationError(
                f"params: task {task!r} has no expectation {key!r}; it checks: {listed}"
            )
        if key == "expect_branches":
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(
                    f"params: {key!r} must be a non-negative integer, got {value!r}"
                )
        elif not isinstance(value, bool):
            raise ValidationError(f"params: {key!r} must be true or false, got {value!r}")


def parse_scenario(path: str) -> Scenario:
    """Load, validate, and resolve a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return scenario_from_dict(data)


def scenario_from_dict(data: dict) -> Scenario:
    task = _require(data, "task", str, "scenario")
    if task not in TASKS:
        raise ValidationError(f"scenario: unknown task {task!r}; available: {', '.join(TASKS)}")

    model_block = data.get("model")
    model = None
    model_name = None
    if isinstance(model_block, str):
        try:
            model = groups.model_by_name(model_block)
        except ValueError as exc:
            raise ValidationError(f"scenario: {exc}") from None
        model_name = model_block
        algebra = model.algebra
    elif isinstance(model_block, dict):
        if task in CHART_TASKS:
            raise ValidationError(
                f"scenario: task {task!r} needs a named group model; an inline algebra only "
                "supports the algebra-level tasks"
            )
        algebra = _inline_algebra(model_block)
    else:
        raise ParseError("scenario: field 'model' must be a model name or an inline algebra block")

    norm_block = data.get("norm")
    if not isinstance(norm_block, dict):
        raise ParseError("scenario: field 'norm' must be an object")
    norm = _parse_norm(norm_block, algebra.dim)

    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("scenario: field 'params' must be an object")
    _check_expectations(task, params)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ParseError("scenario: field 'seed' must be a non-negative integer")

    m_indices = _parse_indices(data.get("m_indices", list(range(1, algebra.dim + 1))), algebra.dim, "m_indices")
    h_indices = _parse_indices(data.get("h_indices", []), algebra.dim, "h_indices")
    if sorted(m_indices + h_indices) != list(range(algebra.dim)):
        raise ValidationError(
            f"scenario: m_indices and h_indices must partition 1..{algebra.dim}"
        )

    return Scenario(
        task=task,
        model_name=model_name,
        model=model,
        algebra=algebra,
        norm=norm,
        m_indices=m_indices,
        h_indices=h_indices,
        params=dict(params),
        seed=seed,
        raw=_canonical_dict(data, algebra.dim),
    )


def _canonical_dict(data: dict, dim: int) -> dict:
    """The scenario with defaults made explicit; the digested form."""
    out = {
        "task": data["task"],
        "model": data["model"],
        "norm": data["norm"],
        "params": dict(data.get("params", {})),
        "seed": data.get("seed", 0),
        "m_indices": list(data.get("m_indices", list(range(1, dim + 1)))),
        "h_indices": list(data.get("h_indices", [])),
    }
    return out


def serialize_scenario(scenario: Scenario) -> dict:
    return json.loads(json.dumps(scenario.raw))


def bundled_scenarios() -> list:
    """Paths of the scenario files shipped with the package, sorted."""
    here = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(glob.glob(os.path.join(here, "*.json")))
