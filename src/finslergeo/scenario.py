"""Scenario files: schema, parsing, validation, the digested form.

A scenario is a JSON object selecting a model (a built-in group by name,
or an inline Lie algebra given by structure constants), a norm block, a
task name, task parameters, and a seed.  Indices inside scenario files
are 1-based, matching the basis labels e1, e2, ...; everything internal
is 0-based.

`TASKS` declares, for every task, whether it needs a named group, whether
it reads the reductive split g = h + m, and the parameters it takes.
Parsing checks `params` against that table: an undeclared key, a value
of the wrong kind or one out of range is a ValidationError, and so is a
top-level key other than the seven of `_TOP_LEVEL_KEYS`, so an
expectation placed beside `params` is never silently dropped; a norm
block takes `kind` and `a` (and `b` for Randers), an inline model block
`dim` and `structure_constants`, and nothing else.  The split is decided
here once: a task that does not read it takes neither `m_indices` nor
`h_indices`, so its split is m = g in basis order.  Two rules span
keys: `berwald` pairs at least two directions, and a horizon `T` is a
whole number of `step`s, so a run ends where asked.
`Scenario.params` holds the typed values with defaults filled in;
`Scenario.raw` keeps the parameters exactly as given (with the seed and
the split made explicit, m = g included) and is what run reports digest,
so identical scenarios hash identically; only a split task's re-parses.
"""

import glob
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import geodesic_flow, geodesic_vectors, groups, lie, norms
from .errors import NonConvexNorm, ParseError, ValidationError

_TOP_LEVEL_KEYS = ("task", "model", "norm", "params", "seed", "m_indices", "h_indices")

REQUIRED = "required"  # the scenario must give the value
ABSENT = "absent"  # no default: an absent value stays out of the typed params
IDENTITY = "identity"  # a vector defaulting to the model's identity


@dataclass(frozen=True)
class Param:
    """A task parameter.

    kind is "number" (int or float, read as float), "count" (an int),
    "vector" (a list of dim numbers) or "flag" (true or false).  A
    positive number is > 0 and a positive count is >= 1; otherwise both
    are >= 0.
    """

    kind: str
    default: object
    positive: bool = False


@dataclass(frozen=True)
class TaskSpec:
    needs_group: bool  # chart-level work: a named group, not an inline algebra
    reads_split: bool  # works on m of g = h + m, with the norm given on m
    params: dict


_T = Param("number", 2.0, positive=True)
_STEP = Param("number", 1.0e-3, positive=True)
_EXPECT_TRUE = Param("flag", True)

TASKS = {
    "geodesic-vectors": TaskSpec(needs_group=False, reads_split=True, params={
        "samples": Param("count", 4096, positive=True),
        "tol": Param("number", 1.0e-9),
        "expect_all_geodesic": Param("flag", ABSENT),
        "expect_branches": Param("count", ABSENT),
    }),
    "check-nat-reductive": TaskSpec(needs_group=False, reads_split=True, params={
        "samples": Param("count", 200, positive=True),
        "tol": Param("number", 1.0e-8),
        "expect_passed": _EXPECT_TRUE,
    }),
    "check-minkowski-lie": TaskSpec(needs_group=False, reads_split=False, params={
        "samples": Param("count", 200, positive=True),
        "tol": Param("number", 1.0e-10),
        "expect_passed": _EXPECT_TRUE,
    }),
    "integrate-geodesic": TaskSpec(needs_group=True, reads_split=False, params={
        "x0": Param("vector", IDENTITY),
        "y0": Param("vector", REQUIRED),
        "T": _T,
        "step": _STEP,
        "tol": Param("number", 1.0e-6),
    }),
    "check-homogeneous": TaskSpec(needs_group=True, reads_split=False, params={
        "X": Param("vector", REQUIRED),
        "T": _T,
        "step": _STEP,
        "tol": Param("number", 1.0e-6),
        "expect_passed": _EXPECT_TRUE,
    }),
    "s-curvature": TaskSpec(needs_group=True, reads_split=False, params={
        "x0": Param("vector", IDENTITY),
        "y0": Param("vector", REQUIRED),
        "T": _T,
        "step": _STEP,
        "stride": Param("count", 50, positive=True),
        "tol": Param("number", 1.0e-3),
        "tau_tol": Param("number", 1.0e-6),
        "expect_vanishing": _EXPECT_TRUE,
    }),
    "berwald": TaskSpec(needs_group=True, reads_split=False, params={
        "x": Param("vector", IDENTITY),
        "samples": Param("count", 8, positive=True),
        "tol": Param("number", 1.0e-5),
        "expect_berwald": _EXPECT_TRUE,
    }),
}


@dataclass
class Scenario:
    task: str
    model: groups.GroupModel | None
    split: lie.ReductiveDecomposition  # g = h + m; m is all of g when h is empty
    norm: norms.MinkowskiNorm
    params: dict
    seed: int
    raw: dict


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ParseError(f"{where}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _reject_undeclared(block: dict, declared: tuple, where: str) -> None:
    unknown = [key for key in block if key not in declared]
    if unknown:
        raise ValidationError(f"{where}: unknown key {unknown[0]!r}; it takes: {', '.join(declared)}")


def _inline_algebra(block: dict) -> lie.LieAlgebraData:
    _reject_undeclared(block, ("dim", "structure_constants"), "model block")
    dim = _require(block, "dim", int, "model block")
    if isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"model block: dim must be a positive integer, got {dim!r}")
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
            if type(idx) is not int or not 1 <= idx <= dim:
                where = "is outside" if type(idx) is int else "must be an integer in"
                raise ValidationError(f"model block: structure_constants[{pos}].{label} = {idx!r} {where} 1..{dim}")
        if not _numeric(value):
            raise ValidationError(
                f"model block: structure_constants[{pos}] value {value!r} is not a finite number"
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
        c[key] = value
        c[mirror] = -value
    algebra = lie.LieAlgebraData(dim=dim, c=c)
    residual, witness = lie.jacobi_residual(algebra)
    # relative to max|c|², so a rescaled basis keeps its verdict
    if residual > 1.0e-10 * np.max(np.abs(c)) ** 2:
        raise ValidationError(
            f"model block: structure constants violate the Jacobi identity "
            f"(residual {residual:.3e} at basis triple {tuple(int(w) + 1 for w in witness[:3])})"
        )
    return algebra


def _norm_entries(block: dict, key: str, shape: tuple, what: str, where: str) -> np.ndarray:
    """The norm block's array `key`, with the given shape and finite numbers only."""
    value = np.asarray(_require(block, key, list, "norm block"), dtype=object)
    if value.shape != shape:
        raise ValidationError(f"norm block: {what} {key} has shape {value.shape}, {where} is {shape[0]}")
    bad = [entry for entry in value.ravel() if not _numeric(entry)]
    if bad:
        raise ValidationError(f"norm block: {what} {key} must hold finite numbers, got {bad[0]!r}")
    return value.astype(float)


def _parse_norm(block: dict, dim: int, where: str) -> norms.MinkowskiNorm:
    kind = _require(block, "kind", str, "norm block")
    if kind not in ("euclidean", "randers"):
        raise ValidationError(f"norm block: unknown kind {kind!r}; use 'euclidean' or 'randers'")
    _reject_undeclared(block, ("kind", "a", "b") if kind == "randers" else ("kind", "a"), f"norm block ({kind})")
    a = _norm_entries(block, "a", (dim, dim), "matrix", where)
    if kind == "euclidean":
        return norms.EuclideanNorm(a)
    b = _norm_entries(block, "b", (dim,), "covector", where)
    try:
        return norms.RandersNorm(a, b)
    except NonConvexNorm as exc:
        raise ValidationError(
            f"norm block: Randers data violates ‖b‖ < 1 (computed ‖b‖_a = {exc.b_norm:.6f})"
        ) from None


def _parse_indices(block, dim: int, label: str) -> tuple:
    if not isinstance(block, list):
        raise ParseError(f"scenario: field {label!r} must be a list of indices, got {type(block).__name__}")
    out = []
    for idx in block:
        if type(idx) is not int or not 1 <= idx <= dim:
            where = "is outside" if type(idx) is int else "must be an integer in"
            raise ValidationError(f"{label}: index {idx!r} {where} 1..{dim}")
        out.append(idx - 1)
    if len(set(out)) != len(out):
        raise ValidationError(f"{label}: indices must be distinct")
    return tuple(out)


def _numeric(value) -> bool:
    """Whether value is an int or a float that is a finite float: NaN,
    infinities and ints beyond the float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _typed(key: str, param: Param, value, dim: int):
    """The value of one declared parameter, checked and cast."""
    if param.kind == "vector":
        if not (isinstance(value, list) and len(value) == dim and all(map(_numeric, value))):
            raise ValidationError(f"params: {key!r} must be a list of {dim} numbers, got {value!r}")
        return np.asarray(value, dtype=float)
    if param.kind == "flag":
        if not isinstance(value, bool):
            raise ValidationError(f"params: {key!r} must be true or false, got {value!r}")
        return value
    count = param.kind == "count"
    ok = _numeric(value) and (isinstance(value, int) or not count)
    if not (ok and (value > 0 if param.positive else value >= 0)):
        sign = "positive" if param.positive else "non-negative"
        raise ValidationError(
            f"params: {key!r} must be a {sign} {'integer' if count else 'number'}, got {value!r}"
        )
    return int(value) if count else float(value)


def _typed_params(task: str, params: dict, model, dim: int) -> dict:
    """params checked against the task's table, with defaults filled in."""
    declared = TASKS[task].params
    _reject_undeclared(params, tuple(declared), f"params: task {task!r}")
    out = {}
    for key, param in declared.items():
        if key in params:
            out[key] = _typed(key, param, params[key], dim)
        elif param.default is REQUIRED:
            raise ValidationError(f"params: task {task!r} needs {key!r}")
        elif param.default is IDENTITY:
            out[key] = model.identity()
        elif param.default is not ABSENT:
            out[key] = param.default
    if task == "berwald" and out["samples"] < 2:
        raise ValidationError(
            f"params: 'samples' = {out['samples']} is below 2; task 'berwald' tests the "
            "parallelogram law on pairs of distinct directions"
        )
    if "T" in out:
        try:
            steps = geodesic_flow.step_count(out["T"], out["step"])
        except ValueError:
            raise ValidationError(
                f"params: 'T' = {out['T']!r} is not a whole number of steps of 'step' = {out['step']!r}"
            ) from None
        # the profile samples every stride-th step: it must end at T
        if "stride" in out and steps % out["stride"]:
            raise ValidationError(
                f"params: 'stride' = {out['stride']} does not divide the {steps} steps of 'T'/'step', "
                "so the profile would end short of T"
            )
    return out


def _check_split(c: np.ndarray, m: tuple, h: tuple) -> None:
    """[h, m] must lie in m and [h, h] in h, or the split is not reductive."""
    for first, second, leak, rule in ((h, m, h, "[h, m] in m"), (h, h, m, "[h, h] in h")):
        block = np.abs(c[np.ix_(first, second, leak)])
        if block.size and block.max() > 1.0e-12 * np.max(np.abs(c)):
            i, j, k = np.unravel_index(int(np.argmax(block)), block.shape)
            raise ValidationError(
                f"scenario: the split is not reductive, it needs {rule}: "
                f"[e{first[i] + 1}, e{second[j] + 1}] has e{leak[k] + 1} component "
                f"{c[first[i], second[j], leak[k]]:g}"
            )


def _check_invariance(split, norm) -> None:
    """The norm on m must be Ad(H)-invariant, or no homogeneous metric has it."""
    breach = geodesic_vectors.ad_h_breach(split, norm)
    if breach:
        raise ValidationError(
            f"scenario: the norm on m is not Ad(H)-invariant: |g_y(y, [Z, y]_m)| "
            f"reaches {breach[0]:.3e} at Z = e{breach[1] + 1}"
        )


def load_scenario(path: str) -> dict:
    """The JSON object of a scenario file, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from None

    def unique_keys(pairs):
        out = {}
        for key, value in pairs:
            if key in out:
                raise ParseError(f"{path}: duplicate key {key!r}")
            out[key] = value
        return out

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


def parse_scenario(path: str) -> Scenario:
    """Load, validate, and resolve a scenario file."""
    return scenario_from_dict(load_scenario(path))


def scenario_from_dict(data: dict) -> Scenario:
    _reject_undeclared(data, _TOP_LEVEL_KEYS, "scenario")
    task = _require(data, "task", str, "scenario")
    if task not in TASKS:
        raise ValidationError(f"scenario: unknown task {task!r}; available: {', '.join(TASKS)}")
    spec = TASKS[task]

    model_block = data.get("model")
    model = None
    if isinstance(model_block, str):
        try:
            model = groups.model_by_name(model_block)
        except ValueError as exc:
            raise ValidationError(f"scenario: {exc}") from None
        algebra = model.algebra
    elif isinstance(model_block, dict):
        if spec.needs_group:
            raise ValidationError(
                f"scenario: task {task!r} needs a named group model; an inline algebra only "
                "supports the algebra-level tasks"
            )
        algebra = _inline_algebra(model_block)
    else:
        raise ParseError("scenario: field 'model' must be a model name or an inline algebra block")

    m_indices = _parse_indices(data.get("m_indices", list(range(1, algebra.dim + 1))), algebra.dim, "m_indices")
    h_indices = _parse_indices(data.get("h_indices", []), algebra.dim, "h_indices")
    if sorted(m_indices + h_indices) != list(range(algebra.dim)):
        raise ValidationError(f"scenario: m_indices and h_indices must partition 1..{algebra.dim}")
    given = [key for key in ("m_indices", "h_indices") if key in data]
    if given and not spec.reads_split:
        split_tasks = ", ".join(name for name, other in TASKS.items() if other.reads_split)
        raise ValidationError(
            f"scenario: task {task!r} works on m = g in basis order and takes no {' or '.join(given)}; "
            f"only {split_tasks} read the split"
        )
    _check_split(algebra.c, m_indices, h_indices)
    if task == "geodesic-vectors" and not 2 <= len(m_indices) <= 4:
        raise ValidationError(
            f"scenario: task 'geodesic-vectors' seeds the unit sphere of m, which is done for "
            f"dim m 2..4; this split has dim m {len(m_indices)}"
        )

    norm_block = data.get("norm")
    if not isinstance(norm_block, dict):
        raise ParseError("scenario: field 'norm' must be an object")
    # a task that reads the split evaluates the norm on m
    norm = _parse_norm(norm_block, len(m_indices), "dim m" if h_indices else "model dimension")
    split = lie.ReductiveDecomposition(algebra, m_indices, h_indices)
    if h_indices:
        _check_invariance(split, norm)

    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("scenario: field 'params' must be an object")
    seed = data.get("seed", 0)
    # the checks seed numpy's RandomState, which takes 0..2**32 - 1
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**32:
        raise ParseError("scenario: field 'seed' must be an integer in 0..2**32 - 1")

    return Scenario(
        task=task,
        model=model,
        split=split,
        norm=norm,
        params=_typed_params(task, params, model, algebra.dim),
        seed=seed,
        # the digested form: params as given, the seed and the split made explicit
        raw={"task": task, "model": model_block, "norm": norm_block, "params": dict(params), "seed": seed,
             "m_indices": [i + 1 for i in m_indices], "h_indices": [i + 1 for i in h_indices]},
    )


def bundled_scenarios() -> list:
    """Paths of the scenario files shipped with the package, sorted."""
    here = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(glob.glob(os.path.join(here, "*.json")))
