"""Run reports: canonical machine JSON and a readable text rendering.

The machine form is byte-deterministic: `cli.run_scenario` converts
payloads to plain Python types once, with `plain`; keys are sorted, and
floats serialize through repr (the shortest round-trip form).  Wall
time appears only in the text form, so repeated runs of the same
scenario produce identical machine bytes.  They are the bytes of
json.dumps(body, sort_keys=True, indent=2), written by `_emit`: a list
of floats is one join over float.__repr__, which json's encoder calls
too, with its spellings NaN and ±Infinity; keys and every other scalar
go through json's own encoder.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__


@dataclass
class RunReport:
    digest: str
    task: str
    passed: bool
    payload: dict
    tolerances: dict
    version: str = __version__
    wall_time: float = 0.0
    tables: dict = field(default_factory=dict)


def plain(value):
    """Recursively convert numpy arrays to lists; runners cast their scalars."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def scenario_digest(raw: dict) -> str:
    blob = json.dumps(plain(raw), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def machine_report(report: RunReport) -> str:
    body = {
        "digest": report.digest,
        "version": report.version,
        "task": report.task,
        "passed": report.passed,
        "tolerances": report.tolerances,
        "payload": report.payload,
        "tables": report.tables,
    }
    return _emit(body, "") + "\n"


_encode = json.JSONEncoder(sort_keys=True).encode


def _emit(value, pad: str) -> str:
    """`value` at indent `pad` as json.dumps(value, sort_keys=True,
    indent=2) writes it, for the string keys that `plain` leaves."""
    if not isinstance(value, (dict, list, tuple)):
        return _encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        text = sep.join(f"{_encode(key)}: {_emit(value[key], inner)}" for key in sorted(value))
        return "{\n" + inner + text + "\n" + pad + "}"
    try:
        text = sep.join(map(float.__repr__, value))
    except TypeError:  # an item that is not a float
        text = sep.join(_emit(item, inner) for item in value)
    else:
        if "n" in text:
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return "[\n" + inner + text + "\n" + pad + "]"


def format_table(columns, rows) -> str:
    lines = ["# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(f"{float(v):.16e}" for v in row))
    return "\n".join(lines)


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_text_value(v)}" for k, v in value.items()) + "}"
    return str(value)


def text_report(report: RunReport) -> str:
    lines = [
        f"finslergeo {report.version}",
        f"scenario digest: {report.digest}",
        f"task: {report.task}",
        f"passed: {'yes' if report.passed else 'no'}",
        f"wall time: {report.wall_time:.3f} s",
        "tolerances:",
    ]
    for key in sorted(report.tolerances):
        lines.append(f"  {key}: {_text_value(report.tolerances[key])}")
    lines.append("results:")
    for key in sorted(report.payload):
        lines.append(f"  {key}: {_text_value(report.payload[key])}")
    for name in sorted(report.tables):
        table = report.tables[name]
        lines.append(f"{name}:")
        lines.append(format_table(table["columns"], table["rows"]))
    return "\n".join(lines) + "\n"
