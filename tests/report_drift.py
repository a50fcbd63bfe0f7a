"""Machine-report drift between two source trees.

    python tests/report_drift.py dump SRC OUT
    python tests/report_drift.py compare A B

`dump` imports finslergeo from SRC/src and the benchmark's scenario mixes
from SRC/perfbench/workloads.py, and writes one machine report per
scenario under OUT: `bundled/<name>.json` for every bundled scenario and
`<workload>/seed<k>/<slot>.json` for every slot of every workload at
seeds 1-5.  A scenario that raises gets `error: <type>: <message>` in
place of its report.  BLAS runs on one thread, as in the benchmark.  Run
it once per tree, each in its own process.

`compare` reads two such dumps.  It prints how many reports are byte
identical; for every numeric leaf that moved, keyed by (workload, JSON
path) with the row index of a table or a vector list written as [*], how
many reports moved it and its largest |delta|; and every non-numeric
change: a verdict, the keys a dict lost or gained (the keys both sides
share are still compared), a length, a string or a missing report.  It
exits 1 if there is any non-numeric change and 0 otherwise.

A zero-set payload (one with `representatives`) is compared as a set.
When each old representative has its nearest new one within DEDUP_ANGLE
and that pairing is one-to-one, the new representatives, residual norms
and branch labels are diffed in the old order, with each new branch under
the name of its old branch; a new order or new branch names then prints
one `reordered` line, which is no change.  A pairing that fails, or
branches that split or join under it, is a change.
"""

import copy
import json
import math
import os
import sys

SEEDS = (1, 2, 3, 4, 5)
# geodesic_vectors.DEDUP_ANGLE: `compare` reads dumps without the library
DEDUP_ANGLE = 1.0e-3


def dump(src: str, out: str) -> int:
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(src, "perfbench")]
    import workloads
    from finslergeo import cli, reports, scenario

    def write(rel: str, make) -> None:
        try:
            body = reports.machine_report(cli.run_scenario(make()))
        except Exception as exc:  # the error itself is the report
            body = f"error: {type(exc).__name__}: {exc}\n"
        path = os.path.join(out, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)

    count = 0
    for path in scenario.bundled_scenarios():
        write(os.path.join("bundled", os.path.basename(path)), lambda: scenario.parse_scenario(path))
        count += 1
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for slot, item in enumerate(workloads.generate(workload, seed)):
                data = item["scenario"]
                rel = os.path.join(workload, f"seed{seed}", f"{slot:03d}.json")
                write(rel, lambda: scenario.scenario_from_dict(copy.deepcopy(data)))
                count += 1
    print(f"{count} reports written to {out}")
    return 0


def _reports(root: str) -> dict:
    out = {}
    for here, _, files in os.walk(root):
        for name in files:
            path = os.path.join(here, name)
            with open(path, "r", encoding="utf-8") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _diff(a, b, path: str, moved: dict, changes: list, collapsed: bool = False) -> None:
    """Walk two JSON values; numeric moves go to moved, the rest to changes."""
    if _number(a) and _number(b):
        if a != b:
            moved[path] = max(moved.get(path, 0.0), abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict):
        removed, added = sorted(set(a) - set(b)), sorted(set(b) - set(a))
        if removed or added:
            changes.append(f"{path}: keys removed {removed}, added {added}")
        # a renamed key must not hide the moves of the keys beside it
        for key in sorted(set(a) & set(b)):
            _diff(a[key], b[key], f"{path}.{key}" if path else key, moved, changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes.append(f"{path}: length {len(a)} -> {len(b)}")
            return
        # rows of a table and lists of vectors share one path per column
        rows = any(isinstance(item, list) for item in a)
        for pos, (x, y) in enumerate(zip(a, b)):
            index = pos if collapsed and not rows else "*"
            _diff(x, y, f"{path}[{index}]", moved, changes, collapsed=rows)
    elif a != b or type(a) is not type(b):
        changes.append(f"{path}: {a!r} -> {b!r}")


def match_zero_set(reps_a, labels_a, reps_b, labels_b, angle=DEDUP_ANGLE):
    """Pair two sets of unit representatives and their branches.

    Returns (order, renames): order[i] is the index of the b vector
    nearest to a's i-th, and renames maps each b branch name that differs
    from the name of its a branch to that name.  order is None when some
    nearest pair is farther apart than angle or two a vectors share one;
    renames is None when the pairing splits or joins a branch.
    """
    if len(reps_a) != len(reps_b):
        return None, None
    cos_angle = math.cos(angle)
    order = []
    for vec in reps_a:
        dots = [sum(x * y for x, y in zip(vec, other)) for other in reps_b]
        best = max(range(len(dots)), key=dots.__getitem__) if dots else None
        if best is None or dots[best] < cos_angle:
            return None, None
        order.append(best)
    if len(set(order)) != len(order):
        return None, None
    names, back = {}, {}
    for pos, other in enumerate(order):
        old, new = labels_a[pos], labels_b[other]
        if names.setdefault(new, old) != old or back.setdefault(old, new) != new:
            return order, None
    return order, {new: old for new, old in names.items() if new != old}


def _align_zero_set(name, old, new, changes, notes):
    """new with its zero set in old's order and branch names, when they pair."""
    payload_a, payload_b = old.get("payload"), new.get("payload")
    if not all(isinstance(p, dict) and {"representatives", "branch_labels"} <= p.keys() for p in (payload_a, payload_b)):
        return new
    order, renames = match_zero_set(
        payload_a["representatives"], payload_a["branch_labels"],
        payload_b["representatives"], payload_b["branch_labels"],
    )
    if order is None:
        changes.append("payload.representatives: no one-to-one match within DEDUP_ANGLE")
        return new
    if renames is None:
        changes.append("payload.branch_labels: the branch partition differs")
        return new
    reordered = order != list(range(len(order)))
    if not reordered and not renames:
        return new
    aligned = {
        key: [payload_b[key][pos] for pos in order]
        for key in ("representatives", "residual_norms", "branch_labels")
        if key in payload_b
    }
    aligned["branch_labels"] = [renames.get(label, label) for label in aligned["branch_labels"]]
    line = f"reordered {name}: {len(order)} representatives match one-to-one within DEDUP_ANGLE, same branch partition"
    if reordered:
        line += ", new order"
    if renames:
        line += ", branches renamed " + ", ".join(f"{b} -> {a}" for b, a in sorted(renames.items()))
    notes.append(line)
    return {**new, "payload": {**payload_b, **aligned}}


def compare(first: str, second: str) -> int:
    a, b = _reports(first), _reports(second)
    names = sorted(set(a) | set(b))
    same = sum(1 for name in names if a.get(name) == b.get(name))
    moved = {}
    changes, notes = [], []
    for name in names:
        if a.get(name) == b.get(name):
            continue
        workload = name.split(os.sep)[0]
        if name not in a or name not in b:
            changes.append(f"{name}: only in {first if name in a else second}")
            continue
        try:
            old, new = json.loads(a[name]), json.loads(b[name])
        except json.JSONDecodeError:
            changes.append(f"{name}: {a[name].strip()!r} -> {b[name].strip()!r}")
            continue
        found, local = {}, []
        if isinstance(old, dict) and isinstance(new, dict):
            new = _align_zero_set(name, old, new, local, notes)
        _diff(old, new, "", found, local)
        changes += [f"{name}: {line}" for line in local]
        for path, delta in found.items():
            count, largest = moved.get((workload, path), (0, 0.0))
            moved[(workload, path)] = (count + 1, max(largest, delta))
    print(f"{same}/{len(names)} reports byte-identical")
    for (workload, path), (count, delta) in sorted(moved.items()):
        print(f"moved {workload} {path}: {count} report{'s' if count > 1 else ''}, max |delta| {delta:.3e}")
    for line in notes:
        print(line)
    for line in changes:
        print(f"changed {line}")
    return 1 if changes else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in ("dump", "compare"):
        sys.stderr.write(__doc__)
        return 1
    return (dump if argv[0] == "dump" else compare)(argv[1], argv[2])


if __name__ == "__main__":
    raise SystemExit(main())
