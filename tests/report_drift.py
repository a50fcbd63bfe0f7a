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
"""

import copy
import json
import os
import sys

SEEDS = (1, 2, 3, 4, 5)


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


def compare(first: str, second: str) -> int:
    a, b = _reports(first), _reports(second)
    names = sorted(set(a) | set(b))
    same = sum(1 for name in names if a.get(name) == b.get(name))
    moved = {}
    changes = []
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
        _diff(old, new, "", found, local)
        changes += [f"{name}: {line}" for line in local]
        for path, delta in found.items():
            count, largest = moved.get((workload, path), (0, 0.0))
            moved[(workload, path)] = (count + 1, max(largest, delta))
    print(f"{same}/{len(names)} reports byte-identical")
    for (workload, path), (count, delta) in sorted(moved.items()):
        print(f"moved {workload} {path}: {count} report{'s' if count > 1 else ''}, max |delta| {delta:.3e}")
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
