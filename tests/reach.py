"""Statements of src/finslergeo that no task and no oracle reaches.

    python tests/reach.py [SRC]

Traces, with sys.settrace, which statements of SRC/src/finslergeo (SRC
defaults to this checkout) run under two drivers, one after the other
in this process:

- tasks: every bundled scenario through `cli.main --format machine`,
  and every slot of every benchmark workload at seeds 1-3 as the
  benchmark runs it (`scenario_from_dict`, `cli.run_scenario`,
  `reports.machine_report`);
- tests: the tier-1 suite, through `pytest.main` on SRC/tests.

It then prints, per module, the statements that neither driver reached
and those that only the tests reached.  A statement is one inside a
function body that compiles to bytecode, named by its first line;
module and class bodies run at import and are not listed.  Code that
tests start in a subprocess is not traced.  BLAS runs on one thread, as
in the benchmark.  Exits 1 if the suite fails, 0 otherwise.
"""

import ast
import copy
import glob
import os
import sys
import tempfile


def statements(path: str) -> set:
    """First lines of the statements inside function bodies that have bytecode."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source)
    found = set()

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            is_doc = (
                isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Constant)
                and isinstance(child.value.value, str)
            )
            if in_function and isinstance(child, ast.stmt) and not is_doc:
                found.add(child.lineno)
            walk(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    walk(tree, False)
    code_lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return found & code_lines


def tracer(files: set, hits: set):
    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return on_call


def run_tasks(src: str) -> None:
    from finslergeo import cli, reports, scenario

    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for path in scenario.bundled_scenarios():
            cli.main(["--scenario", path, "--format", "machine", "--out", out])
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for item in workloads.generate(workload, seed):
                scen = scenario.scenario_from_dict(copy.deepcopy(item["scenario"]))
                reports.machine_report(cli.run_scenario(scen))


def run_tests(src: str) -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", src, os.path.join(src, "tests")]))


def spans(lines: list) -> str:
    """Sorted line numbers, with each run of consecutive lines a–b."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][-1] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ",".join(str(run[0]) if len(run) == 1 else f"{run[0]}–{run[-1]}" for run in runs)


def main(argv) -> int:
    src = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), os.pardir))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"
    sys.path[:0] = [os.path.join(src, "src"), os.path.join(src, "perfbench")]
    paths = sorted(glob.glob(os.path.join(src, "src", "finslergeo", "*.py")))
    universe = {path: sorted(statements(path)) for path in paths}

    reached = {}
    code = 0
    for name, driver in (("tasks", run_tasks), ("tests", run_tests)):
        hits = set()
        sys.settrace(tracer(set(paths), hits))
        try:
            code = driver(src) or code
        finally:
            sys.settrace(None)
        reached[name] = hits

    either = reached["tasks"] | reached["tests"]
    for title, keep in (
        ("reached by neither tasks nor tests", lambda key: key not in either),
        ("reached only by tests", lambda key: key in reached["tests"] and key not in reached["tasks"]),
    ):
        print(f"{title}:")
        for path, lines in universe.items():
            picked = [line for line in lines if keep((path, line))]
            if picked:
                module = os.path.splitext(os.path.basename(path))[0]
                print(f"  {module}: {spans(picked)}")
    return 1 if code else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
