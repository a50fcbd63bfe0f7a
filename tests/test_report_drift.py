"""The report-drift comparison on hand-made dumps."""

import json

import report_drift

from finslergeo import geodesic_vectors as gv


def write(root, rel, body):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body if isinstance(body, str) else json.dumps(body, sort_keys=True, indent=2) + "\n")


REPORT = {
    "passed": True,
    "payload": {"branch_labels": ["branch-1", "branch-2"], "representatives": [[0.6, 0.8], [1.0, 0.0]]},
    "tables": {"profile": {"columns": ["t", "tau"], "rows": [[0.0, 1.5], [0.1, 1.5]]}},
}


def dumps(tmp_path, changed):
    first, second = tmp_path / "a", tmp_path / "b"
    for root, report in ((first, REPORT), (second, changed)):
        write(root, "bundled/same.json", REPORT)
        write(root, "bundled/error.json", "error: ValidationError: bad\n")
        write(root, "zero-sets/seed1/000.json", report)
    return str(first), str(second)


def moved(rows, reps):
    return {**REPORT, "payload": {**REPORT["payload"], "representatives": reps},
            "tables": {"profile": {**REPORT["tables"]["profile"], "rows": rows}}}


def test_numeric_moves_are_reported_per_path(tmp_path, capsys):
    changed = moved([[0.0, 1.75], [0.1, 1.0]], [[0.6, 0.8], [1.0, 2e-20]])
    assert report_drift.compare(*dumps(tmp_path, changed)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2/3 reports byte-identical"
    assert out[1:] == [
        "moved zero-sets payload.representatives[*][1]: 1 report, max |delta| 2.000e-20",
        "moved zero-sets tables.profile.rows[*][1]: 1 report, max |delta| 5.000e-01",
    ]


def test_moves_are_counted_per_report(tmp_path, capsys):
    first, second = dumps(tmp_path, moved([[0.0, 1.75], [0.1, 1.5]], REPORT["payload"]["representatives"]))
    write(tmp_path / "b", "zero-sets/seed2/000.json", moved([[0.0, 1.5], [0.1, 1.25]], [[0.6, 0.8], [1.0, 0.5]]))
    write(tmp_path / "a", "zero-sets/seed2/000.json", REPORT)
    write(tmp_path / "b", "distortion/seed1/000.json", moved([[0.0, 1.5], [0.1, 1.0]], [[0.6, 0.8], [1.0, 0.0]]))
    write(tmp_path / "a", "distortion/seed1/000.json", REPORT)
    assert report_drift.compare(first, second) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2/5 reports byte-identical",
        "moved distortion tables.profile.rows[*][1]: 1 report, max |delta| 5.000e-01",
        "moved zero-sets payload.representatives[*][1]: 1 report, max |delta| 5.000e-01",
        "moved zero-sets tables.profile.rows[*][1]: 2 reports, max |delta| 2.500e-01",
    ]


def test_identical_dumps(tmp_path, capsys):
    assert report_drift.compare(*dumps(tmp_path, REPORT)) == 0
    assert capsys.readouterr().out == "3/3 reports byte-identical\n"


def test_non_numeric_changes_fail(tmp_path, capsys):
    cases = [
        ({**REPORT, "passed": False}, "passed: True -> False"),
        ({**REPORT, "payload": {**REPORT["payload"], "branch_labels": ["branch-1", "branch-1"]}},
         "payload.branch_labels[*]: 'branch-2' -> 'branch-1'"),
        (moved(REPORT["tables"]["profile"]["rows"][:1], REPORT["payload"]["representatives"]),
         "tables.profile.rows: length 2 -> 1"),
        ({**REPORT, "extra": 1}, "keys removed [], added ['extra']"),
        ("error: DegenerateVector: zero\n", "-> 'error: DegenerateVector: zero'"),
    ]
    for changed, line in cases:
        first, second = dumps(tmp_path, changed)
        assert report_drift.compare(first, second) == 1
        out = capsys.readouterr().out
        assert "changed zero-sets/seed1/000.json: " in out and line in out, out
    (tmp_path / "b" / "bundled" / "same.json").unlink()
    assert report_drift.compare(first, second) == 1
    assert "changed bundled/same.json: only in " in capsys.readouterr().out


def test_renamed_key_keeps_the_moves_beside_it(tmp_path, capsys):
    payload = {"labels": REPORT["payload"]["branch_labels"], "representatives": [[0.6, 0.8], [1.0, 0.5]]}
    assert report_drift.compare(*dumps(tmp_path, {**REPORT, "payload": payload})) == 1
    assert capsys.readouterr().out.splitlines() == [
        "2/3 reports byte-identical",
        "moved zero-sets payload.representatives[*][1]: 1 report, max |delta| 5.000e-01",
        "changed zero-sets/seed1/000.json: payload: keys removed ['branch_labels'], added ['labels']",
    ]


def test_reordered_zero_set_is_paired_not_changed(tmp_path, capsys):
    # the two representatives swap places and branch names, and one moves by 1e-9
    payload = {"branch_labels": ["branch-1", "branch-2"], "representatives": [[1.0, 1e-9], [0.6, 0.8]]}
    assert report_drift.compare(*dumps(tmp_path, {**REPORT, "payload": payload})) == 0
    assert capsys.readouterr().out.splitlines() == [
        "2/3 reports byte-identical",
        "moved zero-sets payload.representatives[*][1]: 1 report, max |delta| 1.000e-09",
        "reordered zero-sets/seed1/000.json: 2 representatives match one-to-one within DEDUP_ANGLE,"
        " same branch partition, new order, branches renamed branch-1 -> branch-2, branch-2 -> branch-1",
    ]


def test_zero_sets_that_do_not_pair_fail(tmp_path, capsys):
    cases = [
        ({"branch_labels": ["branch-1", "branch-2"], "representatives": [[0.6, 0.8], [0.99, 0.141]]},
         "payload.representatives: no one-to-one match within DEDUP_ANGLE"),
        ({"branch_labels": ["branch-1", "branch-1"], "representatives": [[1.0, 0.0], [0.6, 0.8]]},
         "payload.branch_labels: the branch partition differs"),
    ]
    for payload, line in cases:
        assert report_drift.compare(*dumps(tmp_path, {**REPORT, "payload": payload})) == 1
        assert f"changed zero-sets/seed1/000.json: {line}" in capsys.readouterr().out


def test_pairing_angle_is_the_library_dedup_angle():
    assert report_drift.DEDUP_ANGLE == gv.DEDUP_ANGLE
