import json

from report_digests import DIGESTS, differences, run_matrix, versions


def test_reports_match_the_committed_digests():
    # A mismatch here means report bytes moved. Regenerate the file (see
    # report_digests.py) only for a change meant to move them.
    with open(DIGESTS, encoding="utf-8") as handle:
        committed = json.load(handle)
    moved = differences(run_matrix(), committed["runs"])
    assert not moved, (
        f"reports differ from the digests made with {committed['made_with']}, "
        f"running {versions()}:\n" + "\n".join(moved)
    )


def test_differences_name_each_moved_file_and_outcome():
    committed = {
        "a": {"exit_code": 0, "stderr": "", "files": {"x.jsonl": "1", "y.jsonl": "2"}},
        "b": {"exit_code": 0, "stderr": "", "files": {}},
    }
    got = {
        "a": {"exit_code": 0, "stderr": "", "files": {"x.jsonl": "1", "y.jsonl": "3", "z.jsonl": "4"}},
        "b": {"exit_code": 1, "stderr": "error: boom\n", "files": {}},
        "c": {"exit_code": 0, "stderr": "", "files": {"w.jsonl": "5"}},
    }
    assert differences(committed, committed) == []
    assert differences(got, committed) == [
        "a y.jsonl",
        "a z.jsonl",
        "b exit_code",
        "b stderr",
        "c w.jsonl",
        "c exit_code",
        "c stderr",
    ]
