import json

from report_digests import DIGESTS, run_matrix, versions


def test_reports_match_the_committed_digests():
    # A mismatch here means report bytes moved. Regenerate the file (see
    # report_digests.py) only for a change meant to move them.
    with open(DIGESTS, encoding="utf-8") as handle:
        committed = json.load(handle)
    got = run_matrix()
    assert sorted(got) == sorted(committed["runs"])
    for name, expected in committed["runs"].items():
        assert got[name] == expected, (
            f"{name}: reports differ from the digests made with {committed['made_with']}, "
            f"running {versions()}"
        )
