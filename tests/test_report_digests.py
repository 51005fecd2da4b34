import json
import os
import subprocess
import sys
from pathlib import Path

import plaus
import plaus.cli as cli
from report_digests import DIGESTS, _digest_files, _fixture_argv, differences, run_matrix, versions


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


def test_fixture_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its kernels by CPU, and a BLAS product adds in the
    # order its kernel does, so one would move report bytes from host to
    # host. OPENBLAS_CORETYPE forces a kernel for the child process only.
    models = "irn,prirn,dirichlet-counts"
    default = str(tmp_path / "default")
    assert cli.main(_fixture_argv("evaluate", default, models=models)) == 0
    package_root = str(Path(plaus.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    for core in ("Haswell", "Sandybridge"):
        out = str(tmp_path / core)
        subprocess.run(
            [sys.executable, "-m", "plaus.cli", *_fixture_argv("evaluate", out, models=models)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": core},
            check=True,
            timeout=120,
        )
        assert _digest_files(out) == _digest_files(default), core
