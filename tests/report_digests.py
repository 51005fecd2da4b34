"""Digests of the CLI's reports for a small fixed matrix of runs.

Each entry runs ``plaus.cli.main`` in-process on fixed inputs and records
the sha256 of every report file, the exit code and stderr. The inputs are
the dermatology fixture in ``tests/data`` and shrunken, seeded inputs of
the benchmark's workloads (``bench/workloads.py``), plus three tiny inputs
written here. The matrix covers the tied and the untied Gibbs chain, the
iid samplers, the point-mass model, the score model, a worker pool, cases
that fail, cutoffs deeper than a prediction, and the files ``simulate``
writes. ``test_report_digests.py`` regenerates it and compares it
with ``tests/data/report_digests.json``, so a change that must leave report
bytes alone is checked by Tier-1.

Regenerate the committed file (only for a change meant to move report
bytes), from the repository root:

    PYTHONPATH=src python tests/report_digests.py --write

List the (entry, file) pairs whose reports differ from the committed file,
one a line, without writing it:

    PYTHONPATH=src python tests/report_digests.py --diff
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data")
DIGESTS = os.path.join(DATA, "report_digests.json")
if os.path.join(ROOT, "bench") not in sys.path:
    sys.path.append(os.path.join(ROOT, "bench"))

import plaus.cli as cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIXTURE_MODELS = "irn,prirn,pl,dirichlet-counts"
# Benchmark workloads, shrunk to a fraction of a second per call. The
# pl-panel chains are long enough to span more than one block of draws.
SMALL = {
    "pl-panel": dict(num_cases=2, samples=600, burn_in=100),
    "pl-ties": dict(num_cases=4, samples=6, burn_in=3),
    "derm-mc": dict(num_cases=1, samples=60),
}
WORKLOAD_SEEDS = (5, 11)


def _fixture_argv(command: str, out_dir: str, inputs: str = DATA, models=FIXTURE_MODELS) -> list[str]:
    argv = [
        command,
        "--cases", os.path.join(inputs, "derm_cases.jsonl"),
        "--annotations", os.path.join(inputs, "derm_annotations.jsonl"),
    ]
    if command == "evaluate":
        argv += ["--predictions", os.path.join(inputs, "derm_predictions_b.jsonl")]
    return argv + [
        "--model", models,
        "--samples", "60",
        "--gibbs-burn-in", "20",
        "--seed", "7",
        "--workers", "1",
        "--out-dir", out_dir,
    ]


def _workers(argv: list[str], workers: int) -> list[str]:
    argv = list(argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return argv


def _write_inputs(directory: str, cases: list, annotations: list) -> str:
    """Write cases and annotations under the fixture's file names."""
    os.makedirs(directory)
    for name, rows in (("derm_cases.jsonl", cases), ("derm_annotations.jsonl", annotations)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(row) + "\n" for row in rows)
    return directory


def _entries(work: str):
    """Yield (name, argv) for every run of the matrix, writing its inputs."""
    for command in ("evaluate", "aggregate", "certainty"):
        name = f"fixture-{command}"
        yield name, _fixture_argv(command, os.path.join(work, name))
    for workload_name, sizes in SMALL.items():
        workload = dataclasses.replace(WORKLOADS[workload_name], **sizes)
        for seed in WORKLOAD_SEEDS:
            name = f"{workload_name}-seed{seed}"
            inputs = os.path.join(work, name + "-inputs")
            workload.write_inputs(inputs, seed)
            yield name, workload.argv(inputs, os.path.join(work, name), seed)
            if workload_name == "pl-panel" and seed == WORKLOAD_SEEDS[0]:
                argv = workload.argv(inputs, os.path.join(work, name + "-workers2"), seed)
                yield name + "-workers2", _workers(argv, 2)
    # The PL chain on the wide dermatology shape: one untied case, one tied.
    workload = dataclasses.replace(
        WORKLOADS["derm-mc"], num_cases=2, samples=20, burn_in=10, models=("pl",), reliability=(1, 3)
    )
    inputs = os.path.join(work, "derm-mc-pl-inputs")
    workload.write_inputs(inputs, WORKLOAD_SEEDS[0])
    yield "derm-mc-pl", workload.argv(inputs, os.path.join(work, "derm-mc-pl"), WORKLOAD_SEEDS[0])
    # Cutoffs deeper than the fixture's three-class prediction are left out.
    argv = _fixture_argv("evaluate", os.path.join(work, "fixture-deep-cutoffs"))
    yield "fixture-deep-cutoffs", argv + ["--k-grid", "1,2,5", "--overlap-depth", "4"]
    # The score model; one annotation lacks its score, so that case fails.
    scored = [("s-1", 0.8, 0.4), ("s-2", 0.3, None), ("s-3", 0.9, 0.7)]
    inputs = _write_inputs(
        os.path.join(work, "scores-inputs"),
        [{"case_id": case, "num_classes": 3} for case, _, _ in scored],
        [
            {"case_id": case, "annotator_id": f"a{a}", "blocks": [[a]], **({} if s is None else {"score": s})}
            for case, *scores in scored
            for a, s in enumerate(scores)
        ],
    )
    argv = _fixture_argv("certainty", os.path.join(work, "scores"), inputs, "gaussian-scores")
    yield "scores", argv + ["--threshold", "0.5"]
    # A case whose annotators ranked nothing fails under every sampler.
    inputs = _write_inputs(
        os.path.join(work, "unranked-inputs"),
        [{"case_id": case, "num_classes": 4} for case in ("u-1", "u-2")],
        [
            {"case_id": "u-1", "annotator_id": "a0", "blocks": [[2], [0, 1]]},
            {"case_id": "u-1", "annotator_id": "a1", "blocks": [[1]]},
            {"case_id": "u-2", "annotator_id": "a0", "blocks": []},
            {"case_id": "u-2", "annotator_id": "a1", "blocks": []},
        ],
    )
    yield "unranked", _fixture_argv("certainty", os.path.join(work, "unranked"), inputs)
    # Tied block walks of 2, 5, 6 and 9 classes at the top, on both sides of
    # the subset kernels' cut, and two tied blocks below a ranked class,
    # whose zbar leaves out the classes above them, over 80 sweeps.
    tied = {
        "t-1": ([[0, 1], [2], [3]], [[5, 6, 7, 8, 9]], [[3], [7, 1, 9]]),
        "t-2": ([[0, 1, 2, 3, 4, 5]], [[11, 10, 9, 8, 7, 6, 5, 4, 3]], [[2], [6, 7, 8, 0, 10, 1]]),
    }
    inputs = _write_inputs(
        os.path.join(work, "tied-walks-inputs"),
        [{"case_id": case, "num_classes": 12} for case in tied],
        [
            {"case_id": case, "annotator_id": f"a{a}", "blocks": blocks}
            for case, annotations in tied.items()
            for a, blocks in enumerate(annotations)
        ],
    )
    argv = _fixture_argv("certainty", os.path.join(work, "tied-walks"), inputs, "pl")
    yield "tied-walks", argv + ["--reliability", "1,3"]
    # The simulator's case, annotation, truth and prediction files.
    yield "simulate", [
        "simulate", "--classes", "5", "--cases", "4", "--annotators", "3", "--blocks", "1,2",
        "--predictions-from-truth", "--seed", "9", "--out-dir", os.path.join(work, "simulate"),
    ]
    # A setting refused before any input is read: exit code and message.
    yield "fixture-bad-workers", _workers(_fixture_argv("evaluate", os.path.join(work, "bad")), 0)


def _digest_files(out_dir: str) -> dict[str, str]:
    if not os.path.isdir(out_dir):
        return {}
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            files[name] = hashlib.sha256(handle.read()).hexdigest()
    return files


def run_matrix() -> dict[str, dict]:
    """Run every entry in a fresh directory; map its name to its outcome."""
    results = {}
    with tempfile.TemporaryDirectory() as work:
        for name, argv in _entries(work):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            results[name] = {
                "exit_code": code,
                "stderr": stderr.getvalue().replace(work, "<work>"),
                "files": _digest_files(argv[argv.index("--out-dir") + 1]),
            }
    return results


def differences(got: dict, committed: dict) -> list[str]:
    """One line for each report file whose digest differs between two runs
    of the matrix, a file only one of them wrote included: the entry's name
    and the file's. An entry whose exit code or stderr differs adds the
    line "<entry> exit_code" or "<entry> stderr"."""
    lines = []
    for name in sorted(set(got) | set(committed)):
        ours, theirs = got.get(name, {}), committed.get(name, {})
        files, committed_files = ours.get("files", {}), theirs.get("files", {})
        lines += [
            f"{name} {file}"
            for file in sorted(set(files) | set(committed_files))
            if files.get(file) != committed_files.get(file)
        ]
        lines += [f"{name} {key}" for key in ("exit_code", "stderr") if ours.get(key) != theirs.get(key)]
    return lines


def versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"overwrite {DIGESTS}")
    mode.add_argument(
        "--diff", action="store_true", help=f"list the reports that differ from {DIGESTS}"
    )
    args = parser.parse_args(argv)
    if args.diff:
        with open(DIGESTS, encoding="utf-8") as handle:
            moved = differences(run_matrix(), json.load(handle)["runs"])
        sys.stdout.writelines(line + "\n" for line in moved)
        return 1 if moved else 0
    document = {"made_with": versions(), "runs": run_matrix()}
    text = json.dumps(document, indent=1, sort_keys=True) + "\n"
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
