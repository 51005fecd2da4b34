"""Exact-count and structure tests for the benchmark itself.

Run from the repository root with ``python3 -m pytest -q bench``. Every
workload is shrunk (fewer cases, shorter chains) so the suite takes seconds;
the counts it checks scale exactly with those sizes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import plaus.cli as cli  # noqa: E402
from checks import check_reports  # noqa: E402
from measure import digest_dir  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "pl-panel": dict(num_cases=2, samples=6, burn_in=4),
    "pl-ties": dict(num_cases=4, samples=3, burn_in=2),
    "derm-mc": dict(num_cases=2, samples=20),
}
SEED = 3


def _small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def _traced(workload, directory, seed=SEED):
    """Generate inputs, run one traced CLI call, return (metrics, reports dir)."""
    inputs, reports = os.path.join(directory, "inputs"), os.path.join(directory, "reports")
    workload.write_inputs(inputs, seed)
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.root("main", cli.main, workload.argv(inputs, reports, seed))
    finally:
        tracer.uninstall()
    assert rc == 0
    assert not tracer.missing
    return layer_metrics(tracer.take(), tracer.missing), reports


def _annotations(directory):
    with open(os.path.join(directory, "inputs", "annotations.jsonl"), encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _grid(workload):
    return workload.reliability or cli.default_reliability_grid(workload.models[0])


def _non_trailing(blocks, num_classes):
    # The trailing block carries no likelihood: the unranked classes, or the
    # last explicit block when every class was ranked.
    if sum(len(b) for b in blocks) == num_classes:
        return blocks[:-1]
    return blocks


@pytest.mark.parametrize("name", ["pl-panel", "pl-ties"])
def test_gibbs_copy_sweeps_and_subset_entries_match_the_inputs(name, tmp_path):
    w = _small(name)
    got, _ = _traced(w, str(tmp_path))
    rows = _annotations(str(tmp_path))
    iterations = w.burn_in + w.samples
    reps = sum(_grid(w))
    runs_per_unit = got["gibbs.runs_per_unit"]
    assert runs_per_unit == int(runs_per_unit) >= 1
    assert got["gibbs.runs"] == runs_per_unit * w.num_cases * len(_grid(w))
    assert got["gibbs.copy_sweeps"] == runs_per_unit * iterations * reps * len(rows)
    per_copy = sum(
        2 ** len(b) for r in rows for b in _non_trailing(r["blocks"], w.num_classes) if len(b) > 1
    )
    assert got["subset_table.entries"] == runs_per_unit * iterations * reps * per_copy
    if name == "pl-panel":
        assert got["subset_table.entries"] == got["subset_table.calls"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_structure_holds(name, tmp_path):
    w = _small(name)
    first, reports_a = _traced(w, str(tmp_path / "a"))
    second, reports_b = _traced(w, str(tmp_path / "b"))
    for sub in ("inputs", "reports"):
        assert digest_dir(str(tmp_path / "a" / sub)) == digest_dir(str(tmp_path / "b" / sub))
    counts = [m for m, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    if name.startswith("pl-"):
        assert first["sampling.rows"] == 0
        assert first["gibbs.runs"] > 0
    else:
        assert first["gibbs.runs"] == first["subset_table.calls"] == 0
        assert first["sampling.rows"] > 0
    problems, attempted, failed = check_reports(reports_a, w)
    assert problems == [] and failed == 0
    assert attempted == w.num_cases * sum(
        len(w.reliability or cli.default_reliability_grid(m)) for m in w.models
    )


def test_checks_catch_a_corrupted_report(tmp_path):
    w = _small("pl-ties")
    _, reports = _traced(w, str(tmp_path))
    path = os.path.join(reports, "aggregate_pl_1.jsonl")
    with open(path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    rows[0]["mean"][0] += 1e-6
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(r) + "\n" for r in rows)
    problems, _, _ = check_reports(reports, w)
    assert any("sums to" in p for p in problems)
    os.remove(os.path.join(reports, "loo.jsonl"))
    problems, _, _ = check_reports(reports, w)
    assert any("differ from the manifest" in p for p in problems)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["cases_per_s", "setup_s", "peak_rss_mb"]


def test_a_removed_private_name_reads_null(monkeypatch, capsys):
    import plaus.pl_gibbs

    monkeypatch.delattr(plaus.pl_gibbs, "_table_values")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"subset_table"}
    assert "_table_values is gone" in capsys.readouterr().err
    got = layer_metrics([], tracer.missing)
    assert got["subset_table.entries"] is None and got["subset_table.ns_per_entry"] is None
    assert got["subset_table.small.busy_s"] == 0.0 and got["gibbs.runs"] == 0
