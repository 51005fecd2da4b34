"""Output checks on one report directory, independent of ``plaus`` code.

:func:`check_reports` reads the JSONL rows and the manifest with ``json``
alone and returns a list of problems (empty when every check passes),
the number of (case, reliability) units attempted and the number of
failure rows.
"""

from __future__ import annotations

import json
import os
from collections import Counter

ATOL_SIMPLEX = 1e-9
# Expected risk averages risk levels 0, 1 and 2; every other metric is a
# proportion.
RANGE = {"expected_risk_mean": 2.0, "expected_risk_min": 2.0, "expected_risk_max": 2.0}


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _tag(value) -> str:
    if value is None:
        return "point"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _in_range(metric: str, value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= RANGE.get(metric, 1.0)


def check_reports(out_dir: str, workload) -> tuple[list[str], int, int]:
    problems: list[str] = []
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    n = workload.num_cases
    if manifest["num_cases"] != n:
        problems.append(f"manifest has {manifest['num_cases']} cases, inputs have {n}")
    if [m["model"] for m in manifest["models"]] != list(workload.models):
        problems.append(f"manifest models {[m['model'] for m in manifest['models']]}")

    listed = {"manifest.json"}.union(*(m["files"] for m in manifest["models"]))
    present = set(os.listdir(out_dir))
    if listed != present:
        problems.append(f"files {sorted(present ^ listed)} differ from the manifest")

    attempted = failed = 0
    expected = {"loo.jsonl"}
    for m in manifest["models"]:
        model, tags = m["model"], [_tag(r) for r in m["reliability_grid"]]
        attempted += n * len(tags)
        expected.add(f"summary_{model}.jsonl")
        expected.update(f"metrics_{model}_{t}.jsonl" for t in tags)
        if workload.command == "aggregate":
            expected.update(f"aggregate_{model}_{t}.jsonl" for t in tags)
        if f"failures_{model}.jsonl" in present:
            failed += len(_rows(os.path.join(out_dir, f"failures_{model}.jsonl")))
    if not expected <= present:
        problems.append(f"missing report files {sorted(expected - present)}")
        return problems, attempted, failed
    if failed:
        problems.append(f"{failed} failure rows out of {attempted} units")

    for name in sorted(expected):
        rows = _rows(os.path.join(out_dir, name))
        if name.startswith(("loo", "aggregate_")):
            if len(rows) != n:
                problems.append(f"{name}: {len(rows)} rows for {n} cases")
        if name.startswith("metrics_"):
            per_case = Counter(r["case_id"] for r in rows)
            if len(per_case) != n or len(set(per_case.values())) != 1:
                problems.append(f"{name}: uneven rows per case {dict(per_case)}")
        for r in rows:
            value = r.get("mean") if name.startswith("summary_") else r.get("value")
            if name.startswith("aggregate_"):
                if abs(sum(r["mean"]) - 1.0) > ATOL_SIMPLEX:
                    problems.append(f"{name}: case {r['case_id']} mean sums to {sum(r['mean'])!r}")
            elif not (value is None and r["metric"] == "loo_agreement"):
                if not _in_range(r["metric"], value):
                    problems.append(f"{name}: {r['metric']} = {value!r} out of range")

    if workload.name == "pl-panel":
        top1 = {
            r["reliability"]: r["mean"]
            for r in _rows(os.path.join(out_dir, "summary_pl.jsonl"))
            if r["metric"] == "annotation_certainty_top1"
        }
        if not top1.get(10, 0.0) > top1.get(1, 1.0):
            problems.append(f"top-1 certainty does not rise from 1 to 10 repetitions: {top1}")
    return problems, attempted, failed
