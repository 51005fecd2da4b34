"""Benchmark of the ``plaus`` CLI, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload pl-panel --seed 1 --seconds 42 --trace 0

Generates the workload's inputs from the seed under ``.bench_work/``,
then, ``PROCESSES`` times over, times a fresh interpreter's import and
argument parsing (``setup_s``) and has ``measure.py`` time repeated
in-process CLI calls in a fresh process, until ``--seconds`` after the
start of the run. Checks the reports, prints a detail line, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exits 1 when a check fails and 2 when the
package source is missing. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The same calls read up to 30% apart from one fresh process to the next,
# so a run pools the calls of several. The set-up timings are spread
# between them, so both sample the host's speed over the whole run.
PROCESSES = 6
# Leaves room under the 180 s limit for what follows the measured calls.
DEADLINE_S = 170.0

SETUP_SNIPPET = "import sys, plaus.cli; plaus.cli.build_parser().parse_args(sys.argv[1:])"


def _setup_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def time_setup(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that imports the CLI and parses ``argv``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *argv], env=_setup_env(), check=True)
    return perf_counter() - start


def measure(spec: dict, with_setup: bool, deadline: float, timeout_at: float) -> dict:
    """Pool the results of ``PROCESSES`` runs of ``measure.py``, one after
    another, each given an equal share of the time left until ``deadline``;
    with ``with_setup``, time one fresh import (``setup_times``) before each.

    Lists are concatenated, in process order; ``calls_per_process`` counts
    each process's timed calls; ``peak_rss_mb`` is the largest of the
    processes'.
    """
    spec_path = os.path.join(os.path.dirname(spec["out_dir"]), "spec.json")
    pooled: dict = {"peak_rss_mb": 0.0, "setup_times": []}
    for i in range(PROCESSES):
        if with_setup:
            pooled["setup_times"].append(time_setup(spec["argv"]))
        spec["deadline"] = monotonic() + (deadline - monotonic()) / (PROCESSES - i)
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "measure.py"), spec_path],
            stdout=subprocess.PIPE,
            check=True,
            timeout=timeout_at - monotonic(),
            text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        pooled["peak_rss_mb"] = max(pooled["peak_rss_mb"], result.pop("peak_rss_mb"))
        result["calls_per_process"] = [len(result["times"])]
        for key, values in result.items():
            pooled.setdefault(key, []).extend(values)
    return pooled


def main(argv=None) -> int:
    start = monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plaus", "cli.py")):
        print(f"error: no plaus package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import plaus

    if os.path.dirname(os.path.dirname(os.path.abspath(plaus.__file__))) != SRC:
        print(f"error: plaus imported from {plaus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import check_reports
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    input_dir, out_dir = os.path.join(work, "inputs"), os.path.join(work, "reports")
    workload.write_inputs(input_dir, args.seed)
    cli_argv = workload.argv(input_dir, out_dir, args.seed)

    result = measure(
        {
            "src": SRC,
            "argv": cli_argv,
            "out_dir": out_dir,
            "trace": bool(args.trace),
            "spans_path": os.path.join(work, "spans.json"),
        },
        with_setup=not args.trace,
        deadline=start + args.seconds,
        timeout_at=start + DEADLINE_S,
    )

    setup = result["setup_times"]
    problems, attempted, failed = check_reports(out_dir, workload)
    if any(rc != 0 for rc in result["rc"]):
        problems.append(f"CLI exit codes {sorted(set(result['rc']))}")
    if len(set(result["digests"])) != 1:
        problems.append(f"{len(set(result['digests']))} distinct report directories across calls")

    times = result["times"]
    call_s = statistics.median(times)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "argv": ["plaus"] + cli_argv,
        "shape": workload.shape,
        "num_cases": workload.num_cases,
        "reports_sha256": result["digests"][0],
        "failed_frac": failed / attempted if attempted else 0.0,
        "call_s": {
            "count": len(times),
            "per_process": result["calls_per_process"],
            "quartiles": statistics.quantiles(times, n=4),
            "values": times,
        },
        "setup_s": {"count": len(setup), "values": setup},
        "problems": problems,
    }
    if args.trace:
        traced = result["traced_times"]
        detail["traced_call_s"] = {"count": len(traced), "quartiles": statistics.quantiles(traced, n=4)}
        metrics = {}
        for name in result["layers"][0]:
            values = [layer[name] for layer in result["layers"]]
            metrics[name] = None if None in values else statistics.median(values)
        metrics["trace.overhead_frac"] = statistics.median(traced) / call_s - 1.0
        metrics = {
            name: {"value": value, "unit": LAYER_METRICS[name][0]}
            for name, value in metrics.items()
        }
    else:
        metrics = {
            "cases_per_s": {"value": workload.num_cases / call_s, "unit": "cases/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
