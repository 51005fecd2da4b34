"""Layer spans for the traced run, installed from outside ``plaus``.

:class:`Tracer` swaps wrappers in for the names the CLI reaches through
module globals and class attributes, records one span per call as
``(name, start, end, parent, attrs)`` in memory, and puts the originals
back on :meth:`Tracer.uninstall`. :func:`layer_metrics` folds one call's
spans into the per-layer metrics.

A name that a later refactor removes is skipped with a warning; the
metrics that depend on it read ``None`` (null in JSON).
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(samples) -> int:
    return int(getattr(samples, "samples", samples).shape[0])


def _ingest_attrs(args, kwargs, records):
    paths = [p for p in args[:3] if p is not None]
    return {
        "records": len(records)
        + sum(len(r.rankings) for r in records)
        + sum(r.prediction is not None for r in records),
        "bytes": sum(os.path.getsize(p) for p in paths),
    }


def _run_attrs(args, kwargs, manifest):
    config, records = args[0], args[1]
    return {"model": config.model, "units": len(records) * len(config.reliability_grid)}


def _gibbs_attrs(args, kwargs, result):
    rankings, config = args[0], args[1]
    return {
        "iterations": config.iterations,
        "repetitions": config.repetitions,
        "copies": len(rankings) * config.repetitions,
    }


def _write_attrs(args, kwargs, result):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, attrs hook). The last five are private
# names; the untraced run never touches any of them.
TARGETS = (
    ("plaus.cli", "ingest", "ingest", _ingest_attrs),
    ("plaus.cli", "run", "run", _run_attrs),
    ("plaus.cli", "gibbs_run", "gibbs_run", _gibbs_attrs),
    ("plaus.pl_gibbs", "GibbsSampler.sample_sigma", "gibbs.sigma", None),
    ("plaus.pl_gibbs", "GibbsSampler.sample_tau", "gibbs.tau", None),
    ("plaus.pl_gibbs", "GibbsSampler.sample_lambda", "gibbs.lambda", None),
    ("plaus.cli", "PrIrnModel.fit", "prirn.fit", None),
    ("plaus.cli", "PrIrnModel.sample", "prirn.sample", lambda a, k, r: {"rows": _rows(r)}),
    ("plaus.cli", "irn_aggregate", "irn_aggregate", None),
    ("plaus.prirn", "irn_aggregate", "irn_aggregate", None),
    ("plaus.metrics", "irn_aggregate", "irn_aggregate", None),
    ("plaus.cli", "dirichlet_from_counts", "dirichlet", lambda a, k, r: {"rows": _rows(r)}),
    ("plaus.metrics", "ua_topk_hits", "metrics.topk", lambda a, k, r: {"rows": _rows(a[0])}),
    ("plaus.metrics", "ua_set_hits", "metrics.set", lambda a, k, r: {"rows": _rows(a[0])}),
    ("plaus.metrics", "risk_metrics", "metrics.risk", lambda a, k, r: {"rows": _rows(a[0])}),
    ("plaus.metrics", "loo_agreement", "metrics.loo", None),
    ("plaus.cli", "summarize_metric", "metrics.summarize", None),
    ("plaus.metrics", "_overlap_curve", "metrics.overlap", lambda a, k, r: {"rows": _rows(a[0])}),
    (
        "plaus.pl_gibbs",
        "_table_values",
        "subset_table",
        lambda a, k, r: {"entries": 1 << len(a[0])},
    ),
    ("plaus.pl_likelihood", "_table_values_small", "subset_table.small", None),
    ("plaus.pl_likelihood", "_table_values_layered", "subset_table.layered", None),
    ("plaus.cli", "_write_rows", "report", _write_attrs),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for a dotted target; raw is None if gone."""
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, attr, None
    for part in parents:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        return owner, attr, vars(owner).get(attr)  # keeps a classmethod wrapper
    return owner, attr, getattr(owner, attr, None)


class Tracer:
    """Collects spans from wrappers it installs; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # span names whose target is gone
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, None)
            if attrs is not None:
                spans[index].attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        self.missing = set()
        for module_name, path, name, attrs in TARGETS:
            owner, attr, raw = _resolve(module_name, path)
            if raw is None:
                self.missing.add(name)
                print(
                    f"warning: trace target {module_name}.{path} is gone; "
                    f"metrics built on span {name!r} read null",
                    file=sys.stderr,
                )
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(name, fn, attrs)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a root span."""
        return self._wrap(name, fn, None)(*args)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus that of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


# Per-layer metric -> (unit, better). BENCHMARK.json lists the same table.
LAYER_METRICS = {
    "ingest.busy_s": ("s", "lower"),
    "ingest.records": ("count", "lower"),
    "ingest.mb_per_s": ("MB/s", "higher"),
    "irn.aggregate.calls": ("count", "lower"),
    "irn.aggregate.busy_s": ("s", "lower"),
    "sampling.busy_s": ("s", "lower"),
    "sampling.rows": ("count", "lower"),
    "sampling.rows_per_s": ("rows/s", "higher"),
    "gibbs.runs": ("count", "lower"),
    "gibbs.runs_per_unit": ("ratio", "lower"),
    "gibbs.copy_sweeps": ("count", "lower"),
    "gibbs.busy_s": ("s", "lower"),
    "gibbs.sigma.self_s": ("s", "lower"),
    "gibbs.tau.self_s": ("s", "lower"),
    "gibbs.lambda.self_s": ("s", "lower"),
    "gibbs.us_per_copy_sweep": ("us", "lower"),
    "gibbs.sweep_us.reps1": ("us", "lower"),
    "gibbs.sweep_us.reps10": ("us", "lower"),
    "subset_table.calls": ("count", "lower"),
    "subset_table.entries": ("count", "lower"),
    "subset_table.busy_s": ("s", "lower"),
    "subset_table.ns_per_entry": ("ns", "lower"),
    "subset_table.small.busy_s": ("s", "lower"),
    "subset_table.layered.busy_s": ("s", "lower"),
    "metrics.busy_s": ("s", "lower"),
    "metrics.sample_rows": ("count", "lower"),
    "metrics.loo.busy_s": ("s", "lower"),
    "metrics.summarize.busy_s": ("s", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "report.busy_s": ("s", "lower"),
    "report.bytes": ("bytes", "lower"),
    "report.rows": ("count", "lower"),
    "report.files": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


SAMPLE_KERNELS = ("metrics.topk", "metrics.set", "metrics.risk", "metrics.overlap")
METRIC_SPANS = SAMPLE_KERNELS + ("metrics.loo", "metrics.summarize")

# Span names each metric is computed from; the metric reads None when one
# of their targets is gone.
SOURCES = {
    "ingest.": ("ingest",),
    "irn.": ("irn_aggregate",),
    "sampling.": ("prirn.fit", "prirn.sample", "dirichlet"),
    "gibbs.runs_per_unit": ("gibbs_run", "run"),
    "gibbs.sigma.": ("gibbs.sigma",),
    "gibbs.tau.": ("gibbs.tau",),
    "gibbs.lambda.": ("gibbs.lambda",),
    "gibbs.": ("gibbs_run",),
    "subset_table.small.": ("subset_table.small",),
    "subset_table.layered.": ("subset_table.layered",),
    "subset_table.": ("subset_table",),
    "metrics.loo.": ("metrics.loo",),
    "metrics.summarize.": ("metrics.summarize",),
    "metrics.": METRIC_SPANS,
    "cli.run.": ("run",),
    "report.": ("report",),
}


def layer_metrics(spans: list[Span], missing_spans: set[str]) -> dict:
    """Per-layer metrics of one traced CLI call.

    A ratio whose base is zero reads 0. A metric reads None when a span
    it is computed from could not be installed (see ``SOURCES``).
    """
    own = self_times(spans)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(int)
    by_reps = defaultdict(lambda: [0.0, 0])
    pl_units = 0
    for span, own_s in zip(spans, own):
        busy[span.name] += span.duration
        self_s[span.name] += own_s
        calls[span.name] += 1
        attrs = span.attrs or {}
        for key, value in attrs.items():
            if isinstance(value, int):
                total[f"{span.name}.{key}"] += value
        if span.name == "run" and attrs.get("model") == "pl":
            pl_units += attrs["units"]
        if span.name == "gibbs_run":
            total["gibbs.copy_sweeps"] += attrs["iterations"] * attrs["copies"]
            by_reps[attrs["repetitions"]][0] += span.duration
            by_reps[attrs["repetitions"]][1] += attrs["iterations"]

    sampling_busy = busy["prirn.fit"] + busy["prirn.sample"] + busy["dirichlet"]
    sampling_rows = total["prirn.sample.rows"] + total["dirichlet.rows"]
    out = {
        "ingest.busy_s": busy["ingest"],
        "ingest.records": total["ingest.records"],
        "ingest.mb_per_s": _ratio(total["ingest.bytes"] / 1e6, busy["ingest"]),
        "irn.aggregate.calls": calls["irn_aggregate"],
        "irn.aggregate.busy_s": busy["irn_aggregate"],
        "sampling.busy_s": sampling_busy,
        "sampling.rows": sampling_rows,
        "sampling.rows_per_s": _ratio(sampling_rows, sampling_busy),
        "gibbs.runs": calls["gibbs_run"],
        "gibbs.runs_per_unit": _ratio(calls["gibbs_run"], pl_units),
        "gibbs.copy_sweeps": total["gibbs.copy_sweeps"],
        "gibbs.busy_s": busy["gibbs_run"],
        "gibbs.sigma.self_s": self_s["gibbs.sigma"],
        "gibbs.tau.self_s": self_s["gibbs.tau"],
        "gibbs.lambda.self_s": self_s["gibbs.lambda"],
        "gibbs.us_per_copy_sweep": _ratio(busy["gibbs_run"], total["gibbs.copy_sweeps"], 1e6),
        "gibbs.sweep_us.reps1": _ratio(*by_reps[1], 1e6),
        "gibbs.sweep_us.reps10": _ratio(*by_reps[10], 1e6),
        "subset_table.calls": calls["subset_table"],
        "subset_table.entries": total["subset_table.entries"],
        "subset_table.busy_s": busy["subset_table"],
        "subset_table.ns_per_entry": _ratio(
            busy["subset_table"], total["subset_table.entries"], 1e9
        ),
        "subset_table.small.busy_s": busy["subset_table.small"],
        "subset_table.layered.busy_s": busy["subset_table.layered"],
        "metrics.busy_s": sum(busy[n] for n in METRIC_SPANS),
        "metrics.sample_rows": sum(total[f"{n}.rows"] for n in SAMPLE_KERNELS),
        "metrics.loo.busy_s": busy["metrics.loo"],
        "metrics.summarize.busy_s": busy["metrics.summarize"],
        "cli.run.self_s": self_s["run"],
        "report.busy_s": busy["report"],
        "report.bytes": total["report.bytes"],
        "report.rows": total["report.rows"],
        "report.files": calls["report"],
    }
    for metric in out:
        prefix = next(p for p in SOURCES if metric.startswith(p))
        if missing_spans.intersection(SOURCES[prefix]):
            out[metric] = None
    return out
