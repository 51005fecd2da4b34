"""Batch front end: files in, reports out.

Subcommands
    aggregate   per-case posterior summaries (mean, sd, top classes)
    certainty   annotation certainty reports across reliability grids
    evaluate    certainty plus uncertainty-adjusted metrics for predictions
    simulate    draw synthetic cases and annotations from known weights
    selfcheck   run the oracle checks of the acceptance suite at smaller sizes

Data files are line-delimited JSON. Cases declare the class space, optionally
with names and risk levels; annotations carry blocks of class ids or names
(and optionally a scalar score); predictions carry a ranked class list. All
reports are line-delimited JSON rows plus a run manifest, with every numeric
row carrying its provenance (model, reliability, M, seed). Reruns with the
same inputs and seed are byte-identical, regardless of worker count: each
case derives its seed from the base seed and the case id, and the writer is
the single serialization point.

Exit codes: 0 ok, 1 bad configuration, 2 bad data, 3 selfcheck failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import metrics as metrics_mod
from .irn import AllZeroMassError, irn_aggregate
from .metrics import MissingRiskMappingError, PredictionSet, case_metrics, summarize_metric
from .pl_gibbs import DEFAULT_REPETITION_GRID, GibbsConfig, gibbs_run
from .pl_likelihood import BlockTooLargeError
from .prirn import DEFAULT_GAMMA_GRID, PrIrnModel
from .rankings import ClassSpace, PartialRanking, RankingError
from .samples import PosteriorSamples
from .sim_oracle import (
    SimSpec,
    gibbs_grid_gap,
    point_mass_reduction_gap,
    recursion_enumeration_gap,
    simulate_annotations,
)
from .simple_models import dirichlet_from_counts, score_threshold_certainty, unvoted_gammas

__all__ = [
    "SCHEMA_VERSION",
    "MODELS",
    "ConfigError",
    "DataError",
    "ParseError",
    "UnknownClassNameError",
    "DanglingCaseIdError",
    "RunConfig",
    "CaseRecord",
    "ingest",
    "run",
    "selfcheck",
    "main",
]

SCHEMA_VERSION = 1
MODELS = ("irn", "prirn", "pl", "dirichlet-counts", "gaussian-scores")
OUTPUT_DIR_ENV = "PLAUS_OUTPUT_DIR"
# Each summary row carries 2 * bins + 1 histogram numbers; the bound keeps
# a row, and the histogram arrays behind it, small.
MAX_HISTOGRAM_BINS = 10_000

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_SELFCHECK = 3


class ConfigError(ValueError):
    """Bad flags or an inconsistent run configuration (exit 1)."""


class DataError(ValueError):
    """Bad input data (exit 2)."""


class ParseError(DataError):
    """A record failed to parse; message carries file and line number."""


class UnknownClassNameError(DataError):
    """An annotation or prediction names a class its case does not have."""


class DanglingCaseIdError(DataError):
    """A record references a case id absent from the cases file."""


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Settings for one model swept over its reliability grid.

    ``chain`` is the PL chain's ``GibbsConfig``, built from the ``gibbs_*``
    fields with as many sweeps as retain exactly M samples; it owns the
    chain's rules, and is built and checked for every model.
    """

    model: str
    reliability_grid: tuple = ()
    num_samples: int = 1000
    gibbs_burn_in: int = 500
    gibbs_thinning: int = 1
    gibbs_alpha: float = 1.0
    base_seed: int = 0
    k_grid: tuple[int, ...] = (1, 2, 3)
    overlap_depth: int = 3
    histogram_bins: int = 20
    dirichlet_prior_alpha: float = 0.01
    threshold: float | None = None
    chain: GibbsConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        grid = self.reliability_grid
        # irn and gaussian-scores have no reliability dial; a grid given for
        # them is ignored, as is an empty one for any model.
        if not grid or self.model in ("irn", "gaussian-scores"):
            grid = default_reliability_grid(self.model)
        object.__setattr__(self, "reliability_grid", tuple(grid))
        tags = [reliability_tag(r) for r in self.reliability_grid]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"reliability grid repeats a value: {list(self.reliability_grid)}")
        if self.model == "pl" and any(
            not float(r).is_integer() or r < 1 for r in self.reliability_grid
        ):
            raise ConfigError("pl reliabilities are positive integer repetition counts")
        if self.model in ("prirn", "dirichlet-counts") and any(
            not 0 < r < np.inf for r in self.reliability_grid
        ):
            raise ConfigError("reliabilities must be positive and finite")
        if self.num_samples < 1:
            raise ConfigError("M must be >= 1")
        try:
            chain = GibbsConfig(
                alpha=self.gibbs_alpha,
                iterations=self.gibbs_burn_in + self.gibbs_thinning * self.num_samples,
                burn_in=self.gibbs_burn_in,
                thinning=self.gibbs_thinning,
            )
        except ValueError as exc:
            raise ConfigError(f"gibbs {exc}") from None
        object.__setattr__(self, "chain", chain)
        if not self.k_grid or any(k < 1 for k in self.k_grid):
            raise ConfigError("k grid must be non-empty positive integers")
        if len(set(self.k_grid)) < len(self.k_grid):
            raise ConfigError(f"k grid repeats a value: {list(self.k_grid)}")
        if self.overlap_depth < 1:
            raise ConfigError("overlap depth must be >= 1")
        if not 1 <= self.histogram_bins <= MAX_HISTOGRAM_BINS:
            raise ConfigError(f"histogram bins must be between 1 and {MAX_HISTOGRAM_BINS}")
        if not 0 < self.dirichlet_prior_alpha < np.inf:
            raise ConfigError("dirichlet prior alpha must be positive and finite")
        if self.model == "gaussian-scores" and self.threshold is None:
            raise ConfigError("gaussian-scores needs --threshold")
        if self.threshold is not None and not np.isfinite(self.threshold):
            raise ConfigError("threshold must be finite")


def default_reliability_grid(model: str) -> tuple:
    if model in ("prirn", "dirichlet-counts"):
        return DEFAULT_GAMMA_GRID
    if model == "pl":
        return DEFAULT_REPETITION_GRID
    return (None,)  # point estimate or score model: no reliability dial


def reliability_tag(value) -> str:
    """Stable short token for file names and seed derivation. A value of
    magnitude 2**53 or more is tagged as a float, e.g. ``1e+300``, so the
    tag stays short."""
    if value is None:
        return "point"
    if abs(value) >= 2**53:
        return repr(float(value))
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _case_seed(base_seed: int, case_id: str, model: str, rel_tag: str) -> int:
    digest = hashlib.sha256(
        f"{base_seed}|{case_id}|{model}|{rel_tag}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


# --------------------------------------------------------------------------
# ingest


@dataclass(frozen=True)
class CaseRecord:
    """One joined evaluation unit."""

    case_id: str
    class_space: ClassSpace
    rankings: tuple[PartialRanking, ...]
    scores: tuple[float | None, ...]
    prediction: PredictionSet | None = None


def _read_records(path: str):
    """Yield ``("path:line", record)`` for each non-blank line of a file."""
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ParseError(f"{where}: expected an object")
            yield where, record


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise ParseError(f"{where}: missing field {key!r}")
    return record[key]


def _parse_class_space(record: dict, where: str) -> ClassSpace:
    names = None
    if "classes" in record:
        names = record["classes"]
        if not isinstance(names, list) or not set(map(type, names)) <= {str}:
            raise ParseError(f"{where}: 'classes' must be a list of names")
        size = len(names)
    elif "num_classes" in record:
        size = record["num_classes"]
        # type(), not isinstance(): JSON true and false load as bool.
        if type(size) is not int or size < 1:
            raise ParseError(f"{where}: 'num_classes' must be a positive integer")
    else:
        raise ParseError(f"{where}: need 'classes' or 'num_classes'")
    # JSON object keys are strings, so the space resolves them as names.
    risk = record.get("risk")
    if isinstance(risk, list):
        if len(risk) != size:
            raise ParseError(f"{where}: 'risk' list must cover every class")
        risk = dict(enumerate(risk))
    elif "risk" in record and not isinstance(risk, dict):
        raise ParseError(f"{where}: 'risk' must be a list or object")
    try:
        return ClassSpace(size=size, names=tuple(names) if names else None, risk=risk)
    except KeyError as exc:
        raise UnknownClassNameError(f"{where}: unknown class name {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _resolve_class(token, space: ClassSpace, where: str) -> int:
    if isinstance(token, bool):
        raise ParseError(f"{where}: bad class reference {token!r}")
    if isinstance(token, int):
        if not (0 <= token < space.size):
            raise UnknownClassNameError(f"{where}: class id {token} outside [0, {space.size})")
        return token
    if isinstance(token, str):
        try:
            return space.id_of(token)
        except KeyError:
            raise UnknownClassNameError(f"{where}: unknown class name {token!r}") from None
    raise ParseError(f"{where}: bad class reference {token!r}")


def _case_of(record: dict, spaces: dict, where: str) -> tuple[str, ClassSpace]:
    case_id = str(_require(record, "case_id", where))
    if case_id not in spaces:
        raise DanglingCaseIdError(f"{where}: unknown case id {case_id!r}")
    return case_id, spaces[case_id]


def ingest(
    cases_path: str,
    annotations_path: str,
    predictions_path: str | None = None,
) -> list[CaseRecord]:
    """Join the input files into case records, keeping case order.

    Raises:
        ParseError: malformed line (message has file and line number).
        UnknownClassNameError: class reference outside the case's space.
        DanglingCaseIdError: annotation or prediction for an unknown case.
    """
    spaces: dict[str, ClassSpace] = {}
    for where, record in _read_records(cases_path):
        case_id = str(_require(record, "case_id", where))
        if case_id in spaces:
            raise ParseError(f"{where}: duplicate case id {case_id!r}")
        spaces[case_id] = _parse_class_space(record, where)
        if not isinstance(record.get("metadata", {}), dict):
            raise ParseError(f"{where}: 'metadata' must be an object")

    # Per case, (ranking, score) by annotator id, in file order.
    annotations: dict[str, dict] = {case_id: {} for case_id in spaces}
    for where, record in _read_records(annotations_path):
        case_id, space = _case_of(record, spaces, where)
        annotator = str(_require(record, "annotator_id", where))
        if annotator in annotations[case_id]:
            raise ParseError(
                f"{where}: duplicate annotator {annotator!r} for case {case_id!r}"
            )
        raw_blocks = _require(record, "blocks", where)
        if not isinstance(raw_blocks, list) or not all(
            isinstance(b, list) for b in raw_blocks
        ):
            raise ParseError(f"{where}: 'blocks' must be a list of lists")
        blocks = [[_resolve_class(tok, space, where) for tok in b] for b in raw_blocks]
        try:
            ranking = PartialRanking(blocks, space)
        except RankingError as exc:
            raise ParseError(f"{where}: {exc}") from None
        score = record.get("score")
        # JSON reads NaN, Infinity and 1e999 as floats; a huge int would
        # overflow float().
        if score is not None and (
            type(score) not in (int, float) or not abs(score) <= sys.float_info.max
        ):
            raise ParseError(f"{where}: 'score' must be a finite number")
        annotations[case_id][annotator] = (ranking, float(score) if score is not None else None)

    predictions: dict[str, PredictionSet] = {}
    if predictions_path is not None:
        for where, record in _read_records(predictions_path):
            case_id, space = _case_of(record, spaces, where)
            if case_id in predictions:
                raise ParseError(f"{where}: duplicate prediction for case {case_id!r}")
            raw = _require(record, "ranked_classes", where)
            if not isinstance(raw, list) or not raw:
                raise ParseError(f"{where}: 'ranked_classes' must be a non-empty list")
            ids = [_resolve_class(tok, space, where) for tok in raw]
            try:
                predictions[case_id] = PredictionSet(tuple(ids))
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None

    return [
        CaseRecord(
            case_id=case_id,
            class_space=space,
            rankings=tuple(r for r, _ in annotations[case_id].values()),
            scores=tuple(s for _, s in annotations[case_id].values()),
            prediction=predictions.get(case_id),
        )
        for case_id, space in spaces.items()
    ]


# --------------------------------------------------------------------------
# sampling per model


def _posterior_for(
    record: CaseRecord, config: RunConfig, reliability, seed: int, unvoted
) -> PosteriorSamples:
    if not record.rankings or all(not r.blocks for r in record.rankings):
        raise AllZeroMassError("no annotator ranked any class")
    if config.model == "irn":
        return PosteriorSamples.point_mass(irn_aggregate(record.rankings))
    if config.model == "prirn":
        return PrIrnModel.fit(record.rankings, reliability).sample(
            config.num_samples, seed=seed
        )
    if config.model == "pl":
        return gibbs_run(
            record.rankings, replace(config.chain, repetitions=int(reliability), seed=seed)
        )
    # dirichlet-counts; gaussian-scores has no posterior and never gets here
    if record.class_space.size < 2:
        raise DataError("dirichlet-counts needs at least two classes")
    counts = np.zeros(record.class_space.size)
    for ranking in record.rankings:
        if ranking.blocks:
            counts[sorted(ranking.blocks[0])] += 1.0
    return dirichlet_from_counts(
        counts,
        gamma=reliability,
        prior_alpha=config.dirichlet_prior_alpha,
        num_samples=config.num_samples,
        seed=seed,
        unvoted=unvoted,
    )


def _score_unit(
    record: CaseRecord, config: RunConfig, reliability, seed: int, include_aggregate, unvoted
):
    """Sample and score one (case, reliability) unit: ``(seed, scalars,
    vectors, aggregate)``, where ``aggregate`` is None unless asked for."""
    if config.model == "gaussian-scores":
        # Threshold certainty, from the scores alone: this model has no posterior.
        scores = [s for s in record.scores if s is not None]
        if len(scores) < len(record.scores) or not scores:
            raise DataError("gaussian-scores needs a score on every annotation")
        certainty = score_threshold_certainty(
            scores, threshold=config.threshold, num_samples=config.num_samples, seed=seed
        )
        return seed, {"certainty_threshold": certainty}, {}, None
    posterior = _posterior_for(record, config, reliability, seed, unvoted)
    scalars, vectors = case_metrics(
        posterior, record.class_space, record.prediction, config.k_grid, config.overlap_depth
    )
    aggregate = None
    if include_aggregate:
        mean = posterior.samples.mean(axis=0)
        aggregate = {
            "mean": mean,
            "sd": posterior.samples.std(axis=0, ddof=0),
            "seed": seed,
            "top_classes": np.argsort(-mean, kind="stable")[:5],
        }
    return seed, scalars, vectors, aggregate


def _compute_case(payload):
    """One entry per reliability of a case: ``_score_unit``'s tuple, or the
    unit's failure row where its own data failed.

    Under dirichlet-counts the case draws its unvoted classes' Gammas once,
    from a seed no reliability tag can give, and every unit shares them.
    """
    record, config, include_aggregate = payload
    unvoted = None
    if config.model == "dirichlet-counts":
        unvoted = unvoted_gammas(
            record.class_space.size,
            config.dirichlet_prior_alpha,
            config.num_samples,
            _case_seed(config.base_seed, record.case_id, config.model, "unvoted"),
        )
    entries = []
    for reliability in config.reliability_grid:
        tag = reliability_tag(reliability)
        seed = _case_seed(config.base_seed, record.case_id, config.model, tag)
        # Only errors in a case's own data become failure rows; a bug aborts
        # the run. A unit's samples are freed when _score_unit returns, before
        # the next unit draws its own.
        try:
            entry = _score_unit(record, config, reliability, seed, include_aggregate, unvoted)
            entries.append(entry)
        except (DataError, AllZeroMassError, BlockTooLargeError, MissingRiskMappingError) as exc:
            entries.append(
                {
                    "case_id": record.case_id,
                    "model": config.model,
                    "reliability": reliability,
                    "seed": seed,
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            )
    return entries


# --------------------------------------------------------------------------
# report writing


def _json_default(value):
    """Encode the numpy values a report row may hold; np.float64 is a float."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(value, **options) -> str:
    """JSON text with sorted keys. NaN and infinities, which JSON does not
    have, raise ValueError instead of being written."""
    return json.dumps(value, sort_keys=True, allow_nan=False, default=_json_default, **options)


def _write_rows(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for row in rows:
            handle.write(_dumps(row) + "\n")


def _write_manifest(out_dir: str, **fields) -> None:
    manifest = {"schema_version": SCHEMA_VERSION, **fields}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_dumps(manifest, indent=2) + "\n")


def run(
    config: RunConfig,
    records: list[CaseRecord],
    out_dir: str,
    workers: int = 1,
    include_aggregate: bool = False,
) -> dict:
    """Sweep one model over its reliability grid and write reports.

    Writes, inside ``out_dir``: one ``metrics_<model>_<rel>.jsonl`` per
    reliability with per-case metric rows, ``loo.jsonl``, a
    ``summary_<model>.jsonl`` of dataset rows (mean, across-sample sd,
    histogram), optionally ``aggregate_<model>_<rel>.jsonl`` posterior
    summaries (not for gaussian-scores, which has no posterior to summarize),
    and a ``failures_<model>.jsonl`` when cases failed.
    The command line writes ``manifest.json`` from the returned manifests
    of every model.

    Cases are processed by a worker pool; output depends only on inputs and
    the base seed, not on worker count. Returns the manifest.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    include_aggregate = include_aggregate and config.model != "gaussian-scores"
    os.makedirs(out_dir, exist_ok=True)
    payloads = [(record, config, include_aggregate) for record in records]
    if workers == 1 or len(records) <= 1:
        results = [_compute_case(p) for p in payloads]
    else:
        # A serial run need not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        results = []
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(records))) as pool:
                for result in pool.map(_compute_case, payloads):
                    results.append(result)
        except BrokenProcessPool:
            # A worker died (killed, or out of memory). Every case is a pure
            # function of its payload, so the cases still missing are
            # recomputed here, one after another.
            print(
                f"warning: a worker process died; computing {len(payloads) - len(results)} "
                "remaining cases in this process",
                file=sys.stderr,
            )
            results += [_compute_case(p) for p in payloads[len(results) :]]
    failures = [entry for entries in results for entry in entries if isinstance(entry, dict)]

    summary_rows = []
    written_files = []

    def write(name: str, rows: list) -> None:
        _write_rows(os.path.join(out_dir, name), rows)
        written_files.append(name)

    for index, reliability in enumerate(config.reliability_grid):
        tag = reliability_tag(reliability)
        provenance = {
            "model": config.model,
            "reliability": reliability,
            "M": 1 if config.model == "irn" else config.num_samples,
            "schema_version": SCHEMA_VERSION,
        }
        units = [
            (record.case_id, *entries[index])
            for record, entries in zip(records, results)
            if not isinstance(entries[index], dict)
        ]
        case_rows = []
        scalar_stacks: dict[str, list] = {}
        vector_stacks: dict[str, list] = {}
        for case_id, seed, scalars, vectors, _ in units:
            for metric in sorted(scalars):
                case_rows.append(
                    {
                        **provenance,
                        "case_id": case_id,
                        "metric": metric,
                        "value": scalars[metric],
                        "seed": seed,
                    }
                )
                scalar_stacks.setdefault(metric, []).append(scalars[metric])
            for metric, vec in vectors.items():
                vector_stacks.setdefault(metric, []).append(vec)
        write(f"metrics_{config.model}_{tag}.jsonl", case_rows)
        if include_aggregate:
            write(
                f"aggregate_{config.model}_{tag}.jsonl",
                [
                    {**provenance, "case_id": case_id, **aggregate}
                    for case_id, _, _, _, aggregate in units
                    if aggregate is not None
                ],
            )

        for metric in sorted(scalar_stacks):
            row = {
                **provenance,
                "scope": "dataset",
                "metric": metric,
                "mean": float(np.mean(scalar_stacks[metric])),
                "num_cases": len(scalar_stacks[metric]),
                "seed": config.base_seed,
            }
            if metric in vector_stacks:
                stacked = np.vstack(vector_stacks[metric])
                row.update(summarize_metric(metric, stacked, bins=config.histogram_bins))
            summary_rows.append(row)

    # Annotation-only agreement, identical for every reliability.
    loo_rows = []
    for record in records:
        rankings = record.rankings
        value = metrics_mod.loo_agreement(rankings) if len(rankings) >= 2 else None
        loo_rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "case_id": record.case_id,
                "metric": "loo_agreement",
                "value": value,
                "num_annotators": len(record.rankings),
            }
        )
    write("loo.jsonl", loo_rows)
    loo_values = [r["value"] for r in loo_rows if r["value"] is not None]
    if loo_values:
        summary_rows.append(
            {
                "schema_version": SCHEMA_VERSION,
                "scope": "dataset",
                "model": "annotations",
                "reliability": None,
                "metric": "loo_agreement",
                "mean": float(np.mean(loo_values)),
                "num_cases": len(loo_values),
                "M": None,
                "seed": config.base_seed,
            }
        )

    write(f"summary_{config.model}.jsonl", summary_rows)
    if failures:
        write(f"failures_{config.model}.jsonl", failures)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "model": config.model,
        "reliability_grid": list(config.reliability_grid),
        "M": config.num_samples,
        "base_seed": config.base_seed,
        "k_grid": list(config.k_grid),
        "overlap_depth": config.overlap_depth,
        "histogram_bins": config.histogram_bins,
        "num_cases": len(records),
        "num_failures": len(failures),
        "files": sorted(written_files),
    }
    return manifest


# --------------------------------------------------------------------------
# selfcheck


def selfcheck(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run acceptance criteria 01, 03 and 04 at smaller sizes, print one
    PASS/FAIL line per check and return (name, passed, detail) per check."""
    if seed < 0:
        raise ConfigError("selfcheck seed must be >= 0")
    pair = [PartialRanking([[0], [1]], ClassSpace(size=2))]
    chain = GibbsConfig(iterations=4500, burn_in=500, seed=seed + 1)
    checks = (
        ("dp_vs_enumeration", recursion_enumeration_gap(seed, 80), 1e-10, "worst abs diff {:.2e}"),
        ("gibbs_vs_grid", gibbs_grid_gap(pair, chain, 1500), 0.025, "max mean gap {:.4f}"),
        ("reduction_law", point_mass_reduction_gap(seed, 20), 1e-12, "worst abs diff {:.2e}"),
    )
    results = [(name, gap < tol, fmt.format(gap)) for name, gap, tol, fmt in checks]
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return results


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


def _csv_of(convert, what: str):
    """Flag type: a comma-separated list, each non-blank item stripped and
    passed through ``convert``."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(part.strip()) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from None

    return parse


def _int_or_float(token: str):
    """An integral value below 2**53 in magnitude as an int, else a float."""
    value = float(token)
    return int(value) if value.is_integer() and abs(value) < 2**53 else value


# Flags that set a RunConfig field: (flag, field, type, help). Defaults and
# validation live on RunConfig alone, so an unset flag leaves the field out.
_RUN_SETTING_FLAGS = (
    (
        "--reliability",
        "reliability_grid",
        _csv_of(_int_or_float, "reliability grid"),
        "comma-separated reliability grid (default depends on the model)",
    ),
    ("--samples", "num_samples", int, "Monte Carlo samples M"),
    ("--gibbs-burn-in", "gibbs_burn_in", int, None),
    ("--gibbs-thinning", "gibbs_thinning", int, None),
    ("--gibbs-alpha", "gibbs_alpha", float, None),
    ("--seed", "base_seed", int, "base seed"),
    ("--k-grid", "k_grid", _csv_of(int, "k grid"), "comma-separated top-k cutoffs"),
    ("--overlap-depth", "overlap_depth", int, None),
    ("--bins", "histogram_bins", int, "histogram bins"),
    ("--threshold", "threshold", float, "score threshold"),
    ("--dirichlet-prior-alpha", "dirichlet_prior_alpha", float, "counts model prior"),
)


def _add_common(parser, with_predictions: bool) -> None:
    parser.add_argument("--cases", required=True, help="cases file (jsonl)")
    parser.add_argument("--annotations", required=True, help="annotations file (jsonl)")
    if with_predictions:
        parser.add_argument("--predictions", required=True, help="predictions file (jsonl)")
    parser.add_argument(
        "--model",
        dest="models",
        type=_csv_of(str, "model list"),
        default="prirn,pl",
        help="comma-separated models: " + ", ".join(MODELS),
    )
    for flag, dest, convert, text in _RUN_SETTING_FLAGS:
        parser.add_argument(flag, dest=dest, type=convert, default=argparse.SUPPRESS, help=text)
    parser.add_argument("--workers", type=int, default=1, help="worker pool size")
    parser.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default ${OUTPUT_DIR_ENV} or ./plaus_out)",
    )


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get(OUTPUT_DIR_ENV) or "plaus_out"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="plaus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="write per-case posterior summaries")
    _add_common(p, with_predictions=False)

    p = sub.add_parser("certainty", help="annotation certainty reports")
    _add_common(p, with_predictions=False)

    p = sub.add_parser("evaluate", help="certainty plus prediction metrics")
    _add_common(p, with_predictions=True)

    p = sub.add_parser("simulate", help="write synthetic cases and annotations")
    p.add_argument("--classes", type=int, required=True, help="classes per case")
    p.add_argument("--cases", type=int, default=10, help="number of cases")
    p.add_argument("--annotators", type=int, default=3)
    p.add_argument(
        "--blocks",
        type=_csv_of(int, "block sizes"),
        default="1,1",
        help="comma-separated block sizes",
    )
    p.add_argument(
        "--true-lambda",
        type=_csv_of(float, "weights"),
        default=None,
        help="comma-separated weights shared by all cases (default: drawn per case)",
    )
    p.add_argument(
        "--lambda-alpha",
        type=float,
        default=1.0,
        help="Dirichlet concentration for drawn weights",
    )
    p.add_argument("--sharpness", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--predictions-from-truth",
        action="store_true",
        help="also write predictions ranked by the true weights",
    )
    p.add_argument("--out-dir", default=None)

    p = sub.add_parser("selfcheck", help="run the oracle checks at smaller sizes")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_reports(args) -> int:
    # Every model's configuration is checked before any input is read.
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    configs = [RunConfig(model=model, **settings) for model in args.models]
    if not configs:
        raise ConfigError("--model names no model")
    if len(set(args.models)) != len(args.models):
        raise ConfigError(f"model list repeats a value: {list(args.models)}")
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    predictions = getattr(args, "predictions", None)
    records = ingest(args.cases, args.annotations, predictions)
    if predictions is not None:
        missing = [r.case_id for r in records if r.prediction is None]
        if missing:
            raise DataError(f"no prediction for cases {missing}")
    out_dir = _out_dir(args)
    manifests = [
        run(config, records, out_dir, args.workers, include_aggregate=args.command == "aggregate")
        for config in configs
    ]
    _write_manifest(out_dir, models=manifests, num_cases=len(records))
    return EXIT_DATA if any(m["num_failures"] for m in manifests) else EXIT_OK


def _cmd_simulate(args) -> int:
    if args.classes < 2:
        raise ConfigError("need at least two classes")
    if args.cases < 1:
        raise ConfigError("need at least one case")
    if args.true_lambda is not None and len(args.true_lambda) != args.classes:
        raise ConfigError("--true-lambda length must match --classes")
    if not 0 < args.lambda_alpha < np.inf:
        raise ConfigError("--lambda-alpha must be positive and finite")
    case_rows, annotation_rows, truth_rows, prediction_rows = [], [], [], []
    for index in range(args.cases):
        case_id = f"sim-{index:04d}"
        seed = _case_seed(args.seed, case_id, "simulate", "0")
        rng = np.random.default_rng(seed)
        if args.true_lambda is not None:
            lam = np.asarray(args.true_lambda)
        else:
            lam = rng.dirichlet(np.full(args.classes, args.lambda_alpha))
            lam = np.maximum(lam, 1e-12)
        try:
            spec = SimSpec(
                true_lambda=tuple(lam),
                num_annotators=args.annotators,
                block_sizes=args.blocks,
                sharpness=args.sharpness,
                seed=int(rng.integers(2**63)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        rankings = simulate_annotations(spec)
        case_rows.append({"case_id": case_id, "num_classes": args.classes})
        for a, ranking in enumerate(rankings):
            annotation_rows.append(
                {
                    "case_id": case_id,
                    "annotator_id": f"sim-annotator-{a}",
                    "blocks": [sorted(b) for b in ranking.blocks],
                }
            )
        truth_rows.append({"case_id": case_id, "true_lambda": lam})
        if args.predictions_from_truth:
            order = np.argsort(-lam, kind="stable")
            prediction_rows.append(
                {"case_id": case_id, "ranked_classes": order[: min(5, args.classes)]}
            )

    # Every case is built before the out dir exists, so a refused setting makes none.
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    _write_rows(os.path.join(out_dir, "cases.jsonl"), case_rows)
    _write_rows(os.path.join(out_dir, "annotations.jsonl"), annotation_rows)
    _write_rows(os.path.join(out_dir, "truth.jsonl"), truth_rows)
    if prediction_rows:
        _write_rows(os.path.join(out_dir, "predictions.jsonl"), prediction_rows)
    _write_manifest(
        out_dir,
        command="simulate",
        num_cases=args.cases,
        num_classes=args.classes,
        annotators=args.annotators,
        block_sizes=list(args.blocks),
        sharpness=args.sharpness,
        base_seed=args.seed,
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "selfcheck":
            results = selfcheck(seed=args.seed)
            return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_SELFCHECK
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_reports(args)  # aggregate, certainty or evaluate
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
