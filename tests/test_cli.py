import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import plaus
from plaus import cli, metrics
from plaus.cli import (
    CaseRecord,
    ConfigError,
    DanglingCaseIdError,
    ParseError,
    RunConfig,
    UnknownClassNameError,
    _case_seed,
    default_reliability_grid,
    ingest,
    main,
    read_report,
    reliability_tag,
)
from plaus.pl_likelihood import MAX_BLOCK_SIZE
from plaus.rankings import ClassSpace

DATA = Path(__file__).parent / "data"


def write_lines(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


@pytest.fixture
def small_dataset(tmp_path):
    cases = write_lines(
        tmp_path / "cases.jsonl",
        [
            {"case_id": "a", "classes": ["x", "y", "z"]},
            {"case_id": "b", "num_classes": 3},
        ],
    )
    annotations = write_lines(
        tmp_path / "annotations.jsonl",
        [
            {"case_id": "a", "annotator_id": "r1", "blocks": [["x"], ["y"]]},
            {"case_id": "a", "annotator_id": "r2", "blocks": [["y"]]},
            {"case_id": "b", "annotator_id": "r1", "blocks": [[2], [0]]},
            {"case_id": "b", "annotator_id": "r2", "blocks": [[2]]},
        ],
    )
    predictions = write_lines(
        tmp_path / "predictions.jsonl",
        [
            {"case_id": "a", "ranked_classes": ["x", "y"]},
            {"case_id": "b", "ranked_classes": [2, 1]},
        ],
    )
    return cases, annotations, predictions


def test_importing_the_cli_leaves_scipy_and_multiprocessing_unloaded():
    # plaus needs no scipy, and only a pool of two or more workers needs
    # multiprocessing; every CLI run would pay their import
    package_root = str(Path(plaus.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, plaus.cli; "
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "[]"


# -- ingest -----------------------------------------------------------------


def test_ingest_joins_files_in_case_order(small_dataset):
    cases, annotations, predictions = small_dataset
    records = ingest(cases, annotations, predictions)
    assert [r.case_id for r in records] == ["a", "b"]
    first = records[0]
    assert isinstance(first, CaseRecord)
    assert first.class_space.names == ("x", "y", "z")
    assert first.rankings[0].blocks == (frozenset({0}), frozenset({1}))
    assert first.prediction.ranked_classes == (0, 1)
    assert records[1].class_space.names is None
    assert records[1].prediction.ranked_classes == (2, 1)


def test_ingest_derm_fixture():
    records = ingest(
        str(DATA / "derm_cases.jsonl"),
        str(DATA / "derm_annotations.jsonl"),
        str(DATA / "derm_predictions_b.jsonl"),
    )
    (record,) = records
    assert record.class_space.size == 8
    assert record.class_space.risk[record.class_space.id_of("Melanoma")] == 2
    assert len(record.rankings) == 6
    assert [len(r.blocks) for r in record.rankings] == [3, 2, 2, 1, 1, 3]
    assert record.prediction.ranked_classes == (1, 5, 2)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "cases.jsonl"
    path.write_text('{"case_id": "a", "num_classes": 2}\n{broken\n')
    with pytest.raises(ParseError, match="cases.jsonl:2"):
        ingest(str(path), str(path))


def test_ingest_rejects_duplicate_cases(tmp_path):
    cases = write_lines(
        tmp_path / "cases.jsonl",
        [{"case_id": "a", "num_classes": 2}, {"case_id": "a", "num_classes": 2}],
    )
    with pytest.raises(ParseError, match="duplicate case id"):
        ingest(cases, cases)


def test_ingest_rejects_unknown_class_names(tmp_path):
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "classes": ["x", "y"]}])
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [{"case_id": "a", "annotator_id": "r", "blocks": [["nope"]]}],
    )
    with pytest.raises(UnknownClassNameError, match="nope"):
        ingest(cases, annotations)


def test_ingest_rejects_out_of_range_ids(tmp_path):
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}])
    annotations = write_lines(
        tmp_path / "a.jsonl", [{"case_id": "a", "annotator_id": "r", "blocks": [[5]]}]
    )
    with pytest.raises(UnknownClassNameError):
        ingest(cases, annotations)


def test_ingest_rejects_dangling_case_ids(tmp_path):
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}])
    annotations = write_lines(
        tmp_path / "a.jsonl", [{"case_id": "zzz", "annotator_id": "r", "blocks": [[0]]}]
    )
    with pytest.raises(DanglingCaseIdError):
        ingest(cases, annotations)
    predictions = write_lines(
        tmp_path / "p.jsonl", [{"case_id": "zzz", "ranked_classes": [0]}]
    )
    good = write_lines(tmp_path / "a2.jsonl", [])
    with pytest.raises(DanglingCaseIdError):
        ingest(cases, good, predictions)


def test_ingest_rejects_duplicate_annotators_and_predictions(tmp_path):
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}])
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [
            {"case_id": "a", "annotator_id": "r", "blocks": [[0]]},
            {"case_id": "a", "annotator_id": "r", "blocks": [[1]]},
        ],
    )
    with pytest.raises(ParseError, match="duplicate annotator"):
        ingest(cases, annotations)
    ok = write_lines(
        tmp_path / "a2.jsonl", [{"case_id": "a", "annotator_id": "r", "blocks": [[0]]}]
    )
    predictions = write_lines(
        tmp_path / "p.jsonl",
        [
            {"case_id": "a", "ranked_classes": [0]},
            {"case_id": "a", "ranked_classes": [1]},
        ],
    )
    with pytest.raises(ParseError, match="duplicate prediction"):
        ingest(cases, ok, predictions)


def test_ingest_rejects_risk_without_full_list(tmp_path):
    cases = write_lines(
        tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 3, "risk": [0, 1]}]
    )
    with pytest.raises(ParseError, match="cover every class"):
        ingest(cases, cases)


def test_name_keyed_id_keyed_and_list_risk_maps_give_one_risk_vector(tmp_path):
    names = ["x", "y", "z", "w"]
    levels = [2, 0, 1, 0]
    cases = write_lines(
        tmp_path / "c.jsonl",
        [
            {"case_id": "names", "classes": names, "risk": dict(zip(names, levels))},
            {"case_id": "named-list", "classes": names, "risk": levels},
            {"case_id": "list", "num_classes": 4, "risk": levels},
            {"case_id": "partial", "classes": names, "risk": {"z": 1, "x": 2}},
        ],
    )
    *full, partial = [r.class_space for r in ingest(cases, write_lines(tmp_path / "a.jsonl", []))]
    by_id = ClassSpace(size=4, risk=dict(enumerate(levels)))
    for space in full:
        assert space.risk == by_id.risk
        assert np.array_equal(space.risk_levels[0], by_id.risk_levels[0])
        assert space.risk_levels[1] == ()
    expected_levels, missing = ClassSpace(size=4, risk={0: 2, 2: 1}).risk_levels
    assert np.array_equal(partial.risk_levels[0], expected_levels)
    assert partial.risk_levels[1] == missing == (1, 3)


def test_a_named_case_builds_one_class_space(tmp_path, monkeypatch):
    # the space that holds the risk map also resolves its names, so the
    # case's name index is built once
    built = []
    real_post_init = ClassSpace.__post_init__

    def counting_post_init(self):
        built.append(self.size)
        real_post_init(self)

    monkeypatch.setattr(ClassSpace, "__post_init__", counting_post_init)
    names = ["x", "y", "z"]
    cases = write_lines(
        tmp_path / "c.jsonl", [{"case_id": "a", "classes": names, "risk": {"z": 2, "x": 0}}]
    )
    annotations = write_lines(
        tmp_path / "a.jsonl", [{"case_id": "a", "annotator_id": "r", "blocks": [["y"]]}]
    )
    (record,) = ingest(cases, annotations)
    assert built == [3]
    assert record.class_space.risk == {2: 2, 0: 0}
    unknown = write_lines(
        tmp_path / "u.jsonl", [{"case_id": "a", "classes": names, "risk": {"q": 1}}]
    )
    with pytest.raises(UnknownClassNameError, match=r"u\.jsonl:1: unknown class name 'q'$"):
        ingest(unknown, annotations)


def test_a_large_named_case_resolves_every_name_to_its_position(tmp_path):
    k = 2000
    names = [f"condition-{i:04d}" for i in range(k)]
    order = np.random.default_rng(3).permutation(k).tolist()
    cases = write_lines(
        tmp_path / "c.jsonl",
        [{"case_id": "a", "classes": names, "risk": {n: i % 3 for i, n in enumerate(names)}}],
    )
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [{"case_id": "a", "annotator_id": "r", "blocks": [[names[c]] for c in order]}],
    )
    predictions = write_lines(
        tmp_path / "p.jsonl", [{"case_id": "a", "ranked_classes": [names[c] for c in order]}]
    )
    (record,) = ingest(cases, annotations, predictions)
    space = record.class_space
    assert [space.id_of(n) for n in names] == list(range(k))
    assert space.risk == {i: i % 3 for i in range(k)}
    assert record.rankings[0].blocks == tuple(frozenset({c}) for c in order)
    assert record.prediction.ranked_classes == tuple(order)


@pytest.mark.parametrize(
    "case, message",
    [
        ({"classes": ["x", "y", "x"]}, "class names must be unique"),
        ({"classes": ["x", "y"], "risk": {"y": 3}}, "risk level must be the integer 0, 1 or 2"),
        ({"num_classes": 2, "risk": [0, "1"]}, "risk level must be the integer 0, 1 or 2"),
    ],
    ids=["duplicate-names", "named-risk-level", "list-risk-level"],
)
def test_ingest_reports_class_space_errors_at_the_case_line(tmp_path, case, message):
    # ClassSpace owns these rules; ingest adds the file and line
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", **case}])
    annotations = write_lines(tmp_path / "a.jsonl", [])
    with pytest.raises(ParseError) as info:
        ingest(cases, annotations)
    assert str(info.value) == f"{cases}:1: {message}"


def test_ingest_refuses_metadata_that_is_not_an_object(tmp_path):
    # metadata is not kept, but its form is still checked
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2, "metadata": ["x"]}])
    with pytest.raises(ParseError) as info:
        ingest(cases, write_lines(tmp_path / "a.jsonl", []))
    assert str(info.value) == f"{cases}:1: 'metadata' must be an object"


@pytest.mark.parametrize(
    "case, annotation",
    [
        ({"num_classes": True}, {}),
        ({"num_classes": 2}, {"score": True}),
        ({"num_classes": 2}, {"score": False}),
        ({"num_classes": 3, "risk": [0, True, 2]}, {}),
        ({"num_classes": 3, "risk": [0, 1.0, 2]}, {}),
    ],
    ids=["num_classes-true", "score-true", "score-false", "risk-true", "risk-float"],
)
def test_ingest_refuses_booleans_and_non_integer_risk_levels(tmp_path, capsys, case, annotation):
    # JSON true and false load as bool, a subclass of int
    cases = write_lines(
        tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}, {"case_id": "b", **case}]
    )
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [{"case_id": "b", "annotator_id": "r", "blocks": [[0]], **annotation}],
    )
    where = "a.jsonl:1" if annotation else "c.jsonl:2"
    with pytest.raises(ParseError, match=where):
        ingest(cases, annotations)
    out = tmp_path / "out"
    argv = ["certainty", "--cases", cases, "--annotations", annotations, "--out-dir", str(out)]
    assert run_main(argv + ["--model", "irn,gaussian-scores", "--threshold", "0.5"]) == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "score",
    ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
    ids=["nan", "inf", "-inf", "1e999", "huge-int"],
)
def test_ingest_refuses_a_non_finite_score(tmp_path, capsys, score):
    # json reads each as a number; the score model once crashed on them with
    # an uncaught ValueError
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}])
    annotations = tmp_path / "a.jsonl"
    annotations.write_text(
        '{"case_id": "a", "annotator_id": "r0", "blocks": [[0]], "score": 0.2}\n'
        f'{{"case_id": "a", "annotator_id": "r1", "blocks": [[1]], "score": {score}}}\n'
    )
    message = f"{annotations}:2: 'score' must be a finite number"
    with pytest.raises(ParseError) as info:
        ingest(cases, str(annotations))
    assert str(info.value) == message
    argv = ["certainty", "--cases", cases, "--annotations", str(annotations),
            "--model", "gaussian-scores", "--threshold", "0.5", "--out-dir", str(tmp_path / "out")]
    assert run_main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- configuration ----------------------------------------------------------


def test_run_config_defaults_per_model():
    assert RunConfig(model="prirn").reliability_grid == (10.0, 20.0, 30.0, 50.0, 100.0)
    assert RunConfig(model="pl").reliability_grid == (1, 2, 3, 5, 10)
    assert RunConfig(model="irn").reliability_grid == (None,)
    # irn and gaussian-scores have no reliability dial: a given grid is ignored
    assert RunConfig(model="irn", reliability_grid=(1,)).reliability_grid == (None,)
    assert RunConfig(
        model="gaussian-scores", reliability_grid=(5,), threshold=0.0
    ).reliability_grid == (None,)
    assert default_reliability_grid("dirichlet-counts") == (10.0, 20.0, 30.0, 50.0, 100.0)


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(model="nope")
    with pytest.raises(ConfigError):
        RunConfig(model="prirn", num_samples=0)
    with pytest.raises(ConfigError):
        RunConfig(model="pl", reliability_grid=(1.5,))
    with pytest.raises(ConfigError):
        RunConfig(model="prirn", reliability_grid=(-1.0,))
    with pytest.raises(ConfigError):
        RunConfig(model="prirn", k_grid=())
    with pytest.raises(ConfigError):
        RunConfig(model="gaussian-scores")
    with pytest.raises(ConfigError):
        RunConfig(model="dirichlet-counts", dirichlet_prior_alpha=0.0)
    assert RunConfig(model="gaussian-scores", threshold=1.0).threshold == 1.0


@pytest.mark.parametrize(
    "settings",
    [
        dict(model="prirn", reliability_grid=(10, 10)),
        dict(model="prirn", reliability_grid=(10, 10.0)),
        dict(model="pl", reliability_grid=(1, 3, 1)),
        dict(model="irn", k_grid=(2, 2)),
    ],
)
def test_run_config_refuses_repeated_grid_values(settings):
    # a repeated reliability would sample each unit twice and write its
    # metrics file twice; a repeated k would run each top-k kernel twice
    with pytest.raises(ConfigError, match="repeats a value"):
        RunConfig(**settings)


def test_repeated_grid_values_exit_one_before_ingest(tmp_path, capsys):
    out = tmp_path / "out"
    base = ["certainty", "--cases", str(tmp_path / "missing.jsonl"),
            "--annotations", str(tmp_path / "missing.jsonl"), "--out-dir", str(out)]
    assert run_main(base + ["--model", "prirn", "--reliability", "10,10"]) == 1
    assert "reliability grid repeats a value: [10, 10]" in capsys.readouterr().err
    assert run_main(base + ["--model", "irn", "--k-grid", "2,2"]) == 1
    assert "k grid repeats a value: [2, 2]" in capsys.readouterr().err
    # a repeated model would run twice and be listed twice in the manifest
    assert run_main(base + ["--model", "prirn,irn,prirn"]) == 1
    assert "model list repeats a value: ['prirn', 'irn', 'prirn']" in capsys.readouterr().err
    assert not out.exists()


def test_gibbs_iteration_budget_retains_exactly_m():
    config = RunConfig(model="pl", num_samples=250, gibbs_burn_in=100, gibbs_thinning=3)
    assert config.chain.iterations == 100 + 3 * 250
    assert config.chain.num_retained == 250


@pytest.mark.parametrize(
    "setting, value, name",
    [
        ("gibbs_thinning", 0, "thinning"),
        ("gibbs_thinning", -1, "thinning"),
        ("gibbs_burn_in", -1, "burn_in"),
        ("gibbs_burn_in", -5000, "burn_in"),
        ("gibbs_alpha", 0.0, "alpha"),
        ("gibbs_alpha", np.inf, "alpha"),
        ("gibbs_alpha", np.nan, "alpha"),
    ],
)
@pytest.mark.parametrize("model", ["pl", "irn"])
def test_run_config_refuses_a_bad_chain_setting_by_name(model, setting, value, name):
    # the chain's rules live on GibbsConfig; every model's config checks them
    with pytest.raises(ConfigError, match=f"gibbs {name}"):
        RunConfig(model=model, **{setting: value})


@pytest.mark.parametrize(
    "settings",
    [
        ["--model", "prirn", "--reliability", "inf"],
        ["--model", "dirichlet-counts", "--reliability", "inf"],
        ["--model", "dirichlet-counts", "--dirichlet-prior-alpha", "inf"],
        ["--model", "gaussian-scores", "--threshold", "nan"],
        ["--model", "gaussian-scores", "--threshold", "inf"],
        ["--model", "pl", "--gibbs-alpha", "inf"],
        ["--model", "pl", "--gibbs-beta", "2"],
    ],
    ids=lambda settings: " ".join(settings[1:]),
)
def test_non_finite_and_removed_settings_exit_one_before_ingest(tmp_path, capsys, settings):
    # each once crashed mid-run with "samples must be finite", or wrote a
    # NaN that is no JSON; the prior's rate is fixed, so there is no flag
    # to set it
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.jsonl")
    argv = ["evaluate", "--cases", missing, "--annotations", missing,
            "--predictions", missing, "--out-dir", str(out)]
    assert run_main(argv + settings) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_reliability_tags():
    assert reliability_tag(None) == "point"
    assert reliability_tag(20.0) == "20"
    assert reliability_tag(2) == "2"
    assert reliability_tag(12.5) == "12.5"


def test_a_huge_reliability_keeps_a_short_tag(small_dataset, tmp_path):
    # 1e300 once became a 301-digit int, and its file name was too long
    assert cli._int_or_float("1e300") == 1e300
    assert isinstance(cli._int_or_float("1e300"), float)
    assert isinstance(cli._int_or_float(str(2.0**53)), float)
    assert cli._int_or_float(str(2.0**53 - 1)) == 2**53 - 1
    assert reliability_tag(1e300) == "1e+300"
    assert reliability_tag(2**53) == reliability_tag(2.0**53) == "9007199254740992.0"
    assert reliability_tag(2.0**53 - 1) == "9007199254740991"
    cases, annotations, _ = small_dataset
    out = tmp_path / "out"
    argv = ["certainty", "--cases", cases, "--annotations", annotations, "--model", "prirn",
            "--reliability", "1e300", "--samples", "20", "--out-dir", str(out)]
    assert run_main(argv) == 0
    rows = read_report(str(out))["files"]["metrics_prirn_1e+300.jsonl"]
    assert {row["reliability"] for row in rows} == {1e300}


def test_case_seeds_are_stable_and_distinct():
    seed = cli._case_seed(7, "case-1", "pl", "2")
    assert seed == cli._case_seed(7, "case-1", "pl", "2")
    others = {
        cli._case_seed(7, "case-2", "pl", "2"),
        cli._case_seed(7, "case-1", "prirn", "2"),
        cli._case_seed(7, "case-1", "pl", "3"),
        cli._case_seed(8, "case-1", "pl", "2"),
    }
    assert seed not in others
    assert len(others) == 4


# -- run --------------------------------------------------------------------


def test_run_writes_reports_and_loo(small_dataset, tmp_path):
    cases, annotations, predictions = small_dataset
    records = ingest(cases, annotations, predictions)
    out = tmp_path / "out"
    config = RunConfig(model="prirn", reliability_grid=(20.0,), num_samples=200)
    manifest = cli.run(config, records, str(out))
    assert manifest["num_failures"] == 0
    report = read_report(str(out))
    metric_rows = report["files"]["metrics_prirn_20.jsonl"]
    names = {r["metric"] for r in metric_rows}
    assert "annotation_certainty_top1" in names
    assert "ua_top1_accuracy" in names
    assert all(r["model"] == "prirn" and r["reliability"] == 20.0 for r in metric_rows)
    loo_rows = report["files"]["loo.jsonl"]
    assert [r["case_id"] for r in loo_rows] == ["a", "b"]
    assert all(r["value"] is not None for r in loo_rows)
    summary = report["files"]["summary_prirn.jsonl"]
    dataset_metrics = {r["metric"] for r in summary}
    assert "loo_agreement" in dataset_metrics
    hist_rows = [r for r in summary if "histogram_counts" in r]
    assert hist_rows and all(sum(r["histogram_counts"]) == 200 for r in hist_rows)


def test_run_flushes_partial_results_on_case_failure(tmp_path):
    cases = write_lines(
        tmp_path / "c.jsonl",
        [
            {"case_id": "good", "num_classes": 2},
            {"case_id": "silent", "num_classes": 2},
        ],
    )
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [
            {"case_id": "good", "annotator_id": "r", "blocks": [[0]]},
            {"case_id": "silent", "annotator_id": "r", "blocks": []},
        ],
    )
    records = ingest(cases, annotations)
    out = tmp_path / "out"
    config = RunConfig(model="irn")
    manifest = cli.run(config, records, str(out))
    assert manifest["num_failures"] == 1
    report = read_report(str(out))
    assert {r["case_id"] for r in report["files"]["metrics_irn_point.jsonl"]} == {"good"}
    (failure,) = report["files"]["failures_irn.jsonl"]
    assert failure["case_id"] == "silent"
    assert failure["error"] == "AllZeroMassError"


def test_run_round_trip_is_lossless(small_dataset, tmp_path):
    cases, annotations, predictions = small_dataset
    records = ingest(cases, annotations, predictions)
    out = tmp_path / "out"
    cli.run(RunConfig(model="irn"), records, str(out))
    report = read_report(str(out))
    for name, rows in report["files"].items():
        raw = (out / name).read_text().splitlines()
        rebuilt = [json.dumps(r, sort_keys=True) for r in rows]
        assert rebuilt == raw, name


def test_a_bug_in_a_kernel_aborts_the_run(small_dataset, tmp_path, monkeypatch):
    # only data errors become failure rows; a programming error propagates
    cases, annotations, predictions = small_dataset
    records = ingest(cases, annotations, predictions)

    def broken(*args, **kwargs):
        raise TypeError("planted")

    monkeypatch.setattr(metrics, "ua_topk_hits", broken)
    out = tmp_path / "out"
    with pytest.raises(TypeError, match="planted"):
        cli.run(RunConfig(model="irn"), records, str(out))
    assert not (out / "failures_irn.jsonl").exists()


def test_one_class_case_is_a_data_error_for_dirichlet_counts(tmp_path):
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "one", "num_classes": 1}])
    annotations = write_lines(
        tmp_path / "a.jsonl", [{"case_id": "one", "annotator_id": "r", "blocks": [[0]]}]
    )
    config = RunConfig(model="dirichlet-counts", reliability_grid=(10.0,), num_samples=20)
    out = tmp_path / "out"
    manifest = cli.run(config, ingest(cases, annotations), str(out))
    assert manifest["num_failures"] == 1
    (failure,) = read_report(str(out))["files"]["failures_dirichlet-counts.jsonl"]
    assert failure["error"] == "DataError"


def test_partial_risk_map_is_a_case_failure(tmp_path):
    cases = write_lines(
        tmp_path / "c.jsonl",
        [{"case_id": "a", "classes": ["x", "y", "z"], "risk": {"x": 0}}],
    )
    annotations = write_lines(
        tmp_path / "a.jsonl", [{"case_id": "a", "annotator_id": "r", "blocks": [["x"]]}]
    )
    out = tmp_path / "out"
    manifest = cli.run(RunConfig(model="irn"), ingest(cases, annotations), str(out))
    assert manifest["num_failures"] == 1
    (failure,) = read_report(str(out))["files"]["failures_irn.jsonl"]
    assert failure["error"] == "MissingRiskMappingError"


def test_gaussian_scores_need_scores_on_every_annotation(tmp_path):
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}])
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [{"case_id": "a", "annotator_id": "r", "blocks": [[0]], "score": 1.0},
         {"case_id": "a", "annotator_id": "s", "blocks": [[0]]}],
    )
    records = ingest(cases, annotations)
    config = RunConfig(model="gaussian-scores", threshold=0.5)
    manifest = cli.run(config, records, str(tmp_path / "out"))
    assert manifest["num_failures"] == 1


def test_worker_pool_output_matches_serial(small_dataset, tmp_path):
    cases, annotations, predictions = small_dataset
    records = ingest(cases, annotations, predictions)
    config = RunConfig(model="prirn", reliability_grid=(10.0, 30.0), num_samples=100)
    cli.run(config, records, str(tmp_path / "serial"), workers=1)
    cli.run(config, records, str(tmp_path / "pooled"), workers=4)
    serial = sorted((tmp_path / "serial").iterdir())
    pooled = sorted((tmp_path / "pooled").iterdir())
    assert [p.name for p in serial] == [p.name for p in pooled]
    for a, b in zip(serial, pooled):
        assert a.read_bytes() == b.read_bytes(), a.name


_TEST_PID = os.getpid()
_real_compute_case = cli._compute_case


def _die_in_a_worker_on_case_b(payload):
    # Module-level, so the pool pickles it by name; a forked worker finds it,
    # and the patch on plaus.cli, in its copy of this process.
    if payload[0].case_id == "b" and os.getpid() != _TEST_PID:
        os._exit(1)
    return _real_compute_case(payload)


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="the patch reaches the workers only through fork",
)
def test_a_dead_worker_costs_no_case(small_dataset, tmp_path, monkeypatch, capsys):
    cases, annotations, predictions = small_dataset
    argv = ["evaluate", "--cases", cases, "--annotations", annotations,
            "--predictions", predictions, "--model", "prirn,irn",
            "--reliability", "10,30", "--samples", "50"]
    assert run_main(argv + ["--workers", "1", "--out-dir", str(tmp_path / "serial")]) == 0
    monkeypatch.setattr(cli, "_compute_case", _die_in_a_worker_on_case_b)
    assert run_main(argv + ["--workers", "2", "--out-dir", str(tmp_path / "pooled")]) == 0
    assert "worker process died" in capsys.readouterr().err
    serial = sorted((tmp_path / "serial").iterdir())
    pooled = sorted((tmp_path / "pooled").iterdir())
    assert [p.name for p in serial] == [p.name for p in pooled]
    for a, b in zip(serial, pooled):
        assert a.read_bytes() == b.read_bytes(), a.name


# -- command line -----------------------------------------------------------


def run_main(argv):
    return main(argv)


def test_certainty_command_exit_zero(small_dataset, tmp_path):
    cases, annotations, _ = small_dataset
    code = run_main(
        [
            "certainty",
            "--cases", cases,
            "--annotations", annotations,
            "--model", "irn",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_evaluate_requires_predictions_for_every_case(small_dataset, tmp_path):
    cases, annotations, _ = small_dataset
    partial = write_lines(
        tmp_path / "partial.jsonl", [{"case_id": "a", "ranked_classes": [0]}]
    )
    code = run_main(
        [
            "evaluate",
            "--cases", cases,
            "--annotations", annotations,
            "--predictions", partial,
            "--model", "irn",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 2


def test_aggregate_writes_posterior_summaries(small_dataset, tmp_path):
    cases, annotations, _ = small_dataset
    code = run_main(
        [
            "aggregate",
            "--cases", cases,
            "--annotations", annotations,
            "--model", "prirn",
            "--reliability", "20",
            "--samples", "100",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    rows = [
        json.loads(line)
        for line in (tmp_path / "out" / "aggregate_prirn_20.jsonl").read_text().splitlines()
    ]
    assert [r["case_id"] for r in rows] == ["a", "b"]
    for row in rows:
        assert len(row["mean"]) == 3
        np.testing.assert_allclose(sum(row["mean"]), 1.0, atol=1e-6)


def test_aggregate_writes_no_file_for_the_score_model(tmp_path):
    # gaussian-scores has no posterior: aggregate writes its metrics but no
    # empty aggregate file, and the manifest lists none
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "a", "num_classes": 2}])
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [{"case_id": "a", "annotator_id": "r", "blocks": [[0]], "score": 0.8},
         {"case_id": "a", "annotator_id": "s", "blocks": [[1]], "score": 0.3}],
    )
    out = tmp_path / "out"
    argv = ["aggregate", "--cases", cases, "--annotations", annotations,
            "--model", "prirn,gaussian-scores", "--reliability", "20", "--threshold", "0.5",
            "--samples", "50", "--out-dir", str(out)]
    assert run_main(argv) == 0
    listed = {name for m in read_report(str(out))["manifest"]["models"] for name in m["files"]}
    written = set(os.listdir(out)) - {"manifest.json"}
    assert listed == written
    assert "aggregate_prirn_20.jsonl" in written
    assert "metrics_gaussian-scores_point.jsonl" in written
    assert not [name for name in written if name.startswith("aggregate_gaussian-scores")]


def test_aggregate_samples_each_unit_once(small_dataset, tmp_path, monkeypatch):
    # metrics and the posterior summary of a (case, reliability) unit come
    # from one posterior draw
    cases, annotations, _ = small_dataset
    repetitions = []
    real_gibbs_run = cli.gibbs_run

    def counting_gibbs_run(rankings, config):
        repetitions.append(config.repetitions)
        return real_gibbs_run(rankings, config)

    monkeypatch.setattr(cli, "gibbs_run", counting_gibbs_run)
    code = run_main(
        [
            "aggregate",
            "--cases", cases,
            "--annotations", annotations,
            "--model", "pl",
            "--reliability", "1,2",
            "--samples", "20",
            "--gibbs-burn-in", "10",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert sorted(repetitions) == [1, 1, 2, 2]  # 2 cases x 2 reliabilities


def test_a_pl_unit_runs_the_config_chain_at_its_repetitions_and_seed(
    small_dataset, tmp_path, monkeypatch
):
    cases, annotations, _ = small_dataset
    calls = []
    real_gibbs_run = cli.gibbs_run

    def recording_gibbs_run(rankings, config):
        calls.append(config)
        return real_gibbs_run(rankings, config)

    monkeypatch.setattr(cli, "gibbs_run", recording_gibbs_run)
    config = RunConfig(
        model="pl", reliability_grid=(1, 3), num_samples=20, gibbs_burn_in=10,
        gibbs_thinning=2, gibbs_alpha=0.5, base_seed=4,
    )
    cli.run(config, ingest(cases, annotations), str(tmp_path / "out"))
    expected = [
        replace(config.chain, repetitions=r, seed=_case_seed(4, case_id, "pl", str(r)))
        for case_id in ("a", "b")
        for r in (1, 3)
    ]
    assert calls == expected
    assert {(c.alpha, c.iterations, c.burn_in, c.thinning) for c in calls} == {(0.5, 50, 10, 2)}


def test_evaluate_reports_an_oversized_tie_as_a_case_failure(tmp_path):
    k = MAX_BLOCK_SIZE + 3
    cases = write_lines(tmp_path / "c.jsonl", [{"case_id": "wide", "num_classes": k}])
    annotations = write_lines(
        tmp_path / "a.jsonl",
        [
            {
                "case_id": "wide",
                "annotator_id": "r",
                "blocks": [list(range(MAX_BLOCK_SIZE + 1))],
            }
        ],
    )
    predictions = write_lines(
        tmp_path / "p.jsonl", [{"case_id": "wide", "ranked_classes": [0, 1]}]
    )
    out = tmp_path / "out"
    code = run_main(
        [
            "evaluate",
            "--cases", cases,
            "--annotations", annotations,
            "--predictions", predictions,
            "--model", "pl",
            "--reliability", "1",
            "--out-dir", str(out),
        ]
    )
    assert code == 2
    (failure,) = read_report(str(out))["files"]["failures_pl.jsonl"]
    assert failure["case_id"] == "wide"
    assert failure["error"] == "BlockTooLargeError"
    # the row alone reruns the unit
    tag = reliability_tag(failure["reliability"])
    assert failure["seed"] == _case_seed(0, "wide", "pl", tag)


def test_evaluate_selects_top_classes_once_per_unit(small_dataset, tmp_path, monkeypatch):
    # every top-k kernel of a (case, reliability) unit slices one selection
    cases, annotations, predictions = small_dataset
    depths = []
    real_top_indices = metrics._top_indices

    def counting_top_indices(arr, k):
        depths.append(k)
        return real_top_indices(arr, k)

    monkeypatch.setattr(metrics, "_top_indices", counting_top_indices)
    code = run_main(
        [
            "evaluate",
            "--cases", cases,
            "--annotations", annotations,
            "--predictions", predictions,
            "--model", "prirn",
            "--reliability", "1,2",
            "--samples", "20",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert depths == [3] * 4  # 2 cases x 2 reliabilities, top-3 certainty


def test_bad_config_exits_one(small_dataset, tmp_path):
    cases, annotations, _ = small_dataset
    base = ["certainty", "--cases", cases, "--annotations", annotations,
            "--out-dir", str(tmp_path / "out")]
    assert run_main(base + ["--model", "bogus"]) == 1
    assert run_main(base + ["--model", ","]) == 1
    assert run_main(base + ["--model", "gaussian-scores"]) == 1
    assert run_main(base + ["--model", "irn", "--k-grid", "zero"]) == 1
    assert run_main(base + ["--model", "irn", "--workers", "0"]) == 1
    missing = ["certainty", "--cases", str(tmp_path / "missing.jsonl"),
               "--annotations", annotations, "--out-dir", str(tmp_path / "out")]
    assert run_main(missing + ["--model", "irn", "--workers", "0"]) == 1


def test_a_bad_config_for_any_model_exits_one_before_any_work(small_dataset, tmp_path):
    cases, annotations, _ = small_dataset
    out = tmp_path / "out"
    # prirn is valid; gaussian-scores without --threshold is not
    code = run_main(
        ["certainty", "--cases", cases, "--annotations", annotations,
         "--model", "prirn,gaussian-scores", "--samples", "20", "--out-dir", str(out)]
    )
    assert code == 1
    assert not out.exists() or not any(out.iterdir())
    # a bad flag is a config error even when an input file is missing
    code = run_main(
        ["certainty", "--cases", str(tmp_path / "missing.jsonl"), "--annotations", annotations,
         "--model", "irn", "--k-grid", "zero", "--out-dir", str(out)]
    )
    assert code == 1


def test_point_models_ignore_the_reliability_grid(small_dataset, tmp_path):
    cases, annotations, _ = small_dataset
    out = tmp_path / "out"
    code = run_main(
        ["certainty", "--cases", cases, "--annotations", annotations,
         "--model", "irn,prirn", "--reliability", "10", "--samples", "20",
         "--out-dir", str(out)]
    )
    assert code == 0
    files = read_report(str(out))["files"]
    assert {"metrics_irn_point.jsonl", "metrics_prirn_10.jsonl"} <= set(files)
    assert {r["reliability"] for r in files["metrics_irn_point.jsonl"]} == {None}
    assert {r["reliability"] for r in files["metrics_prirn_10.jsonl"]} == {10}


def test_evaluate_pools_risk_levels_once_per_unit(tmp_path, monkeypatch):
    # risk certainty, expected risk and risk match of a (case, reliability)
    # unit come from one pooling of its samples by risk level
    calls = []
    real_risk_pass = metrics._risk_pass

    def counting_risk_pass(samples, class_space):
        calls.append(samples.samples.shape)
        return real_risk_pass(samples, class_space)

    monkeypatch.setattr(metrics, "_risk_pass", counting_risk_pass)
    code = run_main(
        [
            "evaluate",
            "--cases", str(DATA / "derm_cases.jsonl"),
            "--annotations", str(DATA / "derm_annotations.jsonl"),
            "--predictions", str(DATA / "derm_predictions_b.jsonl"),
            "--model", "irn,prirn",
            "--reliability", "10,20",
            "--samples", "20",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    assert calls == [(1, 8), (20, 8), (20, 8)]  # one derm case: irn, prirn x 2
    rows = read_report(str(tmp_path / "out"))["files"]["metrics_prirn_10.jsonl"]
    assert {"risk_certainty", "expected_risk_mean", "expected_risk_min",
            "expected_risk_max", "ua_risk_match"} <= {r["metric"] for r in rows}


def _evaluate_high_risk_case(tmp_path):
    # every ranked class is high risk, so each sample's expected risk lies
    # near 2, past the [0, 1] range of the other metrics' histograms
    cases = write_lines(
        tmp_path / "cases.jsonl",
        [{"case_id": "h", "classes": ["a", "b", "c"], "risk": {"a": 2, "b": 2, "c": 0}}],
    )
    annotations = write_lines(
        tmp_path / "annotations.jsonl",
        [
            {"case_id": "h", "annotator_id": f"r{i}", "blocks": blocks}
            for i, blocks in enumerate([[["a"], ["b"]], [["b"]], [["a", "b"]]])
        ],
    )
    predictions = write_lines(tmp_path / "predictions.jsonl", [{"case_id": "h", "ranked_classes": ["a"]}])
    out = tmp_path / "out"
    code = run_main(
        ["evaluate", "--cases", cases, "--annotations", annotations, "--predictions", predictions,
         "--model", "prirn,pl", "--samples", "200", "--out-dir", str(out)]
    )
    assert code == 0
    return read_report(str(out))["files"]


def test_expected_risk_histograms_hold_every_sample_of_a_high_risk_case(tmp_path):
    files = _evaluate_high_risk_case(tmp_path)
    for model in ("prirn", "pl"):
        rows = [r for r in files[f"summary_{model}.jsonl"] if r["metric"] == "expected_risk_mean"]
        assert len(rows) == len(default_reliability_grid(model))
        for row in rows:
            assert row["mean"] > 1.0
            assert sum(row["histogram_counts"]) == 200
            assert row["histogram_edges"][0] == 0.0 and row["histogram_edges"][-1] == 2.0


def test_expected_risk_never_reads_above_the_top_level(tmp_path):
    # PrIRN rows may sum to 1 + 1 ulp, which weighted 2 by 2 gave
    # 2.0000000000000004 at every reliability of this case
    files = _evaluate_high_risk_case(tmp_path)
    risk_rows = [
        row
        for name, rows in files.items()
        if name.startswith("metrics_")
        for row in rows
        if row["metric"].startswith("expected_risk_")
    ]
    assert {r["model"] for r in risk_rows} == {"prirn", "pl"}
    assert len(risk_rows) == 3 * 10
    assert max(r["value"] for r in risk_rows) == 2.0
    for model in ("prirn", "pl"):
        for row in files[f"summary_{model}.jsonl"]:
            if row["metric"] == "expected_risk_mean":
                assert row["mean"] <= 2.0
                assert sum(row["histogram_counts"]) == row["M"] == 200


def test_bad_data_exits_two(tmp_path):
    cases = tmp_path / "cases.jsonl"
    cases.write_text("{not json\n")
    annotations = write_lines(tmp_path / "a.jsonl", [])
    code = run_main(
        [
            "certainty",
            "--cases", str(cases),
            "--annotations", str(annotations),
            "--model", "irn",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert run_main(
        [
            "certainty",
            "--cases", str(tmp_path / "missing.jsonl"),
            "--annotations", str(annotations),
            "--model", "irn",
            "--out-dir", str(tmp_path / "out"),
        ]
    ) == 2


def test_output_dir_env_var(small_dataset, tmp_path, monkeypatch):
    cases, annotations, _ = small_dataset
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    code = run_main(
        ["certainty", "--cases", cases, "--annotations", annotations, "--model", "irn"]
    )
    assert code == 0
    assert target.is_dir()


def test_selfcheck_passes_and_hook_fails_it(capsys, monkeypatch):
    assert run_main(["selfcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    monkeypatch.setattr(cli, "point_mass_reduction_gap", lambda seed, trials: 0.01)
    assert run_main(["selfcheck", "--seed", "0"]) == 3
    assert "FAIL reduction_law" in capsys.readouterr().out


def test_simulate_writes_a_dataset(tmp_path):
    out = tmp_path / "sim"
    code = run_main(
        [
            "simulate",
            "--classes", "4",
            "--cases", "5",
            "--annotators", "3",
            "--blocks", "1,1",
            "--seed", "11",
            "--predictions-from-truth",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    cases = [json.loads(l) for l in (out / "cases.jsonl").read_text().splitlines()]
    annotations = [
        json.loads(l) for l in (out / "annotations.jsonl").read_text().splitlines()
    ]
    truth = [json.loads(l) for l in (out / "truth.jsonl").read_text().splitlines()]
    predictions = [
        json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()
    ]
    assert len(cases) == 5 and len(truth) == 5 and len(predictions) == 5
    assert len(annotations) == 15
    for pred, true in zip(predictions, truth):
        order = np.argsort(-np.array(true["true_lambda"]), kind="stable")
        assert pred["ranked_classes"] == order[:4].tolist()
    # the simulated files feed straight back into evaluation
    code = run_main(
        [
            "evaluate",
            "--cases", str(out / "cases.jsonl"),
            "--annotations", str(out / "annotations.jsonl"),
            "--predictions", str(out / "predictions.jsonl"),
            "--model", "irn",
            "--out-dir", str(tmp_path / "eval"),
        ]
    )
    assert code == 0


def test_simulate_validation(tmp_path, capsys):
    assert run_main(["simulate", "--classes", "1", "--out-dir", str(tmp_path)]) == 1
    for flag, value in (("--blocks", "1,x"), ("--true-lambda", "1,2,z")):
        argv = ["simulate", "--classes", "3", flag, value, "--out-dir", str(tmp_path)]
        assert run_main(argv) == 1
        assert f"argument {flag}: bad" in capsys.readouterr().err
    assert (
        run_main(
            [
                "simulate",
                "--classes", "3",
                "--true-lambda", "0.5,0.5",
                "--out-dir", str(tmp_path),
            ]
        )
        == 1
    )
    assert (
        run_main(
            ["simulate", "--classes", "3", "--blocks", "2,2", "--out-dir", str(tmp_path)]
        )
        == 1
    )
    # a Dirichlet concentration of 0 draws all-zero weights and a negative
    # one fails inside numpy; both are refused before anything is written
    capsys.readouterr()
    out = tmp_path / "alpha"
    for alpha in ("0", "-1", "inf"):
        argv = ["simulate", "--classes", "3", "--lambda-alpha", alpha, "--out-dir", str(out)]
        assert run_main(argv) == 1
        assert "--lambda-alpha must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "settings",
    [["--true-lambda", "1,inf,2"], ["--true-lambda", "1,nan,2"], ["--sharpness", "inf"]],
    ids=lambda settings: " ".join(settings),
)
def test_simulate_refuses_non_finite_weights_and_sharpness(tmp_path, capsys, settings):
    # each once exited 0: the weights wrote Infinity or NaN into truth.jsonl,
    # and an infinite sharpness gave every annotator the same ranking
    out = tmp_path / "sim"
    argv = ["simulate", "--classes", "3", "--cases", "1", "--out-dir", str(out)]
    assert run_main(argv + settings) == 1
    assert "must be positive and finite" in capsys.readouterr().err
    assert not (out / "truth.jsonl").exists()


def test_report_writers_refuse_nan(tmp_path):
    # NaN and Infinity are not JSON
    with pytest.raises(ValueError):
        cli._write_rows(str(tmp_path / "rows.jsonl"), [{"value": float("nan")}])
    with pytest.raises(ValueError):
        cli._write_manifest(str(tmp_path), sharpness=np.float64("inf"))
