"""The benchmark's workloads: seeded input generators, CLI argv and shapes.

Every input file is drawn from the workload seed alone (numpy plus
``plaus.sim_oracle.simulate_annotations``), so one seed gives byte-identical
inputs. The program under test sees only the JSONL files.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from plaus.sim_oracle import SimSpec, simulate_annotations


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    ``options`` are CLI flags besides the file and output arguments; the
    size fields (``num_cases``, ``samples``, ``burn_in``) may be shrunk with
    :func:`dataclasses.replace` for quick tests.
    """

    name: str
    why: str
    command: str
    models: tuple[str, ...]
    num_cases: int
    num_classes: int
    samples: int
    burn_in: int
    reliability: tuple | None
    shape: str
    generate: Callable = field(repr=False)

    @property
    def with_predictions(self) -> bool:
        return self.command == "evaluate"

    def argv(self, input_dir: str, out_dir: str, seed: int) -> list[str]:
        argv = [
            self.command,
            "--cases", os.path.join(input_dir, "cases.jsonl"),
            "--annotations", os.path.join(input_dir, "annotations.jsonl"),
        ]
        if self.with_predictions:
            argv += ["--predictions", os.path.join(input_dir, "predictions.jsonl")]
        argv += ["--model", ",".join(self.models)]
        if self.reliability is not None:
            argv += ["--reliability", ",".join(str(r) for r in self.reliability)]
        argv += [
            "--samples", str(self.samples),
            "--gibbs-burn-in", str(self.burn_in),
            "--seed", str(seed),
            "--workers", "1",
            "--out-dir", out_dir,
        ]
        return argv

    def write_inputs(self, input_dir: str, seed: int) -> None:
        """Generate and write cases, annotations and (for evaluate) predictions."""
        cases, annotations, predictions = self.generate(self, np.random.default_rng(seed))
        os.makedirs(input_dir, exist_ok=True)
        files = {"cases.jsonl": cases, "annotations.jsonl": annotations}
        if self.with_predictions:
            files["predictions.jsonl"] = predictions
        for name, rows in files.items():
            with open(os.path.join(input_dir, name), "w", encoding="utf-8", newline="\n") as handle:
                for row in rows:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")


def _draw(rng, lam, block_sizes) -> list[list[int]]:
    """One annotator's blocks, from the ranking model on weights ``lam``."""
    spec = SimSpec(
        true_lambda=tuple(np.maximum(lam, 1e-12)),
        num_annotators=1,
        block_sizes=tuple(block_sizes),
        seed=int(rng.integers(2**63)),
    )
    return [sorted(block) for block in simulate_annotations(spec)[0].blocks]


def _noisy_order(rng, lam, depth: int) -> list[int]:
    """A prediction: the true weights blurred by log-normal noise, top ``depth``."""
    noisy = lam * rng.lognormal(0.0, 0.5, size=lam.size)
    return [int(c) for c in np.argsort(-noisy, kind="stable")[:depth]]


def _pl_panel(w: Workload, rng):
    cases, annotations, predictions = [], [], []
    for i in range(w.num_cases):
        case_id = f"case-{i:04d}"
        lam = rng.dirichlet(np.ones(w.num_classes))
        cases.append({"case_id": case_id, "num_classes": w.num_classes})
        for a in range(2):
            annotations.append(
                {"case_id": case_id, "annotator_id": f"a{a}", "blocks": _draw(rng, lam, (1, 1))}
            )
        predictions.append({"case_id": case_id, "ranked_classes": _noisy_order(rng, lam, 3)})
    return cases, annotations, predictions


# Top-block tie sizes, cycled over cases. Sizes up to 10 run the plain-float
# subset kernel, 11 runs the layered one.
TIE_SIZES = (4, 8, 10, 11)


def _pl_ties(w: Workload, rng):
    cases, annotations = [], []
    for i in range(w.num_cases):
        case_id = f"case-{i:04d}"
        lam = rng.dirichlet(np.ones(w.num_classes))
        tie = TIE_SIZES[i % len(TIE_SIZES)]
        cases.append({"case_id": case_id, "num_classes": w.num_classes})
        for a in range(3):
            annotations.append(
                {"case_id": case_id, "annotator_id": f"a{a}", "blocks": _draw(rng, lam, (tie,))}
            )
    return cases, annotations, None


def _derm(w: Workload, rng):
    """Dermatology shape: a large named label space with risk levels.

    Each case concentrates its weight on a handful of candidate conditions;
    each of three annotators ranks one to four of them, tying two with
    probability 0.2.
    """
    k = w.num_classes
    names = [f"condition-{j:03d}" for j in range(k)]
    risk = rng.choice(3, size=k, p=[0.7, 0.2, 0.1]).tolist()
    cases, annotations, predictions = [], [], []
    for i in range(w.num_cases):
        case_id = f"lesion-{i:05d}"
        lam = np.full(k, 1e-4)
        candidates = rng.choice(k, size=8, replace=False)
        lam[candidates] = rng.dirichlet(np.ones(8))
        cases.append({"case_id": case_id, "classes": names, "risk": risk})
        for a in range(3):
            ranked = int(rng.integers(1, 5))
            sizes = [1] * ranked
            if ranked >= 2 and rng.random() < 0.2:
                tie_at = int(rng.integers(0, ranked - 1))
                sizes[tie_at : tie_at + 2] = [2]
            blocks = _draw(rng, lam, sizes)
            annotations.append(
                {
                    "case_id": case_id,
                    "annotator_id": f"rater-{a}",
                    "blocks": [[names[c] for c in block] for block in blocks],
                }
            )
        predictions.append(
            {"case_id": case_id, "ranked_classes": [names[c] for c in _noisy_order(rng, lam, 5)]}
        )
    return cases, annotations, predictions


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pl-panel",
            why="Criterion 08's shape scaled down: per-copy Python work in the Gibbs "
            "sigma/tau updates dominates and no tied block builds a subset table.",
            command="evaluate",
            models=("pl",),
            num_cases=2,
            num_classes=4,
            samples=200,
            burn_in=100,
            reliability=None,
            shape="K=4 unnamed classes; 2 annotators with blocks 1,1; top-3 predictions; "
            "default repetition grid 1,2,3,5,10",
            generate=_pl_panel,
        ),
        Workload(
            name="pl-ties",
            why="Large tied blocks: the subset table (_table_values) dominates, and "
            "aggregate samples every unit twice.",
            command="aggregate",
            models=("pl",),
            num_cases=4,
            num_classes=12,
            samples=40,
            burn_in=20,
            reliability=(1,),
            shape="K=12 unnamed classes; 3 annotators whose single ranked block is a tie "
            "of 4, 8, 10 or 11 classes, cycling over cases",
            generate=_pl_ties,
        ),
        Workload(
            name="derm-mc",
            why="Real dermatology shape: full-row argsort of (M, 400) sample matrices in "
            "metrics and in the CLI's certainty code; Gibbs never runs.",
            command="evaluate",
            models=("prirn", "dirichlet-counts"),
            num_cases=1,
            num_classes=400,
            samples=1000,
            burn_in=500,
            reliability=None,
            shape="K=400 named classes with risk levels; 3 annotators ranking 1-4 classes, "
            "occasional 2-way tie; top-5 predictions by name; default gamma grids",
            generate=_derm,
        ),
    )
}
