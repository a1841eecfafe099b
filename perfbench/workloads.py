"""The benchmark's workloads.

Each workload builds its inputs from the seed (`setup`), runs one timed
iteration of the copaug loop on them (`iterate`) and checks the outputs
(`check`).  Every call into copaug goes through a module attribute such
as `dataset.save_profiles`, so the tracer's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from copaug import dataset, emulator, evaluation, experiment, multicop, radiation, rng


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable      # (seed, work_dir) -> inputs
    iterate: Callable    # (inputs, out_dir) -> output
    check: Callable      # (inputs, output, first output or None) -> list of problems


@dataclass(frozen=True)
class Splits:
    seed: int
    grid: dataset.LevelGrid
    train: dataset.ProfileSet
    val: dataset.ProfileSet
    test: dataset.ProfileSet


def _radiated_splits(seed: int, n_profiles: int, n_levels: int) -> Splits:
    grid = dataset.LevelGrid(n_levels)
    data = dataset.generate_surrogate(n_profiles, grid, rng.derive_seed(seed, "surrogate"))
    parts = dataset.split_shuffle(data, dataset.SplitSpec(0.4, 0.2, 0.4, rng.derive_seed(seed, "split")))
    train, val, test = (radiation.radiate_set(part) for part in parts)
    return Splits(seed, grid, train, val, test)


def _train_and_score(s: Splits, synth, hidden, epochs: int, batch_size: int, label: str) -> float:
    """Train on real plus synthetic rows for exactly `epochs` epochs; test MAE.

    patience == epochs switches early stopping off, so the amount of
    training work does not depend on the seed.
    """
    x = np.vstack([dataset.flatten(s.train, "inputs").values, dataset.flatten(synth, "inputs").values])
    y = np.vstack([dataset.flatten(s.train, "outputs").values, dataset.flatten(synth, "outputs").values])
    model = emulator.init_mlp(emulator.MLPLayout(x.shape[1], hidden, y.shape[1]),
                              rng.derive_seed(s.seed, label, "init"))
    cfg = emulator.TrainConfig(epochs=epochs, patience=epochs, batch_size=batch_size,
                               seed=rng.derive_seed(s.seed, label, "shuffle"))
    model = emulator.train(model, x, y, dataset.flatten(s.val, "inputs").values,
                           dataset.flatten(s.val, "outputs").values, cfg)
    pred = emulator.predict_set(model, s.test)
    return evaluation.error_metrics(dataset.flatten(s.test, "outputs").values, pred.values).mae


# ---------------------------------------------------------------------------
# desk-pipeline: run_pipeline in the shape of the acceptance DESK_CONFIG.
# ---------------------------------------------------------------------------

DESK_LEVELS = 20
DESK_PROFILES = 2500
DESK_EPOCHS = 60


def desk_setup(seed: int, work_dir: Path):
    grid = dataset.LevelGrid(DESK_LEVELS)
    data = dataset.generate_surrogate(DESK_PROFILES, grid, rng.derive_seed(seed, "surrogate"))
    path = work_dir / "profiles.csv"
    dataset.save_profiles(path, data)
    return experiment.make_config({
        "master_seed": seed,
        "data": {"path": str(path), "n_profiles": DESK_PROFILES, "n_levels": DESK_LEVELS},
        "copulas": {"kinds": ["gaussian"]},
        "augmentation": {"factors": [10], "generation_repeats": 1},
        "training": {"repeats": 1, "hidden": [64, 64], "epochs": DESK_EPOCHS,
                     "patience": DESK_EPOCHS, "batch_size": 128},
        "evaluation": {"projection_iterations": 100, "depth_curves": 90},
    })


def desk_iterate(cfg, out_dir: Path):
    return experiment.run_pipeline(cfg, out_dir)


def desk_check(cfg, result, first) -> list:
    problems = [f"case {case} failed: {reason}" for case, reason in result.failures]
    cases = {row[0] for row in result.rows}
    if {"baseline", "gaussian-10x"} <= cases:
        base, aug = result.median_mae("baseline"), result.median_mae("gaussian-10x")
        if not aug < base:
            problems.append(f"augmented median MAE {aug!r} is not below the baseline's {base!r}")
    else:
        problems.append(f"result rows cover cases {sorted(cases)}")
    if first is not None and result.rows != first.rows:
        problems.append("result rows differ from the first iteration's")
    return problems


# ---------------------------------------------------------------------------
# vine-30: truncated regular-vine fit and simulation at 30 levels.
# ---------------------------------------------------------------------------

VINE_LEVELS = 30
VINE_PROFILES = 2500
VINE_GENERATIONS = 3
VINE_EPOCHS = 60


@dataclass(frozen=True)
class VineOutput:
    model: multicop.SynthModel
    n_synth: int


def vine_setup(seed: int, work_dir: Path) -> Splits:
    return _radiated_splits(seed, VINE_PROFILES, VINE_LEVELS)


def vine_iterate(s: Splits, out_dir: Path) -> VineOutput:
    """One fit, then several synthetic generations from it, as run_pipeline
    does with `generation_repeats`."""
    model = multicop.fit_synth_model(s.train, multicop.CopulaSpec(kind="vine"))
    for gen in range(VINE_GENERATIONS):
        synth, _ = multicop.sample_synth_model(model, len(s.train), rng.derive_seed(s.seed, "synth", gen))
        synth = radiation.radiate_set(synth)
        _train_and_score(s, synth, (64, 64), VINE_EPOCHS, 128, f"gen{gen}")
    return VineOutput(model, len(s.train))


def vine_check(s: Splits, out: VineOutput, first) -> list:
    vine = out.model.vine
    if vine is None:
        return [f"fitted a {out.model.kind} model instead of a vine"]
    problems = []
    if not (len(out.model.active) > multicop.TRUNCATION_FREE_LIMIT
            and vine.truncation == multicop.DEFAULT_TRUNCATION):
        problems.append(f"{len(out.model.active)} active features gave truncation {vine.truncation}")
    if first is None:
        # The call sample_synth_model made for generation 0; later iterations
        # must fit the same tree 1.
        u = multicop.simulate_vine(vine, out.n_synth, rng.derive_seed(s.seed, "synth", 0))
        if not (u.min() > 0.0 and u.max() < 1.0):
            problems.append(f"simulated uniforms span [{u.min()!r}, {u.max()!r}]")
    else:
        tree1 = [(e.cond, e.copula) for e in vine.trees[0]]
        if tree1 != [(e.cond, e.copula) for e in first.model.vine.trees[0]]:
            problems.append("tree 1 differs from the first iteration's")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-pipeline",
            "the run researchers launch: run_pipeline at 20 levels with a 64x64 MLP; "
            "emulator training on small matrices dominates",
            desk_setup, desk_iterate, desk_check,
        ),
        Workload(
            "vine-30",
            "truncated regular vine on 72 active features: Kendall-tau structure search, "
            "pair fits and h-inverse chains dominate",
            vine_setup, vine_iterate, vine_check,
        ),
    )
}
