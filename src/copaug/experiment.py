"""Experiment configuration and pipeline orchestration.

One JSON config drives the whole experiment; every physics and training
constant appears in it with its default value.  Per-run seeds derive
from the master seed, the case label and the repeat indices, so cases
are isolated: changing one case's settings never perturbs another
case's random streams.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import rng
from .bicop import Family
from .dataset import (
    LevelGrid,
    ProfileSet,
    SplitSpec,
    generate_surrogate,
    load_profiles,
    split_shuffle,
    write_lines,
    write_table,
)
from .emulator import MLPLayout, MLPModel, TrainConfig, init_mlp, predict_set, train
from .evaluation import (
    error_metrics,
    random_projection_report,
    write_depth_report,
    write_level_quantiles,
    write_projection_report,
)
from .multicop import KINDS, CopulaSpec, fit_synth_model, sample_synth_model
from .radiation import RadiationConstants, radiate_set


def _field_defaults(stage) -> dict:
    """The default of each field of the stage type `stage`, bar the seed the pipeline derives."""
    return {f.name: f.default for f in fields(stage) if f.name != "seed"}


# A setting that a stage type holds takes the type's default, so a caller that
# builds the type directly gets the same value.
_DEFAULTS = {
    "master_seed": 1,
    "data": {"path": None, "n_profiles": 25000, "n_levels": 137},
    "split": _field_defaults(SplitSpec),
    "radiation": _field_defaults(RadiationConstants),
    "copulas": {
        "kinds": list(KINDS),
        "catalogue": [f.value for f in Family if f in CopulaSpec.catalogue],
        "truncation": CopulaSpec.truncation,
    },
    "augmentation": {"factors": [1, 5, 10], "generation_repeats": 10},
    "training": {"repeats": 10, "hidden": list(MLPLayout.hidden), **_field_defaults(TrainConfig)},
    "evaluation": {"projection_iterations": 100, "depth_curves": 90},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's settings, each stage's built and checked once by `make_config`.

    `raw` is the merged JSON document that `config_hash` digests, a copy that
    shares no list or object with the defaults or the caller's overrides.
    """

    raw: dict
    master_seed: int
    data_path: str | None
    n_profiles: int
    grid: LevelGrid
    split: SplitSpec
    radiation: RadiationConstants
    catalogue: frozenset
    truncation: int | None
    copulas: tuple  # one CopulaSpec per configured kind, in order
    factors: tuple
    generation_repeats: int
    training_repeats: int
    layout: MLPLayout  # 3 * n_levels inputs, the configured hidden widths, n_levels + 1 outputs
    training: TrainConfig  # seed 0; train_emulator sets each run's shuffle seed
    projection_iterations: int
    depth_curves: int

    def config_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.raw, sort_keys=True).encode("utf-8")).hexdigest()


# JSON types a set value may have, by its default's type (its items' for a list).
_JSON_TYPES = {dict: ((dict,), "an object"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string")}
_NULLABLE = {"data.path": str, "copulas.truncation": int}


def _check_type(key: str, default, val) -> None:
    """Raise ValueError naming `key` unless `val` has its default's JSON type."""
    listed = isinstance(default, list)
    types, name = _JSON_TYPES[_NULLABLE.get(key) or type(default[0] if listed else default)]
    if listed and not (type(val) is list and all(type(v) in types for v in val)):
        raise ValueError(f"config: {key}: expected a list of {name.split()[1]}s")
    if not listed and not (type(val) in types or (val is None and key in _NULLABLE)):
        raise ValueError(f"config: {key}: expected {name}{' or null' * (key in _NULLABLE)}")
    if type(val) is float and not math.isfinite(val):
        raise ValueError(f"config: {key}: expected a finite number")


def _merged(defaults: dict, overrides, path: str = "") -> dict:
    _check_type(path[:-1] or "top level", defaults, overrides)
    out = {}
    for key, default in defaults.items():
        if key not in overrides:
            out[key] = default
        elif isinstance(default, dict):
            out[key] = _merged(default, overrides[key], f"{path}{key}.")
        else:
            _check_type(path + key, default, overrides[key])
            out[key] = overrides[key]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"config: unknown keys: {sorted(path + k for k in unknown)}")
    return out


def _build(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError re-raised as `config: <section>: ...`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config: {section}: {exc}") from None


def _count(section: str, key: str, value: int, low: int) -> int:
    """`value`, or ValueError `config: <section>: <key> must be >= <low>` below `low`."""
    if value < low:
        raise ValueError(f"config: {section}: {key} must be >= {low}, got {value}")
    return value


def make_config(overrides: dict | None = None) -> ExperimentConfig:
    """Merge `overrides` into the defaults and build every stage's settings.

    A value of the wrong JSON type, one the stage's own type rejects, a
    repeated copula kind or augmentation factor, or a count below its
    minimum raises ValueError `config: <key or section>: ...`.  A bad
    truncation level or a factor below 1 fails the cases that use it.
    """
    raw = copy.deepcopy(_merged(_DEFAULTS, {} if overrides is None else overrides))
    data, cop, aug, tr, ev = (raw[k] for k in ("data", "copulas", "augmentation", "training", "evaluation"))
    for section, key in (("copulas", "kinds"), ("augmentation", "factors")):
        if len(set(raw[section][key])) < len(raw[section][key]):
            raise ValueError(f"config: {section}: {key} must be distinct, got {raw[section][key]}")
    seed = raw["master_seed"]
    grid = _build("data", LevelGrid, data["n_levels"])
    catalogue = _build("copulas", frozenset, map(Family, cop["catalogue"]))
    return ExperimentConfig(
        raw=raw,
        master_seed=seed,
        data_path=data["path"],
        n_profiles=_count("data", "n_profiles", data["n_profiles"], 1),
        grid=grid,
        split=_build("split", SplitSpec, **raw["split"], seed=rng.derive_seed(seed, "split")),
        radiation=_build("radiation", RadiationConstants, **raw["radiation"]),
        catalogue=catalogue,
        truncation=cop["truncation"],
        copulas=tuple(_build("copulas", CopulaSpec, kind, catalogue, cop["truncation"])
                      for kind in cop["kinds"]),
        factors=tuple(aug["factors"]),
        generation_repeats=_count("augmentation", "generation_repeats", aug["generation_repeats"], 1),
        training_repeats=_count("training", "repeats", tr["repeats"], 1),
        layout=_build("training", MLPLayout, 3 * grid.n_full, tr["hidden"], grid.n_half),
        training=_build("training", TrainConfig,
                        **{k: v for k, v in tr.items() if k not in ("repeats", "hidden")}),
        projection_iterations=_count("evaluation", "projection_iterations", ev["projection_iterations"], 1),
        depth_curves=_count("evaluation", "depth_curves", ev["depth_curves"], 0),
    )


def default_config_dict() -> dict:
    return json.loads(json.dumps(_DEFAULTS))


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------

def surrogate_set(cfg: ExperimentConfig) -> ProfileSet:
    """The configured number of surrogate profiles, seeded from the master seed."""
    return generate_surrogate(cfg.n_profiles, cfg.grid, rng.derive_seed(cfg.master_seed, "surrogate"))


def resolve_dataset(cfg: ExperimentConfig) -> ProfileSet:
    """Load the configured profile file or generate the surrogate set."""
    return load_profiles(cfg.data_path, cfg.grid) if cfg.data_path else surrogate_set(cfg)


def train_emulator(cfg: ExperimentConfig, x_tr, y_tr, x_val, y_val, *labels) -> MLPModel:
    """Seed, initialise and train one emulator with the configured recipe.

    The init and shuffle seeds derive from the master seed and `labels`.
    """
    model = init_mlp(cfg.layout, rng.derive_seed(cfg.master_seed, *labels, "init"))
    shuffle_seed = rng.derive_seed(cfg.master_seed, *labels, "shuffle")
    return train(model, x_tr, y_tr, x_val, y_val, replace(cfg.training, seed=shuffle_seed))


RESULT_COLUMNS = ("case", "generation", "repeat", "mb", "mae")


@dataclass
class PipelineResult:
    out_dir: Path
    rows: list = field(default_factory=list)  # tuples in RESULT_COLUMNS order
    files: list = field(default_factory=list)  # every path `write` wrote, for the manifest
    failures: list = field(default_factory=list)  # (case, reason)

    def write(self, name: str, writer, *args) -> None:
        """writer(out_dir / name, *args), then list that path in `files`."""
        path = self.out_dir / name
        writer(path, *args)
        self.files.append(str(path))

    def median_mae(self, case: str) -> float:
        return float(np.median([r[4] for r in self.rows if r[0] == case]))


def _depth_report_file(cfg: ExperimentConfig, case: str, y_true, y_pred, result: PipelineResult):
    errors = np.asarray(y_true) - np.asarray(y_pred)
    n = errors.shape[0]
    k = min(cfg.depth_curves, n)
    if k < 3:
        return  # band depth needs at least 3 curves
    sel_seed = rng.derive_seed(cfg.master_seed, case, "depth-subsample")
    sel = rng.permutation(n, sel_seed)[:k]
    curves = errors[sel]
    result.write(f"depth_errors_{case}.csv", write_depth_report, curves)


def run_pipeline(cfg: ExperimentConfig, out_dir) -> PipelineResult:
    """Execute the full experiment and write all result tables.

    Every case trains `training_repeats` emulators per generation and
    scores each on the held-out test split.  The baseline is the case
    with no synthetic rows and the single generation "-".  Each copula
    kind x augmentation factor runs `generation_repeats` syntheses, each
    sampled from the fitted model, labelled by the physics model and
    appended to the real training split; no synthetic set is stored.  A
    failing augmented case is recorded and skipped; the rest run.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(out_dir)

    # Label the whole set once, replacing any fluxes a data.path file carried; the split copies them.
    train_rad, val_rad, test_rad = split_shuffle(radiate_set(resolve_dataset(cfg), cfg.radiation), cfg.split)

    x_tr, y_tr = train_rad.inputs, train_rad.fluxes
    x_val, y_val, y_test = val_rad.inputs, val_rad.fluxes, test_rad.fluxes

    def run_case(case: str, factor: int = 0, synth_model=None):
        """Train and score every generation's repeats; factor 0 is the baseline."""
        generations = range(cfg.generation_repeats) if factor else ["-"]
        for gen in generations:
            x, y = x_tr, y_tr
            if factor:
                gen_seed = rng.derive_seed(cfg.master_seed, case, f"gen{gen}")
                synth, _ = sample_synth_model(synth_model, factor * len(x_tr), gen_seed)
                fluxes = radiate_set(synth, cfg.radiation).fluxes
                x = np.vstack([x_tr, synth.inputs])
                del synth  # free the synthetic inputs before stacking the fluxes
                y = np.vstack([y_tr, fluxes])
                del fluxes  # the stacks hold every row; keep no second copy through training
                if gen == 0:
                    report = random_projection_report(
                        x_tr, x[len(x_tr):], cfg.projection_iterations,
                        rng.derive_seed(cfg.master_seed, case, "projection"),
                    )
                    result.write(f"projection_{case}.csv", write_projection_report, report)
            for rep in range(cfg.training_repeats):
                model = train_emulator(cfg, x, y, x_val, y_val, case, f"gen{gen}", f"train{rep}")
                pred = predict_set(model, test_rad).values
                em = error_metrics(y_test, pred)
                result.rows.append((case, gen, rep, em.mb, em.mae))
                if gen == generations[0] and rep == 0:
                    result.write(f"error_quantiles_{case}.csv", write_level_quantiles, em)
                    _depth_report_file(cfg, case, y_test, pred, result)

    run_case("baseline")
    for spec in cfg.copulas:
        try:
            fit = fit_synth_model(train_rad, spec)
        except ValueError as exc:
            fit = exc  # fails each of the kind's cases below
        for factor in cfg.factors:
            case = f"{spec.kind}-{factor}x"
            try:
                if factor < 1:
                    raise ValueError("augmentation factor must be >= 1")
                if isinstance(fit, ValueError):
                    raise fit
                run_case(case, factor, fit)
            except ValueError as exc:
                result.failures.append((case, str(exc)))
                print(f"case {case} failed: {exc}", file=sys.stderr)

    _write_results(result)
    _write_manifest(cfg, result)
    return result


def _write_results(result: PipelineResult) -> None:
    result.write("results.csv", write_table, RESULT_COLUMNS, result.rows)

    summary = []
    for case in dict.fromkeys(row[0] for row in result.rows):
        mbs, maes = np.array([r[3:] for r in result.rows if r[0] == case]).T
        summary.append((case, mbs.size, np.median(mbs), np.ptp(mbs), np.median(maes), np.ptp(maes)))
    result.write("summary.csv", write_table,
                 ("case", "runs", "mb_median", "mb_spread", "mae_median", "mae_spread"), summary)


def _write_manifest(cfg: ExperimentConfig, result: PipelineResult) -> None:
    """Write manifest.json, first deleting each plain file name the previous
    manifest lists that this run did not write; an unreadable one deletes none."""
    path = result.out_dir / "manifest.json"
    manifest = {
        "config_hash": cfg.config_hash(),
        "files": sorted(str(Path(f).relative_to(result.out_dir)) for f in result.files),
    }
    keep = {*manifest["files"], "..", path.name}
    try:  # an entry that is not a string fails `keep` or `Path` with TypeError
        listed = json.loads(path.read_text(encoding="utf-8"))["files"]
        stale = [name for name in listed if name not in keep and Path(name).name == name
                 and (path.parent / name).is_file()] if type(listed) is list else []
    except (OSError, ValueError, TypeError, KeyError):
        stale = []
    for name in stale:
        (path.parent / name).unlink()
    if stale:
        print(f"removed {len(stale)} file(s) an earlier run left: {', '.join(stale)}", file=sys.stderr)
    write_lines(path, [json.dumps(manifest, indent=2, sort_keys=True)])
