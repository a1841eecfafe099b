"""Experiment configuration and pipeline orchestration.

One JSON config drives the whole experiment; every physics and training
constant appears in it with its default value.  Per-run seeds derive
from the master seed, the case label and the repeat indices, so cases
are isolated: changing one case's settings never perturbs another
case's random streams.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng
from .bicop import Family
from .dataset import (
    LevelGrid,
    ProfileSet,
    SchemaError,
    SplitSpec,
    flatten,
    generate_surrogate,
    load_profiles,
    save_profiles,
    split_shuffle,
)
from .emulator import MLPLayout, TrainConfig, init_mlp, predict_set, train
from .evaluation import (
    band_depth,
    depth_groups,
    error_metrics,
    random_projection_report,
    write_depth_report,
    write_level_quantiles,
    write_projection_report,
)
from .multicop import CopulaSpec, fit_synth_model, sample_synth_model
from .radiation import RadiationConstants, radiate_set

_DEFAULTS = {
    "master_seed": 1,
    "data": {"path": None, "n_profiles": 25000, "n_levels": 137},
    "split": {"train": 0.4, "val": 0.2, "test": 0.4},
    "radiation": {"diffusivity": 1.66, "gas_optical_depth": 1.7},
    "copulas": {
        "kinds": ["gaussian", "vine"],
        "catalogue": ["gaussian", "student", "clayton", "gumbel", "frank", "joe"],
        "truncation": None,
    },
    "augmentation": {"factors": [1, 5, 10], "generation_repeats": 10},
    "training": {
        "repeats": 10,
        "hidden": [512, 512, 512],
        "epochs": 1000,
        "patience": 25,
        "batch_size": 256,
        "learning_rate": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
        "huber_delta": 1.0,
    },
    "evaluation": {"projection_iterations": 100, "depth_curves": 90},
}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @property
    def master_seed(self) -> int:
        return int(self.raw["master_seed"])

    @property
    def grid(self) -> LevelGrid:
        return LevelGrid(int(self.raw["data"]["n_levels"]))

    @property
    def data_path(self):
        return self.raw["data"]["path"]

    @property
    def n_profiles(self) -> int:
        return int(self.raw["data"]["n_profiles"])

    def split_spec(self, seed: int) -> SplitSpec:
        s = self.raw["split"]
        return SplitSpec(s["train"], s["val"], s["test"], seed)

    @property
    def constants(self) -> RadiationConstants:
        r = self.raw["radiation"]
        return RadiationConstants(diffusivity=r["diffusivity"], gas_optical_depth=r["gas_optical_depth"])

    def copula_spec(self, kind: str) -> CopulaSpec:
        c = self.raw["copulas"]
        catalogue = frozenset(Family(name) for name in c["catalogue"])
        return CopulaSpec(kind=kind, catalogue=catalogue, truncation=c["truncation"])

    @property
    def kinds(self) -> list:
        return list(self.raw["copulas"]["kinds"])

    @property
    def factors(self) -> list:
        return [int(f) for f in self.raw["augmentation"]["factors"]]

    @property
    def generation_repeats(self) -> int:
        return int(self.raw["augmentation"]["generation_repeats"])

    @property
    def training_repeats(self) -> int:
        return int(self.raw["training"]["repeats"])

    @property
    def hidden(self) -> tuple:
        return tuple(int(h) for h in self.raw["training"]["hidden"])

    def train_config(self, seed: int) -> TrainConfig:
        t = self.raw["training"]
        return TrainConfig(
            epochs=int(t["epochs"]),
            patience=int(t["patience"]),
            batch_size=int(t["batch_size"]),
            learning_rate=t["learning_rate"],
            beta1=t["beta1"],
            beta2=t["beta2"],
            adam_eps=t["adam_eps"],
            huber_delta=t["huber_delta"],
            seed=seed,
        )

    @property
    def projection_iterations(self) -> int:
        return int(self.raw["evaluation"]["projection_iterations"])

    @property
    def depth_curves(self) -> int:
        return int(self.raw["evaluation"]["depth_curves"])

    def config_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.raw, sort_keys=True).encode("utf-8")).hexdigest()


def _merged(defaults: dict, overrides: dict, path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        if key in overrides:
            val = overrides[key]
            out[key] = _merged(default, val, f"{path}{key}.") if isinstance(default, dict) else val
        else:
            out[key] = default
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return out


def make_config(overrides: dict | None = None) -> ExperimentConfig:
    return ExperimentConfig(_merged(_DEFAULTS, overrides or {}))


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return make_config(json.load(fh))


def default_config_dict() -> dict:
    return json.loads(json.dumps(_DEFAULTS))


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------

def resolve_dataset(cfg: ExperimentConfig) -> ProfileSet:
    """Load the configured profile file or generate the surrogate set."""
    if cfg.data_path:
        return load_profiles(cfg.data_path, cfg.grid)
    seed = rng.derive_seed(cfg.master_seed, "surrogate")
    return generate_surrogate(cfg.n_profiles, cfg.grid, seed)


def split_dataset(cfg: ExperimentConfig, data: ProfileSet):
    seed = rng.derive_seed(cfg.master_seed, "split")
    return split_shuffle(data, cfg.split_spec(seed))


def _train_one(cfg: ExperimentConfig, x_tr, y_tr, x_val, y_val, case: str, gen, rep: int):
    layout = MLPLayout(x_tr.shape[1], cfg.hidden, y_tr.shape[1])
    init_seed = rng.derive_seed(cfg.master_seed, case, f"gen{gen}", f"train{rep}", "init")
    shuffle_seed = rng.derive_seed(cfg.master_seed, case, f"gen{gen}", f"train{rep}", "shuffle")
    model = init_mlp(layout, init_seed)
    return train(model, x_tr, y_tr, x_val, y_val, cfg.train_config(shuffle_seed))


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class PipelineResult:
    rows: list = field(default_factory=list)  # (case, generation, repeat, mb, mae)
    files: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (case, reason)

    def median_mae(self, case: str) -> float:
        return float(np.median([r[4] for r in self.rows if r[0] == case]))


def _depth_report_file(cfg: ExperimentConfig, out_dir: Path, case: str, y_true, y_pred, result):
    errors = np.asarray(y_true) - np.asarray(y_pred)
    n = errors.shape[0]
    k = min(cfg.depth_curves, n)
    if k < 3:
        return  # band depth needs at least 3 curves
    sel_seed = rng.derive_seed(cfg.master_seed, case, "depth-subsample")
    sel = rng.permutation(n, sel_seed)[:k]
    curves = errors[sel]
    ranking = depth_groups(band_depth(curves))
    path = out_dir / f"depth_errors_{case}.csv"
    write_depth_report(path, curves, ranking)
    result.files.append(str(path))


def run_pipeline(cfg: ExperimentConfig, out_dir) -> PipelineResult:
    """Execute the full experiment and write all result tables.

    Baseline: `training_repeats` emulators on the real training split.
    Each copula kind x augmentation factor: `generation_repeats`
    syntheses, each labelled by the physics model once (cached on disk)
    and used for `training_repeats` trainings.  Every trained model is
    scored on the held-out test split.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out_dir / "cache"
    cache_dir.mkdir(exist_ok=True)
    result = PipelineResult()

    data = resolve_dataset(cfg)
    train_set, val_set, test_set = split_dataset(cfg, data)
    consts = cfg.constants
    train_rad = radiate_set(train_set, consts)
    val_rad = radiate_set(val_set, consts)
    test_rad = radiate_set(test_set, consts)

    x_tr = flatten(train_rad, "inputs").values
    y_tr = flatten(train_rad, "outputs").values
    x_val = flatten(val_rad, "inputs").values
    y_val = flatten(val_rad, "outputs").values
    y_test = flatten(test_rad, "outputs").values

    # Baseline case.
    for rep in range(cfg.training_repeats):
        model = _train_one(cfg, x_tr, y_tr, x_val, y_val, "baseline", "-", rep)
        pred = predict_set(model, test_rad)
        em = error_metrics(y_test, pred.values)
        result.rows.append(("baseline", "-", rep, em.mb, em.mae))
        if rep == 0:
            path = out_dir / "error_quantiles_baseline.csv"
            write_level_quantiles(path, em)
            result.files.append(str(path))
            _depth_report_file(cfg, out_dir, "baseline", y_test, pred.values, result)

    # Augmented cases.  A failing case is logged and skipped; the rest run.
    for kind in cfg.kinds:
        try:
            spec = cfg.copula_spec(kind)
            synth_model = fit_synth_model(train_rad, spec)
        except ValueError as exc:
            for factor in cfg.factors:
                result.failures.append((f"{kind}-{factor}x", str(exc)))
                print(f"case {kind}-{factor}x failed: {exc}", file=sys.stderr)
            continue
        for factor in cfg.factors:
            case = f"{kind}-{factor}x"
            try:
                _run_case(cfg, spec, case, factor, synth_model, cache_dir, out_dir, consts,
                          x_tr, y_tr, x_val, y_val, test_rad, y_test, result)
            except ValueError as exc:
                result.failures.append((case, str(exc)))
                print(f"case {case} failed: {exc}", file=sys.stderr)

    _write_results(out_dir, result)
    _write_manifest(cfg, out_dir, result)
    return result


def _synthesis_key(gen_seed: int, n_rows: int, spec: CopulaSpec, x_tr: np.ndarray,
                   consts: RadiationConstants) -> str:
    """Short sha256 of everything a cached synthetic set is derived from."""
    inputs = {
        "seed": gen_seed,
        "rows": n_rows,
        "copula": {"kind": spec.kind, "catalogue": sorted(f.value for f in spec.catalogue),
                   "truncation": spec.truncation},
        "split_shape": list(x_tr.shape),
        "radiation": dataclasses.asdict(consts),
    }
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8"))
    digest.update(np.ascontiguousarray(x_tr, dtype=float).tobytes())
    return digest.hexdigest()[:12]


def _run_case(cfg, spec, case, factor, synth_model, cache_dir, out_dir, consts,
              x_tr, y_tr, x_val, y_val, test_rad, y_test, result) -> None:
    for gen in range(cfg.generation_repeats):
        gen_seed = rng.derive_seed(cfg.master_seed, case, f"gen{gen}")
        n_rows = factor * len(x_tr)
        key = _synthesis_key(gen_seed, n_rows, spec, x_tr, consts)
        cache_file = cache_dir / f"{case}-gen{gen}-{key}.csv"
        if cache_file.exists():
            synth_rad = load_profiles(cache_file, cfg.grid)
            if len(synth_rad) != n_rows:
                raise SchemaError(f"{cache_file}: expected {n_rows} rows, found {len(synth_rad)}")
        else:
            synth, _ = sample_synth_model(synth_model, n_rows, gen_seed)
            synth_rad = radiate_set(synth, consts)
            save_profiles(cache_file, synth_rad)
        result.files.append(str(cache_file))
        x_syn = flatten(synth_rad, "inputs").values
        y_syn = flatten(synth_rad, "outputs").values
        x_aug = np.vstack([x_tr, x_syn])
        y_aug = np.vstack([y_tr, y_syn])
        if gen == 0:
            report = random_projection_report(
                x_tr, x_syn, cfg.projection_iterations,
                rng.derive_seed(cfg.master_seed, case, "projection"),
            )
            path = out_dir / f"projection_{case}.csv"
            write_projection_report(path, report)
            result.files.append(str(path))
        for rep in range(cfg.training_repeats):
            model = _train_one(cfg, x_aug, y_aug, x_val, y_val, case, gen, rep)
            pred = predict_set(model, test_rad)
            em = error_metrics(y_test, pred.values)
            result.rows.append((case, gen, rep, em.mb, em.mae))
            if gen == 0 and rep == 0:
                path = out_dir / f"error_quantiles_{case}.csv"
                write_level_quantiles(path, em)
                result.files.append(str(path))
                _depth_report_file(cfg, out_dir, case, y_test, pred.values, result)


def _write_results(out_dir: Path, result: PipelineResult) -> None:
    lines = ["case,generation,repeat,mb,mae"]
    for case, gen, rep, mb, mae in result.rows:
        lines.append(f"{case},{gen},{rep},{_fmt(mb)},{_fmt(mae)}")
    path = out_dir / "results.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result.files.append(str(path))

    cases = []
    for row in result.rows:
        if row[0] not in cases:
            cases.append(row[0])
    lines = ["case,runs,mb_median,mb_spread,mae_median,mae_spread"]
    for case in cases:
        mbs = np.array([r[3] for r in result.rows if r[0] == case])
        maes = np.array([r[4] for r in result.rows if r[0] == case])
        lines.append(
            f"{case},{mbs.size},{_fmt(np.median(mbs))},{_fmt(np.ptp(mbs))},"
            f"{_fmt(np.median(maes))},{_fmt(np.ptp(maes))}"
        )
    path = out_dir / "summary.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result.files.append(str(path))


def _write_manifest(cfg: ExperimentConfig, out_dir: Path, result: PipelineResult) -> None:
    manifest = {
        "config_hash": cfg.config_hash(),
        "files": sorted(str(Path(f).relative_to(out_dir)) for f in result.files),
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
