"""Command-line entry points.

Subcommands: gen-data, fit, sample, radiate, train, eval, pipeline.
Every command takes --config (JSON, all fields optional) and an optional
--seed override of the master seed.  Failures exit nonzero with a
one-line machine-readable category on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import rng
from .dataset import SchemaError, load_profiles, read_json, save_profiles, split_shuffle, write_table
from .emulator import load_mlp, predict_set, save_mlp
from .evaluation import error_metrics, write_level_quantiles
from .experiment import (
    RESULT_COLUMNS,
    ExperimentConfig,
    default_config_dict,
    make_config,
    resolve_dataset,
    run_pipeline,
    surrogate_set,
    train_emulator,
)
from .multicop import KINDS, CopulaSpec, family_counts, fit_synth_model, load_model, sample_synth_model, save_model
from .radiation import radiate_set


def _config_from_args(args) -> ExperimentConfig:
    """The --config document with --seed as its master seed, built once."""
    doc = {}
    if args.config:
        try:
            doc = read_json(args.config)
        except SchemaError as exc:
            raise ValueError(f"config: {exc}") from None
    if args.seed is not None and isinstance(doc, dict):
        doc = dict(doc, master_seed=args.seed)
    return make_config(doc)


def cmd_gen_data(args, cfg) -> int:
    data = surrogate_set(cfg)
    out = args.out or cfg.data_path or "profiles.csv"
    save_profiles(out, data)
    print(f"wrote {out}: {len(data)} rows, {3 * cfg.grid.n_full} columns")
    return 0


def cmd_fit(args, cfg) -> int:
    data = resolve_dataset(cfg)
    train_set, _, _ = split_shuffle(data, cfg.split)
    model = fit_synth_model(train_set, CopulaSpec(args.kind, cfg.catalogue, cfg.truncation))
    save_model(args.out, model)
    c, tail = model.copula, ""
    if model.kind == "vine":
        hist = ", ".join(f"{k}={v}" for k, v in family_counts(c).items())
        tail = f", truncation {c.truncation}, edges: {hist}"
    print(f"wrote {args.out}: {model.kind} copula on {model.d} features ({len(model.active)} active, "
          f"{c.d} rankings){tail}")
    return 0


def cmd_sample(args, cfg) -> int:
    model = load_model(args.model)
    seed = rng.derive_seed(cfg.master_seed, "sample", args.case or "-")
    synth, diag = sample_synth_model(model, args.count, seed)
    save_profiles(args.out, synth)
    print(f"wrote {args.out}: {len(synth)} synthetic profiles "
          f"({diag.pressure_resorted} pressure columns re-sorted)")
    return 0


def cmd_radiate(args, cfg) -> int:
    data = load_profiles(args.input, cfg.grid)
    radiated = radiate_set(data, cfg.radiation)
    save_profiles(args.out, radiated)
    print(f"wrote {args.out}: {len(radiated)} profiles with fluxes")
    return 0


def cmd_train(args, cfg) -> int:
    train_set = load_profiles(args.train, cfg.grid)
    val_set = load_profiles(args.val, cfg.grid)
    if train_set.fluxes is None or val_set.fluxes is None:
        raise ValueError("training and validation files must carry flux columns (run radiate first)")
    model = train_emulator(cfg, train_set.inputs, train_set.fluxes, val_set.inputs, val_set.fluxes,
                           "train-cmd", args.case or "-")
    save_mlp(args.out, model)
    best = min(model.history["val"])
    print(f"wrote {args.out}: best val loss {best:.6g} at epoch {model.best_epoch}, "
          f"{len(model.history['val'])} epochs run")
    return 0


def cmd_eval(args, cfg) -> int:
    model = load_mlp(args.model)
    test_set = load_profiles(args.test, cfg.grid)
    if test_set.fluxes is None:
        raise ValueError("test file must carry flux columns (run radiate first)")
    pred = predict_set(model, test_set)
    em = error_metrics(test_set.fluxes, pred.values)
    case = args.case or "eval"
    out = Path(args.out)
    write_table(out, RESULT_COLUMNS, [(case, "-", 0, em.mb, em.mae)])
    quant_path = out.with_name(out.stem + "_levels.csv")
    write_level_quantiles(quant_path, em)
    print(f"{case}: MB={em.mb:.6g} MAE={em.mae:.6g} (rows in {out}, levels in {quant_path})")
    return 0


def cmd_pipeline(args, cfg) -> int:
    result = run_pipeline(cfg, args.out)
    note = f", {len(result.failures)} case(s) failed" if result.failures else ""
    print(f"pipeline complete: {len(result.rows)} result rows under {args.out}{note}")
    return 0


def cmd_show_config(args, cfg) -> int:
    print(json.dumps(default_config_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copaug",
        description="Copula-based synthetic data augmentation for a longwave radiation emulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config (defaults apply per field)")
        p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("gen-data", help="write a surrogate profile file")
    common(p)
    p.add_argument("--out", help="output profile file (default: data.path, else profiles.csv)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit", help="fit marginals + copula on the training split")
    common(p)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--out", required=True, help="model artifact path (JSON)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw synthetic profiles from a fitted model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--case", help="case label mixed into the sampling seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("radiate", help="attach toy-model fluxes to a profile file")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_radiate)

    p = sub.add_parser("train", help="train the emulator on radiated profile files")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--case", help="case label mixed into the training seeds")
    p.add_argument("--out", required=True, help="trained model path (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained emulator on a radiated test file")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--case", help="case label for the metrics rows")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run the full experiment")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("show-config", help="print the default config JSON")
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _config_from_args(args) if "config" in args else None)
    except SchemaError as exc:
        print(f"error:schema: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error:invalid: {exc}", file=sys.stderr)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error:internal: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
