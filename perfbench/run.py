"""copaug benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload vine-30 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, one process each

One workload runs in this process.  It repeats setup (building the inputs
from the seed) plus the timed iteration until `--seconds` would be
exceeded, then sets up again until there are SETUP_REPEATS setups; the
median setup time is `setup_s`.  Each iteration writes into a fresh
directory under `.bench_work/` and its outputs are checked.

`--trace 0` reports the END_TO_END metrics.  Only the three calls their
rates divide by (`sample_synth_model`, `radiate_set`, `train`) are wrapped.
`--trace 1` alternates that untraced iteration with a traced pass, which
is one setup plus one iteration with every function in TARGETS wrapped.
It reports the PER_LAYER metrics as medians over the traced passes, and
the tracing overhead as the traced minus the untraced median iteration
time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; every iteration (and, in a
traced run, every traced pass) is one attempted operation, failed when
one of its output checks fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("synth_profiles_per_s", "1/s", "higher"),
    ("train_sample_epochs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, the end-to-end metric it should move, on which workload).
# Suffix `.s` is a span's inclusive time, `.self_s` its self time, `.calls`
# its call count; any other name is a counter set by a TARGETS hook.
PER_LAYER = (
    ("dataset.generate_surrogate.s", "s", "lower", "setup_s, all workloads"),
    ("dataset.split_shuffle.s", "s", "lower", "setup_s, all workloads"),
    ("dataset.save_profiles.s", "s", "lower", "wall_s, desk-pipeline"),
    ("dataset.save_profiles.bytes", "bytes", "lower", "wall_s, desk-pipeline"),
    ("dataset.load_profiles.s", "s", "lower", "wall_s, desk-pipeline"),
    ("dataset.flatten.s", "s", "lower", "wall_s, desk-pipeline"),
    ("radiation.radiate_set.s", "s", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("radiation.radiate_set.rows", "count", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("radiation.downwelling_longwave.calls", "count", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("marginals.pseudo_observations.s", "s", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("marginals.quantile.s", "s", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("marginals.quantile.calls", "count", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("multicop.fit_synth_model.s", "s", "lower", "wall_s, vine-30 and desk-pipeline"),
    ("multicop.sample_synth_model.s", "s", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("multicop.fit_gaussian.s", "s", "lower", "synth_profiles_per_s, desk-pipeline"),
    ("multicop.simulate_gaussian.s", "s", "lower", "synth_profiles_per_s, desk-pipeline"),
    ("multicop.fit_vine.s", "s", "lower", "wall_s, vine-30"),
    ("multicop.simulate_vine.s", "s", "lower", "synth_profiles_per_s, vine-30"),
    ("multicop.pressure_resorted", "count", "lower", "synth_profiles_per_s, desk-pipeline and vine-30"),
    ("bicop.kendall_tau.calls", "count", "lower", "wall_s, vine-30"),
    ("bicop.kendall_tau.s", "s", "lower", "wall_s, vine-30"),
    ("bicop.fit_pair.calls", "count", "lower", "wall_s, vine-30"),
    ("bicop.fit_pair.s", "s", "lower", "wall_s, vine-30"),
    ("bicop.h_func.calls", "count", "lower", "wall_s, vine-30"),
    ("bicop.h_inv.calls", "count", "lower", "wall_s, vine-30"),
    ("bicop.h_inv.s", "s", "lower", "wall_s, vine-30"),
    ("emulator.train.s", "s", "lower", "train_sample_epochs_per_s, desk-pipeline and vine-30"),
    ("emulator.train.epochs", "count", "lower", "train_sample_epochs_per_s, desk-pipeline and vine-30"),
    ("emulator.loss_and_grads.s", "s", "lower", "train_sample_epochs_per_s, desk-pipeline and vine-30"),
    ("emulator.loss_and_grads.calls", "count", "lower", "train_sample_epochs_per_s, desk-pipeline and vine-30"),
    ("emulator.AdamState.step.s", "s", "lower", "train_sample_epochs_per_s, desk-pipeline and vine-30"),
    ("emulator.forward.s", "s", "lower", "train_sample_epochs_per_s, desk-pipeline and vine-30"),
    ("rng.permutation.s", "s", "lower", "train_sample_epochs_per_s, desk-pipeline"),
    ("rng.permutation.calls", "count", "lower", "train_sample_epochs_per_s, desk-pipeline"),
    ("evaluation.random_projection_report.s", "s", "lower", "wall_s, desk-pipeline"),
    ("evaluation.band_depth.s", "s", "lower", "wall_s, desk-pipeline"),
    ("evaluation.error_metrics.s", "s", "lower", "wall_s, desk-pipeline"),
    ("experiment.run_pipeline.self_s", "s", "lower", "wall_s, desk-pipeline"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced iteration time"),
)


def _sampled(tracer, args, kwargs, result, seconds):
    synth, diagnostics = result
    tracer.synthetic.append(synth)
    tracer.counts["multicop.pressure_resorted"] += diagnostics.pressure_resorted
    tracer.counts["synth.s"] += seconds


def _radiated(tracer, args, kwargs, result, seconds):
    profiles = args[0]
    tracer.counts["radiation.radiate_set.rows"] += len(profiles)
    # A synthetic profile counts once it has been sampled and labelled.
    if any(profiles is synth for synth in tracer.synthetic):
        tracer.counts["synth.rows"] += len(profiles)
        tracer.counts["synth.s"] += seconds


def _trained(tracer, args, kwargs, result, seconds):
    epochs = len(result.history["train"])
    rows = len(getattr(args[1], "values", args[1]))
    tracer.counts["emulator.train.epochs"] += epochs
    tracer.counts["train.sample_epochs"] += rows * epochs
    tracer.counts["train.s"] += seconds


def _saved(tracer, args, kwargs, result, seconds):
    tracer.counts["dataset.save_profiles.bytes"] += os.path.getsize(args[0])


END_TO_END_TARGETS = (
    Target("multicop", "sample_synth_model", _sampled),
    Target("radiation", "radiate_set", _radiated),
    Target("emulator", "train", _trained),
)

TARGETS = END_TO_END_TARGETS + (
    Target("dataset", "generate_surrogate"),
    Target("dataset", "split_shuffle"),
    Target("dataset", "save_profiles", _saved),
    Target("dataset", "load_profiles"),
    Target("dataset", "flatten"),
    Target("radiation", "downwelling_longwave"),
    Target("marginals", "pseudo_observations"),
    Target("marginals", "quantile"),
    Target("multicop", "fit_synth_model"),
    Target("multicop", "fit_gaussian"),
    Target("multicop", "simulate_gaussian"),
    Target("multicop", "fit_vine"),
    Target("multicop", "simulate_vine"),
    Target("bicop", "kendall_tau"),
    Target("bicop", "fit_pair"),
    Target("bicop", "h_func"),
    Target("bicop", "h_inv"),
    Target("emulator", "loss_and_grads"),
    Target("emulator", "AdamState.step"),
    Target("emulator", "forward"),
    Target("rng", "permutation"),
    Target("evaluation", "random_projection_report"),
    Target("evaluation", "band_depth"),
    Target("evaluation", "error_metrics"),
    Target("experiment", "run_pipeline"),
)


def pin_threads() -> int:
    """Run BLAS and OpenMP single-threaded; returns the usable CPU count.

    Must run before numpy is imported.  A second OpenBLAS thread spins
    between calls; on a 2-CPU machine any other runnable process then
    slowed 512^3 training sevenfold, so timings depended on the neighbours.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("thread limits must be set before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def metadata(nproc: int) -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "copaug").glob("*.py")))
    return {
        "git_sha": sha,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def layer_value(name: str, summary: dict, counts) -> float:
    for suffix in (".calls", ".self_s", ".s"):
        if name.endswith(suffix):
            return summary.get(name[: -len(suffix)], {}).get(suffix[1:], 0)
    return counts.get(name, 0)


class Run:
    """One workload's setups, iterations and checks in this process."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.first = None  # output of the first iteration, for determinism checks

    def setup(self, tracer=None):
        work_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=self.run_dir))
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            inputs = self.workload.setup(self.seed, work_dir)
            return inputs, time.perf_counter() - start

    def iterate(self, inputs, tracer):
        """Run one iteration under the tracer, then check its output outside
        it; returns the iteration's wall time in seconds."""
        out_dir = Path(tempfile.mkdtemp(prefix="iter-", dir=self.run_dir))
        try:
            with tracer:
                start = time.perf_counter()
                output = self.workload.iterate(inputs, out_dir)
                wall = time.perf_counter() - start
        finally:
            shutil.rmtree(out_dir)
        self.record(self.workload.check(inputs, output, self.first))
        if self.first is None:
            self.first = output
        return wall

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {self.workload.name}: {problem}", file=sys.stderr)


def repeat_for(seconds: float, step) -> None:
    """Call step at least once, and again while the next call should still
    end within `seconds` of the start, judged by the last call's time."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def end_to_end(run: Run, seconds: float) -> dict:
    # Every iteration gets freshly built inputs, so the setup samples are
    # spread over the run like the iteration samples.
    setup_times, walls, counts = [], [], []

    def step():
        inputs, dt = run.setup()
        setup_times.append(dt)
        tracer = Tracer(END_TO_END_TARGETS)
        walls.append(run.iterate(inputs, tracer))
        counts.append(tracer.counts)

    repeat_for(seconds, step)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(run.setup()[1])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The host's speed wanders by tens of percent over tens of seconds, more
    # than single iterations are disturbed; a mean over the whole run
    # averages that wander, where a median of a few iterations follows it.
    # So the iteration time is a mean, and a rate divides the work of all
    # iterations by their total time.
    def rate(work, seconds):
        return (sum(c[work] for c in counts) / sum(c[seconds] for c in counts),
                [c[work] / c[seconds] for c in counts])

    values = {
        "setup_s": (statistics.median(setup_times), setup_times),
        "wall_s": (statistics.mean(walls), walls),
        "synth_profiles_per_s": rate("synth.rows", "synth.s"),
        "train_sample_epochs_per_s": rate("train.sample_epochs", "train.s"),
        "peak_rss_mb": (peak_mb, [peak_mb]),
    }
    return {name: (*values[name], unit) for name, unit, _ in END_TO_END}


def traced(run: Run, seconds: float) -> dict:
    inputs, _ = run.setup()
    untraced_walls, traced_walls, passes = [], [], []
    last = []

    def step():
        untraced_walls.append(run.iterate(inputs, Tracer(END_TO_END_TARGETS)))
        tracer = Tracer(TARGETS)
        traced_inputs, _ = run.setup(tracer)
        traced_walls.append(run.iterate(traced_inputs, tracer))
        summary = tracer.summary()
        passes.append({name: layer_value(name, summary, tracer.counts)
                       for name, *_ in PER_LAYER if name != "trace.overhead_s"})
        last[:] = [tracer]

    repeat_for(seconds, step)
    counts = [name for name, unit, *_ in PER_LAYER if unit != "s"]
    for k, values in enumerate(passes[1:], start=2):
        differing = [name for name in counts if values[name] != passes[0][name]]
        if differing:
            run.record([f"traced pass {k} counts differ from pass 1: {differing}"])
    last[0].write(WORK / f"spans-{run.workload.name}-seed{run.seed}.jsonl")
    out = {}
    for name, unit, *_ in PER_LAYER:
        if name == "trace.overhead_s":
            samples = [t - u for t, u in zip(traced_walls, untraced_walls)]
            value = statistics.median(traced_walls) - statistics.median(untraced_walls)
        else:
            samples = [p[name] for p in passes]
            value = statistics.median(samples)
        out[name] = (value, samples, unit)
    return out


def run_one(args, nproc: int) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(workload, args.seed, run_dir)
        measured = (traced if args.trace else end_to_end)(run, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    moves = {name: note for name, _, _, note in PER_LAYER}
    print(f"# {workload.name}: {workload.why}")
    for name, (value, samples, unit) in measured.items():
        note = f"  -> {moves[name]}" if name in moves else ""
        shown = ", ".join(f"{x:.6g}" for x in samples)
        print(f"{name:<40} {value:>16.6f} {unit:<6} {len(samples)} samples [{shown}]{note}")
    meta = metadata(nproc)
    meta.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, _, unit) in measured.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; the last line maps each to its result."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="desk-pipeline, vine-30, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "copaug" / "__init__.py").is_file():
        print(f"error: copaug sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
