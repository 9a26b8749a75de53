"""Layered benchmark for `vngender`: `ablate`, `train` and `serve` workloads.

    python3 perfbench/run.py --workload ablate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

Run from the repository root. The program is imported from `src/`. With
`--trace 0` the last line of output is a JSON object holding the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced pass,
plus the tracing overhead against an untraced pass of the same run. The
exit code is non-zero when any output of the program is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

# One BLAS thread: the LSTM's small matrix products run several times slower
# with two threads on a two-CPU machine, and vary with other load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# String hashes are salted per process, and the salt alone moves some
# timings by half (load_dataset: 37 or 59 ms). Fix it so that runs compare.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

CLASSICAL = ("multinomial_nb", "bernoulli_nb", "logistic_regression",
             "linear_svm", "decision_tree", "random_forest")
KINDS = CLASSICAL + ("lstm",)
END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import `vngender` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "vngender" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'vngender'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import vngender
    import vngender.cli  # noqa: F401  (binds the submodule as an attribute)
    if Path(vngender.__file__).resolve().parent != SRC / "vngender":
        raise SystemExit(f"perfbench: imported vngender from {vngender.__file__}, not {SRC}")
    return vngender


def install_tracer(program) -> tracer_mod.Tracer:
    """Wrap the public functions that callers look up as module attributes."""
    tr = tracer_mod.Tracer()
    tr.wrap(program.data_io, "load_dataset")
    tr.wrap(program.names_core, "normalize", leaf=True)
    tr.wrap(program.names_core, "segment", leaf=True)
    tr.wrap(program.evaluation, "stratified_split")
    tr.wrap(program.evaluation, "run_experiment")
    tr.wrap(program.featurize, "fit_vocabulary", observe=len)
    tr.wrap(program.featurize, "transform", leaf=True)
    tr.wrap(program.classical, "train_classifier", key=lambda kind, *a, **k: kind)
    tr.wrap(program.classical, "predict", key=lambda model, x: model.kind, leaf=True)
    tr.wrap(program.lstm, "train_lstm")
    tr.wrap(program.lstm, "predict_lstm", leaf=True)
    tr.wrap(program.bundle, "save_model", key=lambda b, path: b.model_kind)
    tr.wrap(program.bundle, "load_model")
    tr.wrap(program.bundle, "bundle_predict", leaf=True)
    return tr


def layer_metrics(tr: tracer_mod.Tracer, run: workloads.Run) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; 0 where the workload never enters the layer."""
    st = tr.stat
    got = run.layer.get
    m: dict[str, tuple[float, str]] = {
        "macro_f1": (got("macro_f1", 0), "ratio"),
        "data_io.load_dataset_s": (st("data_io.load_dataset").total_s, "s"),
        "names_core.normalize_calls": (st("names_core.normalize").count, "count"),
        "names_core.normalize_us": (st("names_core.normalize").mean_us(), "us"),
        "names_core.segment_calls": (st("names_core.segment").count, "count"),
        "names_core.segment_us": (st("names_core.segment").mean_us(), "us"),
        "evaluation.split_calls": (st("evaluation.stratified_split").count, "count"),
        "evaluation.split_s": (st("evaluation.stratified_split").total_s, "s"),
        "evaluation.run_experiment_self_s": (st("evaluation.run_experiment").self_s, "s"),
        "featurize.fit_vocabulary_s": (st("featurize.fit_vocabulary").total_s, "s"),
        "featurize.transform_calls": (st("featurize.transform").count, "count"),
        "featurize.transform_us": (st("featurize.transform").mean_us(), "us"),
        "featurize.vocab_size": (
            got("featurize.vocab_size", tr.maxima.get("featurize.fit_vocabulary", 0)), "count"),
    }
    for kind in CLASSICAL:
        m[f"classical.fit_s.{kind}"] = (st(f"classical.train_classifier.{kind}").total_s, "s")
    m["classical.lr_n_iter"] = (got("classical.lr_n_iter", 0), "count")
    m["classical.lr_converged"] = (got("classical.lr_converged", 0), "count")
    for kind in CLASSICAL:
        m[f"classical.predict_us.{kind}"] = (st(f"classical.predict.{kind}").mean_us(), "us")
    m["lstm.epoch_s"] = (st("lstm.train_lstm").total_s / workloads.LSTM_EPOCHS, "s")
    m["lstm.predict_us"] = (st("lstm.predict_lstm").mean_us(), "us")
    m["bundle.save_s"] = (sum(st(f"bundle.save_model.{k}").total_s for k in KINDS), "s")
    for kind in KINDS:
        m[f"bundle.bytes.{kind}"] = (got(f"bundle.bytes.{kind}", 0), "B")
    m["bundle.load_s"] = (st("bundle.load_model").total_s, "s")
    m["bundle.predict_us"] = (st("bundle.bundle_predict").p50_us(), "us")
    for kind in KINDS:
        m[f"train.{kind}_s"] = (got(f"train.{kind}_s", 0), "s")
    for name, unit in (("serve.max_rps", "1/s"), ("serve.p50_ms", "ms"), ("serve.tail_ms", "ms"), ("serve.tail_pct", "pct"),
                       ("serve.generator_late_p99_ms", "ms"), ("service.health_p50_ms", "ms"),
                       ("service.overhead_p50_ms", "ms"), ("trace.overhead_frac", "ratio")):
        m[name] = (got(name, 0), unit)
    return m


def run_one(args) -> int:
    program = load_program()
    tr = install_tracer(program)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), work, program, tr)
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete", file=sys.stderr)
        return 2
    finally:
        tr.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tr.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(tr, run)
    else:
        metrics = {name: (run.end_to_end[name], unit) for name, unit in END_TO_END_UNITS.items()}
    correct = run.failed == 0 and not run.problems
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in sorted(run.notes.items()):
        print(f"  note {key} = {value}")
    if not args.trace:
        for key, value in sorted(run.layer.items()):
            print(f"  untraced {key} = {value:.6g}")
    for name, (value, unit) in metrics.items():
        count = run.samples.get(name)
        print(f"  {name:<36} {value:>14.6g} {unit}" + (f"  (median of {count})" if count else ""))
    print(f"  {'failed_frac':<36} {run.failed / max(1, run.attempted):>14.6g} ratio"
          f"  ({run.failed} of {run.attempted})")
    for problem in run.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = status or subprocess.run(argv, cwd=ROOT).returncode
    return status


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=seed_arg, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
