"""Command-line entry points: train, evaluate, ablate, predict, serve, stats, synth."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bundle as bundle_mod
from . import classical, data_io, evaluation, names_core, service
from .errors import ToolkitError
from .evaluation import ModelSpec, SplitSpec
from .featurize import VectorizerConfig

ENV_BUNDLE = "GENDER_MODEL_PATH"


# Why an unconverged linear fit stopped, by the `stop` of its TRON record.
STOP_REASONS = {
    "max_iter": "it reached its cap of {max_iter} iterations",
    "no_progress": "its last step changed the objective by no more than rounding",
}


def _bundle_path(args) -> str:
    path = args.model or os.environ.get(ENV_BUNDLE)
    if not path:
        raise ToolkitError(
            f"no bundle path given (use --model or set {ENV_BUNDLE})"
        )
    return path


def _vectorizer_config(mode: str, max_features: int | None = None) -> VectorizerConfig:
    if max_features is None and mode == "tfidf":
        max_features = 4000
    return VectorizerConfig(mode, max_features)


def cmd_train(args) -> int:
    dataset = data_io.load_dataset(args.data)
    mask = names_core.parse_mask(args.mask)
    kind = classical.MODEL_KINDS[args.model_kind]
    options = {option: getattr(args, dest) for option, dest in kind.train_flags.items()
               if dest in args}
    # A kind that reads tokens ignores --vectorizer and --max-features.
    vcfg = None if kind.reads_tokens else _vectorizer_config(args.vectorizer, args.max_features)
    spec = ModelSpec(args.model_kind, vcfg, args.seed, options)
    result = evaluation.run_experiment(dataset, mask, spec, SplitSpec(seed=args.seed))
    train_meta = {
        "dataset": dataset.source_tag,
        "seed": args.seed,
        "mask": mask.label,
        "subset_sizes": result.subset_sizes,
        "skipped": result.skipped,
        "metrics": {
            "macro_f1": result.metrics.macro_f1,
            "macro_precision": result.metrics.macro_precision,
            "macro_recall": result.metrics.macro_recall,
        },
    }
    built = bundle_mod.make_bundle(
        result.model, mask, spec.vectorizer, result.vocabulary, train_meta
    )
    bundle_mod.save_model(built, args.out)
    meta = result.model.train_meta
    if meta.get("converged") is False:
        reason = STOP_REASONS[meta["stop"]].format(**meta)
        sys.stderr.write(f"warning: the {spec.kind} fit stopped before it converged: {reason}; "
                         f"||g||/||g0|| = {meta['gradient_ratio']:.3g} against tol {meta['tol']:g}\n")
    sys.stdout.write(evaluation.format_metrics(result.metrics, result.confusion))
    sys.stdout.write(f"bundle\t{args.out}\t{built.model_id}\n")
    return 0


def cmd_evaluate(args) -> int:
    loaded = bundle_mod.load_model(_bundle_path(args))
    dataset = data_io.load_dataset(args.data)
    results = bundle_mod.bundle_predict_many(loaded, dataset.names)
    scored = [isinstance(r, dict) for r in results]
    y_pred = [r["label"] for r in results if isinstance(r, dict)]
    if not y_pred:
        raise ToolkitError("no records could be scored with this bundle")
    cm = evaluation.confusion(dataset.labels[scored], y_pred)
    sys.stdout.write(evaluation.format_metrics(evaluation.macro_metrics(cm), cm))
    skipped = len(dataset) - len(y_pred)
    if skipped:
        sys.stdout.write(f"skipped\t{skipped}\n")
    return 0


def _parse_model_list(text: str, seed: int) -> list[ModelSpec]:
    """`kind[:vectorizer]` items, each fitted with `seed`; a kind that reads
    tokens takes no vectorizer."""
    specs: list[ModelSpec] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, mode = item.partition(":")
        if kind not in classical.MODEL_KINDS:
            raise ToolkitError(f"unknown model kind {kind!r} in --models")
        reads_tokens = classical.MODEL_KINDS[kind].reads_tokens
        vcfg = None if reads_tokens and not mode else _vectorizer_config(mode or "count")
        spec = ModelSpec(kind, vcfg, seed)  # rejects a vectorizer for a kind that reads tokens
        specs.append(spec)
    if not specs:
        raise ToolkitError("--models selected no models")
    return specs


def cmd_ablate(args) -> int:
    dataset = data_io.load_dataset(args.data)
    specs = _parse_model_list(args.models, args.seed)
    report = evaluation.run_ablation(dataset, specs, SplitSpec(seed=args.seed))
    sys.stdout.write(evaluation.format_ablation(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(evaluation.ablation_to_dict(report), fh, ensure_ascii=False, indent=2)
        sys.stdout.write(f"report\t{args.out}\n")
    return 0


def cmd_predict(args) -> int:
    loaded = bundle_mod.load_model(_bundle_path(args))
    for name, response in zip(args.names, bundle_mod.bundle_predict_many(loaded, args.names)):
        if isinstance(response, ToolkitError):
            raise response
        sys.stdout.write(
            f"{name}\t{response['gender']}\t{response['label']}\t{response['score']:.6f}\n"
        )
    return 0


def cmd_serve(args) -> int:
    service.serve(bundle_mod.load_model(_bundle_path(args)), args.bind)
    return 0


def cmd_stats(args) -> int:
    dataset = data_io.load_dataset(args.data)
    text = data_io.format_stats(data_io.dataset_stats(dataset, args.top_k))
    if dataset.rejects:
        text += f"\nrejected_rows\t{len(dataset.rejects)}\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    dataset = data_io.generate_synthetic(args.n, args.fidelity, args.seed)
    if args.out:
        data_io.save_dataset(dataset, args.out)
    else:
        sys.stdout.write("full_name,gender\n")
        for name, label in zip(dataset.names, dataset.labels.tolist()):
            sys.stdout.write(f"{name},{label}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vngender",
        description="Gender prediction from Vietnamese full names.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A fit flag left unset is absent from the parsed arguments, so the fit
    # function's own default (or `LstmTrainConfig`'s) applies.
    train = sub.add_parser("train", help="train a model and write a bundle",
                           argument_default=argparse.SUPPRESS)
    train.add_argument("--data", required=True)
    train.add_argument("--model", dest="model_kind", required=True,
                       choices=tuple(classical.MODEL_KINDS))
    train.add_argument("--vectorizer", choices=("count", "tfidf"), default="count")
    train.add_argument("--max-features", type=int, default=None)
    train.add_argument("--mask", default="full", choices=sorted(names_core.MASKS))
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True)
    train.add_argument("--alpha", type=float)
    train.add_argument("--l2", type=float)
    train.add_argument("--lr", type=float, help="LSTM learning rate")
    train.add_argument("--c", type=float)
    train.add_argument("--epochs", type=int, help="LSTM training epochs")
    train.add_argument("--trees", type=int)
    train.add_argument("--mtry", type=int)
    train.add_argument("--no-bootstrap", dest="bootstrap", action="store_false")
    train.add_argument("--max-depth", type=int)
    train.add_argument("--min-leaf", type=int)
    train.add_argument("--hidden", type=int)
    train.add_argument("--batch-size", type=int)
    train.add_argument("--max-seq-len", type=int)
    train.add_argument("--embedding", help="pretrained .vec file")
    train.add_argument("--embedding-dim", type=int)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score a dataset with a saved bundle")
    ev.add_argument("--model", default=None)
    ev.add_argument("--data", required=True)
    ev.set_defaults(func=cmd_evaluate)

    ablate_help = ("run the 7-way component ablation on every CPU: one process per CPU of "
                   "the affinity set takes cells from a shared queue (taskset limits it)")
    ab = sub.add_parser("ablate", help=ablate_help, description=ablate_help)
    ab.add_argument("--data", required=True)
    ab.add_argument("--models", default="linear_svm:count,bernoulli_nb:tfidf")
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument("--out", default=None, help="write the report as JSON")
    ab.set_defaults(func=cmd_ablate)

    pr = sub.add_parser("predict", help="predict gender for one or more names")
    pr.add_argument("--model", default=None)
    pr.add_argument("names", nargs="+")
    pr.set_defaults(func=cmd_predict)

    serve_help = ("serve predictions over HTTP on every CPU: one worker process pinned to "
                  "each CPU of the affinity set (taskset limits it; a cgroup CPU quota does not)")
    sv = sub.add_parser("serve", help=serve_help, description=serve_help)
    sv.add_argument("--model", default=None)
    sv.add_argument("--bind", default="127.0.0.1:8000")
    sv.set_defaults(func=cmd_serve)

    st = sub.add_parser("stats", help="dataset label and token statistics")
    st.add_argument("--data", required=True)
    st.add_argument("--top-k", type=int, default=10)
    st.add_argument("--out", default=None)
    st.set_defaults(func=cmd_stats)

    sy = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    sy.add_argument("n", type=int)
    sy.add_argument("fidelity", type=float)
    sy.add_argument("seed", type=int)
    sy.add_argument("--out", default=None)
    sy.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Ctrl-C before a command installs its own handling (`serve` does,
        # once its bundle is loaded) ends the run quietly, as a shell expects.
        return 130


if __name__ == "__main__":
    sys.exit(main())
