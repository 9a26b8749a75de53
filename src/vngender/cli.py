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
    flags = classical.MODEL_KINDS[args.model_kind].train_flags
    options = {option: getattr(args, dest) for option, dest in flags.items() if dest in args}
    spec = ModelSpec(args.model_kind, seed=args.seed, options=options)
    vcfg = _vectorizer_config(args.vectorizer, args.max_features)
    result = evaluation.run_experiment(dataset, mask, spec, vcfg, SplitSpec(seed=args.seed))
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
        result.model, mask, result.vectorizer_cfg, result.vocabulary, train_meta
    )
    bundle_mod.save_model(built, args.out)
    if result.model.train_meta.get("converged") is False:
        sys.stderr.write(f"warning: the {spec.kind} fit stopped before it converged\n")
    sys.stdout.write(evaluation.format_metrics(result.metrics, result.confusion))
    sys.stdout.write(f"bundle\t{args.out}\t{built.model_id}\n")
    return 0


def cmd_evaluate(args) -> int:
    loaded = bundle_mod.load_model(_bundle_path(args))
    dataset = data_io.load_dataset(args.data)
    docs, y_true = [], []
    for rec in dataset.records:
        try:
            _, tokens = bundle_mod.select_tokens(loaded, rec.full_name)
        except ToolkitError:
            continue
        docs.append(tokens)
        y_true.append(rec.gender)
    if not docs:
        raise ToolkitError("no records could be scored with this bundle")
    y_pred, _ = bundle_mod.predict_docs(loaded, docs)
    cm = evaluation.confusion(y_true, y_pred.tolist())
    sys.stdout.write(evaluation.format_metrics(evaluation.macro_metrics(cm), cm))
    skipped = len(dataset.records) - len(docs)
    if skipped:
        sys.stdout.write(f"skipped\t{skipped}\n")
    return 0


def _parse_model_list(text: str) -> tuple[list[ModelSpec], list[VectorizerConfig]]:
    specs, cfgs = [], []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, mode = item.partition(":")
        if kind not in classical.MODEL_KINDS:
            raise ToolkitError(f"unknown model kind {kind!r} in --models")
        specs.append(ModelSpec(kind))
        cfgs.append(_vectorizer_config(mode or "count"))
    if not specs:
        raise ToolkitError("--models selected no models")
    return specs, cfgs


def cmd_ablate(args) -> int:
    dataset = data_io.load_dataset(args.data)
    specs, cfgs = _parse_model_list(args.models)
    for spec in specs:
        spec.seed = args.seed
    report = evaluation.run_ablation(dataset, specs, cfgs, SplitSpec(seed=args.seed))
    sys.stdout.write(evaluation.format_ablation(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(evaluation.ablation_to_dict(report), fh, ensure_ascii=False, indent=2)
        sys.stdout.write(f"report\t{args.out}\n")
    return 0


def cmd_predict(args) -> int:
    loaded = bundle_mod.load_model(_bundle_path(args))
    for name in args.names:
        response = bundle_mod.bundle_predict(loaded, name)
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
        for rec in dataset.records:
            sys.stdout.write(f"{rec.full_name},{rec.gender}\n")
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
    train.add_argument("--max-iter", type=int)
    train.add_argument("--tol", type=float)
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

    ab = sub.add_parser("ablate", help="run the 7-way component ablation")
    ab.add_argument("--data", required=True)
    ab.add_argument("--models", default="linear_svm:count,bernoulli_nb:tfidf")
    ab.add_argument("--seed", type=int, default=0)
    ab.add_argument("--out", default=None, help="write the report as JSON")
    ab.set_defaults(func=cmd_ablate)

    pr = sub.add_parser("predict", help="predict gender for one or more names")
    pr.add_argument("--model", default=None)
    pr.add_argument("names", nargs="+")
    pr.set_defaults(func=cmd_predict)

    sv = sub.add_parser("serve", help="serve predictions over HTTP")
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
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
