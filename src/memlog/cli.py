"""Command-line entry point: gen, train, evaluate, predict, serve, agent.

JSON results go to stdout; diagnostics go to stderr.  Exit codes are
stable and documented in the README:

  0  success                      6  not enough of each class to split
  1  unexpected failure           7  cannot bind the service address
  2  usage error                  8  agent watch directory missing
  3  training labels single-class 9  corpus empty after filtering
  4  model file failed to load   10  corpus log without a label
  5  log failed to parse

Heavy numeric imports happen inside the subcommands that need them; the
``agent`` subcommand stays stdlib-only to honor its memory budget.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

from . import __version__
from .config import parse_config
from .errors import (
    BindFailure,
    EmptyCorpus,
    EmptyDocument,
    InsufficientClassCount,
    MemlogError,
    ModelLoadFailure,
    NotJson,
    OversizeLog,
    SingleClassInput,
    UnlabeledLog,
    WatchDirMissing,
)

_EXIT_CODES = (
    (SingleClassInput, 3),
    (ModelLoadFailure, 4),
    ((NotJson, OversizeLog, EmptyDocument), 5),
    (InsufficientClassCount, 6),
    (BindFailure, 7),
    (WatchDirMissing, 8),
    (EmptyCorpus, 9),
    (UnlabeledLog, 10),
)


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _open_unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not (value >= 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _bind_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected host:port, got {text!r}")
    return host, int(port)


def _read_config(parser: argparse.ArgumentParser, path: str) -> dict[str, str]:
    try:
        return parse_config(path)
    except OSError as exc:
        raise ModelLoadFailure(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        parser.error(str(exc))


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    sys.stdout.flush()


# --------------------------------------------------------------------------
# subcommands


def cmd_gen(args: argparse.Namespace) -> int:
    from .synthgen import GenSpec, Heterogeneity, generate_corpus, write_corpus

    spec = GenSpec(
        n_malicious=args.malicious,
        n_benign=args.benign,
        overlap=args.overlap,
        seed=args.seed,
        heterogeneity=Heterogeneity(
            n_os_versions=args.os_versions,
            n_exe_names=args.exe_names,
            n_module_pool=args.module_pool,
            n_malware_families=args.families,
        ),
    )
    logs = generate_corpus(spec)
    names = write_corpus(args.out, logs)
    _emit(
        {
            "directory": args.out,
            "files": len(names),
            "malicious": spec.n_malicious,
            "benign": spec.n_benign,
            "overlap": spec.overlap,
            "seed": spec.seed,
        }
    )
    return 0


def _load_labeled_vectors(corpus_dir: str, embeddings):
    """Corpus dir -> (X, y) through a ready embedding model."""
    from .synthgen import read_corpus
    from .vectorizer import vectorize_corpus

    logs = read_corpus(corpus_dir)
    if not logs:
        raise EmptyCorpus(f"no logs found in {corpus_dir}")
    return vectorize_corpus(logs, embeddings)


def _validation_report(y_test, scores, threshold: float) -> dict:
    import numpy as np

    from .evaluation import compute_metrics, confusion, roc_auc

    predictions = (np.asarray(scores) >= threshold).astype(np.int64)
    report = compute_metrics(confusion(y_test, predictions))
    try:
        report.auc = roc_auc(y_test, scores)
    except SingleClassInput:
        print("note: AUC undefined, evaluation labels are single-class", file=sys.stderr)
    return report.to_dict()


def cmd_train(args: argparse.Namespace) -> int:
    from .embedding import Hyperparams, build_vocab, save_embeddings, train_embeddings
    from .evaluation import SplitSpec, holdout_split
    from .gbdt import GbdtParams, predict, save_model, train_classifier
    from .synthgen import read_corpus
    from .tokenizer import tokenize
    from .vectorizer import vectorize_corpus

    logs = read_corpus(args.corpus)
    if not logs:
        raise EmptyCorpus(f"no logs found in {args.corpus}")
    grouped = [tokenize(log) for log in logs]
    hyper = Hyperparams(
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        initial_lr=args.lr,
        min_count=args.min_count,
        seed=args.seed,
    )
    vocab = build_vocab(grouped, min_count=hyper.min_count)
    embeddings = train_embeddings(grouped, vocab, hyper)
    X, y = vectorize_corpus(logs, embeddings)
    train_idx, test_idx = holdout_split(
        y, SplitSpec(train_malicious_fraction=args.train_fraction, shuffle_seed=args.seed)
    )
    params = GbdtParams(
        trees=args.trees,
        max_depth=args.depth,
        shrinkage=args.shrinkage,
        lambda_=getattr(args, "lambda_"),
        min_leaf=args.min_leaf,
    )
    model = train_classifier(X[train_idx], y[train_idx], params)

    save_embeddings(embeddings, args.embeddings_out)
    save_model(model, args.model_out)
    print(
        f"wrote {args.embeddings_out} ({len(vocab.tokens)} tokens)"
        f" and {args.model_out} ({len(model.trees)} trees)",
        file=sys.stderr,
    )
    _emit(_validation_report(y[test_idx], predict(model, X[test_idx]), args.threshold))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import SplitSpec, holdout_split, roc_points
    from .gbdt import predict
    from .service import load_detector

    detector = load_detector(args.embeddings, args.model, args.threshold)
    X, y = _load_labeled_vectors(args.corpus, detector.embeddings)
    if args.replay_split:
        _, test_idx = holdout_split(
            y, SplitSpec(train_malicious_fraction=args.train_fraction, shuffle_seed=args.seed)
        )
        X, y = X[test_idx], y[test_idx]
    scores = predict(detector.model, X)
    if args.roc_csv is not None:
        with open(args.roc_csv, "w", encoding="utf-8") as fh:
            fh.write("fpr,tpr,threshold\n")
            for fpr, tpr, thr in roc_points(y, scores):
                fh.write(f"{fpr!r},{tpr!r},{thr!r}\n")
    _emit(_validation_report(y, scores, args.threshold))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    from .service import load_detector

    detector = load_detector(args.embeddings, args.model, args.threshold)
    try:
        with open(args.log, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise NotJson(f"cannot read log file: {exc}") from exc
    _emit(detector.detect(raw).to_dict())
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import load_detector, make_server, serve_until_signal

    if args.embeddings is None or args.model is None:
        raise ModelLoadFailure("serve requires --embeddings and --model (or config keys)")

    detector = load_detector(args.embeddings, args.model, args.threshold, args.audit)
    server = make_server(detector, *args.bind)
    bound_host, bound_port = server.server_address[:2]

    def announce() -> None:
        print(f"listening on {bound_host}:{bound_port}", file=sys.stderr, flush=True)

    serve_until_signal(server, on_ready=announce)
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    from .agent import AgentConfig, RetryPolicy, resolve_server, run_agent

    if args.watch_dir is None:
        raise WatchDirMissing("agent requires --watch (or config key watch_dir)")
    server_url = resolve_server(args.server_url or "")
    if not server_url:
        raise BindFailure("agent requires --server, config key server_url, or MEMLOG_SERVER")
    run_agent(
        AgentConfig(
            watch_dir=args.watch_dir,
            server_url=server_url,
            poll_interval_ms=args.poll_interval_ms,
            retry=RetryPolicy(args.max_attempts, args.backoff_base_ms),
            drain=args.drain,
        )
    )
    return 0


# --------------------------------------------------------------------------
# parser


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``config`` values become defaults of the serve/agent flags they name.

    A default given as a string goes through the flag's ``type``, so a
    config value meets the same checks as the flag, and a flag still wins.
    """
    config = config or {}

    def takes_config(subparser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
        subparser.add_argument("--config", help=f"key=value file with keys {', '.join(keys)}")
        subparser.set_defaults(**{key: config[key] for key in keys if key in config})

    parser = argparse.ArgumentParser(
        prog="memlog",
        description="Runtime-log malware detection pipeline: generate, train, evaluate, serve.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1, help="global random seed")

    gen = sub.add_parser("gen", parents=[common], help="write a synthetic labeled corpus")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--malicious", type=_non_negative_int, default=100)
    gen.add_argument("--benign", type=_non_negative_int, default=100)
    gen.add_argument("--overlap", type=_unit_interval, default=0.0,
                     help="fraction of indicator tokens shared across classes")
    gen.add_argument("--families", type=_positive_int, default=4)
    gen.add_argument("--os-versions", type=_positive_int, default=4)
    gen.add_argument("--exe-names", type=_positive_int, default=12)
    gen.add_argument("--module-pool", type=_positive_int, default=40)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", parents=[common], help="train embeddings and classifier")
    train.add_argument("--corpus", required=True, help="directory of log JSON files")
    train.add_argument("--embeddings-out", default="embeddings.mleb")
    train.add_argument("--model-out", default="model.mlgb")
    train.add_argument("--window", type=_positive_int, default=5)
    train.add_argument("--negatives", type=_positive_int, default=5)
    train.add_argument("--epochs", type=_positive_int, default=5)
    train.add_argument("--lr", type=_positive_float, default=0.025)
    train.add_argument("--min-count", type=_positive_int, default=2)
    train.add_argument("--trees", type=_positive_int, default=100)
    train.add_argument("--depth", type=_positive_int, default=6)
    train.add_argument("--shrinkage", type=_positive_float, default=0.1)
    train.add_argument("--lambda", dest="lambda_", type=_non_negative_float, default=1.0)
    train.add_argument("--min-leaf", type=_positive_int, default=5)
    train.add_argument("--train-fraction", type=_open_unit_interval, default=0.70,
                       help="malicious fraction of the training split")
    train.add_argument("--threshold", type=_open_unit_interval, default=0.75)
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", parents=[common], help="score a corpus with saved models")
    evaluate.add_argument("--corpus", required=True)
    evaluate.add_argument("--embeddings", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--threshold", type=_open_unit_interval, default=0.75)
    evaluate.add_argument("--roc-csv", help="write ROC sweep points to this CSV")
    evaluate.add_argument("--replay-split", action="store_true",
                          help="evaluate only the validation part of the training holdout")
    evaluate.add_argument("--train-fraction", type=_open_unit_interval, default=0.70)
    evaluate.set_defaults(func=cmd_evaluate)

    predict = sub.add_parser("predict", parents=[common], help="score one log file")
    predict.add_argument("--log", required=True)
    predict.add_argument("--embeddings", required=True)
    predict.add_argument("--model", required=True)
    predict.add_argument("--threshold", type=_open_unit_interval, default=0.75)
    predict.set_defaults(func=cmd_predict)

    serve = sub.add_parser("serve", parents=[common], help="run the detection service")
    serve.add_argument("--bind", type=_bind_address, default="127.0.0.1:8787",
                       help="host:port (default %(default)s)")
    serve.add_argument("--embeddings")
    serve.add_argument("--model")
    serve.add_argument("--threshold", type=_open_unit_interval, default=0.75)
    serve.add_argument("--audit", help="audit JSON-lines path")
    takes_config(serve, ("bind", "embeddings", "model", "threshold", "audit"))
    serve.set_defaults(func=cmd_serve)

    agent = sub.add_parser("agent", parents=[common], help="watch a directory and ship logs")
    agent.add_argument("--watch", dest="watch_dir", help="directory to watch")
    agent.add_argument("--server", dest="server_url",
                       help="detector base URL (MEMLOG_SERVER overrides)")
    agent.add_argument("--poll-ms", dest="poll_interval_ms", type=_positive_int, default=500)
    agent.add_argument("--max-attempts", type=_positive_int, default=3)
    agent.add_argument("--backoff-ms", dest="backoff_base_ms", type=_non_negative_int,
                       default=100)
    agent.add_argument("--drain", action="store_true",
                       help="exit once the backlog is empty instead of polling")
    takes_config(
        agent, ("watch_dir", "server_url", "poll_interval_ms", "max_attempts", "backoff_base_ms")
    )
    agent.set_defaults(func=cmd_agent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            args = build_parser(_read_config(parser, args.config)).parse_args(argv)
        return args.func(args)
    except MemlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1
    except KeyboardInterrupt:
        return 130
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
