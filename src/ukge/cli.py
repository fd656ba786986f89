"""Command-line interface.

Subcommands:

* ``stats``   — dataset summary and per-relation hierarchy scores,
* ``train``   — fit a model and write a checkpoint plus a loss trace,
* ``eval``    — filtered MRR / Hits@K of a checkpoint on a test split,
* ``predict`` — top-K tail completions for a (head, relation) query,
* ``synth``   — write the synthetic tree-plus-ring dataset to TSV files.

Exit codes: 0 success, 2 input error (files, configuration, checkpoints),
3 lookup error (unknown names or ids), 4 numeric failure during training.
Options may come from a ``key=value`` config file; explicit flags override
file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys

import numpy as np

from . import evaluation, kgdata, model, operators, training
from .errors import (
    CheckpointError,
    DigestMismatchError,
    IdLookupError,
    NameLookupError,
    NumericError,
    UkgeError,
)
from .geometry import Signature

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LOOKUP = 3
EXIT_NUMERIC = 4

#: config-file keys the train command accepts, with parsers and defaults
TRAIN_OPTIONS: dict[str, tuple] = {
    "dim": (int, 32),
    "time_dims": (int, 2),
    "alpha": (float, 1.0),
    "lr": (float, 5e-3),
    "batch": (int, 500),
    "neg": (int, 50),
    "epochs": (int, 200),
    "margin": (float, 6.0),
    "seed": (int, 0),
    "operator": (str, "rotref"),
    "geometry": (str, "ultra"),
    "optimizer": (str, "adam"),
    "threads": (int, 1),
    "deterministic": (lambda s: s.lower() in ("1", "true", "yes"), False),
    "eval_every": (int, 50),
}


class CliError(UkgeError):
    """Input-level problem detected by the CLI itself."""


def load_config_file(path: str, known: dict[str, tuple]) -> dict:
    """Parse ``key=value`` lines; unknown keys are rejected."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in known:
                raise CliError(f"{path}:{lineno}: unknown option {key!r}")
            caster = known[key][0]
            try:
                values[key] = caster(raw)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    return values


def merge_options(
    defaults: dict, file_values: dict, flag_values: dict
) -> dict:
    """Effective options: flags beat file values beat defaults."""
    merged = dict(defaults)
    merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    return merged


def _signature_from(options: dict) -> Signature:
    d = options["dim"]
    q = options["time_dims"]
    if d % 2 or q % 2:
        raise CliError(f"--dim and --time-dims must be even, got {d}/{q}")
    if q < 1 or d - q < q:
        raise CliError(
            f"need dim - time_dims >= time_dims >= 1, got dim={d}, time_dims={q}"
        )
    return Signature(d - q, q, options["alpha"])


def _humanize(n: int) -> str:
    if n >= 1000:
        return f"{round(n / 1000)}k"
    return str(n)


def _load_store(args) -> kgdata.TripleStore:
    store = kgdata.load_triples(
        args.train, getattr(args, "valid", None), getattr(args, "test", None)
    )
    if store.test_only_entities:
        print(
            f"note: {len(store.test_only_entities)} entities appear only in "
            f"the test split",
            file=sys.stderr,
        )
    return store


# --- subcommands -----------------------------------------------------------------


def cmd_stats(args) -> int:
    store = _load_store(args)
    counts = kgdata.relation_counts(store)
    print(
        f"{_humanize(store.n_entities)} entities / "
        f"{_humanize(store.n_relations)} relations / "
        f"{_humanize(int(counts.sum()))} triples"
    )
    print(
        f"splits: train={store.train.shape[0]} valid={store.valid.shape[0]} "
        f"test={store.test.shape[0]}"
    )
    print()
    print(f"{'relation':<30} {'count':>8} {'khs':>10}")
    khs = kgdata.hierarchy_scores(store)
    for rid, name in enumerate(store.relation_names):
        cell = "n/a" if khs[rid] is None else f"{khs[rid]:.4f}"
        print(f"{name:<30} {counts[rid]:>8} {cell:>10}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(kgdata.stats_csv(store, khs))
        print(f"\nwrote {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    file_values = (
        load_config_file(args.config, TRAIN_OPTIONS) if args.config else {}
    )
    defaults = {k: v[1] for k, v in TRAIN_OPTIONS.items()}
    flags = {
        k: getattr(args, k)
        for k in TRAIN_OPTIONS
    }
    options = merge_options(defaults, file_values, flags)
    sig = _signature_from(options)  # validate configuration before any compute
    cfg = training.TrainConfig(
        batch_size=options["batch"],
        neg_samples=options["neg"],
        learning_rate=options["lr"],
        epochs=options["epochs"],
        optimizer=options["optimizer"],
        seed=options["seed"],
        threads=options["threads"],
        deterministic=options["deterministic"],
    )
    cfg.validate()
    store = _load_store(args)
    store = kgdata.augment_inverse(store)
    m = model.init(
        sig,
        store.n_entities,
        store.n_relations,
        delta=options["margin"],
        seed=options["seed"],
        operator=options["operator"],
        geometry=options["geometry"],
        entity_digest=model.dictionary_digest(store.entity_names),
        relation_digest=model.dictionary_digest(store.relation_names),
    )
    eval_every = options["eval_every"]
    has_valid = store.valid.shape[0] > 0

    def callback(epoch: int, loss: float, current: model.Model) -> None:
        print(f"epoch {epoch + 1:>4}  loss {loss:.6f}")
        if has_valid and eval_every > 0 and (epoch + 1) % eval_every == 0:
            report = evaluation.evaluate(
                current, store, split="valid", threads=cfg.effective_threads
            )
            print(f"    valid MRR {report.mrr:.4f}  H@10 {report.hits[10]:.4f}")

    try:
        trained, trace = training.fit(m, store, cfg, epoch_callback=callback)
    except NumericError as exc:
        last_good = getattr(exc, "last_good", None)
        if last_good is not None and args.out:
            model.save(last_good, args.out)
            print(f"aborted; last good checkpoint written to {args.out}", file=sys.stderr)
        raise
    model.save(trained, args.out)
    trace_path = args.trace or args.out + ".trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i + 1},{loss!r}\n")
    print(f"wrote {args.out} and {trace_path}")
    return EXIT_OK


def _load_model_for_store(args, store: kgdata.TripleStore) -> model.Model:
    m = model.load(args.model)
    if m.n_entities != store.n_entities or m.n_relations != store.n_relations:
        raise DigestMismatchError(
            f"checkpoint was trained on {m.n_entities} entities / "
            f"{m.n_relations} relations, store has {store.n_entities} / "
            f"{store.n_relations}"
        )
    if m.entity_digest and m.entity_digest != model.dictionary_digest(store.entity_names):
        raise DigestMismatchError(
            "entity dictionary digest mismatch: the checkpoint was trained "
            "on different entity files (or a different ordering)"
        )
    if m.relation_digest and m.relation_digest != model.dictionary_digest(
        store.relation_names
    ):
        raise DigestMismatchError(
            "relation dictionary digest mismatch: the checkpoint was trained "
            "on different relation files"
        )
    return m


def cmd_eval(args) -> int:
    store = _load_store(args)
    store = kgdata.augment_inverse(store)
    m = _load_model_for_store(args, store)
    filter_splits = tuple(s.strip() for s in args.filter.split(",") if s.strip())
    for s in filter_splits:
        if s not in kgdata.SPLITS:
            raise CliError(f"unknown filter split {s!r}")
    report = evaluation.evaluate(
        m, store, split="test", filter_splits=filter_splits, threads=args.threads
    )
    print(evaluation.report_table(report, store), end="")
    if args.per_relation:
        with open(args.per_relation, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(evaluation.report_csv(report, store))
        print(f"wrote {args.per_relation}")
    return EXIT_OK


def _resolve_name(name: str, lookup, names: list[str], kind: str) -> int:
    """Id of ``name`` via the store's ``lookup``, with close-match hints."""
    try:
        return lookup(name)
    except IdLookupError:
        close = difflib.get_close_matches(name, names, n=3)
        hint = f"; close matches: {', '.join(close)}" if close else ""
        raise NameLookupError(f"unknown {kind} {name!r}{hint}") from None


def cmd_predict(args) -> int:
    store = _load_store(args)
    store = kgdata.augment_inverse(store)
    m = _load_model_for_store(args, store)
    h = _resolve_name(args.head, store.entity_id, store.entity_names, "entity")
    r = _resolve_name(args.rel, store.relation_id, store.relation_names, "relation")
    scores = model.score_candidates(m, h, r)
    k = min(args.topk, m.n_entities)
    order = np.argsort(-scores, kind="stable")[:k]
    for t in order:
        print(f"{store.entity_names[int(t)]}\t{scores[int(t)]:.6f}")
    return EXIT_OK


def cmd_synth(args) -> int:
    store = kgdata.make_synthetic(
        levels=args.levels, branching=args.branching, cycle=args.cycle, seed=args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    for split in kgdata.SPLITS:
        kgdata.write_split_tsv(store, split, os.path.join(args.out, f"{split}.tsv"))
    print(
        f"wrote {args.out}/{{train,valid,test}}.tsv: {store.n_entities} entities, "
        f"{store.n_relations} relations, {store.all_triples().shape[0]} triples"
    )
    return EXIT_OK


# --- parser / dispatch --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ukge",
        description="Knowledge-graph embeddings on ultrahyperbolic manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="dataset summary and hierarchy scores")
    p_stats.add_argument("--train", required=True)
    p_stats.add_argument("--valid")
    p_stats.add_argument("--test")
    p_stats.add_argument("--out", help="write per-relation CSV here")
    p_stats.set_defaults(func=cmd_stats)

    p_train = sub.add_parser("train", help="fit a model and write a checkpoint")
    p_train.add_argument("--train", required=True)
    p_train.add_argument("--valid")
    p_train.add_argument("--test")
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--config", help="key=value options file")
    p_train.add_argument("--trace", help="loss trace CSV path")
    p_train.add_argument("--dim", type=int, help="ambient dimension d (even)")
    p_train.add_argument("--time-dims", dest="time_dims", type=int,
                         help="time dimensions q (even, q <= d - q)")
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--batch", type=int)
    p_train.add_argument("--neg", type=int)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--margin", type=float)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--operator", choices=operators.OPERATOR_MODES)
    p_train.add_argument("--geometry", choices=model.GEOMETRIES)
    p_train.add_argument("--optimizer", choices=training.OPTIMIZERS)
    p_train.add_argument("--threads", type=int)
    p_train.add_argument("--deterministic", action="store_const", const=True,
                         default=None)
    p_train.add_argument("--eval-every", dest="eval_every", type=int)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="filtered ranking metrics")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--train", required=True)
    p_eval.add_argument("--valid")
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--filter", default="train,valid,test")
    p_eval.add_argument("--per-relation", dest="per_relation",
                        help="write per-relation CSV here")
    p_eval.add_argument("--threads", type=int, default=1)
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="top-K tail completions")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--train", required=True)
    p_pred.add_argument("--valid")
    p_pred.add_argument("--test")
    p_pred.add_argument("--head", required=True)
    p_pred.add_argument("--rel", required=True)
    p_pred.add_argument("--topk", type=int, default=10)
    p_pred.set_defaults(func=cmd_predict)

    p_synth = sub.add_parser("synth", help="write the synthetic toy dataset")
    p_synth.add_argument("--levels", type=int, default=3)
    p_synth.add_argument("--branching", type=int, default=3)
    p_synth.add_argument("--cycle", type=int, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IdLookupError, NameLookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOOKUP
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UkgeError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:  # console-script entry point
    sys.exit(main())
