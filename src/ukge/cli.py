"""Command-line interface.

Subcommands:

* ``stats``   — dataset summary and per-relation hierarchy scores,
* ``train``   — fit a model and write a checkpoint plus a loss trace,
* ``eval``    — filtered MRR / Hits@K of a checkpoint on a test split,
* ``predict`` — top-K tail completions for a (head, relation) query,
* ``synth``   — write the synthetic tree-plus-ring dataset to TSV files.

Exit codes: 0 success, 2 input error (files, configuration, checkpoints),
3 lookup error (unknown names or ids), 4 numeric failure during training.
:data:`TRAIN_OPTIONS` states each ``train`` option once, as a flag and as a
key of the ``key=value`` config file, with its allowed values; explicit
flags override file values, which override built-in defaults.  A bad key
or value in the file (``optimizer = sgd``, or ``epochs = 5000`` outside the
bound ``TrainConfig.validate`` states), or a key set twice, is an input
error at ``path:line``.  A negative ``seed`` (also for ``synth``) or
``eval_every``, a non-finite ``margin`` or an ``alpha`` that is not
positive and finite is an input error from a flag or the file, as is
``predict --topk`` below 1, or an ``eval --filter`` split that is not
``train``, ``valid`` or ``test``, or an output path that is a directory,
lies in a missing one, or names an input file or another output; all are
raised before any TSV is read.  Every run is deterministic, so the
``deterministic`` option is accepted and changes nothing.  Data holding
both ``x`` and ``x_inv``, the name of the inverse of ``x``, is an input
error too, as is a TSV or config-file line that is not valid UTF-8.
``predict`` reads only the names from the TSVs, as UTF-8 bytes: it
checks the digests on those bytes, finds ``--head`` among them and
decodes only the names it prints (all of them for an unknown ``--head``).
The argument parser is built once, when this module is imported, and
:func:`main` looks its subcommand's function up by name when it runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evaluation, kgdata, model, operators, training
from .errors import (
    ConfigurationError,
    DigestMismatchError,
    IdLookupError,
    NameLookupError,
    NumericError,
    UkgeError,
)
from .geometry import Signature, check_alpha

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LOOKUP = 3
EXIT_NUMERIC = 4


def _parse_bool(raw: str) -> bool:
    """``1/true/yes`` or ``0/false/no`` in any case; ValueError otherwise."""
    word = raw.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {raw!r}")
    return word in ("1", "true", "yes")


#: the keyword defaults of ``model.init``
_INIT = model.init.__kwdefaults__

#: train options, key -> (parser, default, allowed values or None for any);
#: each is a config-file key and, dashed, a flag (``time_dims``, ``--time-dims``).
#: An option with a ``TrainConfig`` field or a ``model.init`` keyword takes
#: its default from there.
TRAIN_OPTIONS: dict[str, tuple] = {
    "dim": (int, 32, None),
    "time_dims": (int, 2, None),
    "alpha": (float, 1.0, None),
    "lr": (float, training.TrainConfig.learning_rate, None),
    "batch": (int, training.TrainConfig.batch_size, None),
    "neg": (int, training.TrainConfig.neg_samples, None),
    "epochs": (int, training.TrainConfig.epochs, None),
    "margin": (float, _INIT["delta"], None),
    "seed": (int, training.TrainConfig.seed, None),
    "operator": (str, _INIT["operator"], tuple(operators.OPERATOR_MODES)),
    "geometry": (str, _INIT["geometry"], model.GEOMETRIES),
    "optimizer": (str, training.TrainConfig.optimizer, tuple(training.OPTIMIZERS)),
    "deterministic": (_parse_bool, False, None),  # a bare switch as a flag
    "eval_every": (int, 50, None),
}


#: the ``TrainConfig`` field of each train option that has one
_CONFIG_FIELDS = dict(
    batch="batch_size", neg="neg_samples", lr="learning_rate", epochs="epochs",
    optimizer="optimizer", seed="seed",
)


class CliError(UkgeError):
    """Input-level problem detected by the CLI itself."""


def _check_bounds(key: str, value) -> None:
    """Raise :class:`ConfigurationError` when ``value`` breaks a bound of option
    ``key``.  ``dim`` and ``time_dims`` are checked together, once merged,
    because a flag may complete the file's pair (``time_dims = 20`` in the
    file with ``--dim 64``)."""
    if key in _CONFIG_FIELDS:
        training.TrainConfig(**{_CONFIG_FIELDS[key]: value}).validate()
    elif key == "margin":
        model.check_margin(value)
    elif key == "alpha":
        check_alpha(value)
    elif key == "eval_every" and value < 0:
        raise ConfigurationError(f"eval_every must be >= 0, got {value}")


def load_config_file(path: str) -> dict:
    """Parse ``key=value`` lines against :data:`TRAIN_OPTIONS`; a key or value
    it does not accept, or a key set twice, raises :class:`CliError` at
    ``path:line``, and a line that is not valid UTF-8 a
    :class:`~ukge.errors.ParseError` there."""
    values, first_line = {}, {}
    for lineno, line in kgdata.text_lines(path):  # a leading BOM is skipped
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in TRAIN_OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown option {key!r}")
        if key in first_line:
            raise CliError(
                f"{path}:{lineno}: {key} is already set at line {first_line[key]}"
            )
        first_line[key] = lineno
        parse, _, allowed = TRAIN_OPTIONS[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
        try:
            if allowed is not None and values[key] not in allowed:
                raise ConfigurationError(f"choose from {', '.join(allowed)}")
            _check_bounds(key, values[key])
        except ConfigurationError as exc:
            raise CliError(
                f"{path}:{lineno}: bad value for {key}: {raw!r} ({exc})"
            ) from exc
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
    """The signature (dim - time_dims, time_dims, alpha), with even p and q."""
    d, q = options["dim"], options["time_dims"]
    try:
        sig = Signature(d - q, q, options["alpha"])
        operators.require_even(sig)
    except ConfigurationError as exc:
        raise CliError(f"dim={d}, time_dims={q}: {exc}") from exc
    return sig


def _humanize(n: int) -> str:
    if n >= 1000:
        return f"{round(n / 1000)}k"
    return str(n)


def _note_test_only(count: int) -> None:
    if count:
        print(f"note: {count} entities appear only in the test split", file=sys.stderr)


def _check_outputs(args, **outputs) -> None:
    """Raise :class:`CliError` for an output path (``None`` when unset) that
    is an existing directory, lies in a missing directory, or resolves to an
    input file of ``args`` or to an earlier output."""
    taken = {os.path.realpath(path): option
             for option in ("train", "valid", "test", "config", "model")
             if (path := getattr(args, option, None))}
    for option, path in outputs.items():
        if not path:
            continue
        real = os.path.realpath(path)
        if os.path.isdir(path):
            raise CliError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise CliError(f"cannot write {path}: no such directory")
        if real in taken:
            raise CliError(f"cannot write {path}: it is also --{taken[real]}")
        taken[real] = option.replace("_", "-")


def _load_store(args) -> kgdata.TripleStore:
    store = kgdata.load_triples(args.train, args.valid, args.test)
    _note_test_only(len(store.test_only_entities))
    return store


# --- subcommands -----------------------------------------------------------------


def cmd_stats(args) -> int:
    _check_outputs(args, out=args.out)
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
            fh.write(kgdata.stats_csv(store, counts, khs))
        print(f"\nwrote {args.out}")
    return EXIT_OK


def train_config(options: dict) -> training.TrainConfig:
    """Validated ``TrainConfig``; ``deterministic`` changes nothing, as every
    run is deterministic."""
    cfg = training.TrainConfig(**{f: options[k] for k, f in _CONFIG_FIELDS.items()})
    cfg.validate()
    return cfg


def cmd_train(args) -> int:
    trace_path = args.trace or args.out + ".trace.csv"
    _check_outputs(args, out=args.out, trace=trace_path)
    file_values = load_config_file(args.config) if args.config else {}
    defaults = {k: v[1] for k, v in TRAIN_OPTIONS.items()}
    flags = {k: getattr(args, k) for k in TRAIN_OPTIONS}
    options = merge_options(defaults, file_values, flags)
    for key in ("alpha", "margin", "eval_every"):
        _check_bounds(key, options[key])
    sig = _signature_from(options)  # validate configuration before any compute
    cfg = train_config(options)
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
            report = evaluation.evaluate(current, store, split="valid")
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
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss\n")
        for i, loss in enumerate(trace):
            fh.write(f"{i + 1},{loss!r}\n")
    print(f"wrote {args.out} and {trace_path}")
    return EXIT_OK


def _load_model_for_store(
    args, sizes: tuple[int, int], digests: tuple[str, str]
) -> model.Model:
    """The checkpoint ``args.model``, checked against the name dictionaries
    of the augmented store: their ``sizes`` (entities, relations), then
    their ``digests`` (:func:`model.dictionary_digest`)."""
    m = model.load(args.model)
    if (m.n_entities, m.n_relations) != sizes:
        raise DigestMismatchError(
            f"checkpoint was trained on {m.n_entities} entities / "
            f"{m.n_relations} relations, store has {sizes[0]} / {sizes[1]}"
        )
    for kind, stored, digest in zip(
        ("entity", "relation"), (m.entity_digest, m.relation_digest), digests
    ):
        if stored and stored != digest:
            raise DigestMismatchError(
                f"{kind} dictionary digest mismatch: the checkpoint was trained "
                f"on different {kind} files (or a different ordering)"
            )
    return m


def cmd_eval(args) -> int:
    filter_splits = tuple(s.strip() for s in args.filter.split(",") if s.strip())
    for s in filter_splits:
        if s not in kgdata.SPLITS:
            raise CliError(f"unknown filter split {s!r}")
    _check_outputs(args, per_relation=args.per_relation)
    store = _load_store(args)
    store = kgdata.augment_inverse(store)
    digests = tuple(map(model.dictionary_digest, (store.entity_names, store.relation_names)))
    m = _load_model_for_store(args, (store.n_entities, store.n_relations), digests)
    report = evaluation.evaluate(m, store, split="test", filter_splits=filter_splits)
    print(evaluation.report_table(report, store), end="")
    if args.per_relation:
        with open(args.per_relation, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(evaluation.report_csv(report, store))
        print(f"wrote {args.per_relation}")
    return EXIT_OK


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` best scores, in the order of
    ``np.argsort(-scores, kind="stable")[:k]``: best first, ties by id and
    NaN last, without sorting every score."""
    keys = -scores
    if k >= keys.size:
        return np.argsort(keys, kind="stable")
    kth = np.partition(keys, k - 1)[k - 1]  # partition, like sort, puts NaN last
    # the scores ahead of the k-th or tied with it, in id order, stably sorted
    chosen = np.arange(keys.size) if np.isnan(kth) else np.flatnonzero(keys <= kth)
    return chosen[np.argsort(keys[chosen], kind="stable")][:k]


def cmd_predict(args) -> int:
    if args.topk < 1:
        raise CliError(f"--topk must be >= 1, got {args.topk}")
    # only the names, as UTF-8 bytes: the checkpoint's digests tie them to
    # the training data, and only the names printed are decoded
    entities, relations, n_seen = kgdata.read_names(args.train, args.valid, args.test)
    _note_test_only(len(entities) - n_seen)
    relations += kgdata.inverse_names(relations)
    m = _load_model_for_store(args, (len(entities), len(relations)),
                              tuple(map(model.dictionary_digest, (entities, relations))))
    h = kgdata.name_id(args.head, entities, "entity")
    r = kgdata.name_id(args.rel, relations, "relation")
    scores = model.score_candidates(m, h, r)
    for t in top_k(scores, args.topk):
        print(f"{entities[int(t)]}\t{scores[int(t)]:.6f}")
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

    p_train = sub.add_parser("train", help="fit a model and write a checkpoint",
                             description="dim - time_dims >= time_dims >= 2, both even")
    p_train.add_argument("--train", required=True)
    p_train.add_argument("--valid")
    p_train.add_argument("--test")
    p_train.add_argument("--out", required=True, help="checkpoint path")
    p_train.add_argument("--config", help="key=value options file")
    p_train.add_argument("--trace", help="loss trace CSV path")
    # unset flags stay None, so that merge_options keeps file values
    for key, (parse, default, allowed) in TRAIN_OPTIONS.items():
        flag, help_ = "--" + key.replace("_", "-"), f"default: {default}"
        if parse is _parse_bool:  # --deterministic, the only boolean
            help_ = "accepted for old scripts; every run writes the same bytes"
            p_train.add_argument(flag, action="store_const", const=True, help=help_)
        else:
            p_train.add_argument(flag, type=parse, choices=allowed, help=help_)

    p_eval = sub.add_parser("eval", help="filtered ranking metrics")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--train", required=True)
    p_eval.add_argument("--valid")
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--filter", default="train,valid,test")
    p_eval.add_argument("--per-relation", dest="per_relation",
                        help="write per-relation CSV here")

    p_pred = sub.add_parser("predict", help="top-K tail completions")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--train", required=True)
    p_pred.add_argument("--valid")
    p_pred.add_argument("--test")
    p_pred.add_argument("--head", required=True)
    p_pred.add_argument("--rel", required=True)
    p_pred.add_argument("--topk", type=int, default=10)

    p_synth = sub.add_parser("synth", help="write the synthetic toy dataset")
    p_synth.add_argument("--levels", type=int, default=3)
    p_synth.add_argument("--branching", type=int, default=3)
    p_synth.add_argument("--cycle", type=int, default=None)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")

    return parser


#: the parser, built once when the module is imported
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up when called, so a wrapper set on the module takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (IdLookupError, NameLookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOOKUP
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UkgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    entry()
