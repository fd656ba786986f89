"""The benchmark's workloads: inputs made from the seed, the measured work,
and the checks on the program's outputs.

Each workload is closed loop with one client thread: the next call starts
when the previous one returned.  ``setup`` builds every input from the
workload seed; ``run`` does the measured work and returns, with its
samples, a ``check`` that tests what the program returned.  The caller runs
the check after the measurement and after tracing is removed, so checking
costs neither time nor spans.

The amount of work is fixed by ``--seconds`` through the per-workload rates
below, chosen so that the seed code measures for about that long on a
2-core virtual machine.  Fixed work keeps the count metrics of a traced run exactly
repeatable.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable

import numpy as np

from ukge import cli, evaluation, geometry, kgdata, model, training
from ukge.errors import UkgeError
from ukge.geometry import Signature

import reference


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TOY the smoke test's."""

    levels: int = 8  # make_synthetic(levels=8, branching=4): 21,845 entities
    branching: int = 4
    p: int = 28
    q: int = 4
    stats_levels: int = 7  # 5,461-node isa tree, 4,096-node next ring
    stats_branching: int = 4


FULL = Scale()
TOY = Scale(levels=3, branching=3, p=6, q=2, stats_levels=3, stats_branching=3)
SCALES = {"full": FULL, "toy": TOY}

TRAIN_CONFIG = training.TrainConfig(
    batch_size=500, neg_samples=50, learning_rate=5e-3, threads=1
)
TRAIN_SAMPLE = 2000  # positives per epoch: 4 batches
TOPK = 10
EVAL_CHUNK = 64
#: predict prints scores with 6 decimals
PRINTED_TOL = 5e-7
#: reference oracle vs ukge: scores to 1e-9 relative, MRR to 1e-9, Hits@10 to 1e-12
SCORE_RTOL = 1e-9
MRR_TOL = 1e-9


# --- timing ----------------------------------------------------------------------

#: host_probe's time on the reference 2-core virtual machine in a quiet phase
PROBE_REF_S = 0.005
_PROBE_INPUT = np.linspace(0.0, 1.0, 50_000)


def host_probe() -> float:
    """Seconds for a fixed slice of interpreter and numpy work, about 5 ms."""
    start = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    a = _PROBE_INPUT
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - start


class Timer:
    """Timed samples, each taken between two host probes.

    The shared host's speed drifts by up to a quarter over seconds to
    minutes, which moves whole runs.  ``scaled`` divides each sample by the
    mean of the probes just before and after it, in units of PROBE_REF_S:
    the sample's time on the host at its reference speed.  ``wall`` keeps
    the raw times.
    """

    def __init__(self):
        self.wall: list[float] = []
        self._probes: list[tuple[float, float]] = []
        self._before = self._start = 0.0

    def start(self) -> None:
        self._before = host_probe()
        self._start = perf_counter()

    def stop(self) -> None:
        self.wall.append(perf_counter() - self._start)
        self._probes.append((self._before, host_probe()))

    def scaled(self) -> list[float]:
        return [w * 2 * PROBE_REF_S / (a + b) for w, (a, b) in zip(self.wall, self._probes)]


@dataclass
class Outcome:
    """What one measured run produced, before it is turned into metrics."""

    attempted: int
    work: Timer  # throughput samples
    units: list[int]  # operations done in each work sample
    requests: Timer  # latency samples, one per request
    #: workload-specific names of printed metrics: name -> (metric, factor, unit)
    aliases: dict[str, tuple[str, float, str]] = field(default_factory=dict)
    details: list[str] = field(default_factory=list)
    #: returns (failed operations, one line per failure)
    check: Callable[[], tuple[int, list[str]]] = lambda: (0, [])


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _write_tsvs(store: kgdata.TripleStore, workdir: str) -> dict[str, str]:
    paths = {s: os.path.join(workdir, f"{s}.tsv") for s in kgdata.SPLITS}
    for split, path in paths.items():
        kgdata.write_split_tsv(store, split, path)
    return paths


def _split_args(paths: dict[str, str]) -> list[str]:
    return ["--train", paths["train"], "--valid", paths["valid"], "--test", paths["test"]]


def _call_cli(argv: list[str], timer: Timer) -> tuple[int, str]:
    """Run one timed in-process CLI command; returns exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        timer.start()
        code = cli.main(argv)
        timer.stop()
    return code, out.getvalue()


# --- train-22k -------------------------------------------------------------------


def train_setup(scale: Scale, seed: int, workdir: str):
    store = kgdata.augment_inverse(
        kgdata.make_synthetic(levels=scale.levels, branching=scale.branching, seed=seed)
    )
    n = min(TRAIN_SAMPLE, store.train.shape[0])
    rows = np.sort(_rng(seed, 1).choice(store.train.shape[0], n, replace=False))
    store = replace(store, train=store.train[rows])
    sig = Signature(scale.p, scale.q)
    m = model.init(sig, store.n_entities, store.n_relations, seed=seed)
    return store, m, replace(TRAIN_CONFIG, seed=seed)


def train_run(inputs, seconds: float, seed: int) -> Outcome:
    store, m, cfg = inputs
    # about 1.5 s per 2,000-triple epoch on the seed code
    cfg = replace(cfg, epochs=max(2, round(seconds / 1.5)))
    n = store.train.shape[0]
    per_epoch = math.ceil(n / cfg.batch_size)
    attempted = cfg.epochs * per_epoch
    epochs = Timer()

    def on_epoch(epoch, loss, current):
        epochs.stop()
        epochs.start()

    epochs.start()
    try:
        trained, losses = training.fit(m, store, cfg, epoch_callback=on_epoch)
    except UkgeError as exc:
        failure = f"fit raised {exc!r}"
        return Outcome(attempted, epochs, [n] * len(epochs.wall), epochs,
                       check=lambda: (attempted, [failure]))

    def check():
        """Loss finite and falling every epoch; trained entities on the manifold."""
        failed = 0
        details = []
        for i, loss in enumerate(losses):
            if not math.isfinite(loss) or (i and not loss < losses[i - 1]):
                failed += per_epoch
                details.append(f"epoch {i}: loss {loss!r} after {losses[i - 1] if i else None!r}")
        on = geometry.on_manifold(geometry.phi(trained.entities, trained.sig), trained.sig)
        if not np.all(on):
            failed = attempted
            details.append(f"{int(np.count_nonzero(~on))} trained entities off the manifold")
        return failed, details

    return Outcome(
        attempted, epochs, [n] * cfg.epochs, epochs,
        aliases={"train_triples_per_s": ("throughput_per_s", 1.0, "triples/s")},
        details=[
            f"{cfg.epochs} epochs x {n} positives, {cfg.neg_samples} negatives each; "
            f"loss {losses[0]:.4f} -> {losses[-1]:.4f}; latency = one epoch"
        ],
        check=check,
    )


# --- query-22k -------------------------------------------------------------------


@dataclass
class QueryInputs:
    paths: dict[str, str]
    ckpt: str
    m: model.Model
    store: kgdata.TripleStore  # loaded from the TSVs, augmented with inverses
    requests: list[tuple[str, str]]


def query_setup(scale: Scale, seed: int, workdir: str) -> QueryInputs:
    base = kgdata.make_synthetic(levels=scale.levels, branching=scale.branching, seed=seed)
    paths = _write_tsvs(base, workdir)
    store = kgdata.augment_inverse(
        kgdata.load_triples(paths["train"], paths["valid"], paths["test"])
    )
    sig = Signature(scale.p, scale.q)
    m = model.init(
        sig, store.n_entities, store.n_relations, seed=seed,
        entity_digest=model.dictionary_digest(store.entity_names),
        relation_digest=model.dictionary_digest(store.relation_names),
    )
    # unit-scale entities spread the scores as a trained model's are,
    # instead of piling them up at the arccos/arccosh clamps
    rng = _rng(seed, 2)
    m.entities[:] = rng.normal(0.0, 1.0, m.entities.shape)
    m.biases[:] = rng.normal(0.0, 1.0, m.biases.shape)
    ckpt = os.path.join(workdir, "model.ukge")
    model.save(m, ckpt)
    m = model.load(ckpt)
    heads = rng.integers(0, store.n_entities, 4096)
    rels = store.relation_names
    requests = [
        (store.entity_names[int(h)], rels[i % len(rels)]) for i, h in enumerate(heads)
    ]
    return QueryInputs(paths, ckpt, m, store, requests)


def _query_chunks(store: kgdata.TripleStore, count: int, seed: int):
    """Stores whose test splits are chunks of EVAL_CHUNK of ``count`` sampled
    test queries.  Every other test triple moves to the filter-only valid
    split, so each chunk is still filtered against the whole graph."""
    test = store.test
    picked = _rng(seed, 3).choice(test.shape[0], min(count, test.shape[0]), replace=False)
    chunks = []
    for lo in range(0, picked.size, EVAL_CHUNK):
        keep = np.zeros(test.shape[0], dtype=bool)
        keep[picked[lo : lo + EVAL_CHUNK]] = True
        chunks.append(replace(
            store, test=test[keep], valid=np.concatenate([store.valid, test[~keep]])
        ))
    return chunks


def query_run(inputs: QueryInputs, seconds: float, seed: int) -> Outcome:
    # about 2 s per evaluate call of 64 queries and 160 ms per predict on
    # the seed code; 40% of the time evaluating, 60% predicting
    chunks = _query_chunks(inputs.store, EVAL_CHUNK * max(1, round(seconds * 0.4 / 2)), seed)
    n_predict = max(100, round(seconds * 0.6 / 0.16))

    # each evaluate call is followed by its share of the predict calls, so
    # that both kinds of sample spread over the whole run
    reports, evals = [], Timer()
    outputs, predicts = [], Timer()
    blocks = np.array_split(np.arange(n_predict), len(chunks))
    for chunk, block in zip(chunks, blocks):
        evals.start()
        reports.append(evaluation.evaluate(inputs.m, chunk))
        evals.stop()
        for i in block:
            head, rel = inputs.requests[i]
            argv = ["predict", "--model", inputs.ckpt, *_split_args(inputs.paths),
                    "--head", head, "--rel", rel, "--topk", str(TOPK)]
            outputs.append((head, rel) + _call_cli(argv, predicts))

    def check():
        oracle = reference.Scorer(inputs.m)
        failed, details = _check_predict(inputs.m, inputs.store, outputs, oracle)
        known: dict[tuple[int, int], list[int]] = {}
        for h, r, t in inputs.store.all_triples():
            known.setdefault((int(h), int(r)), []).append(int(t))
        for chunk, report in zip(chunks, reports):
            chunk_failed, chunk_details = _check_eval(inputs.m, chunk, report, oracle, known)
            failed += chunk_failed
            details += chunk_details
        return failed, details

    units = [chunk.test.shape[0] for chunk in chunks]
    return Outcome(
        sum(units) + len(outputs), evals, units, predicts,
        aliases={
            "eval_queries_per_s": ("throughput_per_s", 1.0, "queries/s"),
            "predict_p50_ms": ("latency_p50_ms", 1.0, "ms"),
            "predict_p90_ms": ("latency_p90_ms", 1.0, "ms"),
        },
        details=[
            f"{sum(units)} filtered queries in {len(chunks)} evaluate calls, "
            f"{len(outputs)} predict calls; latency = one predict call"
        ],
        check=check,
    )


def _check_eval(m, store, report, oracle, known) -> tuple[int, list[str]]:
    """Gold scores finite and equal to the oracle's; metrics equal the
    oracle's filtered ranking, per relation and overall."""
    bad: set[int] = set()
    details = []
    ranks = []
    for i, (h, r, t) in enumerate(store.test):
        h, r, t = int(h), int(r), int(t)
        gold = model.score(m, h, r, t)
        scores = oracle.scores(h, r)
        ranks.append(reference.filtered_rank(scores, t, np.array(known[(h, r)])))
        if not math.isfinite(gold) or abs(gold - scores[t]) > SCORE_RTOL * max(1.0, abs(gold)):
            bad.add(i)
            details.append(f"query {i} ({h},{r},{t}): gold score {gold!r}, oracle {scores[t]!r}")
    ranks = np.array(ranks)
    rels = store.test[:, 1]

    def agrees(got_mrr, got_h10, sel):
        return (abs(got_mrr - np.mean(1.0 / ranks[sel])) <= MRR_TOL
                and abs(got_h10 - np.mean(ranks[sel] <= 10)) <= 1e-12)

    for rel, rm in report.per_relation.items():
        sel = rels == rel
        if rm.count != np.count_nonzero(sel) or not agrees(rm.mrr, rm.hits[10], sel):
            bad.update(np.flatnonzero(sel).tolist())
            details.append(f"relation {rel}: MRR {rm.mrr!r} H@10 {rm.hits[10]!r} disagree")
    if not agrees(report.mrr, report.hits[10], np.ones(ranks.size, dtype=bool)):
        bad.update(range(ranks.size))
        details.append(f"overall MRR {report.mrr!r} H@10 {report.hits[10]!r} disagree")
    return len(bad), details


def _check_predict(m, store, outputs, oracle) -> tuple[int, list[str]]:
    """Exit 0; TOPK lines, scores non-increasing, each equal to model.score
    to the printed precision, and no unlisted entity scoring higher."""
    failed = 0
    details = []
    k = min(TOPK, m.n_entities)
    for head, rel, code, text in outputs:
        problem = None
        if code != 0:
            problem = f"exit {code}"
        else:
            try:
                rows = [line.split("\t") for line in text.splitlines()]
                tails = [store.entity_id(name) for name, _ in rows]
                printed = [float(s) for _, s in rows]
            except (ValueError, UkgeError) as exc:
                rows, problem = [], f"unreadable output ({exc})"
        if not problem:
            h, r = store.entity_id(head), store.relation_id(rel)
            scores = oracle.scores(h, r)
            rest = np.delete(scores, tails)
            if len(rows) != k:
                problem = f"{len(rows)} lines"
            elif any(b > a for a, b in zip(printed, printed[1:])):
                problem = "scores increase"
            elif any(abs(p - model.score(m, h, r, t)) > PRINTED_TOL + 1e-12 * abs(p)
                     for p, t in zip(printed, tails)):
                problem = "printed score disagrees with model.score"
            elif rest.size and rest.max() > printed[-1] + PRINTED_TOL:
                problem = "an unlisted entity outscores the list"
        if problem:
            failed += 1
            details.append(f"predict {head} {rel}: {problem}")
    return failed, details


# --- stats-ring ------------------------------------------------------------------


def stats_setup(scale: Scale, seed: int, workdir: str) -> dict[str, str]:
    return _write_tsvs(
        kgdata.make_synthetic(
            levels=scale.stats_levels, branching=scale.stats_branching, seed=seed
        ),
        workdir,
    )


def stats_run(paths: dict[str, str], seconds: float, seed: int) -> Outcome:
    # about 7 s per call on the seed code
    calls = max(3, round(seconds / 7))
    timer = Timer()
    results = [_call_cli(["stats", *_split_args(paths)], timer) for _ in range(calls)]

    def check():
        """Exit 0; khs 1.0000 for the isa tree and 0.0000 for the next ring."""
        failed = 0
        details = []
        for code, text in results:
            khs = {
                fields[0]: fields[2]
                for fields in (line.split() for line in text.splitlines())
                if len(fields) >= 3 and fields[0] in ("isa", "next")
            }
            if code != 0 or khs != {"isa": "1.0000", "next": "0.0000"}:
                failed += 1
                details.append(f"stats: exit {code}, khs {khs}")
        return failed, details

    return Outcome(
        calls, timer, [1] * calls, timer,
        aliases={"stats_s": ("latency_p50_ms", 1e-3, "s")},
        details=[f"{calls} stats calls; latency = one stats call"],
        check=check,
    )


#: name -> (setup, run); run receives the set-up inputs, seconds and seed
WORKLOADS = {
    "train-22k": (train_setup, train_run),
    "query-22k": (query_setup, query_run),
    "stats-ring": (stats_setup, stats_run),
}
