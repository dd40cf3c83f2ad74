"""The four workloads: set-up, closed-loop measurement and output checks.

Every workload drives the program through its public modules, looks each
function up on its module at call time (so a traced run sees the calls),
and runs in one process with one caller.
"""

from __future__ import annotations

import contextlib
import functools
import io
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import checks
import graphs
from tero import cli, data, evaluation, model, training

K = 500
BATCH = 512
NEG_RATIO = 10
# A run sets up at least SETUP_REPS times, and cheap set-ups as often as
# the first one fits into SETUP_SECONDS; setup_s is the median. The host's
# speed swings by up to 2x for seconds at a time, so the set-ups are spread
# over the measured interval instead of run back to back.
SETUP_REPS = 4
SETUP_SECONDS = 4.0
# per-dataset hyperparameters of the matching CLI profiles
PROFILES = {
    "icews14": {"margin": 110.0, "lr": 0.1, "unit_days": 1, "threshold": None, "dual": False},
    "yago11k": {"margin": 50.0, "lr": 0.1, "unit_days": None, "threshold": 100, "dual": True},
}
TRAIN_STEPS_PER_CALL = 16
YAGO_STEPS_PER_EPOCH = 1
YAGO_EPOCHS_PER_CALL = 3
YAGO_VALID_FACTS = 2
EVAL_RANK_CHECKS = 6
YAGO_RANK_CHECK_FACTS = 2
PREDICT_MIN_CALLS = 100
PREDICT_TOP1_CHECKS = 8
# traced runs must explain this share of each measured call with child spans
MIN_COVERAGE = 0.9

now = time.perf_counter


@contextlib.contextmanager
def unit_clock(module, first: str, last: str):
    """Milliseconds of each unit of work inside one program call.

    A unit starts when ``module.first`` is entered and ends when
    ``module.last`` returns: ``rank_query`` alone for a query, and
    ``_corrupt_batch`` then ``grad_step`` for a training step. The wrappers
    only read the clock, well under a microsecond per unit. If either
    function no longer exists the list stays empty, and the caller falls
    back to the call's mean per unit.
    """
    samples: list[float] = []
    starts: list[float] = []
    originals = {name: getattr(module, name, None) for name in (first, last)}
    if None in originals.values():
        yield samples
        return

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == first:
                starts.append(now())
            out = fn(*args, **kwargs)
            if name == last and starts:
                samples.append((now() - starts.pop()) * 1e3)
            return out
        return wrapper

    for name, fn in originals.items():
        setattr(module, name, timed(name, fn))
    try:
        yield samples
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class Workload:
    """Base: one generated graph, counters of operations and failed checks.

    Subclasses define ``setup_once`` (one timed set-up, returns seconds),
    ``release`` (drops what a set-up built, before the next one),
    ``warm_up``, ``items`` (endless work items), ``do`` (one closed-loop
    call: returns work units and per-unit milliseconds) and ``check``.
    """

    graph_name = ""
    unit = ""
    min_units = 0
    min_coverage = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 7])
        self.graph = graphs.GENERATORS[self.graph_name](seed)
        self.paths = self.graph.write(workdir / "data")
        self.profile = PROFILES[self.graph_name]
        self.attempted = 0
        self.failed = 0
        self.ds = None
        self.check_calls = True

    def record(self, ok: bool, what: str) -> None:
        """Count one correctness check as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def load(self):
        p = self.profile
        return data.load_dataset(self.paths["train"], self.paths["valid"], self.paths["test"],
                                 self.graph.fmt, unit_days=p["unit_days"],
                                 threshold=p["threshold"], dual=p["dual"])

    def setup_once(self, first: bool) -> float:
        t0 = now()
        self.ds = self.load()
        return now() - t0

    def release(self) -> None:
        self.ds = None

    def warm_up(self) -> None:
        pass

    def check(self) -> None:
        pass

    def train_config(self, **kw) -> training.TrainConfig:
        p = self.profile
        return training.TrainConfig(
            k=K, batch_size=BATCH, neg_ratio=NEG_RATIO, margin=p["margin"], lr=p["lr"],
            seed=self.seed, dual=p["dual"], time_unit=p["unit_days"],
            time_threshold=p["threshold"], **kw)

    def raw_filter(self, facts) -> checks.RawFilter:
        return checks.RawFilter(facts, self.ds.vocab, self.ds.binning)


class _TrainChecks:
    """After ``train()``: finite parameters, and a probe-batch loss below init."""

    def check_trained(self, best, chunk_raw: list) -> None:
        if not self.check_calls:
            return
        self.record(checks.all_finite(best), "non-finite parameters after train()")
        ds, cfg = self.ds, self.config
        if self.init is None:
            self.init = model.init_params(ds.vocab.n_entities, ds.vocab.n_relations,
                                          ds.binning.n_tau, K, cfg.dual, cfg.seed)
        filt = self.raw_filter([])
        quads = []
        for f in chunk_raw:
            s, r, o, taus = filt.key(f)
            for slot, tau in checks.endpoint_terms(r, taus, cfg.dual, ds.vocab.n_relations):
                quads.append((s, slot, o, tau))
        pos = np.array(quads[:BATCH])
        neg = checks.corrupt(pos, NEG_RATIO, ds.vocab.n_entities, self.seed)
        before = checks.mean_loss(self.init, pos, neg, cfg.margin, NEG_RATIO)
        after = checks.mean_loss(best, pos, neg, cfg.margin, NEG_RATIO)
        self.record(after < before, f"probe loss did not fall: {before:.4f} -> {after:.4f}")


class Icews14Train(_TrainChecks, Workload):
    """Closed loop of ``train()`` calls, each one epoch over a fresh chunk."""

    graph_name = "icews14"
    unit = "step"
    min_coverage = MIN_COVERAGE

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = self.train_config(max_epochs=1)
        self.init = None
        self.order = self.rng.permutation(len(self.graph.splits["train"]))

    def chunk(self, i: int, n: int) -> list[int]:
        lo = (i * n) % (len(self.order) - n)
        return self.order[lo: lo + n].tolist()

    def warm_up(self) -> None:
        training.train([self.ds.train[j] for j in self.chunk(0, BATCH)], [], self.config,
                       self.ds.binning, self.ds.vocab)

    def items(self):
        i = 1
        while True:
            yield self.chunk(i, TRAIN_STEPS_PER_CALL * BATCH)
            i += 1

    def do(self, item):
        facts = [self.ds.train[j] for j in item]
        with unit_clock(training, "_corrupt_batch", "grad_step") as step_ms:
            t0 = now()
            best, _ = training.train(facts, [], self.config, self.ds.binning, self.ds.vocab)
            dt = now() - t0
        steps = -(-len(facts) // BATCH)
        self.attempted += steps
        self.check_trained(best, [self.graph.splits["train"][j] for j in item])
        return len(facts), step_ms or [dt * 1e3 / steps], dt


class Icews14Eval(Workload):
    """Closed loop of ``evaluate()`` calls, one whole time step each."""

    graph_name = "icews14"
    unit = "query"
    min_coverage = MIN_COVERAGE

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ckpt = workdir / "model" / "model.tero"
        self.ranked: list = []  # (valid index, side, rank)

    def setup_once(self, first: bool) -> float:
        t = super().setup_once(first)
        if first:  # untimed: the checkpoint that set-up then loads
            write_checkpoint(self.ds, self.seed, self.ckpt)
        t0 = now()
        self.params, _ = model.load_checkpoint(self.ckpt)
        self.filter = evaluation.FilterSet.build(self.ds.all_facts, self.ds.binning)
        return t + now() - t0

    def release(self) -> None:
        self.ds = self.params = self.filter = None

    def steps(self) -> dict[int, list[int]]:
        by_step: dict[int, list[int]] = {}
        for i, q in enumerate(self.ds.valid):
            by_step.setdefault(self.ds.binning.index_of(q.time.begin), []).append(i)
        return by_step

    def warm_up(self) -> None:
        evaluation.evaluate(self.params, self.ds.valid[:1], self.filter, self.ds.binning)

    def items(self):
        by_step = self.steps()
        keys = sorted(by_step)
        while True:
            for j in self.rng.permutation(len(keys)):
                yield by_step[keys[j]]

    def do(self, item):
        facts = [self.ds.valid[i] for i in item]
        with unit_clock(evaluation, "rank_query", "rank_query") as query_ms:
            t0 = now()
            report = evaluation.evaluate(self.params, facts, self.filter, self.ds.binning)
            dt = now() - t0
        index = {q: i for q, i in zip(facts, item)}
        self.ranked += [(index[qr.quad], qr.side, qr.rank) for qr in report.ranks]
        n = len(report.ranks)
        self.attempted += n
        self.record(n == 2 * len(facts), f"{n} ranks for {len(facts)} facts")
        return n, query_ms or [dt * 1e3 / n], dt

    def check(self) -> None:
        raw = self.graph.splits["valid"]
        filt = self.raw_filter(self.graph.all_facts)
        for j in self.rng.choice(len(self.ranked), EVAL_RANK_CHECKS, replace=False):
            i, side, rank = self.ranked[j]
            want = checks.brute_rank(self.params, filt, raw[i], side)
            self.record(rank == want, f"valid fact {i} {side}: rank {rank}, brute force {want}")


class Yago11kTrainValid(_TrainChecks, Workload):
    """``train()`` with validation every epoch on two facts of one time step."""

    graph_name = "yago11k"
    unit = "epoch"
    # at least two calls, also on a slow host: a run with one call has half
    # the samples and a lower peak RSS
    min_units = 2 * YAGO_EPOCHS_PER_CALL

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = self.train_config(max_epochs=YAGO_EPOCHS_PER_CALL, valid_every=1,
                                        patience=YAGO_EPOCHS_PER_CALL)
        self.init = None
        self.order = self.rng.permutation(len(self.graph.splits["train"]))
        self.cursor = 0
        self.last = None

    def setup_once(self, first: bool) -> float:
        t = super().setup_once(first)
        if first:
            self.valid_idx = self.pick_valid()
        return t

    def pick_valid(self) -> list[int]:
        """The first two-term valid facts of a seeded step that has enough."""
        raw = self.graph.splits["valid"]
        filt = self.raw_filter([])
        by_step: dict[int, list[int]] = {}
        for i, f in enumerate(raw):
            tb, te = filt.taus(f)
            if tb is not None and te is not None:
                by_step.setdefault(tb, []).append(i)
        steps = sorted(t for t, idx in by_step.items() if len(idx) >= YAGO_VALID_FACTS)
        return by_step[steps[int(self.rng.integers(len(steps)))]][:YAGO_VALID_FACTS]

    def next_chunk(self) -> list[int]:
        """Train facts whose endpoint quads fill exactly the epoch's steps."""
        raw, filt = self.graph.splits["train"], self.raw_filter([])
        cap, total, out = YAGO_STEPS_PER_EPOCH * BATCH, 0, []
        while total < cap - 1:
            i = int(self.order[self.cursor % len(self.order)])
            self.cursor += 1
            n = 2 if None not in filt.taus(raw[i]) else 1
            if total + n <= cap:
                out.append(i)
                total += n
        return out

    def warm_up(self) -> None:
        chunk = [self.ds.train[i] for i in self.next_chunk()]
        cfg = self.train_config(max_epochs=1, valid_every=1)
        training.train(chunk, [self.ds.valid[self.valid_idx[0]]], cfg,
                       self.ds.binning, self.ds.vocab)

    def items(self):
        while True:
            yield self.next_chunk()

    def do(self, item):
        facts = [self.ds.train[i] for i in item]
        valid = [self.ds.valid[i] for i in self.valid_idx]
        t0 = now()
        best, history = training.train(facts, valid, self.config,
                                       self.ds.binning, self.ds.vocab)
        dt = now() - t0
        ends = [rec.seconds for rec in history]
        epochs = [(b - a) * 1e3 for a, b in zip([0.0] + ends, ends)]
        self.attempted += len(history) * (YAGO_STEPS_PER_EPOCH + 2 * len(valid))
        self.record(len(history) == YAGO_EPOCHS_PER_CALL,
                    f"{len(history)} validations in {YAGO_EPOCHS_PER_CALL} epochs")
        self.check_trained(best, [self.graph.splits["train"][i] for i in item])
        self.last = (best, item)
        return len(history), epochs, dt

    def check(self) -> None:
        best, item = self.last
        raw_train, raw_valid = self.graph.splits["train"], self.graph.splits["valid"]
        facts = [self.ds.train[i] for i in item] + [self.ds.valid[i] for i in self.valid_idx]
        fs = evaluation.FilterSet.build(facts, self.ds.binning)
        sample = self.valid_idx[:YAGO_RANK_CHECK_FACTS]
        report = evaluation.evaluate(best, [self.ds.valid[i] for i in sample], fs,
                                     self.ds.binning)
        filt = self.raw_filter([raw_train[i] for i in item] +
                               [raw_valid[i] for i in self.valid_idx])
        index = {self.ds.valid[i]: i for i in sample}
        for qr in report.ranks:
            i = index[qr.quad]
            want = checks.brute_rank(best, filt, raw_valid[i], qr.side)
            self.record(qr.rank == want,
                        f"valid fact {i} {qr.side}: rank {qr.rank}, brute force {want}")


class Icews14Predict(Workload):
    """Closed loop of in-process ``tero predict`` calls, one query each."""

    graph_name = "icews14"
    unit = "call"
    min_units = PREDICT_MIN_CALLS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.calls: list = []  # (query, return code, first output line)
        self.reps = 0

    def release(self) -> None:
        pass  # each set-up is a call against the same loaded dataset

    def ckpt(self, rep: int) -> Path:
        return self.workdir / f"model{rep}" / "model.tero"

    def setup_once(self, first: bool) -> float:
        """The first call against a freshly written checkpoint (untimed write).

        The first set-up's checkpoint is the one the measured calls use.
        """
        if first:
            self.ds = self.load()
            self.params = write_checkpoint(self.ds, self.seed, self.ckpt(0))
        else:
            write_checkpoint(self.ds, self.seed, self.ckpt(self.reps), self.params)
        query = self.query()
        t0 = now()
        self.call(query, self.ckpt(self.reps))
        dt = now() - t0
        if self.reps:
            shutil.rmtree(self.ckpt(self.reps).parent)
        self.reps += 1
        return dt

    def query(self) -> tuple:
        vocab, rng = self.ds.vocab, self.rng
        side = "object" if rng.random() < 0.5 else "subject"
        return (side, int(rng.integers(vocab.n_entities)),
                int(rng.integers(vocab.n_relations)), int(rng.integers(graphs.ICEWS14_DAYS)))

    def call(self, query, ckpt: Path) -> None:
        side, anchor, rel, step = query
        vocab = self.ds.vocab
        argv = ["predict", "--checkpoint", str(ckpt), "--side", side,
                "--subject" if side == "object" else "--object", vocab.id2ent[anchor],
                "--relation", vocab.id2rel[rel],
                "--time", graphs.format_date(graphs.icews14_date(step)), "--top-n", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        self.calls.append((query, rc, out.getvalue().split("\n", 1)[0]))
        self.attempted += 1
        self.failed += rc != 0

    def items(self):
        while True:
            yield self.query()

    def do(self, item):
        t0 = now()
        self.call(item, self.ckpt(0))
        dt = now() - t0
        return 1, [dt * 1e3], dt

    def check(self) -> None:
        vocab = self.ds.vocab
        for j in self.rng.choice(len(self.calls), PREDICT_TOP1_CHECKS, replace=False):
            (side, anchor, rel, step), rc, line = self.calls[j]
            best = checks.brute_argmin(self.params, anchor, rel, (step, step), side)
            got = line.split("\t")[0]
            self.record(rc == 0 and got == vocab.id2ent[best],
                        f"predict {side} {anchor} {rel} step {step}: top-1 {got!r}, "
                        f"brute force {vocab.id2ent[best]!r}")


def write_checkpoint(ds, seed: int, path: Path, params=None):
    """Seeded parameters as a checkpoint with its vocab/binning sidecar."""
    if params is None:
        params = model.init_params(ds.vocab.n_entities, ds.vocab.n_relations,
                                   ds.binning.n_tau, K, ds.dual, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    ds.vocab.save(path.parent)
    (path.parent / "binning.txt").write_text(ds.binning.to_manifest(), encoding="utf-8")
    model.save_checkpoint(params, path, vocab_ref=str(path.parent))
    return params


WORKLOADS = {
    "icews14-train": Icews14Train,
    "icews14-eval": Icews14Eval,
    "yago11k-train-valid": Yago11kTrainValid,
    "icews14-predict": Icews14Predict,
}
