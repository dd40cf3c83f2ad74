"""Training loop: negative-sampling loss, hand-derived gradients, Adagrad.

``train`` takes its positives from ``expand_for_training`` as one (N, 4)
int64 array of ``(subject, slot, object, tau)`` rows. Each positive is
paired with ``neg_ratio`` corruptions of its subject or object. The loss
per positive is

    L = -log sigmoid(margin - f(pos)) - (1/eta) * sum_i log sigmoid(f(neg_i) - margin)

and gradients flow through the rotation into entity components, relation
components, and time phases. Quadruples whose loss weight has saturated to
zero are dropped before the backward pass. Gradients are row-sparse: each
table gets the sorted rows that a remaining quadruple touches and a
gradient for those rows only, and Adagrad reads and writes only those rows
of the table and of its squared-gradient sums, the Adagrad state that
``train`` keeps beside the parameters. A step therefore costs time in
proportion to the batch, not to the tables.

The step works on blocks of BLOCK_ROWS quadruples or rows, so that its
temporaries stay in cache. The forward pass, ``model._forward`` in the
storage dtype, keeps only the scores; the backward pass recomputes the
forward of each block of live quadruples and writes their gradients into
one array per table, stored as column slabs that the scatter sums with one
``bincount`` each; Adagrad updates the touched rows a block at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import evaluation
from .data import Dataset, Quadruple, TimeBinning, Vocab, expand_for_training
from .model import BLOCK_ROWS, ModelParams, _forward, _scores, init_params, largest_divisor

ADAGRAD_EPS = 1e-10
# loss weights below this carry no representable update
FLUSH_BELOW = 1e-30
# widest column slab the gradient scatter sums with one bincount (slabs are
# the largest divisor of k up to this). At k=500 slabs of 10-50 columns
# scattered alike; 100 and 250 were 5% and 30% slower
SCATTER_COLS = 50


class NumericalError(Exception):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    Defaults follow the standard configuration for this model family:
    dimension 500, batch size 512, ten negatives per positive, L1 scores.
    The time-granularity parameter (``time_unit`` days for point data,
    ``time_threshold`` mentions for interval data) rides along so a run is
    fully described by one config.
    """

    k: int = 500
    batch_size: int = 512
    neg_ratio: int = 10
    margin: float = 110.0
    lr: float = 0.1
    max_epochs: int = 5000
    valid_every: int = 100
    patience: int = 5
    norm_p: int = 1
    seed: int = 0
    dual: bool = False
    time_unit: int | None = 1
    time_threshold: int | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.neg_ratio < 1:
            raise ValueError("neg_ratio must be >= 1")
        if not 0 < self.margin < np.inf:  # also rejects nan
            raise ValueError("margin must be finite and > 0")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be finite and > 0")
        if self.valid_every < 1:
            raise ValueError("valid_every must be >= 1")
        if self.norm_p not in (1, 2):
            raise ValueError("norm_p must be 1 or 2")


@dataclass
class ValidationRecord:
    epoch: int
    train_loss: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    seconds: float

    def tsv(self) -> str:
        return (f"{self.epoch}\t{self.train_loss:.6f}\t{self.mrr:.6f}\t{self.hits1:.6f}"
                f"\t{self.hits3:.6f}\t{self.hits10:.6f}\t{self.seconds:.3f}")

    TSV_HEADER = "epoch\ttrain_loss\tmrr\thits1\thits3\thits10\tseconds"


def _corrupt_batch(pos: np.ndarray, neg_ratio: int, n_entities: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Corrupt each of (B, 4) positives ``neg_ratio`` times: (B * neg_ratio, 4).

    A fair coin picks the subject or object side of each negative; the
    replacement is uniform over all other entities. Accidental true facts
    are not filtered. Negatives too many to allocate raise ``MemoryError``
    naming their size.
    """
    if n_entities < 2:
        raise ValueError("need at least 2 entities to corrupt")
    try:
        neg = np.repeat(pos, neg_ratio, axis=0)
    except (MemoryError, ValueError, OverflowError) as exc:  # past what numpy can address
        raise MemoryError(f"cannot allocate {len(pos)} x {neg_ratio} negative quadruples "
                          f"({32 * len(pos) * neg_ratio:,} bytes)") from exc
    n = len(neg)
    subject_side = rng.random(n) < 0.5
    original = np.where(subject_side, neg[:, 0], neg[:, 2])
    repl = rng.integers(0, n_entities - 1, n)
    repl = repl + (repl >= original)
    neg[subject_side, 0] = repl[subject_side]
    neg[~subject_side, 2] = repl[~subject_side]
    return neg


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _scatter_rows(idx: np.ndarray,
                  vals: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum value rows that share a row index, over the touched rows only.

    ``vals`` are (len(idx), k // w, w) tables indexed alike by ``idx``, a
    row of k values split into slabs of w columns, whose slabs ``v[:, j]``
    are contiguous. Returns the sorted unique indices ``rows`` and, per
    table, a (len(rows), k) float64 table whose row i is the sum, in input
    order, of the value rows with index ``rows[i]``. Each slab is summed by
    one ``bincount`` that reads it in place, with one flat index reused for
    every slab.
    """
    rows, inv = np.unique(idx, return_inverse=True)
    n, (_, n_slabs, w) = len(rows), vals[0].shape
    flat = (inv[:, None] * w + np.arange(w)).ravel()
    out = [np.empty((n, n_slabs * w)) for _ in vals]
    for j in range(n_slabs):
        for v, g in zip(vals, out):
            g[:, j * w: (j + 1) * w] = np.bincount(
                flat, weights=v[:, j].ravel(), minlength=n * w).reshape(n, w)
    return rows, out


def loss_and_grads(params: ModelParams, pos: np.ndarray, neg: np.ndarray,
                   margin: float, neg_ratio: int,
                   ) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Mean batch loss and row-sparse analytic gradients for every table.

    Returns ``{name: (rows, g)}``: the sorted unique rows of the table that
    a live quadruple touches and their (len(rows), k) float64 gradient.
    Gradients are exact subgradients of the loss: the L1 kink contributes 0,
    and d||.||_2 at the origin is taken as 0. Arithmetic follows the storage
    dtype. A quadruple whose loss weight is below ``FLUSH_BELOW`` (sigmoid
    fully saturated, no representable update) takes no part in the backward
    pass, so rows touched only by such quadruples get no gradient row; this
    also keeps float32 math out of the denormal range.
    """
    B = len(pos)
    quads = np.concatenate([pos, neg])
    # contiguous index columns gather measurably faster than strided views
    s, slot, o, tau = (np.ascontiguousarray(quads[:, j]) for j in range(4))
    k, dtype = params.k, params.ent_re.dtype
    # trig over the phase table once, then gather: far fewer evaluations
    cos, sin = np.cos(params.phase), np.sin(params.phase)
    scores = _scores(params, cos, sin, s, slot, o, tau)

    f_pos, f_neg = scores[:B], scores[B:]
    total = float((_softplus(f_pos - margin)
                   + _softplus(margin - f_neg).reshape(B, neg_ratio).sum(axis=1) / neg_ratio).mean())
    # d(mean loss)/d(score) per quadruple
    w = np.concatenate([_sigmoid(f_pos - margin), -_sigmoid(margin - f_neg) / neg_ratio]) / B
    if not np.isfinite(total) or not np.isfinite(w).all():
        raise NumericalError("non-finite loss in batch")

    # backward pass over the live quadruples only, recomputing each block's
    # forward; the subject half of the entity gradients comes first
    live = np.flatnonzero(np.abs(w) >= FLUSH_BELOW)
    s, slot, o, tau, w, norm = (x[live] for x in (s, slot, o, tau, w[:, None],
                                                   scores[:, None]))
    n = len(live)
    # per-quadruple gradients as (rows, k // w, w) views of slab-major
    # storage, so that each slab of w columns is contiguous for the scatter
    w_slab = largest_divisor(k, SCATTER_COLS)
    g_ent_re, g_ent_im, g_rel_re, g_rel_im, g_phase = (
        np.empty((k // w_slab, rows, w_slab), dtype).transpose(1, 0, 2)
        for rows in (2 * n, 2 * n, n, n, n))
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        b, ob = slice(lo, hi), slice(n + lo, n + hi)
        c, sn, a1, a2, b1, b2, d_re, d_im = _forward(params, cos, sin, s[b], slot[b],
                                                     o[b], tau[b])
        if params.norm_p == 1:
            u_re, u_im = np.sign(d_re), np.sign(d_im)
        else:
            safe = np.where(norm[b] > 0.0, norm[b], 1.0)
            u_re = np.where(norm[b] > 0.0, d_re / safe, 0.0)
            u_im = np.where(norm[b] > 0.0, d_im / safe, 0.0)
        u_re *= w[b]
        u_im *= w[b]
        urc = u_re * c
        urs = u_re * sn
        uic = u_im * c
        uis = u_im * sn
        g = uic * b1
        g -= uis * b2
        g -= urc * a2
        g -= urs * a1
        as_slabs = (hi - lo, k // w_slab, w_slab)
        g_phase[b] = g.reshape(as_slabs)
        g_rel_re[b] = u_re.reshape(as_slabs)
        g_rel_im[b] = u_im.reshape(as_slabs)
        g_ent_re[b] = (urc + uis).reshape(as_slabs)
        g_ent_re[ob] = (uis - urc).reshape(as_slabs)
        g_ent_im[b] = (uic - urs).reshape(as_slabs)
        g_ent_im[ob] = (urs + uic).reshape(as_slabs)

    ent_rows, (g_ent_re, g_ent_im) = _scatter_rows(np.concatenate([s, o]),
                                                   [g_ent_re, g_ent_im])
    rel_rows, (g_rel_re, g_rel_im) = _scatter_rows(slot, [g_rel_re, g_rel_im])
    tau_rows, (g_tau,) = _scatter_rows(tau, [g_phase])
    return total, {"ent_re": (ent_rows, g_ent_re), "ent_im": (ent_rows, g_ent_im),
                   "rel_re": (rel_rows, g_rel_re), "rel_im": (rel_rows, g_rel_im),
                   "phase": (tau_rows, g_tau)}


def apply_adagrad(params: ModelParams, acc: dict[str, np.ndarray],
                  grads: dict[str, tuple[np.ndarray, np.ndarray]], lr: float) -> None:
    """In-place Adagrad on the given rows: G += g^2, x -= lr * g / (sqrt(G) + eps).

    ``acc`` holds G by table name, float64 (squared gradients underflow
    float32); a table it lacks is made as zeros on first use. ``grads``
    maps a table name to ``(rows, g)`` with unique ``rows``, as
    ``loss_and_grads`` returns it; only those rows of the table and of G
    are read or written, BLOCK_ROWS rows at a time. The float64 step rounds
    into the storage dtype on assignment.
    """
    arrays = params.arrays()
    for name, (rows, g) in grads.items():
        if name not in acc:
            acc[name] = np.zeros(arrays[name].shape)
        table, acc_table = arrays[name], acc[name]
        for lo in range(0, len(rows), BLOCK_ROWS):
            r, g_b = rows[lo: lo + BLOCK_ROWS], g[lo: lo + BLOCK_ROWS]
            g_sum = acc_table[r]
            g_sum += g_b * g_b
            acc_table[r] = g_sum
            table[r] -= lr * g_b / (np.sqrt(g_sum) + ADAGRAD_EPS)


def grad_step(params: ModelParams, acc: dict[str, np.ndarray], pos: np.ndarray,
              neg: np.ndarray, config: TrainConfig) -> float:
    """One optimization step over a batch; mutates params and acc, returns mean loss."""
    total, grads = loss_and_grads(params, pos, neg, config.margin, config.neg_ratio)
    apply_adagrad(params, acc, grads, config.lr)
    return total


def train(train_facts: Sequence[Quadruple], valid_facts: Sequence[Quadruple],
          config: TrainConfig, binning: TimeBinning, vocab: Vocab,
          log_path=None, progress: bool = False) -> tuple[ModelParams, list[ValidationRecord]]:
    """Full training run with early stopping on validation MRR.

    Expands facts into endpoint quadruples, shuffles each epoch (seeded),
    validates every ``valid_every`` epochs against the train+valid filter,
    and keeps the best-MRR snapshot. Stops at ``max_epochs`` or after
    ``patience`` consecutive validations without improvement. Returns the
    best snapshot (the final params if validation never ran) and the
    per-validation history. Validation screens on one worker per CPU in
    the process's affinity set (``evaluation.evaluate``).
    """
    if not train_facts:
        raise ValueError("empty training set")
    quads = expand_for_training(train_facts, binning, config.dual, vocab.n_relations)
    params = init_params(vocab.n_entities, vocab.n_relations, binning.n_tau,
                         config.k, config.dual, config.seed, config.norm_p)
    # Adagrad state, filled by the first step after its temporaries: made
    # before them, it leaves the heap top free for glibc to trim after every
    # step, and page faults per step double (ICEWS14 shape)
    acc: dict[str, np.ndarray] = {}
    rng = np.random.default_rng([config.seed, 1])
    filter_set = None
    if valid_facts:
        filter_set = evaluation.FilterSet.build(list(train_facts) + list(valid_facts), binning)

    history: list[ValidationRecord] = []
    best = None
    best_mrr = -1.0
    bad_validations = 0
    start = time.perf_counter()
    log_fh = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    if log_fh:
        log_fh.write(ValidationRecord.TSV_HEADER + "\n")
    try:
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(len(quads))
            epoch_loss = 0.0
            for lo in range(0, len(quads), config.batch_size):
                pos = quads[order[lo: lo + config.batch_size]]
                neg = _corrupt_batch(pos, config.neg_ratio, vocab.n_entities, rng)
                epoch_loss += grad_step(params, acc, pos, neg, config) * len(pos)
            epoch_loss /= len(quads)

            if filter_set is not None and epoch % config.valid_every == 0:
                report = evaluation.evaluate(params, valid_facts, filter_set, binning)
                rec = ValidationRecord(epoch, epoch_loss, report.mrr, report.hits1,
                                       report.hits3, report.hits10,
                                       time.perf_counter() - start)
                history.append(rec)
                if log_fh:
                    log_fh.write(rec.tsv() + "\n")
                    log_fh.flush()
                if progress:
                    print(f"epoch {epoch}: loss {epoch_loss:.4f} mrr {report.mrr:.4f}")
                if report.mrr > best_mrr:
                    best_mrr = report.mrr
                    best = params.copy()
                    bad_validations = 0
                else:
                    bad_validations += 1
                    if bad_validations >= config.patience:
                        break
        return (params if best is None else best), history
    finally:
        if log_fh:
            log_fh.close()


def train_and_test(ds: Dataset, config: TrainConfig, train_binning: TimeBinning | None = None,
                   progress: bool = False,
                   ) -> tuple[ModelParams, list[ValidationRecord], evaluation.EvalReport]:
    """``train`` on ``ds``, then ``evaluate`` the best snapshot on ``ds.test``.

    Training and test scoring use ``train_binning`` (default ``ds.binning``);
    the time-wise filter is built on, and keeps, ``ds.binning``.
    """
    binning = ds.binning if train_binning is None else train_binning
    best, history = train(ds.train, ds.valid, config, binning, ds.vocab, progress=progress)
    filter_set = evaluation.FilterSet.build(ds.all_facts, ds.binning)
    report = evaluation.evaluate(best, ds.test, filter_set, binning)
    return best, history, report
