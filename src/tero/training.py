"""Training loop: negative-sampling loss, hand-derived gradients, Adagrad.

Each positive training quadruple is paired with ``neg_ratio`` corruptions of
its subject or object. The loss per positive is

    L = -log sigmoid(margin - f(pos)) - (1/eta) * sum_i log sigmoid(f(neg_i) - margin)

and gradients flow through the rotation into entity components, relation
components, and time phases. Quadruples whose loss weight has saturated to
zero are dropped before the backward pass. Gradients are row-sparse: each
table gets the sorted rows that a remaining quadruple touches and a
gradient for those rows only, and Adagrad reads and writes only those rows
of the table and of its accumulator. A step therefore costs time in
proportion to the batch, not to the tables.
"""

from __future__ import annotations

import ctypes
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Quadruple, TimeBinning, TrainQuad, Vocab, expand_for_training
from .model import ModelParams, init_params

ADAGRAD_EPS = 1e-10
# loss weights below this carry no representable update
FLUSH_BELOW = 1e-30


class NumericalError(Exception):
    """Training produced a non-finite loss or gradient."""


_malloc_tuned = False


def _retain_malloc_arenas() -> None:
    """Keep glibc from unmapping the step loop's large temporaries.

    Every step churns on the order of 100 MB of short-lived arrays; with
    default trim/mmap thresholds glibc hands the pages back to the kernel
    on free and the next step page-faults them in again, tripling step
    time on kernels without transparent hugepages. No-op off glibc.
    """
    global _malloc_tuned
    if _malloc_tuned or not sys.platform.startswith("linux"):
        return
    _malloc_tuned = True
    try:
        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
        libc.mallopt(m_trim_threshold, 2**31 - 1)
        libc.mallopt(m_top_pad, 64 * 2**20)
        libc.mallopt(m_mmap_threshold, 2**27)
    except OSError:
        pass


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
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
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
    are not filtered.
    """
    if n_entities < 2:
        raise ValueError("need at least 2 entities to corrupt")
    neg = np.repeat(pos, neg_ratio, axis=0)
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


def loss(pos_score: float, neg_scores: Sequence[float], margin: float, neg_ratio: int) -> float:
    """Negative-sampling loss for one positive and its corruptions."""
    neg = np.asarray(neg_scores, float)
    if neg.shape != (neg_ratio,):
        raise ValueError(f"expected {neg_ratio} negative scores, got {neg.shape}")
    return float(_softplus(pos_score - margin) + _softplus(margin - neg).sum() / neg_ratio)


def _scatter_rows(idx: np.ndarray, vals: Sequence[np.ndarray],
                  k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum value rows that share a row index, over the touched rows only.

    ``vals`` are (len(idx), k) tables indexed alike by ``idx``; the index is
    compacted once for all of them. Returns the sorted unique indices
    ``rows`` and, per table, a (len(rows), k) float64 table whose row i is
    the sum, in input order, of the value rows with index ``rows[i]``.
    """
    rows, inv = np.unique(idx, return_inverse=True)
    flat = (inv[:, None] * k + np.arange(k)).ravel()
    n = len(rows) * k
    return rows, [np.bincount(flat, weights=v.ravel(), minlength=n).reshape(len(rows), k)
                  for v in vals]


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
    k = params.k
    # trig over the phase table once, then gather: far fewer evaluations
    c, sn = np.cos(params.phase)[tau], np.sin(params.phase)[tau]
    s_re, s_im = params.ent_re[s], params.ent_im[s]
    o_re, o_im = params.ent_re[o], params.ent_im[o]
    a1 = s_re - o_re
    a2 = s_im - o_im
    b1 = s_re + o_re
    b2 = s_im + o_im
    d_re = a1 * c
    d_re -= a2 * sn
    d_re += params.rel_re[slot]
    d_im = b1 * sn
    d_im += b2 * c
    d_im += params.rel_im[slot]

    if params.norm_p == 1:
        scores = np.abs(d_re).sum(axis=1) + np.abs(d_im).sum(axis=1)
    else:
        scores = np.sqrt((d_re * d_re).sum(axis=1) + (d_im * d_im).sum(axis=1))

    f_pos, f_neg = scores[:B], scores[B:]
    total = float((_softplus(f_pos - margin)
                   + _softplus(margin - f_neg).reshape(B, neg_ratio).sum(axis=1) / neg_ratio).mean())
    # d(mean loss)/d(score) per quadruple
    w = np.concatenate([_sigmoid(f_pos - margin), -_sigmoid(margin - f_neg) / neg_ratio]) / B
    if not np.isfinite(total) or not np.isfinite(w).all():
        raise NumericalError("non-finite loss in batch")

    # backward pass over the live quadruples only
    live = np.flatnonzero(np.abs(w) >= FLUSH_BELOW)
    w = w[live, None]
    s, slot, o, tau = s[live], slot[live], o[live], tau[live]
    c, sn = c[live], sn[live]
    a1, a2, b1, b2 = a1[live], a2[live], b1[live], b2[live]
    d_re, d_im = d_re[live], d_im[live]
    if params.norm_p == 1:
        u_re, u_im = np.sign(d_re), np.sign(d_im)
    else:
        norm = scores[live, None]
        safe = np.where(norm > 0.0, norm, 1.0)
        u_re = np.where(norm > 0.0, d_re / safe, 0.0)
        u_im = np.where(norm > 0.0, d_im / safe, 0.0)
    u_re *= w
    u_im *= w

    urc = u_re * c
    urs = u_re * sn
    uic = u_im * c
    uis = u_im * sn
    g_s_re = urc + uis
    g_s_im = uic - urs
    g_o_re = uis - urc
    g_o_im = urs + uic
    g_phase = uic * b1
    g_phase -= uis * b2
    g_phase -= urc * a2
    g_phase -= urs * a1

    ent_rows, (g_ent_re, g_ent_im) = _scatter_rows(
        np.concatenate([s, o]),
        [np.concatenate([g_s_re, g_o_re]), np.concatenate([g_s_im, g_o_im])], k)
    rel_rows, (g_rel_re, g_rel_im) = _scatter_rows(slot, [u_re, u_im], k)
    tau_rows, (g_tau,) = _scatter_rows(tau, [g_phase], k)
    return total, {"ent_re": (ent_rows, g_ent_re), "ent_im": (ent_rows, g_ent_im),
                   "rel_re": (rel_rows, g_rel_re), "rel_im": (rel_rows, g_rel_im),
                   "phase": (tau_rows, g_tau)}


def apply_adagrad(params: ModelParams, grads: dict[str, tuple[np.ndarray, np.ndarray]],
                  lr: float) -> None:
    """In-place Adagrad on the given rows: G += g^2, x -= lr * g / (sqrt(G) + eps).

    ``grads`` maps a table name to ``(rows, g)`` with unique ``rows``, as
    ``loss_and_grads`` returns it; only those rows of the table and of its
    accumulator are read or written. The float64 step rounds into the
    storage dtype on assignment.
    """
    arrays = params.arrays()
    for name, (rows, g) in grads.items():
        acc = params.acc[name][rows]
        acc += g * g
        params.acc[name][rows] = acc
        arrays[name][rows] -= lr * g / (np.sqrt(acc) + ADAGRAD_EPS)


def grad_step(params: ModelParams, pos: np.ndarray, neg: np.ndarray,
              config: TrainConfig) -> float:
    """One optimization step over a batch; mutates params, returns mean loss."""
    total, grads = loss_and_grads(params, pos, neg, config.margin, config.neg_ratio)
    apply_adagrad(params, grads, config.lr)
    return total


def quads_to_array(quads: Iterable[TrainQuad]) -> np.ndarray:
    return np.array([tuple(q) for q in quads], dtype=np.int64).reshape(-1, 4)


def train(train_facts: Sequence[Quadruple], valid_facts: Sequence[Quadruple],
          config: TrainConfig, binning: TimeBinning, vocab: Vocab,
          log_path=None, progress: bool = False,
          ) -> tuple[ModelParams, list[ValidationRecord]]:
    """Full training run with early stopping on validation MRR.

    Expands facts into endpoint quadruples, shuffles each epoch (seeded),
    validates every ``valid_every`` epochs against the train+valid filter,
    and keeps the best-MRR snapshot. Stops at ``max_epochs`` or after
    ``patience`` consecutive validations without improvement. Returns the
    best snapshot (the final params if validation never ran) and the
    per-validation history.
    """
    from .evaluation import FilterSet, evaluate

    if not train_facts:
        raise ValueError("empty training set")
    _retain_malloc_arenas()
    quads = quads_to_array(expand_for_training(train_facts, binning, config.dual,
                                               vocab.n_relations))
    params = init_params(vocab.n_entities, vocab.n_relations, binning.n_tau,
                         config.k, config.dual, config.seed, config.norm_p)
    rng = np.random.default_rng([config.seed, 1])
    filter_set = None
    if valid_facts:
        filter_set = FilterSet.build(list(train_facts) + list(valid_facts), binning)

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
                epoch_loss += grad_step(params, pos, neg, config) * len(pos)
            epoch_loss /= len(quads)

            if filter_set is not None and epoch % config.valid_every == 0:
                report = evaluate(params, valid_facts, filter_set, binning)
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
