"""Training loop: negative-sampling loss, hand-derived gradients, Adagrad.

``train`` takes its positives from ``expand_for_training`` as one (N, 4)
int64 array of ``(subject, slot, object, tau)`` rows. Each positive is
paired with ``neg_ratio`` corruptions of its subject or object. The loss
per positive is

    L = -log sigmoid(margin - f(pos)) - (1/eta) * sum_i log sigmoid(f(neg_i) - margin)

and gradients flow through the rotation into entity components, relation
components, and time phases. Quadruples whose loss weight has saturated to
zero contribute nothing. Gradients are row-sparse: each table gets the
sorted rows that a remaining quadruple touches and a gradient for those
rows only, and Adagrad reads and writes only those rows of the table and
of its squared-gradient sums, the Adagrad state that ``train`` keeps
beside the parameters. A step therefore costs time in proportion to the
batch, not to the tables.

A positive and its negatives form a group: all share the relation slot
and the time step, and each negative shares the positive's subject or its
object. ``_corrupt_batch`` draws each negative as the entity it puts in
and the side it replaces, never as a quadruple. ``loss_and_grads`` works
GROUPS_PER_BLOCK groups at a time, scores, loss weights and gradients in
one pass over each block, in the storage dtype. It builds each group's
two query vectors once, with the helpers every scorer uses
(``model._rotate`` and ``model._query``), so that a quadruple costs one
gathered and rotated entity, and sums each group's relation, phase and
shared-entity gradients before the scatter, which adds the rows that
share an index in float64. Adagrad updates the touched rows BLOCK_ROWS at
a time. Scores for evaluation come from
``model.score_quads``, not from the training step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import evaluation
from .data import Dataset, Quadruple, TimeBinning, Vocab, expand_for_training
from .model import BLOCK_ROWS, ModelParams, _norm, _query, _rotate, init_params

ADAGRAD_EPS = 1e-10
# loss weights below this carry no representable update
FLUSH_BELOW = 1e-30
# groups (a positive and its negatives) per block of the training step: 176
# quadruples at 10 negatives. 16-step ICEWS14-shaped train() calls (k=500,
# batch 512) took 1.62, 1.48, 1.51, 1.58 and 1.62 s at 8, 12, 16, 24 and 32
# groups per block (medians of 4 alternated rounds, 2-core Xeon); the result
# does not depend on it
GROUPS_PER_BLOCK = 16


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
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt each of (B, 4) positives ``neg_ratio`` times: (B, neg_ratio) ``(repl, obj)``.

    Negative j of ``pos[i]`` replaces its object with ``repl[i, j]`` where
    ``obj[i, j]``, and its subject otherwise. A fair coin picks the side; the
    replacement is uniform over all other entities. Accidental true facts
    are not filtered. Negatives too many to allocate raise ``MemoryError``
    naming their size.
    """
    if n_entities < 2:
        raise ValueError("need at least 2 entities to corrupt")
    shape = (len(pos), neg_ratio)
    try:
        obj = rng.random(shape) >= 0.5
        repl = rng.integers(0, n_entities - 1, shape)
    except (MemoryError, ValueError, OverflowError) as exc:  # past what numpy can address
        raise MemoryError(f"cannot allocate {len(pos)} x {neg_ratio} negatives "
                          f"({9 * len(pos) * neg_ratio:,} bytes)") from exc
    repl += repl >= np.where(obj, pos[:, 2:3], pos[:, :1])
    return repl, obj


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _scatter_rows(idx: np.ndarray,
                  vals: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sum value rows that share a row index, over the touched rows only.

    ``vals`` are (len(idx), k) tables indexed alike by ``idx``; rows with a
    negative index are skipped. Returns the sorted unique indices ``rows``
    and, per table, a (len(rows), k) float64 table whose row i is the sum,
    in input order, of the value rows with index ``rows[i]``. A stable sort
    lines the rows up by index; the first row of each index is copied, then
    the j-th is added to every index that has one, for j = 2, 3, ..., so
    each value row is read once.
    """
    order = np.argsort(idx, kind="stable")
    order = order[np.searchsorted(idx[order], 0):]
    sorted_idx = idx[order]
    first = np.flatnonzero(np.diff(sorted_idx, prepend=-1))
    count = np.diff(first, append=len(order))
    out = [v[order[first]].astype(np.float64) for v in vals]
    for j in range(1, count.max(initial=0)):
        more = np.flatnonzero(count > j)
        src = order[first[more] + j]
        for v, g in zip(vals, out):
            g[more] += v[src]
    return sorted_idx[first], out


def _unit(d_re: np.ndarray, d_im: np.ndarray, f: np.ndarray, w: np.ndarray, p: int):
    """w times the gradient of the p-norm at differences d of norms f.

    d is (G, R+1, k), one row per quadruple of each group; f and w are
    (G, R+1) and broadcast along the k coordinates. The gradient of the L1
    norm is 0 at its kink, that of the L2 norm 0 at the origin.
    """
    if p == 1:
        v_re, v_im = np.sign(d_re), np.sign(d_im)
    else:
        v_re, v_im = d_re, d_im
        w = np.where(f > 0.0, w / np.where(f > 0.0, f, 1.0), 0.0)
    return v_re * w[..., None], v_im * w[..., None]


# non-finite params make nan in the blocks; the check after them reports it
@np.errstate(invalid="ignore")
def loss_and_grads(params: ModelParams, pos: np.ndarray, repl: np.ndarray, obj: np.ndarray,
                   margin: float) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Mean batch loss and row-sparse analytic gradients for every table.

    ``repl`` and ``obj`` are the (B, R) negatives of the (B, 4) positives
    ``pos``, as ``_corrupt_batch`` draws them: negative j of ``pos[i]``
    replaces its object with ``repl[i, j]`` where ``obj[i, j]``, and its
    subject otherwise. Returns ``{name: (rows, g)}``: the sorted unique
    rows of the table that a live quadruple touches and their (len(rows), k)
    float64 gradient. Gradients are exact subgradients of the loss: the L1
    kink contributes 0, and d||.||_2 at the origin is taken as 0.
    Arithmetic follows the storage dtype. A quadruple whose loss weight is
    below ``FLUSH_BELOW`` (sigmoid fully saturated, no representable update)
    contributes nothing, so rows touched only by such quadruples, an anchor
    whose whole side is flushed among them, get no gradient row; this also
    keeps float32 gradients out of the denormal range.

    A positive (s, r, o, tau) and its negatives form a group, worked
    GROUPS_PER_BLOCK groups at a time in one pass: scores, loss weights and
    gradients, with nothing computed twice. Each quadruple scores
    ||rot(e) - x||_p, e its free entity and x one of the group's two query
    vectors from ``model._query``: conj(rot(s) + r) for the positive (whose
    free entity is its object) and each negative that replaces the object
    (the object side), conj(rot(o)) - r for each negative that replaces the
    subject (the subject side). The group gathers its slot, step and
    anchors once, and each quadruple adds one gathered and rotated entity.
    Gradients are summed per group before the scatter: one relation row and
    one phase row per live group, one row for the subject (the
    conjugate-rotated sum over the object side) and one for the object (over
    the positive and the subject side), and one row per live negative, for
    its free entity. The group sums are products with a fixed matrix per
    group, so the result does not depend on GROUPS_PER_BLOCK.
    """
    (B, R), p = repl.shape, params.norm_p
    # each group's free entities and object-side flags, the positive first
    free, obj_side = np.insert(repl, 0, pos[:, 2], axis=1), np.insert(obj, 0, True, axis=1)
    s, slot, tau = pos[:, 0], pos[:, 1], pos[:, 3]
    k, dtype = params.k, params.ent_re.dtype
    # trig over the batch's distinct steps only: ``at`` gathers, ``tau`` scatters
    steps, at = np.unique(tau, return_inverse=True)
    phase = params.phase[steps]
    cos, sin = np.cos(phase), np.sin(phase)
    # Each quadruple's gradient of |d| is u; the loop works with v, which is
    # u with its real part negated on the object side. The group sums weigh
    # each v by these rows: A sums u over the object side (the subject's
    # quadruples), C over the positive and the subject side (the object's),
    # and D over the subject side's negatives.
    obj = obj_side.astype(dtype)
    first = np.zeros_like(obj)
    first[:, 0] = 1.0
    sums_re = np.stack([-obj, 1.0 - obj - first, 1.0 - obj], axis=1)
    sums_im = np.stack([obj, 1.0 - obj + first, 1.0 - obj], axis=1)
    f = np.empty((B, R + 1), dtype)  # scores, the positive first
    w = np.empty((B, R + 1), dtype)  # d(mean loss)/d(score)
    # per group: the subject's row, the object's, then each negative's free entity
    g_ent = np.empty((2, B, R + 2, k), dtype)
    g_grp = np.empty((3, B, k), dtype)  # rel_re, rel_im, phase
    # a block of G groups is (G, R+1, k) arrays, each group's phasor and query
    # vectors broadcast over its quadruples; it touches only its own slices
    for lo in range(0, B, GROUPS_PER_BLOCK):
        b = slice(lo, min(lo + GROUPS_PER_BLOCK, B))
        c, sn = cos[at[b]], sin[at[b]]
        cq, sq = c[:, None], sn[:, None]
        e = free[b]
        t_re, t_im = _rotate(params.ent_re[e], params.ent_im[e], cq, sq)
        S_re, S_im = _rotate(params.ent_re[s[b]], params.ent_im[s[b]], c, sn)
        Q_re, Q_im = t_re[:, 0], -t_im[:, 0]  # conj(rot(o)), from the positive's row
        r_re, r_im = params.rel_re[slot[b]], params.rel_im[slot[b]]
        # each group's query vectors, the object side's (from s) and the
        # subject side's (from o); d' = rot(e) - x is the difference d with
        # its real part negated on the object side, and d itself on the other
        xo_re, xo_im = _query(S_re, S_im, r_re, r_im, True)
        xs_re, xs_im = _query(t_re[:, 0], t_im[:, 0], r_re, r_im, False)
        side = obj_side[b, :, None]
        d_re = t_re - np.where(side, xo_re[:, None], xs_re[:, None])
        d_im = t_im - np.where(side, xo_im[:, None], xs_im[:, None])
        fb, wb = f[b], w[b]
        # numpy sums each row on its own, so a score does not depend on the block
        fb[:] = _norm(d_re, d_im, p)
        wb[:, 0] = _sigmoid(fb[:, 0] - margin) / B
        wb[:, 1:] = -_sigmoid(margin - fb[:, 1:]) / R / B
        v_re, v_im = _unit(d_re, d_im, fb, np.where(np.abs(wb) >= FLUSH_BELOW, wb, 0.0), p)

        # einsum adds a group's terms in order on any CPU; a BLAS product's
        # order, and so the trained bits, would depend on the kernel it picks
        (A_re, C_re, D_re), (A_im, C_im, D_im) = (
            np.einsum("gsq,gqk->sgk", sums[b], v) for sums, v in ((sums_re, v_re), (sums_im, v_im)))
        # the phase gradient u_im*re(P) - u_re*im(P), P = rot(s) + conj(rot(o)),
        # is Im(v conj(rot(e))) per quadruple plus terms in each side's sum
        cross = v_im * t_re
        cross -= v_re * t_im
        g_grp[2, b] = cross.sum(axis=1)
        g_grp[2, b] += S_re * A_im - S_im * A_re
        g_grp[2, b] += Q_re * D_im - Q_im * D_re
        g_grp[0, b] = A_re + D_re
        g_grp[1, b] = A_im + D_im
        # entity gradients: v (or a side's u) rotated by the conjugate phasor
        ent_re, ent_im = g_ent[0, b], g_ent[1, b]
        np.multiply(v_re, cq, out=ent_re[:, 1:])
        ent_re[:, 1:] += v_im * sq
        np.multiply(v_im, cq, out=ent_im[:, 1:])
        ent_im[:, 1:] -= v_re * sq
        ent_re[:, 0], ent_im[:, 0] = _rotate(A_re, A_im, c, -sn)
        ent_re[:, 1], ent_im[:, 1] = _rotate(-C_re, C_im, c, -sn)

    total = float((_softplus(f[:, 0] - margin) + _softplus(margin - f[:, 1:]).sum(axis=1) / R
                   ).mean())
    if not np.isfinite(total) or not np.isfinite(w).all():
        raise NumericalError("non-finite loss in batch")
    # rows of flushed quadruples, and anchors of wholly flushed sides, take no part
    live = np.abs(w) >= FLUSH_BELOW
    live_ent = np.concatenate([(live & obj_side).any(axis=1, keepdims=True),
                               (live & ~obj_side).any(axis=1, keepdims=True) | live[:, :1],
                               live[:, 1:]], axis=1)
    ent_idx = np.where(live_ent, np.concatenate([pos[:, [0, 2]], repl], axis=1), -1)
    ent_rows, (g_ent_re, g_ent_im) = _scatter_rows(ent_idx.ravel(),
                                                   list(g_ent.reshape(2, -1, k)))
    live_grp = live.any(axis=1)
    rel_rows, (g_rel_re, g_rel_im) = _scatter_rows(np.where(live_grp, slot, -1),
                                                   list(g_grp[:2]))
    tau_rows, (g_tau,) = _scatter_rows(np.where(live_grp, tau, -1), [g_grp[2]])
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
              repl: np.ndarray, obj: np.ndarray, config: TrainConfig) -> float:
    """One optimization step over a batch of positives and their negatives
    ``(repl, obj)``, as ``loss_and_grads`` takes them; mutates params and
    acc, returns mean loss."""
    total, grads = loss_and_grads(params, pos, repl, obj, config.margin)
    apply_adagrad(params, acc, grads, config.lr)
    return total


def train(train_facts: Sequence[Quadruple], valid_facts: Sequence[Quadruple],
          config: TrainConfig, binning: TimeBinning, vocab: Vocab,
          on_validation: Callable[[ValidationRecord, ModelParams | None], None] | None = None,
          ) -> tuple[ModelParams, list[ValidationRecord]]:
    """Full training run with early stopping on validation MRR.

    Expands facts into endpoint quadruples, shuffles each epoch (seeded),
    validates every ``valid_every`` epochs against the train+valid filter,
    and keeps the best-MRR snapshot. ``on_validation(record, snapshot)``
    runs at each validation, with the new best snapshot if the MRR beat
    every earlier one and None otherwise, so a caller can log and save
    before a later step fails; ``train`` writes and prints nothing. Stops at
    ``max_epochs`` or after ``patience`` consecutive validations without
    improvement. Returns the best snapshot (the final params if validation
    never ran) and the per-validation history. Validation screens on one
    worker per CPU in the process's affinity set (``evaluation.evaluate``).
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
    filter_set = (evaluation.FilterSet.build(list(train_facts) + list(valid_facts), binning)
                  if valid_facts else None)

    history: list[ValidationRecord] = []
    best, best_mrr, bad_validations = None, -1.0, 0
    start = time.perf_counter()
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(quads))
        epoch_loss = 0.0
        for lo in range(0, len(quads), config.batch_size):
            pos = quads[order[lo: lo + config.batch_size]]
            repl, obj = _corrupt_batch(pos, config.neg_ratio, vocab.n_entities, rng)
            epoch_loss += grad_step(params, acc, pos, repl, obj, config) * len(pos)
        epoch_loss /= len(quads)

        if filter_set is not None and epoch % config.valid_every == 0:
            report = evaluation.evaluate(params, valid_facts, filter_set, binning)
            rec = ValidationRecord(epoch, epoch_loss, report.mrr, report.hits1,
                                   report.hits3, report.hits10, time.perf_counter() - start)
            history.append(rec)
            snapshot = params.copy() if report.mrr > best_mrr else None
            if snapshot is None:
                bad_validations += 1
            else:
                best, best_mrr, bad_validations = snapshot, report.mrr, 0
            if on_validation is not None:
                on_validation(rec, snapshot)
            if snapshot is None and bad_validations >= config.patience:
                break
    return (params if best is None else best), history


def train_and_test(ds: Dataset, config: TrainConfig, train_binning: TimeBinning | None = None,
                   on_validation: Callable[[ValidationRecord, ModelParams | None], None]
                   | None = None,
                   ) -> tuple[ModelParams, list[ValidationRecord], evaluation.EvalReport]:
    """``train`` on ``ds``, then ``evaluate`` the best snapshot on ``ds.test``.

    Training and test scoring use ``train_binning`` (default ``ds.binning``);
    the time-wise filter is built on, and keeps, ``ds.binning``.
    ``on_validation`` is passed to ``train``.
    """
    binning = ds.binning if train_binning is None else train_binning
    best, history = train(ds.train, ds.valid, config, binning, ds.vocab, on_validation)
    filter_set = evaluation.FilterSet.build(ds.all_facts, ds.binning)
    report = evaluation.evaluate(best, ds.test, filter_set, binning)
    return best, history, report
