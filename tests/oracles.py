"""Independent reference implementations used to check the fast paths.

Nearly everything here works one element at a time with Python complex
numbers and plain loops, so it shares no code with the vectorized
implementations it is used to verify; ``score_oracle`` checks the forward
kernel of ``score_quads``. The exceptions are ``dense_step_oracle``, a
dense training step in input order that the grouped one must match to
rounding, ``score_one``, which calls ``score_quads`` on one
quadruple, ``read_facts_oracle``, which checks each line with
``read_facts``'s own line parser but without its date memo,
``expand_oracle``, which expands fact by fact through ``endpoint_terms``,
and ``batch_loss``, the batch loss from ``score_quads`` that ``fd_grads``
differentiates. ``batch_loss`` shares its forward with ``loss_and_grads``,
so the finite differences check the hand-derived backward, not the
forward. ``key_of``, ``filter_key_count``, ``param_count``, ``loss`` (on
the training step's ``_softplus``), ``zero_acc``, ``negative_quads``
(which writes the sampler's negatives out as the quadruples the training
oracles take), ``format_fact``,
``is_begin_only`` and ``is_end_only`` are small helpers that only the tests
use, as is the ``random_kg`` dataset generator.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from tero.data import (POINT_TSV, Dataset, Quadruple, RawFact, TimeAnnotation, TimeBinning,
                       Vocab, _parse_line, endpoint_terms, time_key)
from tero.evaluation import FilterSet
from tero.model import ModelParams, score_quads
from tero.synthetic import _day, _make_dataset


def rotate_oracle(v: list[complex], phases: list[float]) -> list[complex]:
    return [z * cmath.exp(1j * p) for z, p in zip(v, phases)]


def entity_vec(params: ModelParams, e: int) -> list[complex]:
    return [complex(params.ent_re[e, j], params.ent_im[e, j]) for j in range(params.k)]


def relation_vec(params: ModelParams, slot: int) -> list[complex]:
    return [complex(params.rel_re[slot, j], params.rel_im[slot, j]) for j in range(params.k)]


def score_oracle(params: ModelParams, s: int, slot: int, o: int, tau: int) -> float:
    """Endpoint score computed term by term with complex arithmetic."""
    phases = [float(params.phase[tau, j]) for j in range(params.k)]
    s_t = rotate_oracle(entity_vec(params, s), phases)
    o_t = rotate_oracle(entity_vec(params, o), phases)
    r = relation_vec(params, slot)
    total = 0.0
    for j in range(params.k):
        d = s_t[j] + r[j] - o_t[j].conjugate()
        if params.norm_p == 1:
            total += abs(d.real) + abs(d.imag)
        else:
            total += d.real * d.real + d.imag * d.imag
    return total if params.norm_p == 1 else math.sqrt(total)


def score_one(params: ModelParams, s: int, slot: int, o: int, tau: int) -> float:
    """``score_quads`` on one endpoint quadruple."""
    return float(score_quads(params, *(np.array([i]) for i in (s, slot, o, tau)))[0])


def fact_score_oracle(params: ModelParams, quad: Quadruple, binning: TimeBinning) -> float:
    """Mean endpoint score, decomposing the annotation by hand."""
    t = quad.time
    begin_slot = quad.relation
    end_slot = quad.relation + params.n_relations if params.dual else quad.relation
    if t.begin is None:
        terms = [(end_slot, binning.index_of(t.end))]
    elif t.end is None:
        terms = [(begin_slot, binning.index_of(t.begin))]
    elif t.begin == t.end and not params.dual:
        terms = [(begin_slot, binning.index_of(t.begin))]
    else:
        terms = [(begin_slot, binning.index_of(t.begin)), (end_slot, binning.index_of(t.end))]
    scores = [score_oracle(params, quad.subject, slot, quad.object, tau) for slot, tau in terms]
    return sum(scores) / len(scores)


def read_facts_oracle(path, fmt: str) -> list[RawFact]:
    """``read_facts`` line by line in text mode, parsing every line's dates anew.

    Each line gets an empty date memo, so no annotation is shared between
    lines; the reference for ``read_facts``'s per-file memo and its reading
    of the file's bytes.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        return [_parse_line(line.rstrip("\n"), fmt, path, line_no, {})
                for line_no, line in enumerate(fh, 1) if line.strip()]


def expand_oracle(facts, binning: TimeBinning, dual: bool, n_relations: int) -> np.ndarray:
    """``expand_for_training`` one fact at a time: each fact's ``endpoint_terms`` rows."""
    rows = [(q.subject, slot, q.object, tau) for q in facts
            for slot, tau in endpoint_terms(q, binning, dual, n_relations)]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def rank_oracle(params: ModelParams, quad: Quadruple, side: str, positive_keys: set,
                binning: TimeBinning, score_binning: TimeBinning | None = None) -> int:
    """Exhaustive rank: substitute every entity, filter, compare one by one.

    Filter keys use ``binning``; scores use ``score_binning`` when given.
    """
    score_binning = binning if score_binning is None else score_binning

    def key(q: Quadruple) -> tuple:
        tb = binning.index_of(q.time.begin) if q.time.begin is not None else None
        te = binning.index_of(q.time.end) if q.time.end is not None else None
        return (q.subject, q.relation, q.object, (tb, te))

    target_score = fact_score_oracle(params, quad, score_binning)
    n_lower = n_equal = 0
    for e in range(params.n_entities):
        if side == "object":
            cand = Quadruple(quad.subject, quad.relation, e, quad.time)
            if e == quad.object:
                continue
        else:
            cand = Quadruple(e, quad.relation, quad.object, quad.time)
            if e == quad.subject:
                continue
        if key(cand) in positive_keys:
            continue
        score = fact_score_oracle(params, cand, score_binning)
        if score < target_score:
            n_lower += 1
        elif score == target_score:
            n_equal += 1
    return 1 + n_lower + (n_equal + 1) // 2


def key_of(quad: Quadruple, binning: TimeBinning) -> tuple:
    return (quad.subject, quad.relation, quad.object, time_key(quad.time, binning))


def filter_key_count(fs: FilterSet, facts: Sequence[Quadruple]) -> int:
    """Number of distinct keys ``fs`` holds for ``facts``, the facts it was built from.

    Sums the true objects of each distinct (subject, relation, time key), so
    a repeated key counts once.
    """
    anchors = {(q.subject, q.relation, time_key(q.time, fs.binning)): q for q in facts}
    return sum(len(fs.true_entities(q, "object")) for q in anchors.values())


def format_fact(quad: Quadruple, vocab: Vocab, fmt: str) -> str:
    """Serialize a quadruple back to its canonical TSV line."""
    s = vocab.id2ent[quad.subject]
    r = vocab.id2rel[quad.relation]
    o = vocab.id2ent[quad.object]
    t = quad.time
    if fmt == POINT_TSV:
        if not t.is_point or not t.begin.is_full:
            raise ValueError("point-tsv requires fully dated point facts")
        return f"{s}\t{r}\t{o}\t{t.begin}"
    begin = str(t.begin) if t.begin is not None else "####-##-##"
    end = str(t.end) if t.end is not None else "####-##-##"
    return f"{s}\t{r}\t{o}\t{begin}\t{end}"


def is_begin_only(t: TimeAnnotation) -> bool:
    return t.end is None


def is_end_only(t: TimeAnnotation) -> bool:
    return t.begin is None


def param_count(params: ModelParams) -> int:
    """Trainable scalar count.

    2*n_e*k entity components + 2*n_slots*k relation components + n_tau*k
    phases, where n_slots is 2*n_relations on dual models.
    """
    n_e, k = params.ent_re.shape
    return 2 * n_e * k + 2 * params.n_slots * k + params.n_tau * k


def loss(pos_score: float, neg_scores: Sequence[float], margin: float, neg_ratio: int) -> float:
    """Negative-sampling loss for one positive and its corruptions."""
    from tero.training import _softplus

    neg = np.asarray(neg_scores, float)
    if neg.shape != (neg_ratio,):
        raise ValueError(f"expected {neg_ratio} negative scores, got {neg.shape}")
    return float(_softplus(pos_score - margin) + _softplus(margin - neg).sum() / neg_ratio)


def loss_oracle(pos: float, negs: list[float], margin: float) -> float:
    def log_sigmoid(x: float) -> float:
        return -math.log1p(math.exp(-x)) if x > 0 else x - math.log1p(math.exp(x))

    return -log_sigmoid(margin - pos) - sum(log_sigmoid(f - margin) for f in negs) / len(negs)


def negative_quads(pos: np.ndarray, repl: np.ndarray, obj: np.ndarray) -> np.ndarray:
    """The (B*R, 4) quadruples of the (B, R) negatives ``(repl, obj)`` of (B, 4)
    positives, group by group: each copies its positive and puts ``repl`` in
    the object where ``obj``, in the subject elsewhere."""
    neg = np.repeat(pos, repl.shape[1], axis=0)
    neg[np.arange(len(neg)), np.where(obj.ravel(), 2, 0)] = repl.ravel()
    return neg


def batch_loss(params: ModelParams, pos: np.ndarray, neg: np.ndarray,
               margin: float, neg_ratio: int) -> float:
    """Mean loss over a batch of (B, 4) positives and (B*neg_ratio, 4) negatives."""
    from tero.training import _softplus

    f_pos = score_quads(params, pos[:, 0], pos[:, 1], pos[:, 2], pos[:, 3])
    f_neg = score_quads(params, neg[:, 0], neg[:, 1], neg[:, 2], neg[:, 3])
    per_pos = _softplus(f_pos - margin)
    per_neg = _softplus(margin - f_neg).reshape(len(pos), neg_ratio).sum(axis=1) / neg_ratio
    return float((per_pos + per_neg).mean())


def fd_grads(params: ModelParams, pos, neg, margin: float, neg_ratio: int,
             h: float = 1e-4) -> dict:
    """Central finite differences of ``batch_loss`` over every coordinate."""
    out = {}
    for name, arr in params.arrays().items():
        g = arr * 0.0
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = batch_loss(params, pos, neg, margin, neg_ratio)
            flat[i] = orig - h
            down = batch_loss(params, pos, neg, margin, neg_ratio)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        out[name] = g
    return out


def max_relative_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].ravel(), numeric[name].ravel()
        for x, y in zip(a, n):
            worst = max(worst, abs(x - y) / max(1e-8, abs(y)))
    return worst


def dense_grads(params: ModelParams, grads: dict) -> dict:
    """Row-sparse ``{name: (rows, g)}`` gradients as full float64 tables."""
    out = {}
    for name, arr in params.arrays().items():
        rows, g = grads[name]
        full = np.zeros(arr.shape)
        full[rows] = g
        out[name] = full
    return out


def zero_acc(params: ModelParams) -> dict[str, np.ndarray]:
    """Fresh Adagrad state for ``params``: float64 zeros per table, as the first step makes it."""
    return {name: np.zeros(arr.shape) for name, arr in params.arrays().items()}


def dense_step_oracle(params: ModelParams, acc: dict[str, np.ndarray], pos, neg,
                      margin: float, neg_ratio: int, lr: float) -> float:
    """One training step with dense gradient tables and a whole-table Adagrad.

    The reference for ``tero.training.grad_step``: every quadruple, flushed
    or not, is scattered into an (n_rows, k) float64 table per parameter
    table, and Adagrad sweeps every row. Mutates ``params`` and its Adagrad
    state ``acc``; returns the mean batch loss.
    """
    from tero.training import ADAGRAD_EPS, _sigmoid, _softplus

    B = len(pos)
    quads = np.concatenate([pos, neg])
    s, slot, o, tau = (np.ascontiguousarray(quads[:, j]) for j in range(4))
    k = params.k
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
        u_re, u_im = np.sign(d_re), np.sign(d_im)
    else:
        scores = np.sqrt((d_re * d_re).sum(axis=1) + (d_im * d_im).sum(axis=1))
        safe = np.where(scores > 0.0, scores, 1.0)[:, None]
        u_re = np.where(scores[:, None] > 0.0, d_re / safe, 0.0)
        u_im = np.where(scores[:, None] > 0.0, d_im / safe, 0.0)

    f_pos, f_neg = scores[:B], scores[B:]
    total = float((_softplus(f_pos - margin)
                   + _softplus(margin - f_neg).reshape(B, neg_ratio).sum(axis=1) / neg_ratio).mean())
    w = np.concatenate([_sigmoid(f_pos - margin), -_sigmoid(margin - f_neg) / neg_ratio]) / B
    w[np.abs(w) < 1e-30] = 0.0
    u_re *= w[:, None]
    u_im *= w[:, None]

    urc = u_re * c
    urs = u_re * sn
    uic = u_im * c
    uis = u_im * sn
    g_phase = uic * b1
    g_phase -= uis * b2
    g_phase -= urc * a2
    g_phase -= urs * a1

    def scatter(idx, vals, n_rows):
        flat = (idx[:, None] * k + np.arange(k)).ravel()
        return np.bincount(flat, weights=vals.ravel(), minlength=n_rows * k).reshape(n_rows, k)

    ent_idx = np.concatenate([s, o])
    grads = {
        "ent_re": scatter(ent_idx, np.concatenate([urc + uis, uis - urc]), params.n_entities),
        "ent_im": scatter(ent_idx, np.concatenate([uic - urs, urs + uic]), params.n_entities),
        "rel_re": scatter(slot, u_re, params.n_slots),
        "rel_im": scatter(slot, u_im, params.n_slots),
        "phase": scatter(tau, g_phase, params.n_tau),
    }
    arrays = params.arrays()
    for name, g in grads.items():
        acc[name] += g * g
        arrays[name] -= lr * g / (np.sqrt(acc[name]) + ADAGRAD_EPS)
    return total


def random_kg(seed: int = 0, n_entities: int = 50, n_relations: int = 5,
              n_steps: int = 10, n_facts: int = 500) -> Dataset:
    """Uniform random point facts, all distinct, split 60/20/20."""
    rng = np.random.default_rng(seed)
    vocab = Vocab([f"e{i:03d}" for i in range(n_entities)],
                  [f"r{i}" for i in range(n_relations)])
    seen: set[tuple] = set()
    facts = []
    while len(facts) < n_facts:
        s, r, o, tau = (int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                        int(rng.integers(n_entities)), int(rng.integers(n_steps)))
        if (s, r, o, tau) in seen:
            continue
        seen.add((s, r, o, tau))
        facts.append(Quadruple(s, r, o, _day(tau)))
    # anchor the span so every step exists even if unsampled
    facts[0] = Quadruple(facts[0].subject, facts[0].relation, facts[0].object, _day(0))
    facts[1] = Quadruple(facts[1].subject, facts[1].relation, facts[1].object, _day(n_steps - 1))
    n_test = n_facts // 5
    return _make_dataset(facts, vocab, n_valid=n_test, n_test=n_test, seed=seed + 1)
