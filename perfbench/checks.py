"""Brute-force references the benchmark checks the program's outputs against.

Everything here is computed from ``tero.model.score_quads`` over every
candidate, with a filter built from the generator's raw facts, following
the rule of ``tests/oracles.py``: a fact scores as the mean of its
endpoint terms; the time-wise filter drops candidates that are true facts
at the same binned time annotation; ties count half (rounded up).
"""

from __future__ import annotations

import numpy as np

from tero import model
from tero.data import PartialDate


def _date(d) -> PartialDate | None:
    return None if d is None else PartialDate(*d)


class RawFilter:
    """Known-true (s, r, o, (tau_begin, tau_end)) keys, by entity id."""

    def __init__(self, facts, vocab, binning):
        self.binning = binning
        self.ent, self.rel = vocab.ent2id, vocab.rel2id
        self.keys = {self.key(f) for f in facts}

    def taus(self, f) -> tuple:
        begin, end = _date(f[3]), _date(f[4])
        return (None if begin is None else self.binning.index_of(begin),
                None if end is None else self.binning.index_of(end))

    def key(self, f) -> tuple:
        return (self.ent[f[0]], self.rel[f[1]], self.ent[f[2]], self.taus(f))


def endpoint_terms(rel: int, taus: tuple, dual: bool, n_relations: int) -> list:
    """(slot, tau) terms of an annotation, decomposed by hand."""
    tb, te = taus
    begin_slot, end_slot = rel, rel + n_relations if dual else rel
    if tb is None:
        return [(end_slot, te)]
    if te is None:
        return [(begin_slot, tb)]
    if tb == te and not dual:
        return [(begin_slot, tb)]
    return [(begin_slot, tb), (end_slot, te)]


def all_candidate_scores(params, anchor: int, rel: int, taus: tuple, side: str) -> np.ndarray:
    """Mean endpoint score of the fact with every entity on ``side``."""
    n = params.n_entities
    cand = np.arange(n)
    fixed = np.full(n, anchor)
    total = np.zeros(n)
    terms = endpoint_terms(rel, taus, params.dual, params.n_relations)
    for slot, tau in terms:
        s, o = (fixed, cand) if side == "object" else (cand, fixed)
        total += model.score_quads(params, s, np.full(n, slot), o, np.full(n, tau))
    return total / len(terms)


def brute_rank(params, raw_filter: RawFilter, fact, side: str) -> int:
    """Time-wise filtered rank of one raw fact, mean tie rule."""
    s, r, o, taus = raw_filter.key(fact)
    anchor, target = (s, o) if side == "object" else (o, s)
    scores = all_candidate_scores(params, anchor, r, taus, side)
    keep = np.ones(params.n_entities, dtype=bool)
    for e in range(params.n_entities):
        cand = (s, r, e, taus) if side == "object" else (e, r, o, taus)
        if cand in raw_filter.keys:
            keep[e] = False
    keep[target] = False
    t = scores[target]
    n_lower = int((scores[keep] < t).sum())
    n_equal = int((scores[keep] == t).sum())
    return 1 + n_lower + (n_equal + 1) // 2


def brute_argmin(params, anchor: int, rel: int, taus: tuple, side: str) -> int:
    """Best-scoring candidate: lowest score, lowest id first."""
    return int(np.argmin(all_candidate_scores(params, anchor, rel, taus, side)))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def corrupt(pos: np.ndarray, neg_ratio: int, n_entities: int, seed: int) -> np.ndarray:
    """Seeded negatives: each positive ``neg_ratio`` times, one side replaced."""
    rng = np.random.default_rng(seed)
    neg = np.repeat(pos, neg_ratio, axis=0)
    side = np.where(rng.random(len(neg)) < 0.5, 0, 2)
    repl = rng.integers(0, n_entities - 1, len(neg))
    rows = np.arange(len(neg))
    repl += repl >= neg[rows, side]
    neg[rows, side] = repl
    return neg


def mean_loss(params, pos: np.ndarray, neg: np.ndarray, margin: float, neg_ratio: int) -> float:
    """Mean negative-sampling loss of the probe batch, from ``score_quads``."""
    def f(q):
        return model.score_quads(params, q[:, 0], q[:, 1], q[:, 2], q[:, 3])

    per_neg = _softplus(margin - f(neg)).reshape(len(pos), neg_ratio).sum(axis=1) / neg_ratio
    return float((_softplus(f(pos) - margin) + per_neg).mean())


def all_finite(params) -> bool:
    return all(bool(np.isfinite(a).all()) for a in params.arrays().values())
