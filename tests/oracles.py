"""Independent reference implementations used to check the fast paths.

Everything here works one element at a time with Python complex numbers and
plain loops, so it shares no code with the vectorized implementations it is
used to verify.
"""

from __future__ import annotations

import cmath
import math

from tero.data import Quadruple, TimeBinning
from tero.model import ModelParams


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


def loss_oracle(pos: float, negs: list[float], margin: float) -> float:
    def log_sigmoid(x: float) -> float:
        return -math.log1p(math.exp(-x)) if x > 0 else x - math.log1p(math.exp(x))

    return -log_sigmoid(margin - pos) - sum(log_sigmoid(f - margin) for f in negs) / len(negs)


def fd_grads(params: ModelParams, pos, neg, margin: float, neg_ratio: int,
             h: float = 1e-4) -> dict:
    """Central finite differences of the batch loss over every coordinate."""
    from tero.training import batch_loss

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
