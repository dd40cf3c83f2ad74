"""Time-wise filtered link-prediction evaluation.

For each test fact, every entity is substituted on the queried side; the
candidates that are themselves true facts (anywhere in train/valid/test, at
the query's own time step) are removed, except the test fact itself, and the
test fact's rank among the survivors yields MRR and Hits@k. Facts true at
other time steps stay in as distractors, which is what distinguishes the
time-wise from the triple-level filter.

All candidates of a query at step tau are scored against the same rotated
entity table, rot(e, theta_tau). ``evaluate`` therefore groups its queries
by the time steps of their endpoint terms and scores each group with one
``candidate_scores`` call, which makes one blocked pass over the entity
table per step: each block of rows is rotated into a small buffer and
every query of the group is scored against it while it is in cache. No
rotated table is ever built; a call holds its ``(Q, n_entities)`` scores
and one ``(Q, n_entities)`` array of distances per step.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import Quadruple, TimeAnnotation, TimeBinning, endpoint_terms
from .model import ModelParams, score_step

TIE_MODES = ("mean", "optimistic", "pessimistic")
# queries per candidate_scores call in evaluate(). It bounds the call's
# score and distance arrays (at most 3 x 128 x n_entities float64, 22 MB at
# 7128 entities) when many queries share their steps, as on a
# time-collapsed model
QUERIES_PER_CALL = 128


def time_key(t: TimeAnnotation, binning: TimeBinning) -> tuple[int | None, int | None]:
    """Annotation normalized to time-step indices; points become (tau, tau)."""
    tb = binning.index_of(t.begin) if t.begin is not None else None
    te = binning.index_of(t.end) if t.end is not None else None
    return (tb, te)


class FilterSet:
    """All positive quadruples keyed by (s, r, o, binned time annotation).

    Membership is exact on the full key, so the same triple at a different
    time step does not match. Also keeps per-query indexes of known-true
    entities for fast candidate masking.
    """

    def __init__(self, keys: set[tuple]):
        self._keys = keys
        self._true_objects: dict[tuple, list[int]] = {}
        self._true_subjects: dict[tuple, list[int]] = {}
        for s, r, o, tk in keys:
            self._true_objects.setdefault((s, r, tk), []).append(o)
            self._true_subjects.setdefault((o, r, tk), []).append(s)

    @classmethod
    def build(cls, facts: Iterable[Quadruple], binning: TimeBinning) -> "FilterSet":
        return cls({cls.key_of(q, binning) for q in facts})

    def __contains__(self, key: tuple) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    @staticmethod
    def key_of(quad: Quadruple, binning: TimeBinning) -> tuple:
        return (quad.subject, quad.relation, quad.object, time_key(quad.time, binning))

    def true_objects(self, s: int, r: int, tk: tuple) -> list[int]:
        return self._true_objects.get((s, r, tk), [])

    def true_subjects(self, o: int, r: int, tk: tuple) -> list[int]:
        return self._true_subjects.get((o, r, tk), [])


class QueryRank(NamedTuple):
    quad: Quadruple
    side: str
    rank: int


@dataclass
class EvalReport:
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    ranks: list[QueryRank]

    def metrics(self) -> dict[str, float]:
        return {"mrr": self.mrr, "hits@1": self.hits1, "hits@3": self.hits3,
                "hits@10": self.hits10}

    def to_tsv(self) -> str:
        return "".join(f"{k}\t{v:.6f}\n" for k, v in self.metrics().items())


def rank_from_scores(scores: np.ndarray, target_idx: int, keep: np.ndarray,
                     tie: str = "mean") -> int:
    """Rank of ``target_idx`` among kept candidates, lower scores first.

    Ties against other candidates count half each (rounded half up) in the
    default mode, so a constant scorer lands mid-field instead of at rank 1.
    """
    if tie not in TIE_MODES:
        raise ValueError(f"tie mode must be one of {TIE_MODES}")
    if not keep[target_idx]:
        raise ValueError("target candidate must survive filtering")
    target = scores[target_idx]
    kept = scores[keep]
    n_lower = int((kept < target).sum())
    n_equal = int((kept == target).sum()) - 1  # the target itself ties with itself
    if tie == "optimistic":
        return 1 + n_lower
    if tie == "pessimistic":
        return 1 + n_lower + n_equal
    return 1 + n_lower + (n_equal + 1) // 2


def candidate_scores(params: ModelParams, queries: Sequence[tuple[Quadruple, str]],
                     binning: TimeBinning) -> np.ndarray:
    """Scores of each ``(quad, side)`` query with every entity on ``side``.

    Row q of the ``(Q, n_entities)`` result is the mean of query q's
    endpoint-term scores, summed in term order. The terms are gathered by
    time step, and each step scores all of its terms in one ``score_step``
    pass, so queries that share their steps share the rotation.
    """
    batches: dict[int, list[tuple[int, int, str]]] = {}  # tau -> (anchor, slot, side)
    refs: list[list[tuple[int, int]]] = []  # per query: (tau, row in its batch) per term
    for quad, side in queries:
        anchor = quad.subject if side == "object" else quad.object
        terms = endpoint_terms(quad, binning, params.dual, params.n_relations)
        refs.append([])
        for slot, tau in terms:
            batch = batches.setdefault(tau, [])
            refs[-1].append((tau, len(batch)))
            batch.append((anchor, slot, side))
    dist = {tau: score_step(params, tau, *zip(*batch)) for tau, batch in batches.items()}
    out = np.empty((len(queries), params.n_entities))
    for row, ((tau, i), *rest) in zip(out, refs):
        row[:] = dist[tau][i]
        for tau, i in rest:
            row += dist[tau][i]
        row /= len(rest) + 1
    return out


def filtered_rank(scores: np.ndarray, quad: Quadruple, side: str, filter_set: FilterSet,
                  binning: TimeBinning, tie: str = "mean") -> int:
    """Time-wise filtered rank of one test fact on one side, from its scores."""
    key = filter_set.key_of(quad, binning)
    if key not in filter_set:
        raise ValueError("test quadruple is not in the filter set")
    tk = key[3]
    keep = np.ones(len(scores), dtype=bool)
    if side == "object":
        true_ids = filter_set.true_objects(quad.subject, quad.relation, tk)
        target = quad.object
    else:
        true_ids = filter_set.true_subjects(quad.object, quad.relation, tk)
        target = quad.subject
    keep[true_ids] = False
    keep[target] = True
    return rank_from_scores(scores, target, keep, tie)


def evaluate(params: ModelParams, test_facts: Sequence[Quadruple], filter_set: FilterSet,
             binning: TimeBinning, tie: str = "mean", threads: int = 1,
             score_binning: TimeBinning | None = None) -> EvalReport:
    """Rank both sides of every test fact and aggregate MRR / Hits@k.

    Queries are grouped by the time steps of their endpoint terms, and each
    group, up to QUERIES_PER_CALL queries at a time, is scored with one
    ``candidate_scores`` call. With ``threads > 1`` those calls go to the
    worker threads; ranks come back in query order and do not depend on
    the thread count.
    """
    if not test_facts:
        raise ValueError("empty test set")
    queries = [(q, side) for q in test_facts for side in ("subject", "object")]
    score_binning = binning if score_binning is None else score_binning
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (quad, _) in enumerate(queries):
        terms = endpoint_terms(quad, score_binning, params.dual, params.n_relations)
        groups.setdefault(tuple(sorted({tau for _, tau in terms})), []).append(i)
    calls = [members[j:j + QUERIES_PER_CALL] for members in groups.values()
             for j in range(0, len(members), QUERIES_PER_CALL)]

    def run(members: list[int]) -> list[tuple[int, int]]:
        scores = candidate_scores(params, [queries[i] for i in members], score_binning)
        return [(i, filtered_rank(row, *queries[i], filter_set, binning, tie))
                for i, row in zip(members, scores)]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, calls))
    else:
        done = map(run, calls)  # lazy: one call's scores at a time
    rank_of = dict(pair for ranked in done for pair in ranked)
    ranks = [QueryRank(quad, side, rank_of[i]) for i, (quad, side) in enumerate(queries)]

    r = np.array([qr.rank for qr in ranks], dtype=float)
    return EvalReport(mrr=float((1.0 / r).mean()), hits1=float((r <= 1).mean()),
                      hits3=float((r <= 3).mean()), hits10=float((r <= 10).mean()),
                      ranks=ranks)
