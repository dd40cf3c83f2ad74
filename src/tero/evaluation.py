"""Time-wise filtered link-prediction evaluation.

For each test fact, every entity is substituted on the queried side; the
candidates that are themselves true facts (anywhere in train/valid/test, at
the query's own time step) are removed, except the test fact itself, and the
test fact's rank among the survivors yields MRR and Hits@k. Facts true at
other time steps stay in as distractors, which is what distinguishes the
time-wise from the triple-level filter.

All candidates of a query at step tau are scored against the same rotated
entity table, rot(e, theta_tau). ``evaluate`` therefore groups its queries
by the time steps of their endpoint terms, rotates the table once per
group and ranks every query of the group against it. Only the current
group's tables are alive: one ``(n_entities, 2k)`` float64 table per step,
57 MB at ICEWS14 shape (k=500), two for a fact whose interval spans two
steps, and that much again per extra worker thread.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import Quadruple, TimeAnnotation, TimeBinning, endpoint_terms
from .model import ModelParams, rotated_table, score_table

TIE_MODES = ("mean", "optimistic", "pessimistic")


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
        return cls({(q.subject, q.relation, q.object, time_key(q.time, binning))
                    for q in facts})

    def __contains__(self, key: tuple) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def key_of(self, quad: Quadruple, binning: TimeBinning) -> tuple:
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


def candidate_scores(params: ModelParams, quad: Quadruple, side: str,
                     binning: TimeBinning,
                     tables: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """Scores of the fact with every entity substituted on ``side``.

    ``tables`` maps each time step of the fact's endpoint terms to its
    ``rotated_table``; without it the tables are rotated here, which is
    what a single query costs.
    """
    terms = endpoint_terms(quad, binning, params.dual, params.n_relations)
    if tables is None:
        tables = {tau: rotated_table(params, tau) for _, tau in terms}
    anchor = quad.subject if side == "object" else quad.object
    return sum(score_table(params, tables[tau], anchor, slot, side)
               for slot, tau in terms) / len(terms)


def rank_query(params: ModelParams, quad: Quadruple, side: str, filter_set: FilterSet,
               binning: TimeBinning, tie: str = "mean",
               score_binning: TimeBinning | None = None,
               tables: dict[int, np.ndarray] | None = None) -> int:
    """Time-wise filtered rank of one test fact on one side.

    ``binning`` fixes the benchmark protocol (filter keys); ``score_binning``
    is the model's own time resolution when it differs, e.g. a time-collapsed
    ablation judged under the dataset's native granularity. ``tables`` is
    passed on to ``candidate_scores``.
    """
    tk = time_key(quad.time, binning)
    if filter_set.key_of(quad, binning) not in filter_set:
        raise ValueError("test quadruple is not in the filter set")
    scores = candidate_scores(params, quad, side,
                              binning if score_binning is None else score_binning, tables)
    keep = np.ones(params.n_entities, dtype=bool)
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
    group rotates its tables once for all its queries. With ``threads > 1``
    whole groups go to the worker threads, each with its own tables; ranks
    come back in query order and do not depend on the thread count.
    """
    if not test_facts:
        raise ValueError("empty test set")
    queries = [(q, side) for q in test_facts for side in ("subject", "object")]
    score_binning = binning if score_binning is None else score_binning
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (quad, _) in enumerate(queries):
        terms = endpoint_terms(quad, score_binning, params.dual, params.n_relations)
        groups.setdefault(tuple(sorted({tau for _, tau in terms})), []).append(i)

    def run(group: tuple[tuple[int, ...], list[int]]) -> list[tuple[int, int]]:
        steps, members = group
        tables = {tau: rotated_table(params, tau) for tau in steps}
        return [(i, rank_query(params, *queries[i], filter_set, binning, tie,
                               score_binning, tables)) for i in members]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, groups.items()))
    else:
        done = map(run, groups.items())  # lazy: one group's tables at a time
    rank_of = dict(pair for ranked in done for pair in ranked)
    ranks = [QueryRank(quad, side, rank_of[i]) for i, (quad, side) in enumerate(queries)]

    r = np.array([qr.rank for qr in ranks], dtype=float)
    return EvalReport(mrr=float((1.0 / r).mean()), hits1=float((r <= 1).mean()),
                      hits3=float((r <= 3).mean()), hits10=float((r <= 10).mean()),
                      ranks=ranks)
