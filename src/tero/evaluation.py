"""Time-wise filtered link-prediction evaluation.

For each test fact, every entity is substituted on the queried side; the
candidates that are themselves true facts (anywhere in train/valid/test, at
the query's own time step) are removed, except the test fact itself, and the
test fact's rank among the survivors yields MRR and Hits@k. Facts true at
other time steps stay in as distractors, which is what distinguishes the
time-wise from the triple-level filter.

All candidates of a query at step tau are scored against the same rotated
entity table, rot(e, theta_tau). ``evaluate`` therefore groups its queries
by the time steps of their endpoint terms and screens each group with one
``candidate_scores`` call, one blocked float32 pass over the table per
step. Each rank then rescores in float64 only the candidates too close to
the target for the screen to order, so it equals a float64 pass's rank.
``FilterSet.build`` bins each annotation of the facts' annotation table
(``data.columns``) once and keeps its keys as sorted index arrays.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import Quadruple, TimeBinning, columns, endpoint_terms, time_key
from .model import ModelParams, score_step, screen_band

TIE_MODES = ("mean", "optimistic", "pessimistic")
# queries per candidate_scores call in evaluate(). It bounds the call's
# screen and distance arrays (at most 3 x 128 x n_entities float32, 11 MB
# at 7128 entities) when many queries share their steps, as on a
# time-collapsed model
QUERIES_PER_CALL = 128


class FilterSet:
    """All positive quadruples keyed by (s, r, o, binned time annotation).

    Membership is exact on the full key, so the same triple at a different
    time step does not match. The keys are held only as per-query indexes of
    known-true entities, sorted arrays that give a query's entities as one
    ``searchsorted`` slice; membership and length are read from them.
    """

    def __init__(self, rows: np.ndarray, codes: dict[tuple, int]):
        self._tk_codes = codes  # time key -> its code in column 3 of rows, (s, r, o, code)
        s, r, o, c = rows.T
        self._n_rel = int(r.max(initial=-1)) + 1
        self._index = {}  # side -> sorted _flat codes of the anchor side, true entity of each
        for side, anchor, true in (("object", s, o), ("subject", o, s)):
            flat = self._flat(anchor, r, c)
            order = np.lexsort((true, flat))  # entities ascending within a key
            flat, true = flat[order], true[order]
            new = (np.diff(flat, prepend=-1) != 0) | (np.diff(true, prepend=-1) != 0)  # no repeats
            self._index[side] = flat[new], true[new]

    def _flat(self, e, r, c):
        """One integer per (entity, relation, time code); ids must be in range."""
        return (e * self._n_rel + r) * len(self._tk_codes) + c

    def _true(self, side: str, e: int, r: int, tk: tuple) -> list[int]:
        c = self._tk_codes.get(tk)
        if c is None or e < 0 or not 0 <= r < self._n_rel:
            return []
        flat, true = self._index[side]
        key = self._flat(e, r, c)
        lo, hi = flat.searchsorted([key, key + 1])
        return true[lo:hi].tolist()

    @classmethod
    def build(cls, facts: Iterable[Quadruple], binning: TimeBinning) -> "FilterSet":
        rows, times = columns(facts)
        codes: dict[tuple, int] = {}
        rows[:, 3] = np.array([codes.setdefault(time_key(t, binning), len(codes)) for t in times],
                              np.int64)[rows[:, 3]]
        return cls(rows, codes)

    def __contains__(self, key: tuple) -> bool:
        s, r, o, tk = key
        return o in self.true_objects(s, r, tk)

    def __len__(self) -> int:
        return len(self._index["object"][0])

    def true_objects(self, s: int, r: int, tk: tuple) -> list[int]:
        return self._true("object", s, r, tk)

    def true_subjects(self, o: int, r: int, tk: tuple) -> list[int]:
        return self._true("subject", o, r, tk)


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


@dataclass
class Screen:
    """Float32 screen of queries against every entity, from ``candidate_scores``.

    ``filtered_rank`` and ``top`` answer as a float64 pass would, rescoring in float64
    only the candidates whose order the screen leaves open (``model.screen_band``).
    """

    params: ModelParams
    queries: Sequence[tuple[Quadruple, str]]
    terms: list[list[tuple[int, int]]]  # (slot, tau) endpoint terms of each query
    scores: np.ndarray  # (Q, n_entities) float32
    offsets: np.ndarray  # (Q,) mean term offset of each row

    def exact(self, q: int, rows: np.ndarray) -> np.ndarray:
        """Float64 scores of query q's candidates ``rows``, terms averaged in term order."""
        quad, side = self.queries[q]
        anchor = quad.subject if side == "object" else quad.object
        return sum(score_step(self.params, tau, [anchor], [slot], [side], rows)[0][0]
                   for slot, tau in self.terms[q]) / len(self.terms[q])

    def top(self, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Query q's ``n`` lowest-scoring candidates and their float64 scores, ties by id."""
        row = self.scores[q]
        n = min(n, len(row))
        _, hi = screen_band(self.params.k, np.partition(row, n - 1)[n - 1], self.offsets[q])
        rows = np.flatnonzero(~(row > hi))
        exact = self.exact(q, rows)
        best = np.argsort(exact, kind="stable")[:n]
        return rows[best], exact[best]


def candidate_scores(params: ModelParams, queries: Sequence[tuple[Quadruple, str]],
                     binning: TimeBinning) -> Screen:
    """Screen of each ``(quad, side)`` query with every entity on ``side``.

    Row q of the float32 screen is the mean of query q's endpoint-term
    scores, summed in term order, and its offset the mean of theirs. The
    terms are gathered by time step, and each step scores all of its terms
    in one ``score_step`` pass, so queries that share their steps share
    the rotation.
    """
    batches: dict[int, list[tuple[int, int, str]]] = {}  # tau -> (anchor, slot, side)
    refs: list[list[tuple[int, int]]] = []  # per query: (tau, row in its batch) per term
    terms = [endpoint_terms(quad, binning, params.dual, params.n_relations) for quad, _ in queries]
    for (quad, side), query_terms in zip(queries, terms):
        anchor = quad.subject if side == "object" else quad.object
        refs.append([])
        for slot, tau in query_terms:
            batch = batches.setdefault(tau, [])
            refs[-1].append((tau, len(batch)))
            batch.append((anchor, slot, side))
    dist = {tau: score_step(params, tau, *zip(*batch)) for tau, batch in batches.items()}
    out = np.empty((len(queries), params.n_entities), np.float32)
    offsets = np.empty(len(queries))
    for q, ((tau, i), *rest) in enumerate(refs):
        row = out[q]
        row[:] = dist[tau][0][i]
        for tau, i in rest:
            row += dist[tau][0][i]
        row /= len(rest) + 1
        offsets[q] = np.mean([dist[tau][1][i] for tau, i in refs[q]])
    return Screen(params, queries, terms, out, offsets)


def filtered_rank(screen: Screen, q: int, filter_set: FilterSet, binning: TimeBinning,
                  tie: str = "mean") -> int:
    """Time-wise filtered rank of query q of ``screen``, as a float64 pass would give it."""
    quad, side = screen.queries[q]
    tk = time_key(quad.time, binning)
    if side == "object":
        true_ids = filter_set.true_objects(quad.subject, quad.relation, tk)
        target = quad.object
    else:
        true_ids = filter_set.true_subjects(quad.object, quad.relation, tk)
        target = quad.subject
    if target not in true_ids:
        raise ValueError("test quadruple is not in the filter set")
    keep = np.ones(screen.scores.shape[1], dtype=bool)
    keep[true_ids] = False
    keep[target] = True
    row = screen.scores[q]
    lo, hi = screen_band(screen.params.k, row[target], screen.offsets[q])
    below = row < lo
    rows = np.flatnonzero(~(below | (row > hi)))  # holds the target
    return int((below & keep).sum()) + rank_from_scores(
        screen.exact(q, rows), int(rows.searchsorted(target)), keep[rows], tie)


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
        screen = candidate_scores(params, [queries[i] for i in members], score_binning)
        return [(i, filtered_rank(screen, q, filter_set, binning, tie))
                for q, i in enumerate(members)]

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
