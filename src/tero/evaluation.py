"""Time-wise filtered link-prediction evaluation.

For each test fact, every entity is substituted on the queried side; the
candidates that are themselves true facts (anywhere in train/valid/test, at
the query's own time step) are removed, except the test fact itself, and the
test fact's rank among the survivors yields MRR and Hits@k. Facts true at
other time steps stay in as distractors, which is what distinguishes the
time-wise from the triple-level filter.

All candidates of a query at step tau are scored against the same rotated
entity table, rot(e, theta_tau). ``evaluate`` therefore groups its queries
by the first time step of their endpoint terms and screens each group with
one ``candidate_scores`` call, one blocked float32 pass over the table per
step its terms fall on, split over the usable cores. The ranks then
rescore with one ``score_quads`` call only the candidates too close to
each target for the screen to order, so each equals a full pass's rank.
``FilterSet.build`` bins each annotation of the facts' annotation table
(``data.columns``) once, keeps its keys as sorted index arrays and bins each
query with that same binning; the binning passed to ``evaluate`` only scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .data import Quadruple, TimeBinning, columns, endpoint_terms, time_key
from .model import ModelParams, score_quads, score_step, screen_band

TIE_MODES = ("mean", "optimistic", "pessimistic")
# queries per candidate_scores call in evaluate(). With up to 2 terms per
# query it bounds, when many queries share their first step: the call's term
# rows, one step's rows before they are copied in and the screen rows (at
# most 4 x 128 x n_entities float32, 15 MB at 7128 entities); the chunk sums
# of each score_step worker (per 128 terms: 128 x 64 rows x 2k/w float32, w
# the largest divisor of 2k up to model.SUM_COLS, and np.dot's transient
# float64 cast of them: 820 KB + 1.6 MB per worker at k=500, where w = 40,
# but 16 + 33 MB at k=499, where w = 2), beside its 256 KB complex64 block
# and 512 KB buffer of maxima or differences at k=500; and the candidates
# filtered_ranks rescores at once (~5-6 per query on ICEWS14, all for a
# constant scorer)
QUERIES_PER_CALL = 128


class FilterSet:
    """All positive quadruples keyed by (s, r, o, binned time annotation).

    Membership is exact on the full key, so the same triple at a different
    time step does not match. Facts and queries are binned alike, with the
    ``binning`` it was built with. The keys are held only as per-query
    indexes of known-true entities, sorted arrays that give a query's
    entities as one ``searchsorted`` slice.
    """

    def __init__(self, rows: np.ndarray, codes: dict[tuple, int], binning: TimeBinning):
        self.binning = binning
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

    @classmethod
    def build(cls, facts: Iterable[Quadruple], binning: TimeBinning) -> "FilterSet":
        rows, times = columns(facts)
        codes: dict[tuple, int] = {}
        rows[:, 3] = np.array([codes.setdefault(time_key(t, binning), len(codes)) for t in times],
                              np.int64)[rows[:, 3]]
        return cls(rows, codes, binning)

    def true_entities(self, quad: Quadruple, side: str) -> list[int]:
        """Ascending ids of the entities that, put on ``side`` of ``quad``, make a
        true fact at the query's own binned time."""
        anchor = quad.subject if side == "object" else quad.object
        c = self._tk_codes.get(time_key(quad.time, self.binning))
        if c is None or anchor < 0 or not 0 <= quad.relation < self._n_rel:
            return []
        flat, true = self._index[side]
        key = self._flat(anchor, quad.relation, c)
        lo, hi = flat.searchsorted([key, key + 1])
        return true[lo:hi].tolist()


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
    NaN orders after every number, as ``np.argsort`` puts it, and ties with
    NaN.
    """
    if tie not in TIE_MODES:
        raise ValueError(f"tie mode must be one of {TIE_MODES}")
    if not keep[target_idx]:
        raise ValueError("target candidate must survive filtering")
    target = scores[target_idx]
    kept = scores[keep]
    if np.isnan(target):
        n_equal = int(np.isnan(kept).sum()) - 1  # the target itself ties with itself
        n_lower = len(kept) - 1 - n_equal
    else:
        n_lower = int((kept < target).sum())
        n_equal = int((kept == target).sum()) - 1
    if tie == "optimistic":
        return 1 + n_lower
    if tie == "pessimistic":
        return 1 + n_lower + n_equal
    return 1 + n_lower + (n_equal + 1) // 2


@dataclass
class Screen:
    """Float32 screen of queries against every entity, from ``candidate_scores``.

    ``filtered_ranks`` and ``top`` answer as ``score_quads`` over all candidates would,
    rescoring only those whose order the screen leaves open (``model.screen_band``).
    """

    params: ModelParams
    queries: Sequence[tuple[Quadruple, str]]
    terms: list[list[tuple[int, int]]]  # (slot, tau) endpoint terms of each query
    scores: np.ndarray  # (Q, n_entities) float32
    offsets: np.ndarray  # (Q,) mean term offset of each row

    def exact(self, bands: Sequence[tuple[int, np.ndarray]]) -> list[np.ndarray]:
        """``score_quads`` of each band ``(q, rows)``, query q's candidates ``rows``,
        as the mean over its terms; every band is rescored in one ``score_quads`` call."""
        quads = []
        for q, rows in bands:
            quad, side = self.queries[q]
            terms = self.terms[q]
            # (s, slot, o, tau): each term once per candidate
            block = np.repeat([(quad.subject, slot, quad.object, tau) for slot, tau in terms],
                              len(rows), axis=0)
            block[:, 0 if side == "subject" else 2] = np.tile(rows, len(terms))
            quads.append(block)
        scores = score_quads(self.params, *np.concatenate(quads).T)
        ends = np.cumsum([len(block) for block in quads])
        return [part.reshape(len(self.terms[q]), -1).mean(axis=0)
                for (q, _), part in zip(bands, np.split(scores, ends[:-1]))]

    def top(self, q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Query q's ``n`` lowest-scoring candidates and their float64 scores, ties by id."""
        row = self.scores[q]
        n = min(n, len(row))
        _, hi = screen_band(self.params.k, self.params.norm_p, np.partition(row, n - 1)[n - 1],
                            self.offsets[q])
        rows = np.flatnonzero(~(row > hi))
        [exact] = self.exact([(q, rows)])
        best = np.argsort(exact, kind="stable")[:n]
        return rows[best], exact[best]


def candidate_scores(params: ModelParams, queries: Sequence[tuple[Quadruple, str]],
                     binning: TimeBinning) -> Screen:
    """Screen of each ``(quad, side)`` query with every entity on ``side``.

    Each distinct step scores all of its endpoint terms in one
    ``score_step`` pass, split over the CPUs of the process's affinity set,
    into one float32 row per term. Row q of the screen is the sum of query
    q's rows, in term order, divided by their count in float32, and its
    offset the mean of theirs.
    """
    terms = [endpoint_terms(quad, binning, params.dual, params.n_relations) for quad, _ in queries]
    # one row per term: (anchor, slot, tau, side), each query's terms adjacent
    anchors, slots, taus, sides = map(np.array, zip(*(
        (quad.subject if side == "object" else quad.object, slot, tau, side)
        for (quad, side), query_terms in zip(queries, terms) for slot, tau in query_terms)))
    dist = np.empty((len(taus), params.n_entities), np.float32)
    term_offsets = np.empty(len(taus))
    for tau in np.unique(taus):
        at = np.flatnonzero(taus == tau)
        dist[at], term_offsets[at] = score_step(params, int(tau), anchors[at], slots[at], sides[at])
    counts = np.array([len(query_terms) for query_terms in terms])
    starts = np.cumsum(counts) - counts
    out = np.add.reduceat(dist, starts)
    out /= counts[:, None].astype(np.float32)
    offsets = np.add.reduceat(term_offsets, starts) / counts
    return Screen(params, queries, terms, out, offsets)


def filtered_ranks(screen: Screen, filter_set: FilterSet, tie: str = "mean") -> list[int]:
    """Time-wise filtered rank of every query of ``screen``, as ``score_quads`` would give it.

    Each rank counts the kept candidates the screen puts surely below the
    target and ranks the rest of its band by their float64 scores; the
    bands of all queries are rescored by one ``Screen.exact`` call.
    """
    bands, parts = [], []  # parts: per query, (sure below, target's place, kept) in its band
    for q, (quad, side) in enumerate(screen.queries):
        true_ids = filter_set.true_entities(quad, side)
        target = quad.object if side == "object" else quad.subject
        if target not in true_ids:
            raise ValueError("test quadruple is not in the filter set")
        keep = np.ones(screen.scores.shape[1], dtype=bool)
        keep[true_ids] = False
        keep[target] = True
        row = screen.scores[q]
        lo, hi = screen_band(screen.params.k, screen.params.norm_p, row[target], screen.offsets[q])
        below = row < lo
        rows = np.flatnonzero(~(below | (row > hi)))  # holds the target
        bands.append((q, rows))
        parts.append((int((below & keep).sum()), int(rows.searchsorted(target)), keep[rows]))
    return [n_below + rank_from_scores(scores, at, kept, tie)
            for (n_below, at, kept), scores in zip(parts, screen.exact(bands))]


def evaluate(params: ModelParams, test_facts: Sequence[Quadruple], filter_set: FilterSet,
             binning: TimeBinning, tie: str = "mean") -> EvalReport:
    """Rank both sides of every test fact and aggregate MRR / Hits@k.

    ``binning`` scores the queries; the filter keys on its own binning, so
    a model trained on another granularity is judged under the same filter.
    Both queries of a fact are grouped by the first time step of the
    fact's endpoint terms, and each group, up to QUERIES_PER_CALL queries
    at a time, is screened with one ``candidate_scores`` call, one pass per
    step of its terms, and ranked with one ``filtered_ranks`` call. Each
    step's screen splits the entity table over one worker per CPU in the
    process's affinity set (``model.usable_cpus``); ranks do not depend on
    the count.
    """
    if not test_facts:
        raise ValueError("empty test set")
    queries = [(q, side) for q in test_facts for side in ("subject", "object")]
    groups: dict[int, list[int]] = {}  # first step -> queries
    for j, quad in enumerate(test_facts):  # queries 2j and 2j + 1
        terms = endpoint_terms(quad, binning, params.dual, params.n_relations)
        groups.setdefault(min(tau for _, tau in terms), []).extend((2 * j, 2 * j + 1))
    rank_of = {}
    for members in groups.values():
        for j in range(0, len(members), QUERIES_PER_CALL):
            call = members[j:j + QUERIES_PER_CALL]
            screen = candidate_scores(params, [queries[i] for i in call], binning)
            rank_of.update(zip(call, filtered_ranks(screen, filter_set, tie)))
    ranks = [QueryRank(quad, side, rank_of[i]) for i, (quad, side) in enumerate(queries)]

    r = np.array([qr.rank for qr in ranks], dtype=float)
    return EvalReport(mrr=float((1.0 / r).mean()), hits1=float((r <= 1).mean()),
                      hits3=float((r <= 3).mean()), hits10=float((r <= 10).mean()),
                      ranks=ranks)
