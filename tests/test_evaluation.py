import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tero
from conftest import params_from
from oracles import filter_key_count, key_of, random_kg, rank_oracle
from tero.data import (PartialDate, Quadruple, TimeAnnotation, bin_fixed, bin_threshold,
                       endpoint_terms, time_key)
from tero.evaluation import (TIE_MODES, FilterSet, QueryRank, Screen, candidate_scores,
                             evaluate, filtered_ranks, rank_from_scores)
from tero import model
from tero.model import init_params, score_quads, screen_band

seeds = st.integers(0, 2**32 - 1)


def day(i: int) -> TimeAnnotation:
    return TimeAnnotation.point(PartialDate(2014, 1, 1 + i))


def rank_alone(params, quad, side, fs, binning) -> int:
    """Filtered rank of one query, scored on its own."""
    [rank] = filtered_ranks(candidate_scores(params, [(quad, side)], binning), fs)
    return rank


def term_mean(params, quad, side, binning) -> np.ndarray:
    """Scores of every candidate: ``score_quads`` of each endpoint term, averaged."""
    n = params.n_entities
    every, fixed = np.arange(n), np.full(n, quad.subject if side == "object" else quad.object)
    s, o = (fixed, every) if side == "object" else (every, fixed)
    terms = endpoint_terms(quad, binning, params.dual, params.n_relations)
    total = np.zeros(n)
    for slot, tau in terms:
        total += score_quads(params, s, np.full(n, slot), o, np.full(n, tau))
    return total / len(terms)


def day_binning(n: int):
    return bin_fixed([PartialDate(2014, 1, 1), PartialDate(2014, 1, n)], 1)


class TestRankFromScores:
    def test_unique_minimum_ranks_first(self):
        scores = np.array([3.0, 0.5, 2.0, 9.0])
        assert rank_from_scores(scores, 1, np.ones(4, bool)) == 1

    def test_singleton_candidate_set(self):
        scores = np.array([3.0, 0.5, 2.0])
        keep = np.array([False, False, True])
        assert rank_from_scores(scores, 2, keep) == 1

    def test_constant_scores_rank_mid_field(self):
        n = 50
        scores = np.zeros(n)
        rank = rank_from_scores(scores, 7, np.ones(n, bool))
        assert rank == 26
        assert 1 / rank == pytest.approx(2 / n, rel=0.05)

    def test_tie_modes(self):
        scores = np.array([1.0, 1.0, 1.0, 0.0])
        keep = np.ones(4, bool)
        assert rank_from_scores(scores, 0, keep, "optimistic") == 2
        assert rank_from_scores(scores, 0, keep, "pessimistic") == 4
        assert rank_from_scores(scores, 0, keep, "mean") == 3

    @pytest.mark.parametrize("tie,rank", [("optimistic", 3), ("pessimistic", 4), ("mean", 4)])
    def test_nan_orders_after_every_number(self, tie, rank):
        # a NaN target has the two kept numbers below it and ties with the kept NaN
        scores = np.array([np.nan, 1.0, np.nan, 0.0, 5.0])
        keep = np.array([True, True, True, True, False])
        assert rank_from_scores(scores, 0, keep, tie) == rank
        assert rank_from_scores(scores, 1, keep, tie) == 2

    def test_filtered_target_rejected(self):
        with pytest.raises(ValueError):
            rank_from_scores(np.zeros(3), 0, np.array([False, True, True]))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            rank_from_scores(np.zeros(3), 0, np.ones(3, bool), "median")

    @given(seeds, st.sampled_from(["mean", "optimistic", "pessimistic"]))
    def test_invariant_under_monotone_transforms(self, seed, tie):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=20)
        scores[rng.integers(0, 20)] = scores[0]  # plant a tie
        keep = rng.random(20) < 0.8
        target = int(rng.integers(0, 20))
        keep[target] = True
        base = rank_from_scores(scores, target, keep, tie)
        for transform in (lambda x: 3.0 * x + 7.0, np.exp, np.arctan):
            assert rank_from_scores(transform(scores), target, keep, tie) == base

    @given(seeds)
    def test_appending_worse_candidate_keeps_rank(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=12)
        target = int(rng.integers(0, 12))
        keep = np.ones(12, bool)
        base = rank_from_scores(scores, target, keep)
        extended = np.append(scores, scores[target] + abs(rng.normal()) + 1e-6)
        assert rank_from_scores(extended, target, np.ones(13, bool)) == base


class TestFilterSet:
    def test_membership_is_exact_on_time(self):
        binning = day_binning(5)
        facts = [Quadruple(0, 0, 1, day(0)), Quadruple(0, 0, 1, day(3))]
        fs = FilterSet.build(facts, binning)
        assert filter_key_count(fs, facts) == 2
        assert 1 in fs.true_entities(Quadruple(0, 0, 1, day(0)), "object")
        assert 1 in fs.true_entities(Quadruple(0, 0, 1, day(3)), "object")
        assert 1 not in fs.true_entities(Quadruple(0, 0, 1, day(1)), "object")
        assert 2 not in fs.true_entities(Quadruple(0, 0, 2, day(0)), "object")

    def test_same_step_facts_merge(self):
        binning = bin_fixed([PartialDate(2014, 1, 1), PartialDate(2014, 1, 10)], 5)
        facts = [Quadruple(0, 0, 1, day(0)), Quadruple(0, 0, 1, day(3))]
        fs = FilterSet.build(facts, binning)
        assert filter_key_count(fs, facts) == 1  # both dates fall in step 0

    def test_true_entity_indexes(self):
        binning = day_binning(5)
        facts = [Quadruple(0, 0, 1, day(0)), Quadruple(0, 0, 2, day(0)),
                 Quadruple(3, 0, 1, day(0))]
        fs = FilterSet.build(facts, binning)
        assert fs.true_entities(Quadruple(0, 0, 7, day(0)), "object") == [1, 2]
        assert fs.true_entities(Quadruple(7, 0, 1, day(0)), "subject") == [0, 3]
        assert fs.true_entities(Quadruple(9, 0, 7, day(0)), "object") == []

    @given(seeds)
    def test_true_entities_match_a_scan_of_the_keys(self, seed):
        rng = np.random.default_rng(seed)
        binning = bin_threshold({2000: 1, 2001: 1, 2002: 1}, 1)
        y = [PartialDate(2000 + i) for i in range(3)]
        times = [TimeAnnotation.point(y[0]), TimeAnnotation(y[0], y[2]), TimeAnnotation(y[1], None),
                 TimeAnnotation(None, y[1]), TimeAnnotation(y[1], y[2])]
        facts = [Quadruple(int(rng.integers(5)), int(rng.integers(2)), int(rng.integers(5)),
                           times[int(rng.integers(len(times)))])
                 for _ in range(int(rng.integers(0, 40)))]
        fs = FilterSet.build(facts, binning)
        keys = {key_of(q, binning) for q in facts}
        assert filter_key_count(fs, facts) == len(keys)
        assert all(q.object in fs.true_entities(q, "object") for q in facts)
        # a point in the last year is an annotation that no fact has
        for time in times + [TimeAnnotation.point(y[2])]:
            tk = time_key(time, binning)
            for e in range(-1, 6):
                for r in range(-1, 3):
                    assert fs.true_entities(Quadruple(e, r, 0, time), "object") == \
                        sorted(o for s, rr, o, t in keys if (s, rr, t) == (e, r, tk))
                    assert fs.true_entities(Quadruple(0, r, e, time), "subject") == \
                        sorted(s for s, rr, o, t in keys if (o, rr, t) == (e, r, tk))
                    for o in range(-1, 6):
                        held = o in fs.true_entities(Quadruple(e, r, o, time), "object")
                        assert held == ((e, r, o, tk) in keys)

    def test_keeps_little_memory_per_key(self):
        # the sorted index arrays take 32 bytes a key; a set of key tuples
        # kept beside them took 150 or more. A full collection empties the
        # tuple free lists, which would otherwise count as kept
        ds = random_kg(seed=8, n_entities=200, n_relations=10, n_steps=50, n_facts=5000)
        facts = ds.all_facts
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            fs = FilterSet.build(facts, ds.binning)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_keys = filter_key_count(fs, facts)
        assert n_keys == 5000
        assert kept / n_keys < 64

    def test_generator_of_fresh_quadruples_matches_list(self):
        # every quadruple and annotation the generator yields is freed once
        # consumed, so an id() of one may come back for the next
        ds = random_kg(seed=6, n_entities=12, n_relations=2, n_steps=30, n_facts=200)

        def fresh():
            for q in ds.all_facts:
                yield Quadruple(q.subject, q.relation, q.object,
                                TimeAnnotation(q.time.begin, q.time.end))

        from_list = FilterSet.build(ds.all_facts, ds.binning)
        from_generator = FilterSet.build(fresh(), ds.binning)
        keys = {key_of(q, ds.binning) for q in ds.all_facts}
        assert filter_key_count(from_generator, ds.all_facts) == \
            filter_key_count(from_list, ds.all_facts) == len(keys)
        assert all(q.object in from_generator.true_entities(q, "object") for q in ds.all_facts)
        for q in ds.all_facts:
            for side in ("subject", "object"):
                assert from_generator.true_entities(q, side) == from_list.true_entities(q, side)


    def test_lists_are_the_same_in_every_process(self):
        # interval keys hold None, whose hash changes per process, so lists
        # that followed the set order of the keys would differ between runs
        script = (
            "from tero.data import PartialDate, Quadruple, TimeAnnotation, bin_threshold\n"
            "from tero.evaluation import FilterSet\n"
            "y = [PartialDate(2000 + i) for i in range(3)]\n"
            "times = [TimeAnnotation(y[0], None), TimeAnnotation(None, y[2]), "
            "TimeAnnotation(y[0], y[1])]\n"
            "facts = [Quadruple(i % 3, i % 2, 7 * i % 11, times[i % 3]) for i in range(200)]\n"
            "binning = bin_threshold({2000: 1, 2001: 1, 2002: 1}, 1)\n"
            "fs = FilterSet.build(facts, binning)\n"
            "print([(fs.true_entities(q, 'object'), fs.true_entities(q, 'subject'))\n"
            "       for q in facts])\n")
        src = str(Path(tero.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        runs = [subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                               text=True, check=True, timeout=60).stdout for _ in range(2)]
        assert runs[0] == runs[1] and "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]" in runs[0]


def mixed_queries(rng, n_e: int, n_r: int, n_steps: int, n: int) -> list:
    """Point, two-step and half-open facts, asked on alternating sides."""
    queries = []
    for i in range(n):
        b, e = sorted(int(t) for t in rng.integers(n_steps, size=2))
        date_b, date_e = PartialDate(2014, 1, 1 + b), PartialDate(2014, 1, 1 + e)
        time = [TimeAnnotation.point(date_b), TimeAnnotation(date_b, date_e),
                TimeAnnotation(date_b, None), TimeAnnotation(None, date_e)][i % 4]
        quad = Quadruple(int(rng.integers(n_e)), int(rng.integers(n_r)),
                         int(rng.integers(n_e)), time)
        queries.append((quad, ("subject", "object")[(i // 4) % 2]))
    return queries


class TestCandidateScores:
    @given(seeds, st.sampled_from([1, 2]), st.booleans())
    def test_grouping_invariance(self, seed, p, dual):
        # 150 entities span several row blocks of the kernel, the last one short
        rng = np.random.default_rng(seed)
        n_e, n_r, n_steps = 150, 3, 4
        params = init_params(n_e, n_r, n_steps, 5, dual=dual, seed=int(seed % 993), norm_p=p)
        binning = day_binning(n_steps)
        queries = mixed_queries(rng, n_e, n_r, n_steps, 16)
        batched = candidate_scores(params, queries, binning)
        assert batched.scores.shape == (len(queries), n_e)
        assert batched.scores.dtype == np.float32
        every = np.arange(n_e)
        for q, query in enumerate(queries):
            alone = candidate_scores(params, [query], binning)
            assert np.array_equal(batched.scores[q], alone.scores[0])
            assert batched.offsets[q] == alone.offsets[0]
            [exact] = batched.exact([(q, every)])
            assert np.array_equal(exact, term_mean(params, *query, binning))
            # a gathered, shuffled subset rescores bit for bit
            rows = np.random.default_rng(q).permutation(n_e)[:7]
            assert np.array_equal(batched.exact([(q, rows)])[0], exact[rows])
        # every query's band rescored in one call, as each alone
        bands = [(q, np.random.default_rng(q).permutation(n_e)[:q + 1]) for q in range(len(queries))]
        for (q, rows), together in zip(bands, batched.exact(bands)):
            assert np.array_equal(together, batched.exact([(q, rows)])[0])

    def test_builds_no_rotated_table(self):
        n, k = 4096, 64
        params = init_params(n, 2, 3, k, dual=False, seed=35)
        query = (Quadruple(0, 1, 2, day(1)), "object")
        candidate_scores(params, [query], day_binning(3))  # warm up numpy
        tracemalloc.start()
        try:
            candidate_scores(params, [query], day_binning(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 2 * k * 8 / 8


class TestRankQuery:
    def constructed_model(self):
        # entity 1 completes (0, r, ?, tau0) exactly, being conj(s + r);
        # everything else is far away
        ent = np.array([[1.0 + 0.5j], [1.2 + 0.5j], [5.0 + 5.0j], [-4.0 + 3.0j]])
        rel = np.array([[0.2 - 1.0j]])
        phase = np.zeros((2, 1))
        return params_from(ent, rel, phase)

    def test_constructed_minimum_ranks_first(self):
        params = self.constructed_model()
        binning = day_binning(2)
        quad = Quadruple(0, 0, 1, day(0))
        fs = FilterSet.build([quad], binning)
        screen = candidate_scores(params, [(quad, "object")], binning)
        assert screen.scores[0, 1] < 1e-6
        assert screen.exact([(0, np.array([1]))])[0][0] < 1e-6
        assert rank_alone(params, quad, "object", fs, binning) == 1

    def test_all_other_candidates_filtered(self):
        params = init_params(4, 1, 2, 3, dual=False, seed=21)
        binning = day_binning(2)
        facts = [Quadruple(0, 0, o, day(0)) for o in range(4)]
        fs = FilterSet.build(facts, binning)
        for o in range(4):
            assert rank_alone(params, facts[o], "object", fs, binning) == 1

    def test_query_must_be_known_positive(self):
        params = init_params(4, 1, 2, 3, dual=False, seed=22)
        binning = day_binning(2)
        fs = FilterSet.build([Quadruple(0, 0, 1, day(0))], binning)
        with pytest.raises(ValueError, match="not in the filter set"):
            rank_alone(params, Quadruple(0, 0, 2, day(0)), "subject", fs, binning)

    @given(seeds)
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        params = init_params(8, 2, 3, 2, dual=False, seed=int(seed % 997))
        binning = day_binning(3)
        facts = [Quadruple(int(rng.integers(8)), int(rng.integers(2)),
                           int(rng.integers(8)), day(int(rng.integers(3))))
                 for _ in range(12)]
        fs = FilterSet.build(facts, binning)
        keys = {key_of(q, binning) for q in facts}
        for quad in facts[:4]:
            for side in ("subject", "object"):
                assert rank_alone(params, quad, side, fs, binning) == \
                    rank_oracle(params, quad, side, keys, binning)

    def test_timewise_rank_at_least_triple_filtered_rank(self):
        # facts true at other steps stay in as distractors, so time-wise
        # ranks can only be worse than triple-level filtered ranks
        rng = np.random.default_rng(23)
        params = init_params(10, 1, 4, 3, dual=False, seed=24)
        binning = day_binning(4)
        facts = [Quadruple(0, 0, o, day(t)) for o, t in
                 [(1, 0), (2, 1), (3, 2), (4, 3), (5, 1), (6, 2)]]
        fs = FilterSet.build(facts, binning)
        for quad in facts:
            [scores] = candidate_scores(params, [(quad, "object")], binning).exact(
                [(0, np.arange(10))])
            timewise = rank_alone(params, quad, "object", fs, binning)
            keep = np.ones(10, bool)
            keep[[q.object for q in facts]] = False  # triple-level: any time
            keep[quad.object] = True
            triple_rank = rank_from_scores(scores, quad.object, keep)
            assert timewise >= triple_rank


class TestScreen:
    """The float32 screen gives the ranks and top-n of a float64 pass at near-ties."""

    @staticmethod
    def planted(seed, p, dual, interval, side, constant, k=6, far=0.0):
        """Params whose candidates crowd round the target's score, and the target's query.

        Row 0 is the target, row 1 the anchor and rows 2-19 random. Rows 20
        on are copies of the target (exact ties), a copy of row 5, and
        points on the segment between the lowest- and highest-scoring
        random rows, placed by bisection so their float64 scores sit at
        chosen gaps from the target's: just inside and just outside the
        screen band on both sides, and gaps within float32 rounding. Those
        rows are far from the target's, so the rounding of their float32
        scores does not follow the target's. A constant scorer has every
        row equal. A point fact with ``far`` moves every entity by a vector
        C of modulus ``far`` per coordinate, and the relation so that scores
        stay the same size: rot(e) and the query vector x then sit ~``far``
        per coordinate from the origin and near each other.
        """
        n = 48
        params = init_params(n, 2, 3, k, dual=dual, seed=seed % 1000, norm_p=p)
        y = [PartialDate(2000 + i) for i in range(3)]
        binning = bin_threshold({2000: 1, 2001: 1, 2002: 1}, 1)
        time = TimeAnnotation(y[0], y[2]) if interval else TimeAnnotation.point(y[1])
        quad = Quadruple(0, 1, 1, time) if side == "subject" else Quadruple(1, 1, 0, time)
        ent = np.stack([params.ent_re, params.ent_im])  # (2, n, k)
        if far:
            # conj(rot(e + C)) - rot(a + C) gains conj(rot(C)) - rot(C), which
            # the relation takes back
            [(slot, tau)] = endpoint_terms(quad, binning, dual, 2)
            shift = far * np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, k))
            ent += np.stack([shift.real, shift.imag])[:, None]
            params.rel_im[slot] -= 2 * (shift * np.exp(1j * params.phase[tau])).imag

        def exact(rows=(), values=None):
            """Writes ``values`` into ``rows``; the screen and every float64 score."""
            ent[:, rows] = values
            params.ent_re[:], params.ent_im[:] = ent
            screen = candidate_scores(params, [(quad, side)], binning)
            return screen, screen.exact([(0, np.arange(n))])[0]

        if constant:
            exact(slice(None), ent[:, :1])
            return params, quad, binning, {}
        _, full = exact()
        order = 2 + np.argsort(full[2:20])
        ent[:, [0, order[9]]] = ent[:, [order[9], 0]]  # a middling row becomes the target
        ent[:, 20:23] = ent[:, :1]
        screen, full = exact([23], ent[:, [5]])
        t = screen.scores[0, 0]
        lo, hi = screen_band(k, p, t, screen.offsets[0])
        tiny = float(t) * np.geomspace(1e-8, 1e-6, 8)
        gaps = {"in": [0.9 * (hi - t), 0.9 * (lo - t)], "out": [1.1 * (hi - t), 1.1 * (lo - t)],
                "tiny": [*tiny, *-tiny]}
        want = full[0] + np.array([float(g) for values in gaps.values() for g in values])
        rows = np.arange(24, 24 + len(want))
        a, b = ent[:, order[[0]]], ent[:, order[[-1]]]
        lam_lo, lam_hi = np.zeros(len(want)), np.ones(len(want))
        for _ in range(40):
            lam = (lam_lo + lam_hi) / 2
            _, full = exact(rows, a + lam[:, None] * (b - a))
            below = full[rows] < want
            lam_lo, lam_hi = np.where(below, lam, lam_lo), np.where(below, lam_hi, lam)
        it = iter(rows.tolist())
        return params, quad, binning, {kind: [next(it) for _ in values]
                                       for kind, values in gaps.items()}

    @given(seeds, st.sampled_from([1, 2]), st.booleans(), st.booleans(),
           st.sampled_from(["subject", "object"]), st.booleans())
    def test_ranks_and_top_n_equal_a_float64_pass(self, seed, p, dual, interval, side, constant):
        self.check_planted(seed, p, dual, interval, side, constant)

    @pytest.mark.parametrize("k", [64, 120, 499, 500])
    @pytest.mark.parametrize("p,side", [(1, "object"), (2, "subject")])
    def test_rows_summed_in_several_chunks(self, k, p, side):
        # the screen sums 2k = 128, 240 and 1000 terms in 2, 3 and 10 chunks,
        # and 998 in 499 chunks of two
        self.check_planted(k, p, True, True, side, False, k)

    @pytest.mark.parametrize("k", [120, 500])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("side", ["subject", "object"])
    def test_query_vector_far_from_the_origin(self, k, p, side):
        # rot(e) and x sit 100 per coordinate from the origin and ~0.2 from
        # each other, so ||x||_1 is 200-400 times the p=1 scores. The screen,
        # 2*sum(max(rot(e), x)) - sum(rot(e)) - sum(x), rounds on the scale of
        # ||x||_1, which its band must cover; 2k = 240 and 1000 are summed in
        # 6 and 25 chunks
        self.check_planted(k, p, False, False, side, False, k, far=100.0)

    def check_planted(self, seed, p, dual, interval, side, constant, k=6, far=0.0):
        params, quad, binning, planted = self.planted(seed, p, dual, interval, side, constant, k,
                                                      far)
        screen = candidate_scores(params, [(quad, side)], binning)
        n = params.n_entities
        # a few other true facts drop planted candidates from the ranking
        others = [Quadruple(e, quad.relation, quad.object, quad.time) if side == "subject"
                  else Quadruple(quad.subject, quad.relation, e, quad.time) for e in (21, 25, 31)]
        fs = FilterSet.build([quad, *others], binning)
        keys = {key_of(q, binning) for q in [quad, *others]}
        assert filtered_ranks(screen, fs) == [rank_oracle(params, quad, side, keys, binning)]
        [full] = screen.exact([(0, np.arange(n))])
        keep = np.ones(n, bool)
        keep[[21, 25, 31]] = False
        for tie in ("mean", "optimistic", "pessimistic"):
            assert filtered_ranks(screen, fs, tie) == [rank_from_scores(full, 0, keep, tie)]
        order = np.argsort(full, kind="stable")
        for top_n in {1, int((full < full[0]).sum()) + 1, 25, n, n + 3}:
            ids, scores = screen.top(0, top_n)
            assert np.array_equal(ids, order[:top_n])
            assert np.array_equal(scores, full[order[:top_n]])
        row = screen.scores[0]
        lo, hi = screen_band(params.k, params.norm_p, row[0], screen.offsets[0])
        if constant:
            assert ((lo <= row) & (row <= hi)).all()  # the band holds every row
        else:
            assert ((lo <= row[planted["in"]]) & (row[planted["in"]] <= hi)).all()
            assert ((row[planted["out"]] < lo) | (row[planted["out"]] > hi)).all()

    def test_band_holds_in_any_summation_order(self, monkeypatch):
        # The band must hold in any order the chunk-sum product adds in. Here
        # it adds each row left to right, and the maxima max(b, x) make every
        # partial sum round the same way. x is (1, 0, ..., 0), so
        # ||x||_1 = 1 is ~10^5 times the scores. The target's maxima are 1,
        # then 39 of just over half an ulp of 1, and every addition rounds
        # up. A candidate's are 39 of just under half an ulp, and every one
        # rounds down; its first coordinate sits 32u below x's. So the
        # candidate scores ~32u above the target but screens ~124u below
        # it. The band (~2 x 92u here) must still leave it to score_quads.
        k, u = 20, 2.0 ** -24  # 2k = 40 columns: one chunk of 40
        params = init_params(3, 1, 1, k, dual=False, seed=0)
        for table in (params.phase, params.ent_re, params.ent_im, params.rel_re, params.rel_im):
            table[:] = 0  # phase 0, the anchor (row 0) at the origin
        params.rel_re[0, 0] = 1.0
        for row, first, rest in ((1, 1.0, u * (1 + 2**-10)), (2, 1 - 32 * u, u * (1 - 2**-10))):
            params.ent_re[row], params.ent_im[row] = rest, rest
            params.ent_re[row, 0] = first
        dot = np.dot

        def left_to_right(a, b, out=None):
            if b.dtype != np.float32:
                return dot(a, b, out=out)
            assert (b == 1).all()
            out[...] = np.add.accumulate(a, axis=1)[:, -1]
            return out

        monkeypatch.setattr(np, "dot", left_to_right)
        binning = day_binning(1)
        quad = Quadruple(0, 0, 1, day(0))
        screen = candidate_scores(params, [(quad, "object")], binning)
        full = term_mean(params, quad, "object", binning)
        assert full[1] < full[2] and screen.scores[0, 2] < screen.scores[0, 1]
        fs = FilterSet.build([quad], binning)
        keys = {key_of(quad, binning)}
        assert filtered_ranks(screen, fs) == [rank_oracle(params, quad, "object", keys, binning)]
        assert filtered_ranks(screen, fs) == [1]

    @pytest.mark.parametrize("side", ["subject", "object"])
    def test_cancelling_query_vector(self, side):
        # At phase 0 a relation that cancels the anchor makes the query
        # vector x exactly 0, so the screen scores candidates of size ~1e-13
        # to float32 accuracy, while score_quads rounds a - e to the ulps of
        # a. The band must cover that rounding; the target's near copies
        # sit within it, and their score_quads scores tie in places.
        n, k = 40, 6
        binning = day_binning(1)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = init_params(n, 1, 1, k, dual=False, seed=seed)
            params.phase[:] = 0
            tiny = 1e-13 * rng.uniform(-1, 1, (2, n - 1, k))
            tiny[:, 20:] = tiny[:, :1] * (1 + rng.uniform(-1e-5, 1e-5, (2, n - 21, k)))
            params.ent_re[1:], params.ent_im[1:] = tiny
            a_re, a_im = params.ent_re[0], params.ent_im[0]
            # x = 0: r = -a when the object is asked for, r = conj(a) when the subject is
            params.rel_re[0], params.rel_im[0] = (-a_re, -a_im) if side == "object" else (a_re, -a_im)
            quad = Quadruple(0, 0, 1, day(0)) if side == "object" else Quadruple(1, 0, 0, day(0))
            screen = candidate_scores(params, [(quad, side)], binning)
            fs = FilterSet.build([quad], binning)
            [full] = screen.exact([(0, np.arange(n))])
            assert np.array_equal(full, term_mean(params, quad, side, binning))
            keep = np.ones(n, bool)
            for tie in TIE_MODES:
                assert filtered_ranks(screen, fs, tie) == \
                    [rank_from_scores(full, 1, keep, tie)], (seed, tie)
            order = np.argsort(full, kind="stable")
            for top_n in (1, 5, 21, n):
                ids, scores = screen.top(0, top_n)
                assert np.array_equal(ids, order[:top_n]), (seed, top_n)
                assert np.array_equal(scores, full[order[:top_n]])


class TestBandTightness:
    def test_few_rows_rescored_per_query(self, monkeypatch):
        # A seeded random model at k=500 puts many candidates near the
        # target's score, as ICEWS14-shaped ranking does. With the screen's
        # float32 row sum at depth 39, not 999, the band left 2.2-2.4 rows per
        # query to rescore (the target included) on seeds 100-109.
        n, k, seed = 2000, 500, 0
        params = init_params(n, 20, 4, k, dual=False, seed=seed)
        rng = np.random.default_rng(seed)
        facts = [Quadruple(int(s), int(r), int(o), day(int(t))) for s, r, o, t in
                 zip(*(rng.integers(0, m, 100) for m in (n, 20, n, 4)))]
        binning = day_binning(4)
        rescored = []
        exact = Screen.exact
        monkeypatch.setattr(Screen, "exact", lambda screen, bands: rescored.extend(
            len(rows) for _, rows in bands) or exact(screen, bands))
        evaluate(params, facts, FilterSet.build(facts, binning), binning)
        assert len(rescored) == 200
        assert np.mean(rescored) < 3.0


class TestEvaluate:
    def test_aggregation_arithmetic(self, monkeypatch):
        canned = iter([2, 4, 10, 2, 4, 10])
        monkeypatch.setattr("tero.evaluation.filtered_ranks",
                            lambda screen, *a, **k: [next(canned) for _ in screen.queries])
        params = init_params(4, 1, 2, 2, dual=False, seed=25)
        binning = day_binning(2)
        facts = [Quadruple(0, 0, 1, day(0)), Quadruple(1, 0, 2, day(0)),
                 Quadruple(2, 0, 3, day(1))]
        fs = FilterSet.build(facts, binning)
        report = evaluate(params, facts, fs, binning)
        assert report.mrr == pytest.approx(0.28333, abs=1e-4)
        assert report.hits1 == 0.0
        assert report.hits3 == pytest.approx(1 / 3)
        assert report.hits10 == 1.0

    def test_perfect_model(self):
        params = init_params(4, 1, 2, 3, dual=False, seed=26)
        binning = day_binning(2)
        facts = [Quadruple(s, 0, o, day(0)) for s in range(4) for o in range(4)]
        fs = FilterSet.build(facts, binning)
        report = evaluate(params, facts, fs, binning)
        assert report.mrr == 1.0
        assert report.hits1 == report.hits3 == report.hits10 == 1.0

    def test_hits_are_ordered(self):
        ds = random_kg(seed=3, n_entities=20, n_relations=3, n_steps=5, n_facts=100)
        params = init_params(20, 3, 5, 4, dual=False, seed=27)
        fs = FilterSet.build(ds.all_facts, ds.binning)
        report = evaluate(params, ds.test, fs, ds.binning)
        assert report.hits1 <= report.hits3 <= report.hits10
        assert report.mrr >= report.hits1
        assert 0.0 < report.mrr <= 1.0
        assert len(report.ranks) == 2 * len(ds.test)

    def test_threads_agree_with_reference(self, monkeypatch):
        ds = random_kg(seed=4, n_entities=15, n_relations=2, n_steps=4, n_facts=60)
        params = init_params(15, 2, 4, 4, dual=False, seed=28)
        fs = FilterSet.build(ds.all_facts, ds.binning)
        cpus = (2, 3, 7, 8, model.usable_cpus())
        monkeypatch.setattr(model, "usable_cpus", lambda: 1)
        single = evaluate(params, ds.test, fs, ds.binning)
        for count in cpus:
            monkeypatch.setattr(model, "usable_cpus", lambda: count)
            multi = evaluate(params, ds.test, fs, ds.binning)
            assert [q.rank for q in single.ranks] == [q.rank for q in multi.ranks]
            assert single.mrr == multi.mrr

    @pytest.mark.parametrize("tie", TIE_MODES)
    def test_nan_entity_ranks_last(self, tie):
        from tero.synthetic import temporary_relation_suite
        ds = temporary_relation_suite()
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, ds.binning.n_tau, 8,
                             ds.dual, seed=0)
        quad = ds.test[0]
        params.ent_re[quad.object] = np.nan
        params.ent_im[quad.object] = np.nan
        fs = FilterSet.build(ds.all_facts, ds.binning)
        report = evaluate(params, ds.test, fs, ds.binning, tie)
        kept = ds.vocab.n_entities + 1 - len(fs.true_entities(quad, "object"))
        assert report.ranks[1].side == "object" and report.ranks[1].rank == kept == 20
        assert 0.0 < report.mrr < 1.0

    def test_empty_test_set_rejected(self):
        params = init_params(4, 1, 2, 2, dual=False, seed=29)
        binning = day_binning(2)
        with pytest.raises(ValueError, match="empty"):
            evaluate(params, [], FilterSet.build([], binning), binning)

    def test_report_tsv(self):
        params = init_params(4, 1, 2, 2, dual=False, seed=30)
        binning = day_binning(2)
        facts = [Quadruple(0, 0, 1, day(0))]
        fs = FilterSet.build(facts, binning)
        report = evaluate(params, facts, fs, binning)
        lines = report.to_tsv().strip().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["mrr", "hits@1", "hits@3", "hits@10"]


class TestEvaluateMatchesOracle:
    """``evaluate`` itself, with its per-step tables, against the oracle."""

    def assert_matches_oracle(self, params, facts, all_facts, binning, score_binning=None,
                              cpus=1):
        """Filter keys on ``binning``; scores use ``score_binning`` when given, and
        the screen sees ``cpus`` usable CPUs."""
        fs = FilterSet.build(all_facts, binning)
        keys = {key_of(q, binning) for q in all_facts}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "usable_cpus", lambda: cpus)
            report = evaluate(params, facts, fs,
                              binning if score_binning is None else score_binning)
        assert [(qr.quad, qr.side) for qr in report.ranks] == \
            [(q, side) for q in facts for side in ("subject", "object")]
        for qr in report.ranks:
            assert qr.rank == rank_oracle(params, qr.quad, qr.side, keys, binning,
                                          score_binning), (qr.quad, qr.side)

    def test_point_graph(self):
        ds = random_kg(seed=5, n_entities=20, n_relations=3, n_steps=5, n_facts=100)
        params = init_params(20, 3, 5, 4, dual=False, seed=32)
        self.assert_matches_oracle(params, ds.test, ds.all_facts, ds.binning)

    @given(seeds, st.sampled_from([1, 2]))
    def test_interval_dual_graph(self, seed, cpus):
        # intervals over two steps need two tables per query; half-open
        # facts and points one
        rng = np.random.default_rng(seed)
        n_e, n_r, n_steps = 9, 2, 4
        params = init_params(n_e, n_r, n_steps, 3, dual=True, seed=int(seed % 991))
        binning = day_binning(n_steps)
        facts = set()
        while len(facts) < 14:
            b, e = sorted(int(t) for t in rng.integers(n_steps, size=2))
            date_b, date_e = PartialDate(2014, 1, 1 + b), PartialDate(2014, 1, 1 + e)
            time = [TimeAnnotation(date_b, date_e), TimeAnnotation(date_b, None),
                    TimeAnnotation(None, date_e)][int(rng.integers(3))]
            facts.add(Quadruple(int(rng.integers(n_e)), int(rng.integers(n_r)),
                                int(rng.integers(n_e)), time))
        facts = sorted(facts, key=repr)
        self.assert_matches_oracle(params, facts[:8], facts, binning, cpus=cpus)

    def test_score_binning_split(self):
        from tero.synthetic import collapsed_binning, temporary_relation_suite
        ds = temporary_relation_suite()
        flat = collapsed_binning(ds)
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, flat.n_tau,
                             4, dual=False, seed=34)
        self.assert_matches_oracle(params, ds.test[:6], ds.all_facts, ds.binning,
                                   score_binning=flat)


    def test_group_split_across_calls(self, monkeypatch):
        # a time-collapsed model puts every query in one group, which
        # evaluate() scores a few queries per call
        from tero.synthetic import collapsed_binning, temporary_relation_suite
        monkeypatch.setattr("tero.evaluation.QUERIES_PER_CALL", 5)
        ds = temporary_relation_suite()
        flat = collapsed_binning(ds)
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, flat.n_tau,
                             4, dual=False, seed=36)
        self.assert_matches_oracle(params, ds.test[:6], ds.all_facts, ds.binning,
                                   score_binning=flat, cpus=2)

    def test_facts_grouped_by_first_step(self, monkeypatch):
        # facts at steps (0, 1), (0, 2) and (0,) share their first step, so one
        # candidate_scores call screens all six queries, a pass per step
        calls = []

        def counted(params, queries, binning):
            calls.append(len(queries))
            return candidate_scores(params, queries, binning)

        monkeypatch.setattr("tero.evaluation.candidate_scores", counted)
        d = [PartialDate(2014, 1, 1 + i) for i in range(3)]
        facts = [Quadruple(0, 0, 1, TimeAnnotation(d[0], d[1])),
                 Quadruple(2, 1, 3, TimeAnnotation(d[0], d[2])),
                 Quadruple(4, 0, 5, TimeAnnotation.point(d[0]))]
        params = init_params(6, 2, 3, 3, dual=True, seed=38)
        self.assert_matches_oracle(params, facts, facts, day_binning(3))
        assert calls == [6]


class TestScoreBinningSplit:
    def test_collapsed_model_fine_protocol(self):
        # a one-step model judged under the fine-grained filter sees
        # distractors that a same-granularity filter would have removed
        from tero.synthetic import collapsed_binning, temporary_relation_suite
        ds = temporary_relation_suite()
        flat = collapsed_binning(ds)
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, flat.n_tau,
                             4, dual=False, seed=31)
        fs = FilterSet.build(ds.all_facts, ds.binning)
        report = evaluate(params, ds.test[:4], fs, flat)
        assert len(report.ranks) == 8
        for qr in report.ranks:
            assert 1 <= qr.rank <= ds.vocab.n_entities

    def test_filter_keeps_its_own_binning(self):
        # evaluate()'s binning only scores: the filter still removes the
        # true facts of each query's own fine step, not those of the one
        # collapsed step
        from tero.synthetic import collapsed_binning, temporary_relation_suite
        ds = temporary_relation_suite()
        flat = collapsed_binning(ds)
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, flat.n_tau,
                             4, dual=False, seed=37)
        report = evaluate(params, ds.test, FilterSet.build(ds.all_facts, ds.binning), flat)
        keys = {key_of(q, ds.binning) for q in ds.all_facts}
        assert [qr.rank for qr in report.ranks] == \
            [rank_oracle(params, qr.quad, qr.side, keys, ds.binning, flat) for qr in report.ranks]
