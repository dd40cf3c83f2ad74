import cmath
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import params_from
from oracles import fact_score_oracle, param_count, rotate_oracle, score_one, score_oracle
from tero.data import PartialDate, Quadruple, TimeAnnotation, bin_threshold
from tero import model
from tero.evaluation import candidate_scores
from tero.model import (_norm, _query, _rotate, init_params, load_checkpoint,
                        save_checkpoint, score_quads, score_step, screen_band)

seeds = st.integers(0, 2**32 - 1)


def rotate(re, im, phase):
    """``_rotate`` by the angles ``phase``."""
    return _rotate(re, im, np.cos(phase), np.sin(phase))


class TestRotate:
    def test_zero_phase_is_identity(self):
        re, im = np.array([1.0, -2.0]), np.array([0.5, 3.0])
        out_re, out_im = rotate(re, im, np.zeros(2))
        assert np.array_equal(out_re, re) and np.array_equal(out_im, im)

    def test_quarter_turn(self):
        out_re, out_im = rotate(np.array([1.0]), np.array([0.0]), np.array([np.pi / 2]))
        assert abs(out_re[0]) < 1e-15 and abs(out_im[0] - 1.0) < 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rotate(np.zeros(3), np.zeros(2), np.zeros(3))

    @given(seeds)
    def test_matches_complex_multiplication(self, seed):
        rng = np.random.default_rng(seed)
        re, im, phase = rng.normal(size=(3, 6))
        out_re, out_im = rotate(re, im, phase)
        expect = rotate_oracle([complex(a, b) for a, b in zip(re, im)], list(phase))
        assert np.allclose(out_re, [z.real for z in expect], atol=1e-12)
        assert np.allclose(out_im, [z.imag for z in expect], atol=1e-12)

    @given(seeds)
    def test_modulus_preserved(self, seed):
        rng = np.random.default_rng(seed)
        re, im = rng.normal(size=(2, 16)) * 10
        phase = rng.uniform(-10, 10, 16)
        out_re, out_im = rotate(re, im, phase)
        before = np.hypot(re, im)
        after = np.hypot(out_re, out_im)
        assert np.abs(after - before).max() < 1e-10

    @given(seeds)
    def test_composition_is_additive(self, seed):
        rng = np.random.default_rng(seed)
        re, im = rng.normal(size=(2, 16))
        p1, p2 = rng.uniform(-6, 6, (2, 16))
        two_step = rotate(*rotate(re, im, p1), p2)
        one_step = rotate(re, im, p1 + p2)
        assert np.abs(two_step[0] - one_step[0]).max() < 1e-10
        assert np.abs(two_step[1] - one_step[1]).max() < 1e-10


class TestQuery:
    @given(seeds, st.sampled_from([1, 2]), st.booleans())
    def test_both_sides_agree_with_score_quads(self, seed, p, dual):
        # the object-side query of s scoring o and the subject-side query of o
        # scoring s round differently from score_quads, by a few ulp
        params = init_params(12, 3, 4, 16, dual, seed % 2**16, norm_p=p)
        rng = np.random.default_rng(seed)
        s, o = rng.integers(0, 12, (2, 50))
        slot, tau = rng.integers(0, params.n_slots, 50), rng.integers(0, 4, 50)
        expect = score_quads(params, s, slot, o, tau)
        phase = params.phase[tau].astype(np.float64)
        c, sn = np.cos(phase), np.sin(phase)
        r_re, r_im = params.rel_re[slot], params.rel_im[slot]
        for anchor, cand, obj in ((s, o, True), (o, s, False)):
            x_re, x_im = _query(*_rotate(params.ent_re[anchor], params.ent_im[anchor], c, sn),
                                r_re, r_im, obj)
            e_re, e_im = _rotate(params.ent_re[cand], params.ent_im[cand], c, sn)
            got = _norm(e_re - x_re, e_im - x_im, p)
            assert np.allclose(got, expect, rtol=8 * np.finfo(float).eps, atol=0), obj


def build_exact_match(theta: float, s: complex, r: complex) -> tuple[complex, complex]:
    """Object embedding whose rotated conjugate equals rot(s) + r."""
    target = s * cmath.exp(1j * theta) + r
    o = target.conjugate() * cmath.exp(-1j * theta)
    return o, target


class TestScorePoint:
    def test_exact_translation_scores_zero(self):
        theta, s, r = 0.7, 1.5 - 0.5j, 0.25 + 1j
        o, _ = build_exact_match(theta, s, r)
        params = params_from([[s], [o]], [[r]], [[theta]])
        assert score_one(params, 0, 0, 1, 0) < 1e-12

    def test_real_identity_pair(self):
        params = params_from([[1 + 0j]], [[0j]], [[0.0]])
        assert score_one(params, 0, 0, 0, 0) == 0.0

    @given(seeds, st.sampled_from([1, 2]))
    def test_matches_arithmetic_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        ent = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        rel = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        phase = rng.uniform(0, 2 * np.pi, (2, 2))
        params = params_from(ent, rel, phase, norm_p=p)
        for s, r, o, tau in [(0, 0, 1, 0), (2, 1, 2, 1), (1, 0, 0, 1)]:
            assert score_one(params, s, r, o, tau) == pytest.approx(
                score_oracle(params, s, r, o, tau), abs=1e-10)

    def test_nonnegative(self, tiny_params):
        for s in range(4):
            for o in range(4):
                assert score_one(tiny_params, s, 0, o, 1) >= 0.0

    def test_asymmetric_by_construction(self):
        # a fact that holds exactly one way round scores far worse reversed
        theta, s, r = 0.3, 1 + 1j, 0.5 - 0.2j
        o, _ = build_exact_match(theta, s, r)
        params = params_from([[s], [o]], [[r]], [[theta]])
        assert score_one(params, 0, 0, 1, 0) < 1e-12
        assert score_one(params, 1, 0, 0, 0) > 0.1

    def test_temporal_sensitivity(self):
        theta1 = 0.0
        s, r = 1 + 0.5j, 0.2 + 0.1j
        o, _ = build_exact_match(theta1, s, r)
        params = params_from([[s], [o]], [[r]], [[theta1], [np.pi / 3]])
        assert score_one(params, 0, 0, 1, 0) < 1e-12
        assert score_one(params, 0, 0, 1, 1) > 0.1

    def test_two_reflexive_relations_coexist(self):
        # distinct self-relations need distinct imaginary parts, which the
        # conjugated object side makes representable
        a, b = 0.8 + 0.3j, -0.4 + 1.1j
        r1, r2 = -2 * 0.3j, -2 * 1.1j
        params = params_from([[a], [b]], [[r1], [r2]], [[0.0]])
        assert score_one(params, 0, 0, 0, 0) < 1e-12
        assert score_one(params, 1, 1, 1, 0) < 1e-12
        assert score_one(params, 0, 1, 0, 0) > 0.1
        assert score_one(params, 1, 0, 1, 0) > 0.1


def fact_score(params, quad, binning) -> float:
    """The fact's mean term score: its object query's float64 score of its own object."""
    screen = candidate_scores(params, [(quad, "object")], binning)
    return float(screen.exact([(0, np.array([quad.object]))])[0][0])


class TestScoreFact:
    def binning(self):
        return bin_threshold({2003: 1, 2004: 1, 2005: 1}, 1)

    def test_interval_is_mean_of_endpoints(self):
        rng = np.random.default_rng(5)
        ent = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        rel = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        phase = rng.uniform(0, 2 * np.pi, (3, 4))
        params = params_from(ent, rel, phase, n_relations=2, dual=True)
        quad = Quadruple(0, 1, 2, TimeAnnotation(PartialDate(2003), PartialDate(2005)))
        begin = score_oracle(params, 0, 1, 2, 0)
        end = score_oracle(params, 0, 3, 2, 2)
        assert fact_score(params, quad, self.binning()) == pytest.approx(
            (begin + end) / 2, abs=1e-10)

    def test_mean_of_equal_components_is_that_value(self):
        params = params_from([[1 + 1j], [2 - 1j]], [[0.3j], [0.3j]],
                             [[0.0], [0.0], [0.0]], n_relations=1, dual=True)
        quad = Quadruple(0, 0, 1, TimeAnnotation(PartialDate(2003), PartialDate(2005)))
        single = score_one(params, 0, 0, 1, 0)
        assert fact_score(params, quad, self.binning()) == pytest.approx(single, abs=1e-12)

    def test_begin_only_uses_begin_slot(self, ):
        rng = np.random.default_rng(6)
        ent = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        rel = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        phase = rng.uniform(0, 2 * np.pi, (3, 3))
        params = params_from(ent, rel, phase, n_relations=1, dual=True)
        quad = Quadruple(0, 0, 1, TimeAnnotation(PartialDate(2004), None))
        assert fact_score(params, quad, self.binning()) == pytest.approx(
            score_one(params, 0, 0, 1, 1), abs=1e-12)

    def test_end_only_uses_end_slot(self):
        rng = np.random.default_rng(7)
        ent = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        rel = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        phase = rng.uniform(0, 2 * np.pi, (3, 3))
        params = params_from(ent, rel, phase, n_relations=1, dual=True)
        quad = Quadruple(0, 0, 1, TimeAnnotation(None, PartialDate(2005)))
        assert fact_score(params, quad, self.binning()) == pytest.approx(
            score_one(params, 0, 1, 1, 2), abs=1e-12)

    @given(seeds)
    def test_matches_oracle_on_mixed_annotations(self, seed):
        rng = np.random.default_rng(seed)
        ent = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        rel = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        phase = rng.uniform(0, 2 * np.pi, (3, 3))
        params = params_from(ent, rel, phase, n_relations=2, dual=True)
        annotations = [
            TimeAnnotation.point(PartialDate(2004)),
            TimeAnnotation(PartialDate(2003), PartialDate(2005)),
            TimeAnnotation(PartialDate(2004), None),
            TimeAnnotation(None, PartialDate(2003)),
        ]
        for t in annotations:
            quad = Quadruple(int(rng.integers(4)), int(rng.integers(2)),
                             int(rng.integers(4)), t)
            assert fact_score(params, quad, self.binning()) == pytest.approx(
                fact_score_oracle(params, quad, self.binning()), abs=1e-10)


class TestBatchScoring:
    @settings(deadline=None)  # the pointwise oracle takes ~0.4 s an example at k=500
    @given(seeds, st.sampled_from([1, 2]), st.sampled_from([4, 64, 120, 499, 500]))
    def test_all_entity_scoring_matches_pointwise(self, seed, p, k):
        # 150 entities span several row blocks of the kernel, the last one
        # short. The screen sums each row of 2k terms in chunks: one at k=4;
        # two, three and ten at k=64, 120 and 500; 499 chunks of two at k=499
        rng = np.random.default_rng(seed)
        n = 150
        params = init_params(n, 2, 3, k, dual=False, seed=int(seed % 1000), norm_p=p)
        anchor, slot, tau = int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(3))
        every, fixed = np.arange(n), np.full(n, anchor)
        slots, taus = np.full(n, slot), np.full(n, tau)
        obj = score_quads(params, fixed, slots, every, taus)
        subj = score_quads(params, every, slots, fixed, taus)
        assert np.allclose(obj, [score_oracle(params, anchor, slot, e, tau) for e in every],
                           rtol=0, atol=1e-12)
        assert np.allclose(subj, [score_oracle(params, e, slot, anchor, tau) for e in every],
                           rtol=0, atol=1e-12)
        # the float32 screen lies inside its bound around every score_quads score
        screen, offsets = score_step(params, tau, [anchor, anchor], [slot, slot],
                                     ["object", "subject"])
        assert screen.dtype == np.float32
        for row, exact, offset in zip(screen, (obj, subj), offsets):
            # the band spans both candidates' bounds on each side, ~4 bounds in all
            bound = [(hi - lo) / 4 for lo, hi in (screen_band(params.k, p, v, offset) for v in row)]
            assert (np.abs(exact - row) < bound).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True), (2, True)])
    def test_blocks_match_row_by_row_and_oracle(self, dtype, norm_p, dual):
        # 150 rows are three blocks of the forward kernel, the last one short
        params = init_params(20, 3, 5, 6, dual=dual, seed=31, norm_p=norm_p, dtype=dtype)
        rng = np.random.default_rng(32)
        quads = np.stack([rng.integers(0, 20, 150), rng.integers(0, params.n_slots, 150),
                          rng.integers(0, 20, 150), rng.integers(0, 5, 150)], axis=1)
        batch = score_quads(params, *quads.T)
        assert np.array_equal(batch, [score_one(params, *q) for q in quads])
        oracle = [score_oracle(params, *map(int, q)) for q in quads]
        assert np.abs(batch - oracle).max() < 1e-10

    def test_peak_memory_is_a_few_blocks(self):
        # one whole-batch float64 temporary would be (4096, 64) x 8 bytes, 2.1 MB
        params = init_params(4096, 2, 3, 64, dual=False, seed=33)
        rows = np.arange(4096)
        slot, o, tau = rows % 2, rows[::-1].copy(), rows % 3
        tracemalloc.start()
        try:
            score_quads(params, rows, slot, o, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 64 * 8

    @given(st.integers(0, 44).flatmap(lambda e: st.integers(2**e, 2**(e + 1))),
           st.sampled_from([1, 2]), st.floats(0, 1e30), st.floats(0, 1.0))
    def test_band_holds_its_own_score(self, k, p, score, offset):
        # k, log-uniform up to 2^45, only sets the depth of the screen's row
        # sum, so no arrays are built
        lo, hi = screen_band(k, p, score, offset)
        assert lo <= score <= hi

    def test_band_is_everything_beyond_its_validity(self):
        everything = (np.float32(-np.inf), np.float32(np.inf))
        for p in (1, 2):
            # the band is valid while the screen's float64 sums of 2k terms and
            # of 2k/w chunk sums stay within u: 4k + 3 * 2k/w + 4 <= 2^28, with
            # chunks of w = 32 columns at k=2^22
            lo, hi = screen_band(2**22, p, 100.0, 0.0)
            assert lo < 100.0 < hi < np.inf
            assert screen_band(2**40, p, 100.0, 0.0) == everything
            # at a prime k, chunks of two columns make 2k/w = k, and the limit
            # 7k + 4 <= 2^28 falls at k = 38,347,921
            lo, hi = screen_band(38_347_913, p, 100.0, 0.0)
            assert lo < 100.0 < hi < np.inf
            assert screen_band(38_347_931, p, 100.0, 0.0) == everything
            # and while scores stay below 2^60
            assert screen_band(500, p, 2.0**60, 0.0) == everything

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("n_queries", [1, 2, 3, 5])
    def test_worker_count_does_not_change_the_screen(self, n, n_queries, monkeypatch):
        # 1 to 4 row blocks, the last one short at 63, 65 and 200 entities,
        # split over up to 8 workers; an odd query count leaves the last
        # query without a partner in its subtraction
        made = []
        executor = model.ThreadPoolExecutor
        monkeypatch.setattr(model, "ThreadPoolExecutor",
                            lambda **kw: made.append(kw["max_workers"]) or executor(**kw))
        cpus = (2, 3, 7, 8, model.usable_cpus())
        n_blocks = -(-n // model.BLOCK_ROWS)
        rng = np.random.default_rng(n_queries)
        anchors, slots = rng.integers(n, size=n_queries), rng.integers(3, size=n_queries)
        for p in (1, 2):
            params = init_params(n, 3, 2, 60, dual=False, seed=n + p, norm_p=p)
            for first in ("object", "subject"):
                sides = [(first, "object" if first == "subject" else "subject")[q % 2]
                         for q in range(n_queries)]
                before = threading.active_count()
                made.clear()
                monkeypatch.setattr(model, "usable_cpus", lambda: 1)
                scores, offsets = score_step(params, 1, anchors, slots, sides)
                assert made == [1]
                for count in cpus:
                    monkeypatch.setattr(model, "usable_cpus", lambda: count)
                    got_scores, got_offsets = score_step(params, 1, anchors, slots, sides)
                    assert np.array_equal(got_scores, scores), (p, first, count)
                    assert np.array_equal(got_offsets, offsets), (p, first, count)
                    assert threading.active_count() == before
                workers = [min(count, n_blocks) for count in cpus]
                assert made == [1] + workers

    def test_many_workers_under_fast_switching(self, monkeypatch):
        # 8 workers, more than the cores, share the output array and hand the
        # interpreter over every microsecond; a lost or misplaced column write
        # would change the screen
        params = init_params(20 * model.BLOCK_ROWS - 5, 2, 2, 8, dual=False, seed=7)
        args = (params, 1, [3, 700, 1200], [0, 1, 1], ["object", "subject", "object"])
        monkeypatch.setattr(model, "usable_cpus", lambda: 1)
        scores, _ = score_step(*args)
        monkeypatch.setattr(model, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert np.array_equal(score_step(*args)[0], scores)
        finally:
            sys.setswitchinterval(interval)

    def test_usable_cpus_reads_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert model.usable_cpus() == 3
        monkeypatch.delattr(model.os, "sched_getaffinity")
        monkeypatch.setattr(model.os, "cpu_count", lambda: 6)
        assert model.usable_cpus() == 6
        monkeypatch.setattr(model.os, "cpu_count", lambda: None)
        assert model.usable_cpus() == 1

    def test_table_scoring_rejects_out_of_range_ids(self, tiny_params):
        # numpy would wrap a negative id round to the last row
        with pytest.raises(IndexError):
            score_step(tiny_params, 0, [-1], [0], ["object"])
        with pytest.raises(IndexError):
            score_step(tiny_params, 0, [0], [-1], ["subject"])
        for tau in (-1, tiny_params.n_tau):
            with pytest.raises(IndexError):
                score_step(tiny_params, tau, [0], [0], ["object"])

    def test_unknown_side_rejected(self, tiny_params):
        with pytest.raises(ValueError, match="side"):
            score_step(tiny_params, 0, [0], [0], ["both"])

    def test_score_quads_vectorizes(self, tiny_params):
        s = np.array([0, 1, 2])
        slot = np.array([0, 1, 0])
        o = np.array([3, 2, 2])
        tau = np.array([0, 1, 2])
        batch = score_quads(tiny_params, s, slot, o, tau)
        for i in range(3):
            assert batch[i] == pytest.approx(
                score_oracle(tiny_params, int(s[i]), int(slot[i]), int(o[i]), int(tau[i])),
                abs=1e-12)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params(5, 3, 4, 6, dual=True, seed=99)
        b = init_params(5, 3, 4, 6, dual=True, seed=99)
        for name in a.arrays():
            assert np.array_equal(a.arrays()[name], b.arrays()[name])

    def test_minimal_shapes(self):
        p = init_params(1, 1, 1, 1, dual=False, seed=0)
        assert p.ent_re.shape == (1, 1) and p.rel_re.shape == (1, 1)
        assert p.phase.shape == (1, 1)

    def test_dual_doubles_relation_rows(self, tmp_path):
        for dual in (True, False):
            p = init_params(2, 3, 1, 2, dual=dual, seed=0)
            assert p.rel_re.shape == p.rel_im.shape == (6 if dual else 3, 2)
            # a checkpoint stores begin re, begin im, end re, end im after the
            # 32-byte header and the two 2x2 entity tables; single-slot models
            # store their one block as both begin and end
            save_checkpoint(p, tmp_path / "m.tero")
            stored = np.frombuffer((tmp_path / "m.tero").read_bytes(), "<f4", 32, 32)
            wanted = (p.rel_re[:3], p.rel_im[:3], p.rel_re[-3:], p.rel_im[-3:])
            for block, want in zip(stored[8:].reshape(4, 3, 2), wanted):
                assert np.array_equal(block, want)

    def test_phase_sample_mean_near_pi(self):
        p = init_params(100, 1, 1000, 100, dual=False, seed=1)
        assert abs(p.phase.mean() - np.pi) < 0.05
        assert p.phase.min() >= 0.0 and p.phase.max() < 2 * np.pi

    def test_component_bound(self):
        k = 8
        p = init_params(50, 5, 5, k, dual=False, seed=2)
        bound = 6 / np.sqrt(2 * k)
        for arr in (p.ent_re, p.ent_im, p.rel_re, p.rel_im):
            # float32 storage may round a draw up by half an ulp
            assert np.abs(arr).max() <= bound * (1 + 1e-6)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, 1, 1, 1, dual=False, seed=0)


class TestParamCount:
    def test_minimal_single(self):
        assert param_count(init_params(1, 1, 1, 1, dual=False, seed=0)) == 5

    def test_minimal_dual(self):
        assert param_count(init_params(1, 1, 1, 1, dual=True, seed=0)) == 7

    def test_event_benchmark_dimensions(self):
        p = init_params(6869, 230, 365, 1, dual=False, seed=0)
        # formula scales linearly in k, so check at k=1 and multiply
        assert param_count(p) * 500 == 7_281_500 * 1  # k=500 total
        full = 2 * 6869 * 500 + 2 * 230 * 500 + 365 * 500
        assert full == 7_281_500


class TestCheckpoint:
    def test_round_trip_bytes_and_values(self, tmp_path, tiny_params):
        f1, f2 = tmp_path / "a.tero", tmp_path / "b.tero"
        save_checkpoint(tiny_params, f1, vocab_ref="side/car")
        loaded, ref = load_checkpoint(f1)
        save_checkpoint(loaded, f2, vocab_ref=ref)
        assert f1.read_bytes() == f2.read_bytes()
        assert ref == "side/car"
        for name in tiny_params.arrays():
            assert np.array_equal(loaded.arrays()[name], tiny_params.arrays()[name])
        assert (loaded.dual, loaded.norm_p) == (tiny_params.dual, tiny_params.norm_p)

    def test_dual_round_trip(self, tmp_path):
        params = init_params(3, 2, 4, 5, dual=True, seed=8, norm_p=2)
        f = tmp_path / "dual.tero"
        save_checkpoint(params, f)
        loaded, _ = load_checkpoint(f)
        assert loaded.dual and loaded.norm_p == 2
        assert np.array_equal(loaded.rel_re, params.rel_re)
        assert np.array_equal(loaded.phase, params.phase)

    def test_scores_identical_after_reload(self, tmp_path, tiny_params):
        f = tmp_path / "m.tero"
        save_checkpoint(tiny_params, f)
        loaded, _ = load_checkpoint(f)
        for s in range(4):
            assert score_one(loaded, s, 1, (s + 1) % 4, s % 3) == \
                score_one(tiny_params, s, 1, (s + 1) % 4, s % 3)

    def test_rejects_header_that_does_not_match_the_data(self, tmp_path, tiny_params):
        f = tmp_path / "m.tero"
        save_checkpoint(tiny_params, f, vocab_ref="side")
        blob = f.read_bytes()
        for bad, match in ((blob[:-1], "is 267 bytes"), (blob[:60], "truncated"),
                           (blob[:28] + b"\x07" + blob[29:], "bad checkpoint header")):
            f.write_bytes(bad)
            with pytest.raises(ValueError, match=match):
                load_checkpoint(f)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, tiny_params):
        f = tmp_path / "m.tero"
        save_checkpoint(tiny_params, f, vocab_ref="side")
        good = f.read_bytes()
        broken = tiny_params.copy()
        # the phase table is written last, after the entity and relation tables
        broken.phase = np.full(tiny_params.phase.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(broken, f, vocab_ref="other")
        assert f.read_bytes() == good
        loaded, ref = load_checkpoint(f)
        assert ref == "side" and np.array_equal(loaded.phase, tiny_params.phase)
        assert [p.name for p in tmp_path.iterdir()] == ["m.tero"]

    def test_rejects_foreign_file(self, tmp_path):
        f = tmp_path / "bad.tero"
        f.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a TeRo checkpoint"):
            load_checkpoint(f)
