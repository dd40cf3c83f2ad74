import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (batch_loss, dense_grads, dense_step_oracle, fd_grads, loss_oracle,
                     max_relative_error)
from tero import model, training
from tero.data import expand_for_training
from tero.model import init_params, score_quads
from tero.synthetic import reflexive_relation_suite, temporary_relation_suite
from tero.training import (ADAGRAD_EPS, NumericalError, TrainConfig, _corrupt_batch,
                           apply_adagrad, grad_step, loss, loss_and_grads, quads_to_array,
                           train)


def make_batch(params, n_pos, neg_ratio, seed=0):
    rng = np.random.default_rng(seed)
    n_e, n_s, n_t = params.n_entities, params.n_slots, params.n_tau
    pos = np.stack([rng.integers(0, n_e, n_pos), rng.integers(0, n_s, n_pos),
                    rng.integers(0, n_e, n_pos), rng.integers(0, n_t, n_pos)], axis=1)
    pos[0, 2] = pos[0, 0]  # keep one self-loop to exercise shared-entity grads
    neg = np.repeat(pos, neg_ratio, axis=0)
    neg[:, 0] = rng.integers(0, n_e, len(neg))
    return pos, neg


class TestSampleNegatives:
    def corrupt(self, quad, neg_ratio, n_entities, seed):
        return _corrupt_batch(np.array([quad]), neg_ratio, n_entities,
                              np.random.default_rng(seed))

    def test_changes_exactly_one_slot(self):
        quad = (3, 1, 7, 2)
        neg = self.corrupt(quad, 50, 10, 0)
        assert neg.shape == (50, 4)
        changed_s = neg[:, 0] != quad[0]
        changed_o = neg[:, 2] != quad[2]
        assert (changed_s != changed_o).all()
        assert (neg[:, 1] == quad[1]).all() and (neg[:, 3] == quad[3]).all()

    def test_two_entities_forces_the_other(self):
        neg = self.corrupt((0, 0, 1, 0), 20, 2, 1)
        assert all((s, o) in ((1, 1), (0, 0)) for s, o in neg[:, [0, 2]])

    def test_side_choice_is_fair(self):
        quad = (5, 0, 9, 0)
        neg = self.corrupt(quad, 100_000, 50, 2)
        frac = (neg[:, 0] != quad[0]).mean()
        assert abs(frac - 0.5) < 0.01

    def test_replacement_never_original(self):
        neg = self.corrupt((2, 0, 2, 1), 2000, 4, 3)
        assert ((neg[:, 0] != 2) | (neg[:, 2] != 2)).all()

    def test_too_few_entities(self):
        with pytest.raises(ValueError, match="at least 2 entities"):
            self.corrupt((0, 0, 0, 0), 1, 1, 0)


class TestLoss:
    def test_balanced_at_margin(self):
        assert loss(4.0, [4.0], margin=4.0, neg_ratio=1) == pytest.approx(
            2 * math.log(2), abs=1e-12)

    def test_saturated_negatives_vanish(self):
        value = loss(0.0, [1e9, 1e9], margin=10.0, neg_ratio=2)
        assert value == pytest.approx(math.log1p(math.exp(-10.0)), abs=1e-12)

    def test_mixed_example(self):
        expected = loss_oracle(3.0, [5.0, 7.0], 4.0)
        assert loss(3.0, [5.0, 7.0], margin=4.0, neg_ratio=2) == pytest.approx(
            expected, abs=1e-12)
        assert expected == pytest.approx(0.4941862, abs=1e-6)

    def test_wrong_negative_count(self):
        with pytest.raises(ValueError):
            loss(1.0, [1.0, 2.0], margin=1.0, neg_ratio=3)

    # ranges keep softplus terms above float64 resolution so the strict
    # mathematical monotonicity stays visible numerically
    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(0.1, 10),
           st.floats(0.5, 10))
    def test_positive_and_monotone_in_gap(self, pos, neg, margin, bump):
        base = loss(pos, [neg], margin=margin, neg_ratio=1)
        assert base > 0.0
        easier = loss(pos, [neg + bump], margin=margin, neg_ratio=1)
        assert easier < base
        harder = loss(pos + bump, [neg], margin=margin, neg_ratio=1)
        assert harder > base

    @given(st.integers(0, 10_000))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pos = float(rng.uniform(0, 30))
        negs = list(rng.uniform(0, 30, 4))
        margin = float(rng.uniform(0.5, 20))
        assert loss(pos, negs, margin=margin, neg_ratio=4) == pytest.approx(
            loss_oracle(pos, negs, margin), abs=1e-10)


class TestGradients:
    def test_matches_finite_differences_l2(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=11, norm_p=2, dtype=np.float64)
        pos, neg = make_batch(params, n_pos=3, neg_ratio=2, seed=4)
        _, grads = loss_and_grads(params, pos, neg, margin=2.0, neg_ratio=2)
        numeric = fd_grads(params, pos, neg, margin=2.0, neg_ratio=2)
        assert max_relative_error(dense_grads(params, grads), numeric) < 1e-4

    def test_matches_finite_differences_l1_away_from_kinks(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=12, norm_p=1, dtype=np.float64)
        pos, neg = make_batch(params, n_pos=3, neg_ratio=2, seed=5)
        _, grads = loss_and_grads(params, pos, neg, margin=2.0, neg_ratio=2)
        grads = dense_grads(params, grads)
        numeric = fd_grads(params, pos, neg, margin=2.0, neg_ratio=2)
        # |.| is non-differentiable at 0; exclude coordinates near a kink
        from tero.model import score_quads  # noqa: F401  (documentation import)
        for name in grads:
            a, n = grads[name].ravel(), numeric[name].ravel()
            for x, y in zip(a, n):
                if abs(y) < 1e-3:  # kink-adjacent or untouched coordinate
                    continue
                assert abs(x - y) / max(1e-8, abs(y)) < 1e-4

    def test_matches_finite_differences_dual_model(self):
        params = init_params(5, 2, 4, 2, dual=True, seed=13, norm_p=2, dtype=np.float64)
        pos, neg = make_batch(params, n_pos=4, neg_ratio=3, seed=6)
        _, grads = loss_and_grads(params, pos, neg, margin=3.0, neg_ratio=3)
        numeric = fd_grads(params, pos, neg, margin=3.0, neg_ratio=3)
        assert max_relative_error(dense_grads(params, grads), numeric) < 1e-4

    def test_loss_value_agrees_with_scalar_form(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=14, dtype=np.float64)
        pos, neg = make_batch(params, n_pos=2, neg_ratio=3, seed=7)
        from tero.model import score_quads
        total, _ = loss_and_grads(params, pos, neg, margin=2.0, neg_ratio=3)
        f_pos = score_quads(params, pos[:, 0], pos[:, 1], pos[:, 2], pos[:, 3])
        f_neg = score_quads(params, neg[:, 0], neg[:, 1], neg[:, 2], neg[:, 3])
        by_hand = np.mean([loss(f_pos[i], f_neg[3 * i: 3 * i + 3], 2.0, 3)
                           for i in range(2)])
        assert total == pytest.approx(by_hand, abs=1e-12)
        assert total == pytest.approx(batch_loss(params, pos, neg, 2.0, 3), abs=1e-12)


def saturating_batch(params, n_pos, neg_ratio, margin, seed):
    """A batch in which some negatives score above margin + 70.

    Entity 0 is scaled far out, so a negative that substitutes it has a
    loss weight below the flush threshold (sigmoid(-70) / neg_ratio / B).
    Returns the batch and its number of flushed quadruples.
    """
    params.ent_re[0] *= 1e3
    params.ent_im[0] *= 1e3
    pos, neg = make_batch(params, n_pos, neg_ratio, seed)
    pos[:, [0, 2]] = np.maximum(pos[:, [0, 2]], 1)
    neg[:, 2] = np.repeat(pos[:, 2], neg_ratio)
    neg[::2, 0] = 0
    f_neg = score_quads(params, neg[:, 0], neg[:, 1], neg[:, 2], neg[:, 3])
    return pos, neg, int((f_neg > margin + 70.0).sum())


class TestSparseStep:
    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True)])
    def test_matches_dense_oracle_bit_for_bit(self, norm_p, dual):
        params = init_params(12, 3, 5, 6, dual=dual, seed=21, norm_p=norm_p)
        cfg = TrainConfig(k=6, batch_size=8, neg_ratio=4, margin=2.0, lr=0.3, seed=0)
        pos, neg, n_flushed = saturating_batch(params, 8, 4, cfg.margin, seed=9)
        assert 0 < n_flushed < len(neg)
        dense = params.copy()
        rng = np.random.default_rng(3)
        for _ in range(6):
            assert grad_step(params, pos, neg, cfg) == dense_step_oracle(
                dense, pos, neg, cfg.margin, cfg.neg_ratio, cfg.lr)
            pos[:, 3] = rng.integers(0, params.n_tau, len(pos))
            neg[:, 3] = np.repeat(pos[:, 3], cfg.neg_ratio)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, dense.arrays()[name]), name
            assert np.array_equal(params.acc[name], dense.acc[name]), name

    # With 40 quadruples, 24 of them live, and 10 touched entity rows,
    # 3-row blocks leave a short last block in the forward pass and in
    # Adagrad, 5-row blocks one in the backward pass; 3-column slabs split
    # k=6 into two.
    @pytest.mark.parametrize("block_rows", [3, 5])
    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True)])
    def test_block_boundaries_match_dense_oracle(self, monkeypatch, block_rows, norm_p, dual):
        monkeypatch.setattr(model, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(training, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(training, "SCATTER_COLS", 4)
        self.test_matches_dense_oracle_bit_for_bit(norm_p, dual)

    def test_all_flushed_batch_changes_nothing(self):
        params = init_params(4, 1, 2, 6, dual=False, seed=24)
        params.ent_re[0] *= 1e4
        params.ent_im[0] *= 1e4
        # positives score far below the margin, negatives (through entity 0)
        # far above it: every loss weight is below the flush threshold
        pos = np.array([[1, 0, 2, 0], [2, 0, 3, 1]])
        neg = np.array([[0, 0, 2, 0], [1, 0, 0, 0], [0, 0, 3, 1], [2, 0, 0, 1]])
        before = params.copy()
        total, grads = loss_and_grads(params, pos, neg, margin=100.0, neg_ratio=2)
        assert np.isfinite(total)
        for name, (rows, g) in grads.items():
            assert rows.shape == (0,), name
            assert g.shape == (0, params.k) and g.dtype == np.float64, name
        cfg = TrainConfig(k=6, batch_size=2, neg_ratio=2, margin=100.0, lr=0.3, seed=0)
        grad_step(params, pos, neg, cfg)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, before.arrays()[name]), name
            assert np.array_equal(params.acc[name], before.acc[name]), name

    def test_rows_touched_only_by_flushed_quads_stay_put(self):
        params = init_params(12, 3, 5, 6, dual=False, seed=22)
        pos, neg, n_flushed = saturating_batch(params, 8, 4, 2.0, seed=10)
        assert n_flushed > 0 and 0 not in pos[:, [0, 2]]
        before = params.copy()
        cfg = TrainConfig(k=6, batch_size=8, neg_ratio=4, margin=2.0, lr=0.3, seed=0)
        _, grads = loss_and_grads(params, pos, neg, cfg.margin, cfg.neg_ratio)
        assert 0 not in grads["ent_re"][0] and 0 not in grads["ent_im"][0]
        grad_step(params, pos, neg, cfg)
        for name in ("ent_re", "ent_im"):
            assert np.array_equal(params.arrays()[name][0], before.arrays()[name][0])
            assert np.array_equal(params.acc[name][0], before.acc[name][0])

    def test_rows_are_sorted_unique_and_match_gradient_shape(self):
        params = init_params(9, 2, 4, 5, dual=True, seed=23, norm_p=2)
        pos, neg = make_batch(params, n_pos=6, neg_ratio=3, seed=11)
        _, grads = loss_and_grads(params, pos, neg, margin=2.0, neg_ratio=3)
        assert set(grads) == set(params.arrays())
        for name, (rows, g) in grads.items():
            assert np.array_equal(rows, np.unique(rows)), name
            assert g.shape == (len(rows), params.k) and g.dtype == np.float64


class TestAdagrad:
    def test_zero_gradient_leaves_parameter(self):
        params = init_params(3, 1, 2, 2, dual=False, seed=15)
        before = params.copy()
        apply_adagrad(params, {"ent_re": (np.array([1]), np.array([[0.5, 0.0]]))}, lr=0.1)
        after = params.arrays()
        assert after["ent_re"][1, 0] != before.ent_re[1, 0]
        for name in after:
            mask = np.ones_like(after[name], dtype=bool)
            if name == "ent_re":
                mask[1, 0] = False
            assert np.array_equal(after[name][mask], before.arrays()[name][mask])
            assert np.array_equal(params.acc[name][mask], before.acc[name][mask])

    def test_first_step_magnitude_is_learning_rate(self):
        params = init_params(2, 1, 1, 1, dual=False, seed=16)
        x0 = params.ent_re[0, 0]
        apply_adagrad(params, {"ent_re": (np.array([0]), np.array([[0.37]]))}, lr=0.05)
        assert abs(params.ent_re[0, 0] - (x0 - 0.05)) < 1e-6

    def test_sparse_update_property(self):
        params = init_params(10, 3, 6, 4, dual=False, seed=17)
        before = {k: v.copy() for k, v in params.arrays().items()}
        pos = np.array([[0, 1, 2, 3]])
        neg = np.array([[5, 1, 2, 3], [0, 1, 6, 3]])
        cfg = TrainConfig(k=4, batch_size=1, neg_ratio=2, margin=2.0, lr=0.1, seed=0)
        grad_step(params, pos, neg, cfg)
        touched_ents = {0, 2, 5, 6}
        for e in range(10):
            same = np.array_equal(params.ent_re[e], before["ent_re"][e]) and \
                np.array_equal(params.ent_im[e], before["ent_im"][e])
            assert same == (e not in touched_ents)
        for slot in range(3):
            assert np.array_equal(params.rel_re[slot], before["rel_re"][slot]) == (slot != 1)
        for tau in range(6):
            assert np.array_equal(params.phase[tau], before["phase"][tau]) == (tau != 3)

    def test_blocks_match_whole_table_update(self, monkeypatch):
        monkeypatch.setattr(training, "BLOCK_ROWS", 3)
        params = init_params(20, 4, 7, 5, dual=False, seed=25)
        rng = np.random.default_rng(26)
        dense = params.copy()
        for _ in range(3):
            grads = {}
            for name, arr in params.arrays().items():
                # 11 entity rows: three full blocks and a short one
                rows = np.sort(rng.choice(len(arr), min(11, len(arr)), replace=False))
                grads[name] = (rows, rng.standard_normal((len(rows), params.k)))
            apply_adagrad(params, grads, lr=0.3)
            full = dense_grads(params, grads)
            for name, arr in dense.arrays().items():
                dense.acc[name] += full[name] * full[name]
                arr -= 0.3 * full[name] / (np.sqrt(dense.acc[name]) + ADAGRAD_EPS)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, dense.arrays()[name]), name
            assert np.array_equal(params.acc[name], dense.acc[name]), name

    def test_storage_stays_float32(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=18)
        pos, neg = make_batch(params, 3, 2, seed=8)
        cfg = TrainConfig(k=3, batch_size=3, neg_ratio=2, margin=2.0, lr=0.3, seed=0)
        for _ in range(5):
            grad_step(params, pos, neg, cfg)
        for arr in params.arrays().values():
            assert arr.dtype == np.float32

    def test_non_finite_params_raise(self):
        params = init_params(3, 1, 2, 2, dual=False, seed=19)
        params.ent_re[0, 0] = np.inf
        pos = np.array([[0, 0, 1, 0]])
        neg = np.array([[2, 0, 1, 0]])
        cfg = TrainConfig(k=2, batch_size=1, neg_ratio=1, margin=2.0, lr=0.1, seed=0)
        with pytest.raises(NumericalError):
            grad_step(params, pos, neg, cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("neg_ratio", 0),
                                             ("margin", 0.0), ("lr", -0.1), ("norm_p", 3)])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.k, cfg.batch_size, cfg.neg_ratio) == (500, 512, 10)
        assert cfg.max_epochs == 5000


class TestTrainLoop:
    def quick_config(self, **kw):
        base = dict(k=8, batch_size=64, neg_ratio=4, margin=5.0, lr=0.3,
                    max_epochs=30, valid_every=10, patience=3, norm_p=1, seed=2)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_returns_initialization(self):
        ds = reflexive_relation_suite()
        cfg = self.quick_config(max_epochs=0)
        best, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        assert history == []
        fresh = init_params(ds.vocab.n_entities, ds.vocab.n_relations,
                            ds.binning.n_tau, cfg.k, cfg.dual, cfg.seed, cfg.norm_p)
        for name, arr in best.arrays().items():
            assert np.array_equal(arr, fresh.arrays()[name])

    def test_empty_train_rejected(self):
        ds = reflexive_relation_suite()
        with pytest.raises(ValueError):
            train([], ds.valid, self.quick_config(), ds.binning, ds.vocab)

    def test_single_fact_convergence(self):
        ds = reflexive_relation_suite()
        fact = ds.train[0]
        cfg = self.quick_config(max_epochs=200, valid_every=1000, margin=3.0)
        quads = quads_to_array(expand_for_training([fact], ds.binning, False,
                                                   ds.vocab.n_relations))
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, ds.binning.n_tau,
                             cfg.k, False, cfg.seed, cfg.norm_p)
        rng = np.random.default_rng(0)
        neg0 = _corrupt_batch(quads, cfg.neg_ratio, ds.vocab.n_entities, rng)
        initial = batch_loss(params, quads, neg0, cfg.margin, cfg.neg_ratio)
        losses = []
        for _ in range(200):
            neg = _corrupt_batch(quads, cfg.neg_ratio, ds.vocab.n_entities, rng)
            losses.append(grad_step(params, quads, neg, cfg))
        assert losses[-1] < 0.1 * initial

    def test_determinism(self):
        ds = temporary_relation_suite()
        cfg = self.quick_config(max_epochs=12, valid_every=6)
        best1, hist1 = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        best2, hist2 = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        for name in best1.arrays():
            assert np.array_equal(best1.arrays()[name], best2.arrays()[name])
        assert [h.mrr for h in hist1] == [h.mrr for h in hist2]

    def test_history_and_log(self, tmp_path):
        ds = reflexive_relation_suite()
        log = tmp_path / "log.tsv"
        cfg = self.quick_config(max_epochs=20, valid_every=10, patience=10)
        _, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab, log_path=log)
        assert [rec.epoch for rec in history] == [10, 20]
        lines = log.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["epoch", "train_loss", "mrr", "hits1",
                                        "hits3", "hits10", "seconds"]
        assert len(lines) == 3
        cells = lines[1].split("\t")
        assert int(cells[0]) == 10 and 0.0 <= float(cells[2]) <= 1.0

    def test_early_stopping_keeps_best_snapshot(self):
        ds = reflexive_relation_suite()
        cfg = self.quick_config(max_epochs=1000, valid_every=5, patience=2, seed=4)
        best, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        assert history[-1].epoch < 1000  # patience stopped the run
        best_mrr = max(rec.mrr for rec in history)
        from tero.evaluation import FilterSet, evaluate
        fs = FilterSet.build(ds.train + ds.valid, ds.binning)
        assert evaluate(best, ds.valid, fs, ds.binning).mrr == pytest.approx(best_mrr)
