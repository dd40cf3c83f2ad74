import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import params_from, record_runs
from oracles import (batch_loss, dense_grads, dense_step_oracle, fd_grads, loss, loss_oracle,
                     max_relative_error, negative_quads, zero_acc)
from test_acceptance import PATTERN_CONFIG
from tero import model, training
from tero.data import expand_for_training
from tero.evaluation import FilterSet, evaluate
from tero.model import ModelParams, init_params, score_quads, score_step
from tero.synthetic import collapsed_binning, reflexive_relation_suite, temporary_relation_suite
from tero.training import (ADAGRAD_EPS, NumericalError, TrainConfig, _corrupt_batch,
                           apply_adagrad, grad_step, loss_and_grads, train, train_and_test)


def make_batch(params, n_pos, neg_ratio, seed=0):
    """Random positives and ``neg_ratio`` negatives each that replace the subject."""
    rng = np.random.default_rng(seed)
    n_e, n_s, n_t = params.n_entities, params.n_slots, params.n_tau
    pos = np.stack([rng.integers(0, n_e, n_pos), rng.integers(0, n_s, n_pos),
                    rng.integers(0, n_e, n_pos), rng.integers(0, n_t, n_pos)], axis=1)
    pos[0, 2] = pos[0, 0]  # keep one self-loop to exercise shared-entity grads
    repl = rng.integers(0, n_e, (n_pos, neg_ratio))
    return pos, repl, np.zeros(repl.shape, bool)


class TestSampleNegatives:
    def corrupt(self, quad, neg_ratio, n_entities, seed):
        return _corrupt_batch(np.array([quad]), neg_ratio, n_entities,
                              np.random.default_rng(seed))

    def test_changes_exactly_one_slot(self):
        quad = (3, 1, 7, 2)
        repl, obj = self.corrupt(quad, 50, 10, 0)
        assert repl.shape == obj.shape == (1, 50) and obj.dtype == bool
        assert ((0 <= repl) & (repl < 10)).all()
        neg = negative_quads(np.array([quad]), repl, obj)
        changed_s = neg[:, 0] != quad[0]
        changed_o = neg[:, 2] != quad[2]
        assert (changed_s != changed_o).all()
        assert (neg[:, 1] == quad[1]).all() and (neg[:, 3] == quad[3]).all()

    def test_two_entities_forces_the_other(self):
        repl, obj = self.corrupt((0, 0, 1, 0), 20, 2, 1)
        assert (repl == np.where(obj, 0, 1)).all()

    def test_side_choice_is_fair(self):
        _, obj = self.corrupt((5, 0, 9, 0), 100_000, 50, 2)
        assert abs(obj.mean() - 0.5) < 0.01

    def test_replacement_never_original(self):
        repl, obj = self.corrupt((2, 0, 3, 1), 2000, 4, 3)
        assert 0 < obj.sum() < obj.size
        assert (repl != np.where(obj, 3, 2)).all()

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
        pos, repl, obj = make_batch(params, n_pos=3, neg_ratio=2, seed=4)
        _, grads = loss_and_grads(params, pos, repl, obj, margin=2.0)
        numeric = fd_grads(params, pos, negative_quads(pos, repl, obj), margin=2.0, neg_ratio=2)
        assert max_relative_error(dense_grads(params, grads), numeric) < 1e-4

    def test_matches_finite_differences_l1_away_from_kinks(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=12, norm_p=1, dtype=np.float64)
        pos, repl, obj = make_batch(params, n_pos=3, neg_ratio=2, seed=5)
        _, grads = loss_and_grads(params, pos, repl, obj, margin=2.0)
        grads = dense_grads(params, grads)
        numeric = fd_grads(params, pos, negative_quads(pos, repl, obj), margin=2.0, neg_ratio=2)
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
        pos, repl, obj = make_batch(params, n_pos=4, neg_ratio=3, seed=6)
        _, grads = loss_and_grads(params, pos, repl, obj, margin=3.0)
        numeric = fd_grads(params, pos, negative_quads(pos, repl, obj), margin=3.0, neg_ratio=3)
        assert max_relative_error(dense_grads(params, grads), numeric) < 1e-4

    @pytest.mark.parametrize("norm_p", [1, 2])
    def test_matches_finite_differences_both_sides(self, norm_p):
        # make_batch corrupts subjects only; here half the negatives free the object
        params = init_params(5, 2, 3, 3, dual=False, seed=31, norm_p=norm_p, dtype=np.float64)
        pos, _, _ = make_batch(params, n_pos=3, neg_ratio=1, seed=8)
        repl, obj = _corrupt_batch(pos, 4, params.n_entities, np.random.default_rng(8))
        assert 0 < obj.sum() < obj.size
        _, grads = loss_and_grads(params, pos, repl, obj, margin=2.0)
        grads = dense_grads(params, grads)
        numeric = fd_grads(params, pos, negative_quads(pos, repl, obj), margin=2.0, neg_ratio=4)
        for name in grads:
            a, n = grads[name].ravel(), numeric[name].ravel()
            near_kink = np.abs(n) < 1e-3 if norm_p == 1 else np.zeros(len(n), bool)
            assert (np.abs(a - n) / np.maximum(1e-8, np.abs(n)) < 1e-4)[~near_kink].all(), name

    def test_loss_value_agrees_with_scalar_form(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=14, dtype=np.float64)
        pos, repl, obj = make_batch(params, n_pos=2, neg_ratio=3, seed=7)
        neg = negative_quads(pos, repl, obj)
        from tero.model import score_quads
        total, _ = loss_and_grads(params, pos, repl, obj, margin=2.0)
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
    pos, repl, obj = make_batch(params, n_pos, neg_ratio, seed)
    pos[:, [0, 2]] = np.maximum(pos[:, [0, 2]], 1)
    repl.flat[::2] = 0
    f_neg = score_quads(params, *negative_quads(pos, repl, obj).T)
    return pos, repl, obj, int((f_neg > margin + 70.0).sum())


def two_sided_batch(params, n_pos, neg_ratio, seed):
    """A batch of ``_corrupt_batch`` negatives, on both sides, of positives without entity 0.

    Entity 0 is scaled far out and every third negative substitutes it, so
    that its score saturates the loss and its weight is flushed.
    """
    params.ent_re[0] *= 1e3
    params.ent_im[0] *= 1e3
    rng = np.random.default_rng(seed)
    n_e, n_s, n_t = params.n_entities, params.n_slots, params.n_tau
    pos = np.stack([rng.integers(1, n_e, n_pos), rng.integers(0, n_s, n_pos),
                    rng.integers(1, n_e, n_pos), rng.integers(0, n_t, n_pos)], axis=1)
    repl, obj = _corrupt_batch(pos, neg_ratio, n_e, rng)
    repl.flat[::3] = 0
    return pos, repl, obj


def float64_copy(params):
    return ModelParams(*(a.astype(np.float64) for a in params.arrays().values()),
                       params.n_relations, params.dual, params.norm_p)


def gamma(m, u=2.0 ** -24):
    return m * u / (1 - m * u)


def float32_gradient_bound(params, pos, neg, margin, neg_ratio):
    """Bounds on the error of a float32 step's gradients, as dense float64 tables.

    Derivation (first order in u = 2^-24, gamma(m) = m*u/(1 - m*u)). For each
    quadruple q the exact difference d = rot(s) + r - conj(rot(o)) is
    worked out in float64 from the float32 parameters, as are its score f
    and weight w. The step builds each float32 coordinate of d from
    gathered entities, the relation and cos/sin of the phase (each within a
    few ulp) by at most 8 roundings, each of a number no larger than
    M_j = |s_re| + |s_im| + |o_re| + |o_im| + |r_j|, so it errs by at most
    eps_j = gamma(8) * M_j. Its score then errs by at most
    df = sum_j eps_j + gamma(k + 1) * f at p=1 (a sum of k terms per part,
    in any order, and one addition) and ||eps||_2 + gamma(k + 4) * f at
    p=2. A loss weight is w = sigmoid(+-(f - margin)) / (B or B*R), and the
    log of a sigmoid has slope at most 1, so the float32 weight errs by a
    relative rho = expm1(df) + gamma(8) (exp, sums and divisions).

    The gradient u of |d| (p=1) is w*sign(d), so |u_re| + |u_im| = U <=
    2|w|. Where |d_j| <= eps_j the float32 sign may differ, by up to 2, so
    dU = rho*U + 2|w|(1 + rho) * #{flippable parts of coordinate j}. At p=2
    u = w*d/f, and dU = rho*U + |w|(1 + rho)(eps_re + eps_im + (|d_re| +
    |d_im|) df/f)/f. The step then sums u over each side of a group (at
    most R + 1 terms, in order), rotates the sums or each negative's u by the
    conjugate phasor (two products and a sum, with cos/sin within a few
    ulp) and adds relation and phase parts, all in float32, then scatters
    in float64: no gradient entry meets more than R + 16 float32 roundings
    of numbers bounded by the terms' moduli. So a quadruple adds
    E = dU + gamma(R + 16)*U to the error of each entity row it touches and
    of its relation row. A phase gradient term is u_im*Re(P) - u_re*Im(P),
    P = rot(s) + conj(rot(o)), |P_j| <= |s_re| + |s_im| + |o_re| + |o_im|
    =: N_j, and the float32 rotations err by gamma(4)*N_j, so it adds
    E * N_j. The float64 reference errs by far less (u' = 2^-53).
    """
    p, B, R = params.norm_p, len(pos), neg_ratio
    P = float64_copy(params)
    s, slot, o, tau = np.concatenate([pos, neg]).T
    c, sn = np.cos(P.phase[tau]), np.sin(P.phase[tau])
    s_re, s_im, o_re, o_im = P.ent_re[s], P.ent_im[s], P.ent_re[o], P.ent_im[o]
    r_re, r_im = P.rel_re[slot], P.rel_im[slot]
    d_re = (s_re * c - s_im * sn) + r_re - (o_re * c - o_im * sn)
    d_im = (s_re * sn + s_im * c) + r_im + (o_re * sn + o_im * c)
    N = np.abs(s_re) + np.abs(s_im) + np.abs(o_re) + np.abs(o_im)
    eps_re, eps_im = gamma(8) * (N + np.abs(r_re)), gamma(8) * (N + np.abs(r_im))
    if p == 1:
        f = np.abs(d_re).sum(1) + np.abs(d_im).sum(1)
        df = eps_re.sum(1) + eps_im.sum(1) + gamma(params.k + 1) * f
    else:
        f = np.sqrt((d_re ** 2).sum(1) + (d_im ** 2).sum(1))
        df = np.sqrt((eps_re ** 2).sum(1) + (eps_im ** 2).sum(1)) + gamma(params.k + 4) * f
    x = np.concatenate([f[:B] - margin, margin - f[B:]])
    w = np.exp(-np.logaddexp(0.0, -x)) / np.where(np.arange(len(x)) < B, B, R * B)
    w[w < training.FLUSH_BELOW] = 0.0
    rho = (np.expm1(df) + gamma(8))[:, None]
    w = w[:, None]
    if p == 1:
        U = w * ((d_re != 0).astype(float) + (d_im != 0))
        flips = (np.abs(d_re) <= eps_re).astype(float) + (np.abs(d_im) <= eps_im)
        dU = rho * U + 2 * w * (1 + rho) * flips
    else:
        fs = np.where(f > 0, f, np.inf)[:, None]
        U = w * (np.abs(d_re) + np.abs(d_im)) / fs
        dU = rho * U + w * (1 + rho) * (eps_re + eps_im
                                        + (np.abs(d_re) + np.abs(d_im)) * df[:, None] / fs) / fs
    E = dU + gamma(R + 16) * U
    bound = {name: np.zeros(arr.shape) for name, arr in P.arrays().items()}
    for name in ("ent_re", "ent_im"):
        np.add.at(bound[name], s, E)
        np.add.at(bound[name], o, E)
    for name in ("rel_re", "rel_im"):
        np.add.at(bound[name], slot, E)
    np.add.at(bound["phase"], tau, E * N)
    return bound


def oracle_gradients(params, pos, neg, margin, neg_ratio):
    """``dense_step_oracle``'s float64 gradients at ``params``, read off one step from
    zero accumulators: there G = g^2 and the parameter moves against the sign of g."""
    P = float64_copy(params)
    before, acc = P.copy(), zero_acc(P)
    dense_step_oracle(P, acc, pos, neg, margin, neg_ratio, lr=1.0)
    return {name: np.copysign(np.sqrt(acc[name]), before.arrays()[name] - arr)
            for name, arr in P.arrays().items()}


class TestSparseStep:
    def steps_against_oracle(self, norm_p, dual):
        """Six steps of a float64 model against ``dense_step_oracle``.

        Both compute the same float64 terms, at most 2*B*(R + 1) = 80 per
        gradient coordinate here, by other formulas and add them in other
        orders, so each coordinate differs by a few gamma'(80) ~ 1e-14 of
        its terms' moduli (u' = 2^-53). Adagrad's update lr*g/(sqrt(G) + eps)
        is scale-free while G >> eps^2, so parameters and accumulators move
        apart by the same relative amounts, which the next steps' scores
        carry forward; six steps stay far below the 1e-9 allowed here. (A
        coordinate whose terms cancel to within their rounding would be
        divided by a tiny sqrt(G): this batch has none.) A wrong sign,
        side or dropped term moves a parameter by O(lr) in the first step.
        """
        params = init_params(12, 3, 5, 6, dual=dual, seed=21, norm_p=norm_p, dtype=np.float64)
        cfg = TrainConfig(k=6, batch_size=8, neg_ratio=4, margin=2.0, lr=0.3, seed=0)
        pos, repl, obj = two_sided_batch(params, 8, 4, seed=9)
        f = score_quads(params, *negative_quads(pos, repl, obj).T)
        assert 0 < (f > cfg.margin + 70.0).sum() < obj.size
        assert 0 < obj.sum() < obj.size
        dense = params.copy()
        acc, dense_acc = {}, zero_acc(params)  # the step makes its tables on first use
        rng = np.random.default_rng(3)
        for _ in range(6):
            loss = grad_step(params, acc, pos, repl, obj, cfg)
            assert loss == pytest.approx(dense_step_oracle(
                dense, dense_acc, pos, negative_quads(pos, repl, obj), cfg.margin,
                cfg.neg_ratio, cfg.lr), rel=1e-9)
            pos[:, 3] = rng.integers(0, params.n_tau, len(pos))
        for name, arr in params.arrays().items():
            np.testing.assert_allclose(arr, dense.arrays()[name], rtol=0, atol=1e-9, err_msg=name)
            np.testing.assert_allclose(acc[name], dense_acc[name], rtol=1e-9, atol=0,
                                       err_msg=name)

    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True)])
    def test_matches_dense_oracle_within_rounding(self, norm_p, dual):
        self.steps_against_oracle(norm_p, dual)

    # With 8 groups, blocks of 3 and 5 groups leave a short last block; with
    # 11 touched entity rows (first step), 3- and 5-row Adagrad blocks do too.
    @pytest.mark.parametrize("block_rows", [3, 5])
    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True)])
    def test_block_boundaries_match_dense_oracle(self, monkeypatch, block_rows, norm_p, dual):
        monkeypatch.setattr(training, "GROUPS_PER_BLOCK", block_rows)
        monkeypatch.setattr(training, "BLOCK_ROWS", block_rows)
        self.steps_against_oracle(norm_p, dual)

    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True), (2, True)])
    def test_float32_gradients_within_derived_bound(self, norm_p, dual):
        params = init_params(40, 3, 5, 24, dual=dual, seed=27, norm_p=norm_p)
        pos, repl, obj = two_sided_batch(params, 16, 6, seed=12)
        neg = negative_quads(pos, repl, obj)
        margin = 8.0
        _, grads = loss_and_grads(params, pos, repl, obj, margin)
        step = dense_grads(params, grads)
        exact = oracle_gradients(params, pos, neg, margin, 6)
        bound = float32_gradient_bound(params, pos, neg, margin, 6)
        for name in step:
            err = np.abs(step[name] - exact[name])
            assert (err <= bound[name] * (1 + 1e-6)).all(), name
            # the bound is tight enough to see a wrong or missing term
            touched = np.abs(exact[name]) > 0
            assert np.median(bound[name][touched] / np.abs(exact[name][touched])) < 1e-3, name

    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True)])
    def test_float32_steps_equal_across_block_sizes(self, monkeypatch, norm_p, dual):
        # 23 groups leave a short last block at 2, 3 and the default 16 groups per block
        runs = []
        for groups in (1, 2, 3, training.GROUPS_PER_BLOCK):
            monkeypatch.setattr(training, "GROUPS_PER_BLOCK", groups)
            params = init_params(30, 4, 6, 10, dual=dual, seed=28, norm_p=norm_p)
            pos, repl, obj = two_sided_batch(params, 23, 5, seed=13)
            cfg = TrainConfig(k=10, batch_size=23, neg_ratio=5, margin=6.0, lr=0.3, seed=0)
            acc = {}
            losses = [grad_step(params, acc, pos, repl, obj, cfg) for _ in range(3)]
            runs.append((losses, params, acc))
        losses, params, acc = runs[0]
        for other_losses, other, other_acc in runs[1:]:
            assert other_losses == losses
            for name, arr in params.arrays().items():
                assert np.array_equal(other.arrays()[name], arr), name
                assert np.array_equal(other_acc[name], acc[name]), name

    def test_anchor_with_a_flushed_side_gets_no_row(self):
        params = init_params(6, 1, 2, 6, dual=False, seed=29)
        params.ent_re[0] *= 1e4
        params.ent_im[0] *= 1e4
        # margin 100 flushes every positive; entity 0 flushes the negatives
        # on entity 1's side (free object), and entity 2's side stays live
        pos = np.array([[1, 0, 2, 0], [3, 0, 4, 1]])
        repl = np.array([[0, 5, 0], [5, 4, 2]])
        obj = np.array([[True, False, True], [True, False, True]])
        before = params.copy()
        total, grads = loss_and_grads(params, pos, repl, obj, margin=100.0)
        assert np.isfinite(total)
        rows = set(grads["ent_re"][0])
        assert 1 not in rows and 0 not in rows and {2, 5} <= rows
        cfg = TrainConfig(k=6, batch_size=2, neg_ratio=3, margin=100.0, lr=0.3, seed=0)
        acc = zero_acc(params)
        grad_step(params, acc, pos, repl, obj, cfg)
        for name in ("ent_re", "ent_im"):
            assert np.array_equal(params.arrays()[name][1], before.arrays()[name][1])
            assert not acc[name][1].any()
            assert acc[name][2].any()

    def test_flushed_quads_add_nothing_to_group_sums(self):
        # k=1 and a zero phase, so each score is |s + r - conj(o)|_1: the
        # positive scores 0 and the two object-side negatives 166 and 170. At
        # margin 100 the positive is flushed, and the negatives' weights are
        # sigmoid(-66)/2 ~ 1e-29 (live) and sigmoid(-70)/2 ~ 2e-31 (flushed,
        # yet not negligible beside the first)
        params = params_from([[0], [0], [-166], [-170]], [[0]], np.zeros((1, 1)))
        pos = np.array([[0, 0, 1, 0]])
        repl, obj = np.array([[2, 3]]), np.ones((1, 2), bool)
        _, grads = loss_and_grads(params, pos, repl, obj, margin=100.0)
        rows, g = grads["ent_re"]
        assert list(rows) == [0, 2]
        exact = oracle_gradients(params, pos, negative_quads(pos, repl, obj), 100.0, 2)["ent_re"]
        assert exact[0, 0] != 0.0
        np.testing.assert_allclose(g[:, 0], exact[[0, 2], 0], rtol=1e-12)

    def test_l2_gradient_at_the_origin_is_zero(self):
        # k=1 and a zero phase: the positive scores |1 - 1| = 0 with the live
        # weight sigmoid(-1), so its unit vector takes the f == 0 branch; the
        # object-side negative scores |1 - 3| = 2
        params = params_from([[1.0], [1.0], [3.0]], [[0.0]], np.zeros((1, 1)), norm_p=2)
        pos = np.array([[0, 0, 1, 0]])
        repl, obj = np.array([[2]]), np.ones((1, 1), bool)
        assert score_quads(params, *pos.T)[0] == 0.0
        _, grads = loss_and_grads(params, pos, repl, obj, margin=1.0)
        step = dense_grads(params, grads)
        exact = oracle_gradients(params, pos, negative_quads(pos, repl, obj), 1.0, 1)
        for name in step:
            assert np.isfinite(step[name]).all(), name
            np.testing.assert_allclose(step[name], exact[name], rtol=1e-12, err_msg=name)

    def test_all_flushed_batch_changes_nothing(self):
        params = init_params(4, 1, 2, 6, dual=False, seed=24)
        params.ent_re[0] *= 1e4
        params.ent_im[0] *= 1e4
        # positives score far below the margin, negatives (through entity 0)
        # far above it: every loss weight is below the flush threshold
        pos = np.array([[1, 0, 2, 0], [2, 0, 3, 1]])
        repl = np.zeros((2, 2), int)
        obj = np.array([[False, True], [False, True]])
        before = params.copy()
        total, grads = loss_and_grads(params, pos, repl, obj, margin=100.0)
        assert np.isfinite(total)
        for name, (rows, g) in grads.items():
            assert rows.shape == (0,), name
            assert g.shape == (0, params.k) and g.dtype == np.float64, name
        cfg = TrainConfig(k=6, batch_size=2, neg_ratio=2, margin=100.0, lr=0.3, seed=0)
        acc = zero_acc(params)
        grad_step(params, acc, pos, repl, obj, cfg)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, before.arrays()[name]), name
            assert not acc[name].any(), name

    def test_rows_touched_only_by_flushed_quads_stay_put(self):
        params = init_params(12, 3, 5, 6, dual=False, seed=22)
        pos, repl, obj, n_flushed = saturating_batch(params, 8, 4, 2.0, seed=10)
        assert n_flushed > 0 and 0 not in pos[:, [0, 2]]
        before = params.copy()
        cfg = TrainConfig(k=6, batch_size=8, neg_ratio=4, margin=2.0, lr=0.3, seed=0)
        _, grads = loss_and_grads(params, pos, repl, obj, cfg.margin)
        assert 0 not in grads["ent_re"][0] and 0 not in grads["ent_im"][0]
        acc = zero_acc(params)
        grad_step(params, acc, pos, repl, obj, cfg)
        for name in ("ent_re", "ent_im"):
            assert np.array_equal(params.arrays()[name][0], before.arrays()[name][0])
            assert not acc[name][0].any()

    def test_rows_are_sorted_unique_and_match_gradient_shape(self):
        params = init_params(9, 2, 4, 5, dual=True, seed=23, norm_p=2)
        pos, repl, obj = make_batch(params, n_pos=6, neg_ratio=3, seed=11)
        _, grads = loss_and_grads(params, pos, repl, obj, margin=2.0)
        assert set(grads) == set(params.arrays())
        for name, (rows, g) in grads.items():
            assert np.array_equal(rows, np.unique(rows)), name
            assert g.shape == (len(rows), params.k) and g.dtype == np.float64


class TestAdagrad:
    def test_zero_gradient_leaves_parameter(self):
        params = init_params(3, 1, 2, 2, dual=False, seed=15)
        before = params.copy()
        acc = zero_acc(params)
        apply_adagrad(params, acc, {"ent_re": (np.array([1]), np.array([[0.5, 0.0]]))}, lr=0.1)
        after = params.arrays()
        assert after["ent_re"][1, 0] != before.ent_re[1, 0] and acc["ent_re"][1, 0] == 0.25
        for name in after:
            mask = np.ones_like(after[name], dtype=bool)
            if name == "ent_re":
                mask[1, 0] = False
            assert np.array_equal(after[name][mask], before.arrays()[name][mask])
            assert not acc[name][mask].any()

    def test_first_step_magnitude_is_learning_rate(self):
        params = init_params(2, 1, 1, 1, dual=False, seed=16)
        x0 = params.ent_re[0, 0]
        apply_adagrad(params, zero_acc(params), {"ent_re": (np.array([0]), np.array([[0.37]]))},
                      lr=0.05)
        assert abs(params.ent_re[0, 0] - (x0 - 0.05)) < 1e-6

    def test_sparse_update_property(self):
        params = init_params(10, 3, 6, 4, dual=False, seed=17)
        before = {k: v.copy() for k, v in params.arrays().items()}
        pos = np.array([[0, 1, 2, 3]])
        repl, obj = np.array([[5, 6]]), np.array([[False, True]])
        cfg = TrainConfig(k=4, batch_size=1, neg_ratio=2, margin=2.0, lr=0.1, seed=0)
        grad_step(params, zero_acc(params), pos, repl, obj, cfg)
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
        acc, dense_acc = zero_acc(params), zero_acc(params)
        for _ in range(3):
            grads = {}
            for name, arr in params.arrays().items():
                # 11 entity rows: three full blocks and a short one
                rows = np.sort(rng.choice(len(arr), min(11, len(arr)), replace=False))
                grads[name] = (rows, rng.standard_normal((len(rows), params.k)))
            apply_adagrad(params, acc, grads, lr=0.3)
            full = dense_grads(params, grads)
            for name, arr in dense.arrays().items():
                dense_acc[name] += full[name] * full[name]
                arr -= 0.3 * full[name] / (np.sqrt(dense_acc[name]) + ADAGRAD_EPS)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, dense.arrays()[name]), name
            assert np.array_equal(acc[name], dense_acc[name]), name

    def test_storage_stays_float32(self):
        params = init_params(4, 2, 3, 3, dual=False, seed=18)
        pos, repl, obj = make_batch(params, 3, 2, seed=8)
        cfg = TrainConfig(k=3, batch_size=3, neg_ratio=2, margin=2.0, lr=0.3, seed=0)
        acc = zero_acc(params)
        for _ in range(5):
            grad_step(params, acc, pos, repl, obj, cfg)
        for arr in params.arrays().values():
            assert arr.dtype == np.float32

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the error alone reports it
    def test_non_finite_params_raise(self):
        params = init_params(3, 1, 2, 2, dual=False, seed=19)
        params.ent_re[0, 0] = np.inf
        pos = np.array([[0, 0, 1, 0]])
        repl, obj = np.array([[2]]), np.array([[False]])
        cfg = TrainConfig(k=2, batch_size=1, neg_ratio=1, margin=2.0, lr=0.1, seed=0)
        with pytest.raises(NumericalError):
            grad_step(params, zero_acc(params), pos, repl, obj, cfg)


class TestWorkers:
    """The step's blocks and Adagrad run on ``model.on_workers``."""

    def run(self, n_pos, norm_p, dual):
        """Bytes of one ``loss_and_grads``, one ``apply_adagrad`` and 3 chained ``grad_step``s."""
        params = init_params(70, 4, 6, 12, dual=dual, seed=n_pos, norm_p=norm_p)
        pos, repl, obj = two_sided_batch(params, n_pos, 5, seed=n_pos + 1)
        cfg = TrainConfig(k=12, batch_size=n_pos, neg_ratio=5, margin=8.0, lr=0.3, seed=0)
        loss, grads = loss_and_grads(params, pos, repl, obj, cfg.margin)
        stepped, acc = params.copy(), {}
        apply_adagrad(stepped, acc, grads, cfg.lr)
        chained, chained_acc = params.copy(), {}
        losses = [grad_step(chained, chained_acc, pos, repl, obj, cfg) for _ in range(3)]
        return ([loss, *losses],
                [a.tobytes() for rows_g in grads.values() for a in rows_g]
                + [a.tobytes() for p in (stepped, chained) for a in p.arrays().values()]
                + [a.tobytes() for tables in (acc, chained_acc) for a in tables.values()])

    # 1 and 15 positives are one short block and 17 a full and a short one,
    # so the workers outnumber the blocks; 512 positives are 32 blocks
    @pytest.mark.parametrize("n_pos", [1, 15, 17, 512])
    @pytest.mark.parametrize("norm_p,dual", [(1, False), (2, False), (1, True)])
    def test_worker_count_does_not_change_the_step(self, monkeypatch, n_pos, norm_p, dual):
        calls = record_runs(monkeypatch, training)
        monkeypatch.setattr(model, "WORKER_BYTES", 0)  # these units are small
        monkeypatch.setattr(model, "usable_cpus", lambda: 1)
        want = self.run(n_pos, norm_p, dual)
        assert [len(runs) for runs in calls] == 8 * [1]
        n_blocks = -(-n_pos // training.GROUPS_PER_BLOCK)
        for count in (2, 3, 8):
            calls.clear()
            monkeypatch.setattr(model, "usable_cpus", lambda: count)
            assert self.run(n_pos, norm_p, dual) == want, count
            # loss_and_grads' blocks, then Adagrad's blocks of every table, 4 times
            assert [len(runs) for runs in calls[::2]] == 4 * [min(count, n_blocks)]
            assert all(len(runs) > 1 for runs in calls[1::2]) and len(calls) == 8

    def test_small_units_take_one_worker(self, monkeypatch):
        # at the real WORKER_BYTES this step's units are too small for a
        # thread, so every run is the calling thread's
        monkeypatch.setattr(model, "usable_cpus", lambda: 8)
        starts = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self, start=threading.Thread.start: starts.append(self)
                            or start(self))
        assert self.run(512, 1, False)
        assert starts == []

    def test_the_caller_takes_the_first_run(self, monkeypatch):
        runs = []

        def work(lo, hi):
            runs.append((lo, hi, threading.get_ident()))

        monkeypatch.setattr(model, "usable_cpus", lambda: 3)
        for unit_bytes, cuts in ((None, [0, 3, 6, 10]), (model.WORKER_BYTES, [0, 3, 6, 10]),
                                 (model.WORKER_BYTES - 1, [0, 10])):
            runs.clear()
            model.on_workers(work, 10, unit_bytes)
            assert sorted(run[:2] for run in runs) == list(zip(cuts[:-1], cuts[1:]))
            # the calling thread takes the first run, pool threads the others
            assert [run[0] for run in runs if run[2] == threading.get_ident()] == [0]

    def test_a_warm_pool_starts_no_thread(self, monkeypatch):
        # the barrier holds each run until all three have begun, so the first
        # call has the pool start both of its threads at 3 CPUs
        monkeypatch.setattr(model, "WORKER_BYTES", 0)
        monkeypatch.setattr(model, "usable_cpus", lambda: 3)
        barrier = threading.Barrier(3, timeout=30)
        model.on_workers(lambda lo, hi: barrier.wait(), 3)
        starts = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self, start=threading.Thread.start: starts.append(self)
                            or start(self))
        calls = record_runs(monkeypatch, model, training)
        ds = temporary_relation_suite()
        cfg = TrainConfig(k=8, batch_size=16, neg_ratio=3, max_epochs=3, seed=2)
        train(ds.train, [], cfg, ds.binning, ds.vocab)
        # 200 entities are four row blocks
        params = init_params(200, 2, 3, 8, dual=False, seed=3)
        for tau in range(10):
            score_step(params, tau % 3, [5, 150], [0, 1], ["object", "subject"])
        assert starts == []
        # the pool's threads took runs of the steps' Adagrad and of every screen
        assert [len(runs) for runs in calls[-10:]] == 10 * [3]
        assert sum(len(runs) == 3 for runs in calls[:-10]) >= 3

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_a_forked_child_gets_its_own_pool(self, monkeypatch):
        # the parent's pool has a thread, idle, that the forked child lacks;
        # work handed to it in the child would never run
        monkeypatch.setattr(model, "usable_cpus", lambda: 2)
        params = init_params(200, 2, 3, 8, dual=False, seed=5)
        args = (params, 1, [5, 150], [0, 1], ["object", "subject"])
        want = score_step(*args)[0].tobytes()
        child = multiprocessing.get_context("fork").Process(
            target=lambda: sys.exit(score_step(*args)[0].tobytes() != want))
        child.start()
        child.join(timeout=30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0

    def test_a_worker_error_leaves_the_pool_whole(self, monkeypatch):
        monkeypatch.setattr(model, "usable_cpus", lambda: 3)
        ended = []

        def work(lo, hi):
            if lo == 3:  # the second run, a pool thread's
                raise ValueError("unit 3")
            time.sleep(0.05)
            ended.append((lo, hi))

        for _ in range(3):
            ended.clear()
            with pytest.raises(ValueError, match="unit 3"):
                model.on_workers(work, 9)
            # raised after the other runs had ended
            assert sorted(ended) == [(0, 3), (6, 9)]
            covered = []
            model.on_workers(lambda lo, hi: covered.extend(range(lo, hi)), 9)
            assert sorted(covered) == list(range(9))

    def test_many_workers_under_fast_switching(self, monkeypatch):
        # 8 workers hand the interpreter over every microsecond; a lost or
        # misplaced write to a shared array would change the bytes
        monkeypatch.setattr(model, "WORKER_BYTES", 0)
        monkeypatch.setattr(model, "usable_cpus", lambda: 1)
        want = self.run(512, 1, False)
        monkeypatch.setattr(model, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert self.run(512, 1, False) == want
        finally:
            sys.setswitchinterval(interval)

    # numpy's error state is per thread: a worker that does not set its own
    # warns on the nan that the check after the blocks reports
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("count", [2, 8])
    def test_non_finite_params_raise_on_every_worker(self, monkeypatch, count):
        monkeypatch.setattr(model, "WORKER_BYTES", 0)
        monkeypatch.setattr(model, "usable_cpus", lambda: count)
        params = init_params(30, 2, 3, 4, dual=False, seed=19)
        pos, repl, obj = two_sided_batch(params, 100, 3, seed=4)
        # a subject of the last block, which the last worker takes
        params.ent_re[pos[-1, 0]] = np.inf
        params.ent_im[pos[-1, 0]] = np.inf
        cfg = TrainConfig(k=4, batch_size=100, neg_ratio=3, margin=2.0, lr=0.1, seed=0)
        with pytest.raises(NumericalError):
            grad_step(params, zero_acc(params), pos, repl, obj, cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("neg_ratio", 0), ("margin", 0.0), ("margin", np.nan),
        ("margin", np.inf), ("lr", -0.1), ("lr", np.nan), ("lr", np.inf), ("norm_p", 3),
        ("valid_every", 0), ("k", 0), ("patience", 0), ("max_epochs", -3), ("seed", -1)])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrainConfig(**{field: value})

    def test_least_values_accepted(self):
        # as on the command line: 0 epochs returns the initialization
        TrainConfig(k=1, batch_size=1, neg_ratio=1, max_epochs=0, valid_every=1, patience=1,
                    seed=0)

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
        quads = expand_for_training([fact], ds.binning, False, ds.vocab.n_relations)
        params = init_params(ds.vocab.n_entities, ds.vocab.n_relations, ds.binning.n_tau,
                             cfg.k, False, cfg.seed, cfg.norm_p)
        rng = np.random.default_rng(0)
        neg0 = negative_quads(quads, *_corrupt_batch(quads, cfg.neg_ratio, ds.vocab.n_entities,
                                                     rng))
        initial = batch_loss(params, quads, neg0, cfg.margin, cfg.neg_ratio)
        losses, acc = [], zero_acc(params)
        for _ in range(200):
            repl, obj = _corrupt_batch(quads, cfg.neg_ratio, ds.vocab.n_entities, rng)
            losses.append(grad_step(params, acc, quads, repl, obj, cfg))
        assert losses[-1] < 0.1 * initial

    def test_determinism(self):
        ds = temporary_relation_suite()
        cfg = self.quick_config(max_epochs=12, valid_every=6)
        best1, hist1 = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        best2, hist2 = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        for name in best1.arrays():
            assert np.array_equal(best1.arrays()[name], best2.arrays()[name])
        assert [h.mrr for h in hist1] == [h.mrr for h in hist2]

    def test_history_and_log(self):
        ds = reflexive_relation_suite()
        cfg = self.quick_config(max_epochs=20, valid_every=10, patience=10)
        _, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        assert [rec.epoch for rec in history] == [10, 20]
        cells = history[0].tsv().split("\t")
        assert len(cells) == 7
        assert int(cells[0]) == 10 and 0.0 <= float(cells[2]) <= 1.0

    def test_on_validation_sees_each_record_and_each_new_best(self):
        ds = reflexive_relation_suite()
        cfg = self.quick_config(max_epochs=8, valid_every=1, patience=8)
        calls = []
        best, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab,
                              lambda rec, snapshot: calls.append((rec, snapshot)))
        assert [rec for rec, _ in calls] == history
        # a snapshot exactly where the MRR beats every earlier one
        mrrs = [rec.mrr for rec in history]
        assert [snap is not None for _, snap in calls] == \
            [mrr > max(mrrs[:i], default=-1.0) for i, mrr in enumerate(mrrs)]
        assert 1 < sum(snap is not None for _, snap in calls) < len(calls)
        last = [snap for _, snap in calls if snap is not None][-1]
        plain, _ = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        for name, arr in best.arrays().items():
            assert np.array_equal(last.arrays()[name], arr), name
            assert np.array_equal(plain.arrays()[name], arr), name

    def test_early_stopping_keeps_best_snapshot(self):
        ds = reflexive_relation_suite()
        cfg = self.quick_config(max_epochs=1000, valid_every=5, patience=2, seed=4)
        best, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        assert history[-1].epoch < 1000  # patience stopped the run
        best_mrr = max(rec.mrr for rec in history)
        fs = FilterSet.build(ds.train + ds.valid, ds.binning)
        assert evaluate(best, ds.valid, fs, ds.binning).mrr == pytest.approx(best_mrr)

    def test_train_and_test_validates_on_the_datasets_filter(self):
        # criterion 5's ablation: early stopping reads the filter that the
        # test reads, on the data's own steps, not one on the model's step
        ds = temporary_relation_suite()
        flat = collapsed_binning(ds)
        calls = []
        train_and_test(ds, PATTERN_CONFIG, flat, lambda rec, snap: calls.append((rec, snap)))
        fs = FilterSet.build(ds.train + ds.valid, ds.binning)
        snapped = [(rec, snap) for rec, snap in calls if snap is not None]
        assert snapped
        for rec, snap in snapped:
            assert rec.mrr == evaluate(snap, ds.valid, fs, flat).mrr, rec.epoch

    def test_validation_is_read_only(self):
        # the best snapshot equals an unvalidated run of exactly its epochs:
        # no validation resets or shares the parameters or the Adagrad state
        ds = reflexive_relation_suite()
        cfg = self.quick_config(max_epochs=8, valid_every=1, patience=8)
        best, history = train(ds.train, ds.valid, cfg, ds.binning, ds.vocab)
        top = max(history, key=lambda rec: rec.mrr)
        assert len(history) == 8 and 1 < top.epoch < 8
        plain, none = train(ds.train, [], self.quick_config(max_epochs=top.epoch),
                            ds.binning, ds.vocab)
        assert none == []
        for name, arr in best.arrays().items():
            assert np.array_equal(arr, plain.arrays()[name]), name
