"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The two checks that need
the published benchmark files (YAGO11k year clubbing, the event-benchmark
subsample run) look for them under ``$TERO_DATA_DIR`` or ``./data`` and skip
with an explicit note when absent.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_grads, fd_grads, key_of, loss, negative_quads, random_kg, rank_oracle
from tero.data import (PartialDate, POINT_TSV, bin_fixed, bin_threshold,
                       load_dataset, year_mention_counts)
from tero.evaluation import FilterSet, candidate_scores, evaluate, filtered_ranks
from tero.model import _rotate, init_params, load_checkpoint, save_checkpoint
from tero.synthetic import (asymmetric_relation_suite, collapsed_binning,
                            reflexive_relation_suite, subsample_dataset,
                            temporary_relation_suite)
from tero.training import TrainConfig, loss_and_grads, train, train_and_test


@contextmanager
def criterion(name: str):
    begin = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - begin:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - begin:.1f}s)")


def dataset_dir(name: str) -> Path | None:
    roots = []
    if os.environ.get("TERO_DATA_DIR"):
        roots.append(Path(os.environ["TERO_DATA_DIR"]))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        candidate = root / name
        if all((candidate / f"{split}.txt").exists() for split in ("train", "valid", "test")):
            return candidate
    return None


def skip_absent(name: str, dataset: str):
    print(f"ACCEPTANCE {name}: SKIP ({dataset} files not present)")
    pytest.skip(f"{dataset} dataset not available; place it under $TERO_DATA_DIR/{dataset} "
                f"or ./data/{dataset} to run this criterion")


PATTERN_CONFIG = TrainConfig(k=50, batch_size=32, neg_ratio=10, margin=10.0, lr=0.3,
                             max_epochs=500, valid_every=25, patience=8, norm_p=1, seed=1)


def test_criterion_1_gradients_match_finite_differences():
    with criterion("gradient-check"):
        start = time.perf_counter()
        params = init_params(4, 2, 3, 3, dual=False, seed=5, norm_p=2, dtype=np.float64)
        rng = np.random.default_rng(5)
        pos = np.stack([rng.integers(0, 4, 3), rng.integers(0, 2, 3),
                        rng.integers(0, 4, 3), rng.integers(0, 3, 3)], axis=1)
        pos[0, 2] = pos[0, 0]  # self-loop hits the shared-entity path
        repl, obj = rng.integers(0, 4, (3, 2)), np.ones((3, 2), bool)
        _, analytic = loss_and_grads(params, pos, repl, obj, margin=2.0)
        analytic = dense_grads(params, analytic)
        numeric = fd_grads(params, pos, negative_quads(pos, repl, obj), margin=2.0, neg_ratio=2,
                           h=1e-4)
        for name in analytic:
            a, n = analytic[name].ravel(), numeric[name].ravel()
            rel = np.abs(a - n) / np.maximum(1e-8, np.abs(n))
            assert rel.max() < 1e-4, f"{name}: max relative error {rel.max():.2e}"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_rotation_invariants():
    with criterion("rotation-invariants"):
        start = time.perf_counter()
        rng = np.random.default_rng(6)
        k, n = 8, 10_000
        re, im = rng.normal(size=(2, n, k)) * 5
        p1 = rng.uniform(-2 * np.pi, 2 * np.pi, (n, k))
        p2 = rng.uniform(-2 * np.pi, 2 * np.pi, (n, k))
        r1_re, r1_im = _rotate(re, im, np.cos(p1), np.sin(p1))
        assert np.abs(np.hypot(r1_re, r1_im) - np.hypot(re, im)).max() < 1e-10
        two_re, two_im = _rotate(r1_re, r1_im, np.cos(p2), np.sin(p2))
        one_re, one_im = _rotate(re, im, np.cos(p1 + p2), np.sin(p1 + p2))
        assert np.abs(two_re - one_re).max() < 1e-10
        assert np.abs(two_im - one_im).max() < 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_3_ranking_matches_bruteforce_oracle():
    with criterion("ranking-oracle"):
        start = time.perf_counter()
        ds = random_kg(seed=9, n_entities=50, n_relations=5, n_steps=10, n_facts=500)
        params = init_params(50, 5, 10, 8, dual=False, seed=10)
        fs = FilterSet.build(ds.all_facts, ds.binning)
        keys = {key_of(q, ds.binning) for q in ds.all_facts}
        report = evaluate(params, ds.all_facts, fs, ds.binning)
        assert [(qr.quad, qr.side) for qr in report.ranks] == \
            [(q, side) for q in ds.all_facts for side in ("subject", "object")]
        checked = 0
        for quad, side, rank in report.ranks:
            screen = candidate_scores(params, [(quad, side)], ds.binning)
            [fast] = filtered_ranks(screen, fs)
            slow = rank_oracle(params, quad, side, keys, ds.binning)
            assert fast == slow, f"{quad} {side}: {fast} != {slow}"
            assert rank == slow, f"evaluate {quad} {side}: {rank} != {slow}"
            checked += 1
        assert checked == 1000
        assert time.perf_counter() - start < 10.0


def test_criterion_4_fixed_unit_binning_fixtures():
    with criterion("binning-fixed-unit"):
        icews = dataset_dir("icews14")
        if icews is not None:
            ds = load_dataset(icews / "train.txt", icews / "valid.txt",
                              icews / "test.txt", POINT_TSV, unit_days=1)
            dates = [q.time.begin for q in ds.all_facts]
        else:
            dates = [PartialDate(2014, 1, 1), PartialDate(2014, 12, 31)]
        one_day = bin_fixed(dates, 1)
        assert one_day.n_tau == 365
        assert one_day.index_of(PartialDate(2014, 1, 2)) == 1
        two_day = bin_fixed(dates, 2)
        assert two_day.n_tau == 183
        assert two_day.index_of(PartialDate(2014, 1, 2)) == 0


def test_criterion_4_year_clubbing_fixtures():
    yago = dataset_dir("yago11k")
    if yago is None:
        skip_absent("binning-year-clubbing", "yago11k")
    with criterion("binning-year-clubbing"):
        ds = load_dataset(yago / "train.txt", yago / "valid.txt", yago / "test.txt",
                          "interval-tsv", threshold=1)
        counts = year_mention_counts(ds.all_facts)
        assert bin_threshold(counts, 1).n_tau == 396
        assert bin_threshold(counts, 300).n_tau == 127


def test_criterion_5_temporary_relation_suite():
    with criterion("pattern-temporary"):
        start = time.perf_counter()
        _, _, report = train_and_test(temporary_relation_suite(), PATTERN_CONFIG)
        assert report.mrr >= 0.9, f"temporary suite mrr {report.mrr:.3f}"
        assert time.perf_counter() - start < 120.0


def test_criterion_5_asymmetric_relation_suite():
    with criterion("pattern-asymmetric"):
        start = time.perf_counter()
        _, _, report = train_and_test(asymmetric_relation_suite(), PATTERN_CONFIG)
        assert report.mrr >= 0.9, f"asymmetric suite mrr {report.mrr:.3f}"
        assert time.perf_counter() - start < 120.0


def test_criterion_5_reflexive_relation_suite():
    with criterion("pattern-reflexive"):
        start = time.perf_counter()
        _, _, report = train_and_test(reflexive_relation_suite(), PATTERN_CONFIG)
        assert report.mrr >= 0.9, f"reflexive suite mrr {report.mrr:.3f}"
        assert time.perf_counter() - start < 120.0


def test_criterion_5_time_collapsed_ablation_fails_temporary_suite():
    with criterion("pattern-temporary-ablation"):
        start = time.perf_counter()
        ds = temporary_relation_suite()
        _, _, report = train_and_test(ds, PATTERN_CONFIG, train_binning=collapsed_binning(ds))
        assert report.mrr <= 0.6, f"time-collapsed ablation mrr {report.mrr:.3f}"
        assert time.perf_counter() - start < 120.0


def test_criterion_6_loss_reference_values():
    with criterion("loss-spot-values"):
        assert loss(4.0, [4.0], margin=4.0, neg_ratio=1) == pytest.approx(
            2 * math.log(2), abs=1e-5)
        assert loss(0.0, [1e9], margin=10.0, neg_ratio=1) == pytest.approx(
            math.log1p(math.exp(-10.0)), abs=1e-5)
        # -log sig(1) - (1/2) * (log sig(1) + log sig(3)), computed by hand
        expected = (math.log1p(math.exp(-1.0))
                    + 0.5 * (math.log1p(math.exp(-1.0)) + math.log1p(math.exp(-3.0))))
        assert expected == pytest.approx(0.4941862, abs=1e-6)
        assert loss(3.0, [5.0, 7.0], margin=4.0, neg_ratio=2) == pytest.approx(
            expected, abs=1e-5)


def test_criterion_7_event_benchmark_subsample():
    icews = dataset_dir("icews14")
    if icews is None:
        skip_absent("benchmark-subsample", "icews14")
    with criterion("benchmark-subsample"):
        start = time.perf_counter()
        full = load_dataset(icews / "train.txt", icews / "valid.txt", icews / "test.txt",
                            POINT_TSV, unit_days=1)
        ds = subsample_dataset(full, n_train=10_000, n_valid=1_000, n_test=2_000, seed=0)
        config = TrainConfig(k=100, batch_size=512, neg_ratio=10, margin=30.0, lr=0.1,
                             max_epochs=500, valid_every=50, patience=5, norm_p=1, seed=0)
        _, _, report = train_and_test(ds, config)
        _, _, ablation = train_and_test(ds, config, train_binning=collapsed_binning(ds))
        print(f"subsample mrr {report.mrr:.4f}, time-collapsed {ablation.mrr:.4f}")
        assert report.mrr >= 0.25, f"subsample mrr {report.mrr:.3f}"
        assert report.mrr - ablation.mrr >= 0.05, \
            f"granularity gap {report.mrr - ablation.mrr:.3f}"
        assert time.perf_counter() - start < 1800.0


def test_criterion_8_checkpoint_round_trip(tmp_path):
    with criterion("checkpoint-round-trip"):
        ds = reflexive_relation_suite()
        config = TrainConfig(k=12, batch_size=64, neg_ratio=4, margin=5.0, lr=0.3,
                             max_epochs=15, valid_every=5, patience=10, norm_p=1, seed=2)
        params, _ = train(ds.train, ds.valid, config, ds.binning, ds.vocab)
        f1, f2 = tmp_path / "one.tero", tmp_path / "two.tero"
        save_checkpoint(params, f1, vocab_ref="sidecar")
        loaded, ref = load_checkpoint(f1)
        save_checkpoint(loaded, f2, vocab_ref=ref)
        assert f1.read_bytes() == f2.read_bytes()
        fs = FilterSet.build(ds.all_facts, ds.binning)
        before = evaluate(params, ds.test, fs, ds.binning)
        after = evaluate(loaded, ds.test, fs, ds.binning)
        assert [q.rank for q in before.ranks] == [q.rank for q in after.ranks]
        assert (before.mrr, before.hits1, before.hits3, before.hits10) == \
            (after.mrr, after.hits1, after.hits3, after.hits10)
