"""The suites' coverage check, and the ablation and subsample helpers on
threshold-binned interval data."""

import pytest

from tero.data import (Dataset, PartialDate, Quadruple, TimeAnnotation, Vocab, build_binning,
                       time_key)
from tero.synthetic import collapsed_binning, reflexive_relation_suite, subsample_dataset


def test_split_missing_an_entity_or_step_is_rejected():
    with pytest.raises(ValueError, match="does not cover every entity and time step"):
        reflexive_relation_suite(seed=8, group_size=6, n_steps=5)


def interval_dataset() -> Dataset:
    """80 facts over 1990-2010, closed intervals and every fifth begin-only,
    binned into years of at least 10 mentions."""
    facts = [Quadruple(i % 6, i % 2, (i + 1) % 6,
                       TimeAnnotation(PartialDate(1990 + i // 4),
                                      None if i % 5 == 0 else PartialDate(1991 + i // 4)))
             for i in range(80)]
    return Dataset(Vocab([f"e{i}" for i in range(6)], ["r0", "r1"]), facts[:60], facts[60:70],
                   facts[70:], build_binning(facts, None, 10), dual=True)


def test_collapsed_threshold_binning_has_one_step():
    ds = interval_dataset()
    assert ds.binning.n_tau > 1
    flat = collapsed_binning(ds)
    assert (flat.mode, flat.n_tau) == ("threshold", 1)
    assert {time_key(q.time, flat) for q in ds.all_facts} == {(0, 0), (0, None)}


def test_subsample_keeps_the_threshold():
    ds = interval_dataset()
    sub = subsample_dataset(ds, 20, 4, 3, seed=5)
    assert (len(sub.train), len(sub.valid), len(sub.test)) == (20, 4, 3)
    assert set(sub.train) <= set(ds.train) and set(sub.test) <= set(ds.test)
    assert sub.binning == build_binning(sub.all_facts, None, 10)
    assert (sub.vocab, sub.dual) == (ds.vocab, True)
