"""Synthetic dataset generators for relation-pattern checks and benchmarks.

Three suites probe the relation patterns the rotation model is built to
capture, each over 20 entities:

* temporary: at step tau, actor i is at venue (i + tau) mod n_venues, so
  every (actor, venue) pair is true at exactly one step and false at all
  others. Held-out facts involve pairs never seen in training, which a
  model with a single shared time step cannot recover.
* asymmetric: parent_of links entity i to i + 10, never the reverse.
* reflexive: two disjoint entity groups each carry their own self-relation,
  so the model must keep two distinct reflexive relation embeddings apart.

All suites use fully dated point facts one day apart, so a fixed 1-day
binning gives one time step per logical step.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from .data import (Dataset, PartialDate, Quadruple, TimeAnnotation, Vocab,
                   build_binning, endpoint_terms)

_EPOCH = date(2000, 1, 1)


def _day(tau: int) -> TimeAnnotation:
    d = _EPOCH + timedelta(days=tau)
    return TimeAnnotation.point(PartialDate(d.year, d.month, d.day))


def _split(items: list, n_valid: int, n_test: int,
           rng: np.random.Generator) -> tuple[list, list, list]:
    order = rng.permutation(len(items))
    shuffled = [items[i] for i in order]
    test = shuffled[:n_test]
    valid = shuffled[n_test: n_test + n_valid]
    train = shuffled[n_test + n_valid:]
    return train, valid, test


def _check_coverage(train: list[Quadruple], n_entities: int, n_steps: int,
                    binning) -> None:
    ents = {q.subject for q in train} | {q.object for q in train}
    taus = {tau for q in train for _, tau in endpoint_terms(q, binning, False, 1)}
    if len(ents) != n_entities or len(taus) != n_steps:
        raise ValueError("training split does not cover every entity and time step; "
                         "pick another split seed")


def _make_dataset(facts: list[Quadruple], vocab: Vocab, n_valid: int, n_test: int,
                  seed: int, unit_days: int = 1) -> Dataset:
    rng = np.random.default_rng(seed)
    train, valid, test = _split(facts, n_valid, n_test, rng)
    binning = build_binning(facts, unit_days, None)
    return Dataset(vocab, train, valid, test, binning, dual=False)


def temporary_relation_suite(seed: int = 7, n_actors: int = 5, n_venues: int = 15) -> Dataset:
    """Cyclic visiting pattern: exactly solvable by per-step rotations.

    With phases theta_tau = pi * tau / n_venues and unit-circle embeddings,
    actor i rotated at step tau lands on the conjugate of venue
    (i + tau) mod n_venues rotated at the same step, so the relation can be
    the zero translation.
    """
    names = [f"actor_{i}" for i in range(n_actors)] + [f"venue_{j:02d}" for j in range(n_venues)]
    vocab = Vocab(sorted(names), ["visits"])
    facts = []
    for i in range(n_actors):
        for tau in range(n_venues):
            actor = vocab.ent2id[f"actor_{i}"]
            venue = vocab.ent2id[f"venue_{(i + tau) % n_venues:02d}"]
            facts.append(Quadruple(actor, 0, venue, _day(tau)))
    ds = _make_dataset(facts, vocab, n_valid=5, n_test=10, seed=seed)
    _check_coverage(ds.train, n_actors + n_venues, n_venues, ds.binning)
    return ds


def collapsed_binning(ds: Dataset):
    """A one-step binning over the dataset's span (time-blind ablation)."""
    span = 10_000_000 if ds.binning.mode == "threshold" else max(ds.binning.span_days, 1)
    if ds.binning.mode == "threshold":
        return build_binning(ds.all_facts, None, span)
    return build_binning(ds.all_facts, span, None)


def asymmetric_relation_suite(seed: int = 11, n_pairs: int = 10,
                              n_steps: int = 10) -> Dataset:
    """parent_of holds from i to i + n_pairs at every step, never reversed."""
    names = [f"parent_{i}" for i in range(n_pairs)] + [f"child_{i}" for i in range(n_pairs)]
    vocab = Vocab(sorted(names), ["parent_of"])
    facts = []
    for i in range(n_pairs):
        for tau in range(n_steps):
            facts.append(Quadruple(vocab.ent2id[f"parent_{i}"], 0,
                                   vocab.ent2id[f"child_{i}"], _day(tau)))
    ds = _make_dataset(facts, vocab, n_valid=8, n_test=12, seed=seed)
    _check_coverage(ds.train, 2 * n_pairs, n_steps, ds.binning)
    return ds


def reflexive_relation_suite(seed: int = 13, group_size: int = 10,
                             n_steps: int = 10) -> Dataset:
    """Two self-relations on disjoint entity groups, true at every step."""
    names = [f"a_{i}" for i in range(group_size)] + [f"b_{i}" for i in range(group_size)]
    vocab = Vocab(sorted(names), ["same_a", "same_b"])
    facts = []
    for prefix, rel in (("a", "same_a"), ("b", "same_b")):
        for i in range(group_size):
            e = vocab.ent2id[f"{prefix}_{i}"]
            for tau in range(n_steps):
                facts.append(Quadruple(e, vocab.rel2id[rel], e, _day(tau)))
    ds = _make_dataset(facts, vocab, n_valid=10, n_test=16, seed=seed)
    _check_coverage(ds.train, 2 * group_size, n_steps, ds.binning)
    return ds


def subsample_dataset(ds: Dataset, n_train: int, n_valid: int, n_test: int,
                      seed: int) -> Dataset:
    """Seeded without-replacement subsample of each split, vocab kept whole."""
    rng = np.random.default_rng(seed)

    def pick(facts: list[Quadruple], n: int) -> list[Quadruple]:
        if n >= len(facts):
            return list(facts)
        idx = rng.choice(len(facts), size=n, replace=False)
        return [facts[i] for i in sorted(idx)]

    train = pick(ds.train, n_train)
    valid = pick(ds.valid, n_valid)
    test = pick(ds.test, n_test)
    binning = build_binning(train + valid + test,
                            ds.binning.param if ds.binning.mode == "fixed" else None,
                            ds.binning.param if ds.binning.mode == "threshold" else None)
    return Dataset(ds.vocab, train, valid, test, binning, ds.dual)
