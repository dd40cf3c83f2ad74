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
binning gives one time step per logical step. A new suite is one call of
``_suite`` on its named ``(subject, relation, object, step)`` facts, which
builds the vocab, dated quadruples and seeded split and checks that the
training split covers every entity and time step.
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


def _make_dataset(facts: list[Quadruple], vocab: Vocab, n_valid: int, n_test: int,
                  seed: int, unit_days: int = 1) -> Dataset:
    """Seeded shuffle of ``facts`` cut into test, valid and train, in that order."""
    shuffled = [facts[i] for i in np.random.default_rng(seed).permutation(len(facts))]
    return Dataset(vocab, shuffled[n_test + n_valid:], shuffled[n_test:n_test + n_valid],
                   shuffled[:n_test], build_binning(facts, unit_days, None), dual=False)


def _suite(facts: list[tuple[str, str, str, int]], n_valid: int, n_test: int,
           seed: int) -> Dataset:
    """Dataset of named ``(subject, relation, object, step)`` facts in generation
    order, one day per step; ValueError if training misses an entity or a step."""
    vocab = Vocab(sorted({e for s, _, o, _ in facts for e in (s, o)}),
                  sorted({r for _, r, _, _ in facts}))
    ds = _make_dataset([Quadruple(vocab.ent2id[s], vocab.rel2id[r], vocab.ent2id[o], _day(tau))
                        for s, r, o, tau in facts], vocab, n_valid, n_test, seed)
    ents = {e for q in ds.train for e in (q.subject, q.object)}
    taus = {tau for q in ds.train for _, tau in endpoint_terms(q, ds.binning, False, 1)}
    if len(ents) != vocab.n_entities or len(taus) != ds.binning.n_tau:
        raise ValueError("training split does not cover every entity and time step; "
                         "pick another split seed")
    return ds


def temporary_relation_suite(seed: int = 7, n_actors: int = 5, n_venues: int = 15) -> Dataset:
    """Cyclic visiting pattern: exactly solvable by per-step rotations.

    With phases theta_tau = pi * tau / n_venues and unit-circle embeddings,
    actor i rotated at step tau lands on the conjugate of venue
    (i + tau) mod n_venues rotated at the same step, so the relation can be
    the zero translation.
    """
    return _suite([(f"actor_{i}", "visits", f"venue_{(i + tau) % n_venues:02d}", tau)
                   for i in range(n_actors) for tau in range(n_venues)],
                  n_valid=5, n_test=10, seed=seed)


def collapsed_binning(ds: Dataset):
    """A one-step binning over the dataset's span (time-blind ablation)."""
    if ds.binning.mode == "threshold":
        return build_binning(ds.all_facts, None, 10_000_000)
    return build_binning(ds.all_facts, ds.binning.span_days, None)


def asymmetric_relation_suite(seed: int = 11, n_pairs: int = 10,
                              n_steps: int = 10) -> Dataset:
    """parent_of holds from i to i + n_pairs at every step, never reversed."""
    return _suite([(f"parent_{i}", "parent_of", f"child_{i}", tau)
                   for i in range(n_pairs) for tau in range(n_steps)],
                  n_valid=8, n_test=12, seed=seed)


def reflexive_relation_suite(seed: int = 13, group_size: int = 10,
                             n_steps: int = 10) -> Dataset:
    """Two self-relations on disjoint entity groups, true at every step."""
    return _suite([(f"{g}_{i}", f"same_{g}", f"{g}_{i}", tau)
                   for g in "ab" for i in range(group_size) for tau in range(n_steps)],
                  n_valid=10, n_test=16, seed=seed)


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
