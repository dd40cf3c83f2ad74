"""Seeded synthetic graphs shaped like ICEWS14 and YAGO11k, written as TSV.

The program under test only ever sees the TSV files. The generator also
keeps its own copy of every fact (names plus calendar tuples), so the
correctness checks can build a filter from the raw facts without going
through the program's parser.

A date is a ``(year, month, day)`` tuple where month and day may be None
(year-level resolution, written ``YYYY-##-##``). An unknown endpoint is
None and is written ``####-##-##``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

Date = tuple  # (year, month | None, day | None)
Fact = tuple  # (subject, relation, object, begin: Date | None, end: Date | None)

SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class Shape:
    """Target sizes of one generated graph."""

    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    entity_zipf: float
    relation_zipf: float


# Sourced: the entity, relation and split counts, and ICEWS14's 365 daily
# steps, are the published statistics of ICEWS14 (García-Durán et al.,
# EMNLP 2018) and YAGO11k (Dasgupta et al., HyTE, EMNLP 2018), which the
# TeRo paper reuses. ~60 YAGO11k steps at threshold 100 is the target the
# program's binning is specified for, not a count read from the real files.
ICEWS14 = Shape(7128, 230, 72_826, 8_941, 8_963, entity_zipf=0.9, relation_zipf=1.1)
YAGO11K = Shape(10_623, 10, 16_408, 2_050, 2_051, entity_zipf=0.8, relation_zipf=0.9)

ICEWS14_YEAR = 2014
ICEWS14_DAYS = 365

# Assumed: everything below, and the Zipf exponents above, set the traffic
# (rows touched per training step, scatter collisions, endpoint terms per
# query) but no source or measurement backs them. They are guesses until
# the real ICEWS14/YAGO11k files are in the repository and the generator
# can be recalibrated against them. ``assumptions()`` puts them in every
# run record.
# ICEWS14 days are uniform over the year, independent of the triple.
# YAGO-like years: a dense modern range where every year alone reaches the
# binning threshold, and a sparse tail back to antiquity that clubs into a
# handful of wide bins.
YAGO_DENSE_YEARS = (1966, 2017)
YAGO_TAIL_YEARS = (-400, 1965)
YAGO_TAIL_SHARE = 0.025
# Annotation mix: closed interval, point, begin-only, end-only.
YAGO_KINDS = (0.55, 0.20, 0.18, 0.07)
YAGO_MASKED_SHARE = 0.6  # dates written as YYYY-##-##
YAGO_INTERVAL_YEARS_P = 0.25  # interval length in years ~ geometric(p)


def assumptions(name: str) -> dict:
    """The generator's unsourced parameters for graph ``name``."""
    shape = ICEWS14 if name == "icews14" else YAGO11K
    out = {"entity_zipf": shape.entity_zipf, "relation_zipf": shape.relation_zipf}
    if name == "icews14":
        out["days"] = "uniform over 2014, independent of the triple"
    else:
        out.update(dense_years=YAGO_DENSE_YEARS, tail_years=YAGO_TAIL_YEARS,
                   tail_share=YAGO_TAIL_SHARE,
                   kinds_interval_point_begin_end=YAGO_KINDS,
                   masked_share=YAGO_MASKED_SHARE, interval_years_p=YAGO_INTERVAL_YEARS_P)
    return out


@dataclass
class Graph:
    name: str
    fmt: str  # "point-tsv" or "interval-tsv"
    splits: dict[str, list[Fact]]

    @property
    def all_facts(self) -> list[Fact]:
        return [f for split in SPLITS for f in self.splits[split]]

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write ``train.txt``/``valid.txt``/``test.txt``; returns their paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        for split in SPLITS:
            path = out / f"{split}.txt"
            lines = (format_fact(f, self.fmt) for f in self.splits[split])
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            paths[split] = path
        return paths


def format_date(d: Date | None) -> str:
    if d is None:
        return "####-##-##"
    y, m, day = d
    year = f"{y:04d}" if y >= 0 else str(y)
    if m is None:
        return f"{year}-##-##"
    return f"{year}-{m:02d}-{day:02d}"


def format_fact(f: Fact, fmt: str) -> str:
    s, r, o, begin, end = f
    if fmt == "point-tsv":
        return f"{s}\t{r}\t{o}\t{format_date(begin)}"
    return f"{s}\t{r}\t{o}\t{format_date(begin)}\t{format_date(end)}"


def _zipf_probs(n: int, a: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** a
    return p / p.sum()


def _triples(rng: np.random.Generator, shape: Shape, n: int) -> np.ndarray:
    """(n, 3) subject/relation/object ids, Zipf-skewed, no self loops.

    The first n_entities rows carry every entity once as subject and the
    next n_relations rows every relation once, so the vocab is complete.
    """
    ent_p = _zipf_probs(shape.n_entities, shape.entity_zipf)
    rank_to_ent = rng.permutation(shape.n_entities)
    s = rank_to_ent[rng.choice(shape.n_entities, n, p=ent_p)]
    o = rank_to_ent[rng.choice(shape.n_entities, n, p=ent_p)]
    r = rng.choice(shape.n_relations, n, p=_zipf_probs(shape.n_relations, shape.relation_zipf))
    s[: shape.n_entities] = rng.permutation(shape.n_entities)
    r[shape.n_entities: shape.n_entities + shape.n_relations] = np.arange(shape.n_relations)
    while (clash := s == o).any():
        o[clash] = rng.integers(0, shape.n_entities, int(clash.sum()))
    return np.stack([s, r, o], axis=1)


def _dedup_split(rng: np.random.Generator, shape: Shape, facts: list[Fact]) -> dict:
    """Drop repeated facts (first kept), trim to size and split at random."""
    unique = list(dict.fromkeys(facts))
    total = shape.n_train + shape.n_valid + shape.n_test
    if len(unique) < total:
        raise ValueError(f"only {len(unique)} distinct facts for {total} wanted")
    unique = unique[:total]
    # coverage rows come first; keep them in train so every entity,
    # relation and step has training signal
    n_cover = shape.n_entities + shape.n_relations
    rest = [unique[i] for i in n_cover + rng.permutation(total - n_cover)]
    test, valid = rest[: shape.n_test], rest[shape.n_test: shape.n_test + shape.n_valid]
    train = unique[:n_cover] + rest[shape.n_test + shape.n_valid:]
    return {"train": train, "valid": valid, "test": test}


def _names(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix} {i:0{width}d}" for i in range(n)]


def icews14_date(step: int) -> Date:
    """Calendar date of daily time step ``step`` of the ICEWS14 year."""
    d = date(ICEWS14_YEAR, 1, 1) + timedelta(days=step)
    return (d.year, d.month, d.day)


def icews14(seed: int, shape: Shape = ICEWS14) -> Graph:
    """Point events over the 365 days of 2014, Zipf-skewed actors/relations."""
    rng = np.random.default_rng([seed, 14])
    n = int((shape.n_train + shape.n_valid + shape.n_test) * 1.05)
    trip = _triples(rng, shape, n)
    day = rng.integers(0, ICEWS14_DAYS, n)
    # first and last day anchor the 365-step span
    day[0], day[1] = 0, ICEWS14_DAYS - 1
    ents, rels = _names("Actor", shape.n_entities), _names("Event type", shape.n_relations)
    dates = [icews14_date(t) for t in range(ICEWS14_DAYS)]
    facts = [(ents[s], rels[r], ents[o], dates[t], dates[t])
             for (s, r, o), t in zip(trip.tolist(), day.tolist())]
    return Graph("icews14", "point-tsv", _dedup_split(rng, shape, facts))


def _yago_date(rng: np.random.Generator, year: int, masked: bool) -> Date:
    if masked:
        return (year, None, None)
    return (year, int(rng.integers(1, 13)), int(rng.integers(1, 29)))


def _yago_annotation(rng: np.random.Generator, kind: int, year: int) -> tuple:
    masked = bool(rng.random() < YAGO_MASKED_SHARE)
    if kind == 1:  # point
        d = _yago_date(rng, year, masked)
        return d, d
    if kind == 2:  # begin-only
        return _yago_date(rng, year, masked), None
    if kind == 3:  # end-only
        return None, _yago_date(rng, year, masked)
    end_year = min(year + int(rng.geometric(YAGO_INTERVAL_YEARS_P)), YAGO_DENSE_YEARS[1])
    if end_year == year:  # same year: full dates in order, or both masked
        if masked:
            return (year, None, None), (year, None, None)
        a, b = sorted([_yago_date(rng, year, False), _yago_date(rng, year, False)])
        return a, b
    return _yago_date(rng, year, masked), _yago_date(rng, end_year, masked)


def yago11k(seed: int, shape: Shape = YAGO11K) -> Graph:
    """Interval facts with half-open and month/day-masked annotations."""
    rng = np.random.default_rng([seed, 11])
    n = int((shape.n_train + shape.n_valid + shape.n_test) * 1.05)
    trip = _triples(rng, shape, n)
    kinds = rng.choice(len(YAGO_KINDS), n, p=YAGO_KINDS)
    tail = rng.random(n) < YAGO_TAIL_SHARE
    years = np.where(tail, rng.integers(YAGO_TAIL_YEARS[0], YAGO_TAIL_YEARS[1] + 1, n),
                     rng.integers(YAGO_DENSE_YEARS[0], YAGO_DENSE_YEARS[1] + 1, n))
    # the span's ends are fixed so every seed bins over the same years
    years[0], years[1] = YAGO_TAIL_YEARS[0], YAGO_DENSE_YEARS[1]
    ents = _names("entity", shape.n_entities)
    rels = [f"relation_{i}" for i in range(shape.n_relations)]
    facts = []
    for (s, r, o), kind, year in zip(trip.tolist(), kinds.tolist(), years.tolist()):
        begin, end = _yago_annotation(rng, kind, year)
        facts.append((ents[s], rels[r], ents[o], begin, end))
    return Graph("yago11k", "interval-tsv", _dedup_split(rng, shape, facts))


GENERATORS = {"icews14": icews14, "yago11k": yago11k}
