"""Dataset ingestion for temporal knowledge graphs.

Handles two TSV layouts:

* ``point-tsv``: one fully-dated fact per line, ``s<TAB>r<TAB>o<TAB>YYYY-MM-DD``
  (ICEWS-style event data).
* ``interval-tsv``: ``s<TAB>r<TAB>o<TAB>begin<TAB>end`` where date components
  may be masked with ``#`` (YAGO/Wikidata-style), e.g. ``2003-##-##`` or a
  fully unknown endpoint ``####-##-##``.

Also builds entity/relation vocabularies, discretizes timestamps into time
steps (fixed-length units or frequency-threshold year clubbing), and expands
facts into per-endpoint training quadruples, one row of an int64 array each.
``time_key`` is the one function that bins a fact's annotation; the
endpoint terms, the training rows and the evaluation filter all take their
steps from it. Facts repeat a few hundred distinct timestamps (ICEWS14:
90,730 facts, 365 days): each date text of a file is parsed once, and its
facts share the one annotation. ``columns`` turns facts into an annotation
table, an int64 row per fact indexing the list of distinct annotations, so
the year counts, the training expansion and the filter take each once.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date as _pydate
from itertools import count
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

POINT_TSV = "point-tsv"
INTERVAL_TSV = "interval-tsv"
FORMATS = (POINT_TSV, INTERVAL_TSV)


class DataError(Exception):
    """Malformed dataset content. Carries file and line number when known."""

    def __init__(self, message: str, path: str | Path | None = None, line_no: int | None = None):
        self.path = str(path) if path is not None else None
        self.line_no = line_no
        where = ""
        if self.path is not None:
            where = f"{self.path}: " if line_no is None else f"{self.path}:{line_no}: "
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class PartialDate:
    """A calendar date whose month/day may be unknown (year-level resolution).

    Years are signed integers; negative years (e.g. -453) are valid and sort
    before positive ones.
    """

    year: int
    month: int | None = None
    day: int | None = None

    def sort_key(self) -> tuple[int, int, int]:
        return (self.year, self.month or 1, self.day or 1)

    @property
    def is_full(self) -> bool:
        return self.month is not None and self.day is not None

    def to_pydate(self) -> _pydate:
        if not self.is_full:
            raise ValueError(f"date {self} lacks month/day")
        return _pydate(self.year, self.month, self.day)

    def __str__(self) -> str:
        m = f"{self.month:02d}" if self.month is not None else "##"
        d = f"{self.day:02d}" if self.day is not None else "##"
        return f"{self.year:04d}-{m}-{d}" if self.year >= 0 else f"{self.year}-{m}-{d}"


@dataclass(frozen=True)
class TimeAnnotation:
    """Time attached to a fact: a point, an interval, or a half-open interval.

    ``begin``/``end`` are None for unknown endpoints; at least one is set.
    A point is stored as begin == end, so ``[d, d]`` and a bare date are the
    same annotation.
    """

    begin: PartialDate | None
    end: PartialDate | None

    def __post_init__(self):
        if self.begin is None and self.end is None:
            raise ValueError("time annotation needs at least one known endpoint")
        if self.begin is not None and self.end is not None:
            if self.begin.sort_key() > self.end.sort_key():
                raise ValueError(f"interval begin {self.begin} after end {self.end}")

    @classmethod
    def point(cls, d: PartialDate) -> "TimeAnnotation":
        return cls(d, d)

    @property
    def is_point(self) -> bool:
        return self.begin is not None and self.begin == self.end

    @property
    def is_interval(self) -> bool:
        return self.begin is not None and self.end is not None and self.begin != self.end


@dataclass(frozen=True)
class Quadruple:
    """A fact (subject, relation, object, time) with dense integer ids."""

    subject: int
    relation: int
    object: int
    time: TimeAnnotation


class RawFact(NamedTuple):
    subject: str
    relation: str
    object: str
    time: TimeAnnotation


@dataclass
class Vocab:
    """Bidirectional string <-> dense id maps for entities and relations."""

    id2ent: list[str]
    id2rel: list[str]
    ent2id: dict[str, int] = field(init=False)
    rel2id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.ent2id = {e: i for i, e in enumerate(self.id2ent)}
        self.rel2id = {r: i for i, r in enumerate(self.id2rel)}

    @property
    def n_entities(self) -> int:
        return len(self.id2ent)

    @property
    def n_relations(self) -> int:
        return len(self.id2rel)

    @classmethod
    def from_facts(cls, facts: Iterable[RawFact]) -> "Vocab":
        ents, rels = set(), set()
        for f in facts:
            ents.add(f.subject)
            ents.add(f.object)
            rels.add(f.relation)
        return cls(sorted(ents), sorted(rels))

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, items in (("entities.tsv", self.id2ent), ("relations.tsv", self.id2rel)):
            with open(out / name, "w", encoding="utf-8") as fh:
                for i, s in enumerate(items):
                    fh.write(f"{i}\t{s}\n")

    @classmethod
    def load(cls, src_dir: str | Path) -> "Vocab":
        src = Path(src_dir)

        def read(name: str) -> list[str]:
            path = src / name
            if not path.exists():
                raise DataError(f"vocab table {name} missing", path)
            items: list[str] = []
            for line_no, line in enumerate(read_lines(path), 1):
                if not line:
                    continue
                idx, _, s = line.partition("\t")
                try:
                    if int(idx) != len(items):
                        raise DataError("vocab ids are not contiguous", path, line_no)
                except ValueError:
                    raise DataError(f"vocab id {idx!r} is not an integer", path, line_no) from None
                items.append(s)
            return items

        return cls(read("entities.tsv"), read("relations.tsv"))


_DATE_RE = re.compile(r"^(?P<y>-?\d{1,6}|#{1,6})(?:-(?P<m>\d{1,2}|#{1,2})(?:-(?P<d>\d{1,2}|#{1,2}))?)?$")


def parse_date(token: str) -> PartialDate | None:
    """Parse a date token; returns None when the year itself is masked.

    Accepts ``YYYY-MM-DD``, year-only ``YYYY`` (negative allowed), and
    ``#``-masked components such as ``2003-##-##`` or ``####-##-##``.
    """
    m = _DATE_RE.match(token.strip())
    if m is None:
        raise ValueError(f"unparseable date {token!r}")
    if m.group("y").startswith("#"):
        return None
    year = int(m.group("y"))

    def part(s: str | None) -> int | None:
        return None if s is None or s.startswith("#") else int(s)

    month, day = part(m.group("m")), part(m.group("d"))
    if month is not None and not 1 <= month <= 12:
        raise ValueError(f"month out of range in {token!r}")
    if day is not None and not 1 <= day <= 31:
        raise ValueError(f"day out of range in {token!r}")
    if month is None:
        day = None
    return PartialDate(year, month, day)


def read_lines(path: Path) -> list[str]:
    """A UTF-8 file's lines, split as text-mode reads split them; bad bytes are a DataError."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"invalid UTF-8: {exc.reason}", path,
                        raw.count(b"\n", 0, exc.start) + 1) from exc


def _parse_line(line: str, fmt: str, path: str | Path, line_no: int,
                times: dict[tuple[str, ...], TimeAnnotation]) -> RawFact:
    """One line as a fact; its date text is parsed only if ``times`` lacks it, then added."""
    parts = line.split("\t")
    want = 4 if fmt == POINT_TSV else 5
    if len(parts) != want:
        raise DataError(f"expected {want} tab-separated fields, got {len(parts)}", path, line_no)
    s, r, o = parts[0].strip(), parts[1].strip(), parts[2].strip()
    if not s or not r or not o:
        raise DataError("empty subject/relation/object field", path, line_no)
    stamp = tuple(parts[3:])
    t = times.get(stamp)
    if t is None:
        try:
            if fmt == POINT_TSV:
                d = parse_date(parts[3])
                if d is None or not d.is_full:
                    raise ValueError(f"point facts need a full YYYY-MM-DD date, got {parts[3]!r}")
                t = TimeAnnotation.point(d)
            else:
                begin, end = parse_date(parts[3]), parse_date(parts[4])
                if begin is None and end is None:
                    raise DataError("both interval endpoints unknown", path, line_no)
                t = TimeAnnotation(begin, end)
        except ValueError as exc:
            raise DataError(str(exc), path, line_no) from exc
        times[stamp] = t
    return RawFact(s, r, o, t)


def read_facts(path: str | Path, fmt: str) -> list[RawFact]:
    """Read one split file into raw (string-keyed) facts; equal date texts share one annotation."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    path = Path(path)
    if not path.exists():
        raise DataError("file not found", path)
    times: dict[tuple[str, ...], TimeAnnotation] = {}
    return [_parse_line(line, fmt, path, line_no, times)
            for line_no, line in enumerate(read_lines(path), 1) if line.strip()]


def to_quadruples(facts: Iterable[RawFact], vocab: Vocab) -> list[Quadruple]:
    return [
        Quadruple(vocab.ent2id[f.subject], vocab.rel2id[f.relation], vocab.ent2id[f.object], f.time)
        for f in facts
    ]


def parse_dataset(paths: Sequence[str | Path], fmt: str) -> tuple[Vocab, list[list[Quadruple]]]:
    """Parse one or more split files sharing a single vocabulary.

    The vocabulary is built over the union of all given splits so that every
    entity/relation seen anywhere gets an id, then each split is mapped
    against it. Returns the vocab and per-split quadruple lists in input
    order.
    """
    raw_splits = [read_facts(p, fmt) for p in paths]
    vocab = Vocab.from_facts(f for split in raw_splits for f in split)
    return vocab, [to_quadruples(split, vocab) for split in raw_splits]


def columns(facts: Iterable[Quadruple]) -> tuple[np.ndarray, list[TimeAnnotation]]:
    """The facts as one annotation table: ``(rows, times)``.

    ``rows`` is an (N, 4) int64 array of ``(subject, relation, object, t)``,
    where ``t`` indexes ``times``, the distinct annotation objects in
    first-seen order. The only code that keys on ``id()``.
    """
    facts = list(facts)  # holds every annotation, so no id() is reused
    seen: dict[int, int] = {}  # annotation id -> index of the first fact that has it
    first = np.fromiter(map(seen.setdefault, map(id, map(attrgetter("time"), facts)), count()),
                        np.int64, len(facts))
    starts, t = np.unique(first, return_inverse=True)  # t numbers them in first-seen order
    rows = [np.fromiter(map(attrgetter(name), facts), np.int64, len(facts))
            for name in ("subject", "relation", "object")]
    return np.stack(rows + [t], axis=1), [facts[i].time for i in starts]


def year_mention_counts(facts: Iterable[Quadruple]) -> dict[int, int]:
    """Count how often each year appears as a known endpoint.

    A fact adds one mention per distinct endpoint year, so a point fact (or
    an interval within one year) counts once there.
    """
    rows, times = columns(facts)
    counts: dict[int, int] = {}
    for t, n in zip(times, np.bincount(rows[:, 3]).tolist()):
        for y in {d.year for d in (t.begin, t.end) if d is not None}:
            counts[y] = counts.get(y, 0) + n
    return counts


@dataclass(frozen=True)
class TimeBinning:
    """Surjection from calendar timestamps to time-step indices [0, n_tau).

    ``fixed`` mode chops the dataset's day span into units of ``param`` days
    from ``origin``; ``threshold`` mode clubs consecutive years into bins of
    at least ``param`` fact mentions (``bin_starts``/``bin_ends`` hold the
    year ranges). The mapping is monotone in calendar order either way.
    """

    mode: str  # "fixed" | "threshold"
    param: int
    n_tau: int
    origin: PartialDate | None = None
    span_days: int | None = None
    bin_starts: tuple[int, ...] = ()
    bin_ends: tuple[int, ...] = ()

    def index_of(self, d: PartialDate) -> int:
        if self.mode == "fixed":
            if not d.is_full:
                raise ValueError(f"fixed-unit binning needs full dates, got {d}")
            offset = (d.to_pydate() - self.origin.to_pydate()).days
            if offset < 0:
                raise ValueError(f"date {d} precedes binning origin {self.origin}")
            if offset >= self.span_days:
                raise ValueError(f"date {d} beyond binning span")
            return offset // self.param
        if d.year < self.bin_starts[0] or d.year > self.bin_ends[-1]:
            raise ValueError(f"year {d.year} outside binned span "
                             f"[{self.bin_starts[0]}, {self.bin_ends[-1]}]")
        return bisect_right(self.bin_starts, d.year) - 1

    def to_manifest(self) -> str:
        lines = [f"mode = {self.mode}", f"param = {self.param}", f"n_tau = {self.n_tau}"]
        if self.mode == "fixed":
            lines += [f"origin = {self.origin}", f"span_days = {self.span_days}"]
        else:
            ranges = ",".join(f"{a}:{b}" for a, b in zip(self.bin_starts, self.bin_ends))
            lines.append(f"bins = {ranges}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_manifest(cls, text: str) -> "TimeBinning":
        kv: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
        try:
            mode, param, n_tau = kv["mode"], int(kv["param"]), int(kv["n_tau"])
            if mode not in ("fixed", "threshold"):
                raise ValueError(f"unknown mode {mode!r}")
            if param < 1:
                raise ValueError(f"param must be at least 1, got {param}")
            if mode == "fixed":
                origin = parse_date(kv["origin"])
                if origin is None or not origin.is_full:
                    raise ValueError(f"origin must be a full date, got {kv['origin']!r}")
                span_days = int(kv["span_days"])
                if span_days < 1:
                    raise ValueError(f"span_days must be at least 1, got {span_days}")
                if n_tau != -(-span_days // param):
                    raise ValueError(f"n_tau = {n_tau}, but {span_days} days in units of "
                                     f"{param} make {-(-span_days // param)} steps")
                return cls("fixed", param, n_tau, origin=origin, span_days=span_days)
            pairs = [tuple(int(x) for x in chunk.split(":")) for chunk in kv["bins"].split(",")]
            starts, ends = zip(*pairs)
            if n_tau != len(pairs):
                raise ValueError(f"n_tau = {n_tau} but {len(pairs)} bins")
            if any(a > b for a, b in pairs) or any(b >= c for b, c in zip(ends, starts[1:])):
                raise ValueError("bins must ascend, each start <= end < next start")
            return cls("threshold", param, n_tau, bin_starts=starts, bin_ends=ends)
        except (KeyError, ValueError) as exc:
            raise DataError(f"bad binning manifest: {exc}") from exc


def bin_fixed(dates: Sequence[PartialDate], unit_days: int,
              origin: PartialDate | None = None) -> TimeBinning:
    """Build a fixed-unit binning over the full day span of ``dates``.

    index(d) = floor(days since origin / unit); the number of steps covers
    the whole span, so the latest date lands in the last bin.
    """
    if unit_days < 1:
        raise ValueError("time unit must be at least 1 day")
    if not dates:
        raise ValueError("no dates to bin")
    for d in dates:
        if not d.is_full:
            raise ValueError(f"fixed-unit binning needs full dates, got {d}")
    ordinals = sorted(d.to_pydate() for d in dates)
    first, last = ordinals[0], ordinals[-1]
    if origin is None:
        origin = PartialDate(first.year, first.month, first.day)
    elif first < origin.to_pydate():
        raise ValueError(f"date {first} precedes origin {origin}")
    span_days = (last - origin.to_pydate()).days + 1
    n_tau = -(-span_days // unit_days)  # ceil
    return TimeBinning("fixed", unit_days, n_tau, origin=origin, span_days=span_days)


def bin_threshold(year_counts: dict[int, int], threshold: int) -> TimeBinning:
    """Club consecutive years into bins of at least ``threshold`` mentions.

    Sweeps distinct years in ascending order, closing a bin as soon as its
    accumulated count reaches the threshold; a trailing underfull remainder
    is merged backward into the last closed bin.
    """
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    if not year_counts:
        raise ValueError("empty year count map")
    years = sorted(year_counts)
    starts: list[int] = []
    ends: list[int] = []
    acc = 0
    bin_start = years[0]
    for y in years:
        acc += year_counts[y]
        if acc >= threshold:
            starts.append(bin_start)
            ends.append(y)
            acc = 0
            bin_start = y + 1
    if acc > 0:  # leftover years below threshold
        if ends:
            ends[-1] = years[-1]
        else:
            starts.append(bin_start)
            ends.append(years[-1])
    return TimeBinning("threshold", threshold, len(starts),
                       bin_starts=tuple(starts), bin_ends=tuple(ends))


def build_binning(facts: Iterable[Quadruple], unit_days: int | None,
                  threshold: int | None) -> TimeBinning:
    """Build the binning named by exactly one granularity parameter."""
    if (unit_days is None) == (threshold is None):
        raise ValueError("specify exactly one of unit_days / threshold")
    if unit_days is not None:
        ends = (d for t in columns(facts)[1] for d in (t.begin, t.end) if d is not None)
        # distinct dates in first-seen order, so a partial date is named as before
        return bin_fixed(list(dict.fromkeys(ends)), unit_days)
    return bin_threshold(year_mention_counts(facts), threshold)


def time_key(t: TimeAnnotation, binning: TimeBinning) -> tuple[int | None, int | None]:
    """Annotation normalized to time-step indices; points become (tau, tau).

    The one place a fact's annotation is binned.
    """
    tb = binning.index_of(t.begin) if t.begin is not None else None
    te = binning.index_of(t.end) if t.end is not None else None
    return (tb, te)


def endpoint_terms(quad: Quadruple, binning: TimeBinning, dual: bool,
                   n_relations: int) -> list[tuple[int, int]]:
    """Decompose a fact's annotation into scored (slot, tau) endpoint terms.

    Intervals yield a begin term and an end term; half-open annotations yield
    only the known endpoint; points yield both slots at the same step when
    dual, else a single term. A fact's score is the mean over its terms.
    """
    tau_b, tau_e = time_key(quad.time, binning)
    begin_slot = quad.relation
    end_slot = quad.relation + n_relations if dual else quad.relation
    if tau_e is None:
        return [(begin_slot, tau_b)]
    if tau_b is None:
        return [(end_slot, tau_e)]
    if quad.time.is_point and not dual:
        return [(begin_slot, tau_b)]
    return [(begin_slot, tau_b), (end_slot, tau_e)]


def expand_for_training(facts: Iterable[Quadruple], binning: TimeBinning,
                        dual: bool, n_relations: int) -> np.ndarray:
    """Per-endpoint training quadruples as an (N, 4) int64 array.

    Rows are ``(subject, slot, object, tau)``, fact by fact and each fact's
    terms in ``endpoint_terms`` order. The terms of each distinct annotation
    are worked out once, at relation 0, where each slot is the offset that a
    fact's relation is added to.
    """
    rows, times = columns(facts)
    terms = [endpoint_terms(Quadruple(0, 0, 0, t), binning, dual, n_relations) for t in times]
    # each fact twice, with its annotation's first and its last term; a lone term's copy goes
    pair = np.array([(ts[0], ts[-1]) for ts in terms], np.int64).reshape(-1, 2, 2)[rows[:, 3]]
    out = np.repeat(rows[:, None], 2, axis=1)
    out[..., 1] += pair[..., 0]
    out[..., 3] = pair[..., 1]
    n_terms = np.array([len(ts) for ts in terms], np.int64)[rows[:, 3]]
    return out[np.arange(2) < n_terms[:, None]]


@dataclass
class Dataset:
    """A fully ingested dataset: vocab, id-mapped splits, binning, slot mode."""

    vocab: Vocab
    train: list[Quadruple]
    valid: list[Quadruple]
    test: list[Quadruple]
    binning: TimeBinning
    dual: bool

    @property
    def all_facts(self) -> list[Quadruple]:
        return self.train + self.valid + self.test


def load_dataset(train_path: str | Path, valid_path: str | Path, test_path: str | Path,
                 fmt: str, unit_days: int | None = None, threshold: int | None = None,
                 dual: bool | None = None) -> Dataset:
    """Parse all three splits, build the shared vocab and time binning.

    ``dual`` defaults to True for interval data (per-endpoint relation slots)
    and False for point data.
    """
    vocab, (train, valid, test) = parse_dataset([train_path, valid_path, test_path], fmt)
    if not train:
        raise DataError("training split is empty", train_path)
    if dual is None:
        dual = fmt == INTERVAL_TSV
    try:
        binning = build_binning(train + valid + test, unit_days, threshold)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return Dataset(vocab, train, valid, test, binning, dual)
