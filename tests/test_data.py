from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import expand_oracle, format_fact, is_begin_only, is_end_only, read_facts_oracle
from tero.data import (DataError, PartialDate, Quadruple, TimeAnnotation, TimeBinning,
                       Vocab, INTERVAL_TSV, POINT_TSV, bin_fixed, bin_threshold,
                       build_binning, columns, expand_for_training, load_dataset,
                       parse_dataset, parse_date, read_facts, year_mention_counts)


def write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return p


full_dates = st.dates(min_value=date(1800, 1, 1), max_value=date(2200, 12, 31)).map(
    lambda d: PartialDate(d.year, d.month, d.day))


class TestParseDate:
    def test_full(self):
        assert parse_date("2014-01-02") == PartialDate(2014, 1, 2)

    def test_year_only_masks(self):
        assert parse_date("2003-##-##") == PartialDate(2003)
        assert parse_date("2003") == PartialDate(2003)

    def test_negative_year(self):
        assert parse_date("-453-##-##") == PartialDate(-453)

    def test_unknown(self):
        assert parse_date("####-##-##") is None

    @pytest.mark.parametrize("bad", ["abc", "2014-13-01", "2014-00-07", "2014-01-32", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_date(bad)


class TestParsePoint:
    def test_basic_line(self, tmp_path):
        p = write(tmp_path, "train.txt", ["A\tvisits\tB\t2014-01-02"])
        vocab, (quads,) = parse_dataset([p], POINT_TSV)
        assert quads == [Quadruple(vocab.ent2id["A"], vocab.rel2id["visits"],
                                   vocab.ent2id["B"],
                                   TimeAnnotation.point(PartialDate(2014, 1, 2)))]
        assert quads[0].time.is_point

    def test_bad_field_count_reports_line(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t2014-01-02", "A\tr\tB"])
        with pytest.raises(DataError, match="t.txt:2"):
            read_facts(p, POINT_TSV)

    def test_partial_date_rejected(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t2014-##-##"])
        with pytest.raises(DataError, match="full YYYY-MM-DD"):
            read_facts(p, POINT_TSV)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_facts(tmp_path / "nope.txt", POINT_TSV)

    def test_message_prefix_separates_path(self):
        assert str(DataError("file not found", "x")) == "x: file not found"
        assert str(DataError("bad line", "x", 3)) == "x:3: bad line"
        assert str(DataError("no path")) == "no path"


class TestParseInterval:
    def test_begin_only(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\twasBornIn\tB\t2003-##-##\t####-##-##"])
        (fact,) = read_facts(p, INTERVAL_TSV)
        assert is_begin_only(fact.time)
        assert fact.time.begin == PartialDate(2003)

    def test_end_only(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t####-##-##\t2005-##-##"])
        (fact,) = read_facts(p, INTERVAL_TSV)
        assert is_end_only(fact.time)
        assert fact.time.end == PartialDate(2005)

    def test_interval(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tworksAt\tB\t2003-##-##\t2005-##-##"])
        (fact,) = read_facts(p, INTERVAL_TSV)
        assert fact.time.is_interval
        assert (fact.time.begin, fact.time.end) == (PartialDate(2003), PartialDate(2005))

    def test_degenerate_interval_is_point(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t2003-01-01\t2003-01-01"])
        (fact,) = read_facts(p, INTERVAL_TSV)
        assert fact.time.is_point

    def test_both_unknown_rejected(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t####-##-##\t####-##-##"])
        with pytest.raises(DataError, match="both interval endpoints unknown"):
            read_facts(p, INTERVAL_TSV)

    def test_backwards_interval_rejected(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t2005-##-##\t2003-##-##"])
        with pytest.raises(DataError, match="after end"):
            read_facts(p, INTERVAL_TSV)


# date texts drawn from small pools, so that texts repeat across lines
good_dates = {
    POINT_TSV: ["2014-01-02", "2014-01-03", " 2014-01-02", "2014-12-31"],
    INTERVAL_TSV: ["2003-##-##", "2005-##-##", "2003", "-453-##-##", "####-##-##",
                   "2014-01-02"],
}
bad_dates = ["2014-##-##", "####-##-##", "2014-13-01", "2014-01-32", "abc", ""]
good_names = st.sampled_from(["A", "B", " C "])


@st.composite
def split_file(draw):
    """A split file's text: fact lines and blank lines, and at most one bad line.

    The bad line may have a malformed, masked or reversed date, an empty
    name or the wrong number of fields.
    """
    fmt = draw(st.sampled_from([POINT_TSV, INTERVAL_TSV]))
    dates = st.sampled_from(good_dates[fmt])
    n_dates = 1 if fmt == POINT_TSV else 2
    line = st.one_of(st.tuples(good_names, good_names, good_names,
                               *[dates] * n_dates).map("\t".join),
                     st.sampled_from(["", "   "]))
    lines = draw(st.lists(line, max_size=30))
    if draw(st.booleans()):
        bad = st.one_of(
            st.tuples(good_names, good_names, good_names,
                      *[st.sampled_from(good_dates[fmt] + bad_dates)] * n_dates),
            st.tuples(st.sampled_from(["A", "", "  "]), good_names, good_names,
                      *[dates] * n_dates),
            st.lists(good_names, max_size=6))
        lines.insert(draw(st.integers(0, len(lines))), "\t".join(draw(bad)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return fmt, "".join(text + newline for text in lines)


def outcome(read, path, fmt):
    """The facts read, or the error's message, path and line number."""
    try:
        return read(path, fmt)
    except DataError as exc:
        return (str(exc), exc.path, exc.line_no)


class TestReadFactsMemo:
    @given(split_file())
    def test_matches_per_line_oracle(self, case):
        import tempfile
        from pathlib import Path

        fmt, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.txt"
            path.write_bytes(text.encode("utf-8"))
            got = outcome(read_facts, path, fmt)
            assert got == outcome(read_facts_oracle, path, fmt)
        if isinstance(got, list):  # one annotation object per distinct date text
            stamps = {line.split("\t", 3)[3] for line in text.splitlines() if line.strip()}
            assert len({id(f.time) for f in got}) <= len(stamps)

    def test_repeated_date_text_shares_annotation(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t2014-01-02", "B\tr\tC\t2014-01-03",
                                      "C\tr\tA\t2014-01-02"])
        a, b, c = read_facts(p, POINT_TSV)
        assert a.time is c.time and a.time is not b.time

    def test_bad_date_reported_at_its_first_line(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t2014-01-02", "A\tr\tB\t2014-13-01",
                                      "A\tr\tB\t2014-13-01"])
        with pytest.raises(DataError, match="t.txt:2: month out of range"):
            read_facts(p, POINT_TSV)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes(b"A\tr\tB\t2014-01-02\nA\xff\xfe\tr\tB\t2014-01-02\n")
        with pytest.raises(DataError, match="t.txt:2: invalid UTF-8"):
            read_facts(p, POINT_TSV)


class TestVocab:
    def test_round_trip_identity(self, tmp_path):
        p = write(tmp_path, "t.txt", ["B\tr2\tA\t2014-01-02", "A\tr1\tC\t2014-01-03"])
        vocab, _ = parse_dataset([p], POINT_TSV)
        assert vocab.n_entities == 3 and vocab.n_relations == 2
        for name in ("A", "B", "C"):
            assert vocab.id2ent[vocab.ent2id[name]] == name
        assert [vocab.ent2id[e] for e in vocab.id2ent] == list(range(3))

    def test_union_across_splits(self, tmp_path):
        train = write(tmp_path, "train.txt", ["A\tr\tB\t2014-01-02"])
        test = write(tmp_path, "test.txt", ["C\tr\tD\t2014-01-03"])
        vocab, (tr, te) = parse_dataset([train, test], POINT_TSV)
        assert vocab.n_entities == 4
        assert {q.subject for q in te} <= set(range(4))

    def test_save_load(self, tmp_path):
        vocab = Vocab(["A", "B"], ["r"])
        vocab.save(tmp_path)
        loaded = Vocab.load(tmp_path)
        assert loaded.id2ent == vocab.id2ent and loaded.id2rel == vocab.id2rel

    @pytest.mark.parametrize("table, message", [
        ("0\tA\n2\tB\n", "entities.tsv:2: vocab ids are not contiguous"),
        ("0\tA\n\nzero\tB\n", "entities.tsv:3: vocab id 'zero' is not an integer"),
        ("0\tA\n1\tB", None),  # no final newline
        ("0\tA\r\n\r\n 1\tB\r\n", None),  # blank lines skipped; int() takes " 1"
    ])
    def test_load_checks_id_column(self, tmp_path, table, message):
        Vocab(["A", "B"], ["r"]).save(tmp_path)
        (tmp_path / "entities.tsv").write_text(table, encoding="utf-8", newline="")
        if message is None:
            assert Vocab.load(tmp_path).id2ent == ["A", "B"]
        else:
            with pytest.raises(DataError, match=message):
                Vocab.load(tmp_path)


def year_span_dates(year: int) -> list[PartialDate]:
    first, last = date(year, 1, 1), date(year, 12, 31)
    return [PartialDate(first.year, first.month, first.day),
            PartialDate(last.year, last.month, last.day)]


class TestBinFixed:
    def test_one_day_unit_full_year(self):
        binning = bin_fixed(year_span_dates(2014), 1)
        assert binning.n_tau == 365
        assert binning.index_of(PartialDate(2014, 1, 2)) == 1

    def test_two_day_unit_full_year(self):
        binning = bin_fixed(year_span_dates(2014), 2)
        assert binning.n_tau == 183
        assert binning.index_of(PartialDate(2014, 1, 2)) == 0

    def test_origin_maps_to_zero(self):
        for unit in (1, 2, 7, 30, 365):
            binning = bin_fixed(year_span_dates(2014), unit)
            assert binning.index_of(PartialDate(2014, 1, 1)) == 0

    def test_date_before_origin_rejected(self):
        binning = bin_fixed(year_span_dates(2014), 1)
        with pytest.raises(ValueError, match="precedes"):
            binning.index_of(PartialDate(2013, 12, 31))

    def test_partial_date_rejected(self):
        with pytest.raises(ValueError, match="full dates"):
            bin_fixed([PartialDate(2014)], 1)

    @given(st.integers(0, 330), st.integers(1, 30))
    def test_translation_consistency(self, offset, unit):
        binning = bin_fixed(year_span_dates(2014), unit)
        d0 = date(2014, 1, 1) + timedelta(days=offset)
        d1 = d0 + timedelta(days=unit)
        if (d1 - date(2014, 1, 1)).days < binning.span_days:
            i0 = binning.index_of(PartialDate(d0.year, d0.month, d0.day))
            i1 = binning.index_of(PartialDate(d1.year, d1.month, d1.day))
            assert i1 == i0 + 1

    @given(st.lists(full_dates, min_size=2, max_size=40), st.integers(1, 400))
    def test_monotone_and_in_range(self, dates, unit):
        binning = bin_fixed(dates, unit)
        indices = [binning.index_of(d) for d in sorted(dates, key=lambda d: d.sort_key())]
        assert all(0 <= i < binning.n_tau for i in indices)
        assert indices == sorted(indices)
        assert max(indices) == binning.n_tau - 1 or binning.n_tau == 1


class TestBinThreshold:
    def test_single_year(self):
        assert bin_threshold({1999: 5}, 3).n_tau == 1

    def test_every_year_its_own_bin_at_threshold_one(self):
        counts = {y: 1 for y in (-453, -10, 100, 2008)}
        binning = bin_threshold(counts, 1)
        assert binning.n_tau == 4
        assert binning.index_of(PartialDate(-453)) == 0
        assert binning.index_of(PartialDate(2008)) == 3

    def test_sparse_years_club_together(self):
        counts = {-431: 50, -100: 100, 100: 200, 101: 300, 102: 200, 103: 1}
        binning = bin_threshold(counts, 300)
        # -431..100 accumulate to 350 and close; 101 closes alone; trailing
        # underfull years merge backward.
        assert binning.bin_starts == (-431, 101)
        assert binning.bin_ends == (100, 103)
        assert binning.index_of(PartialDate(-200)) == 0
        assert binning.index_of(PartialDate(102)) == 1

    def test_total_below_threshold_gives_one_bin(self):
        assert bin_threshold({2000: 1, 2001: 1}, 10).n_tau == 1

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bin_threshold({}, 1)

    def test_negative_years_sort_before_positive(self):
        binning = bin_threshold({-453: 1, 100: 1}, 1)
        assert binning.index_of(PartialDate(-453)) < binning.index_of(PartialDate(100))

    @given(st.dictionaries(st.integers(-500, 2500), st.integers(1, 50),
                           min_size=1, max_size=60),
           st.integers(1, 120))
    def test_bins_reach_threshold_except_merged_tail(self, counts, thre):
        binning = bin_threshold(counts, thre)
        totals = [sum(c for y, c in counts.items() if a <= y <= b)
                  for a, b in zip(binning.bin_starts, binning.bin_ends)]
        if sum(counts.values()) >= thre:
            assert all(t >= thre for t in totals[:-1])
            assert totals[-1] >= 1
        else:
            assert binning.n_tau == 1
        # monotone, total-coverage mapping
        years = sorted(counts)
        indices = [binning.index_of(PartialDate(y)) for y in years]
        assert indices == sorted(indices)
        assert indices[0] == 0 and indices[-1] == binning.n_tau - 1


class TestExpansion:
    def make_binning(self):
        return bin_threshold({2003: 1, 2004: 1, 2005: 1}, 1)

    def test_interval_becomes_begin_and_end_quads(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation(PartialDate(2003), PartialDate(2005)))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert out[:, [1, 3]].tolist() == [[1, 0], [5, 2]]
        assert out[:, [0, 2]].tolist() == [[0, 2], [0, 2]]

    def test_begin_only_yields_single_quad(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation(PartialDate(2003), None))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert out[:, [1, 3]].tolist() == [[1, 0]]

    def test_end_only_yields_end_slot(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation(None, PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert out[:, [1, 3]].tolist() == [[5, 1]]

    def test_point_dual_yields_both_slots_same_step(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation.point(PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert out[:, [1, 3]].tolist() == [[1, 1], [5, 1]]

    def test_point_single_slot(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation.point(PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=False, n_relations=4)
        assert out[:, [1, 3]].tolist() == [[1, 1]]

    @pytest.mark.parametrize("dual, terms", [(True, [[1, 0], [5, 0]]), (False, [[1, 0], [1, 0]])])
    def test_interval_in_one_bin_keeps_both_terms(self, dual, terms):
        binning = bin_threshold({2003: 1, 2004: 1, 2005: 1}, 3)
        quad = Quadruple(0, 1, 2, TimeAnnotation(PartialDate(2003), PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=dual, n_relations=4)
        assert out[:, [1, 3]].tolist() == terms

    def test_no_facts_give_an_empty_array(self):
        out = expand_for_training([], self.make_binning(), dual=True, n_relations=4)
        assert out.shape == (0, 4) and out.dtype == np.int64


class TestLoadDataset:
    def make_splits(self, tmp_path):
        train = write(tmp_path, "train.txt", [
            "A\tworksAt\tB\t2003-##-##\t2005-##-##",
            "C\twasBornIn\tB\t2003-##-##\t####-##-##",
            "A\tdiedIn\tD\t####-##-##\t2004-##-##",
        ])
        valid = write(tmp_path, "valid.txt", ["C\tworksAt\tD\t2004-##-##\t2004-##-##"])
        test = write(tmp_path, "test.txt", ["D\tworksAt\tA\t2005-##-##\t2005-##-##"])
        return train, valid, test

    def test_ids_and_steps_in_range(self, tmp_path):
        ds = load_dataset(*self.make_splits(tmp_path), INTERVAL_TSV, threshold=1)
        assert ds.dual
        quads = expand_for_training(ds.all_facts, ds.binning, ds.dual, ds.vocab.n_relations)
        for subject, slot, obj, tau in quads:
            assert 0 <= tau < ds.binning.n_tau
            assert 0 <= subject < ds.vocab.n_entities
            assert 0 <= obj < ds.vocab.n_entities
            assert 0 <= slot < 2 * ds.vocab.n_relations

    def test_empty_train_rejected(self, tmp_path):
        train = write(tmp_path, "train.txt", [])
        valid = write(tmp_path, "valid.txt", ["A\tr\tB\t2014-01-02"])
        test = write(tmp_path, "test.txt", ["A\tr\tB\t2014-01-03"])
        with pytest.raises(DataError, match="empty"):
            load_dataset(train, valid, test, POINT_TSV, unit_days=1)

    def test_year_counts_include_both_endpoints(self, tmp_path):
        ds = load_dataset(*self.make_splits(tmp_path), INTERVAL_TSV, threshold=1)
        counts = year_mention_counts(ds.all_facts)
        assert counts == {2003: 2, 2004: 2, 2005: 2}


def _parse_single_line(line: str, fmt: str):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "split.txt"
        p.write_text(line + "\n", encoding="utf-8")
        return parse_dataset([p], fmt)


class TestRoundTrip:
    names = st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                                           whitelist_characters="_."), min_size=1, max_size=12)

    @given(names, names, names, full_dates)
    def test_point_line(self, s, r, o, d):
        line = f"{s}\t{r}\t{o}\t{d}"
        vocab, (quads,) = _parse_single_line(line, POINT_TSV)
        assert format_fact(quads[0], vocab, POINT_TSV) == line

    @given(names, names, names,
           st.integers(-500, 2500), st.one_of(st.none(), st.integers(-500, 2500)))
    def test_interval_line(self, s, r, o, y1, y2):
        if y2 is None:
            begin, end = f"{y1}-##-##", "####-##-##"
        else:
            lo, hi = sorted((y1, y2))
            begin, end = f"{lo}-##-##", f"{hi}-##-##"
        line = f"{s}\t{r}\t{o}\t{begin}\t{end}"
        vocab, (quads,) = _parse_single_line(line, INTERVAL_TSV)
        reserialized = format_fact(quads[0], vocab, INTERVAL_TSV)
        vocab2, (quads2,) = _parse_single_line(reserialized, INTERVAL_TSV)
        assert quads2 == quads and vocab2.id2ent == vocab.id2ent


class TestManifest:
    @given(st.lists(full_dates, min_size=1, max_size=8), st.integers(1, 400))
    @example(year_span_dates(2014), 2)
    def test_fixed_round_trip(self, dates, unit):
        binning = bin_fixed(dates, unit)
        again = TimeBinning.from_manifest(binning.to_manifest())
        assert again == binning

    @given(st.dictionaries(st.integers(-500, 2500), st.integers(1, 50), min_size=1),
           st.integers(1, 100))
    @example({-453: 10, 100: 5, 2008: 7}, 12)
    def test_threshold_round_trip(self, counts, threshold):
        binning = bin_threshold(counts, threshold)
        again = TimeBinning.from_manifest(binning.to_manifest())
        assert again == binning

    def test_bad_manifest_rejected(self):
        with pytest.raises(DataError):
            TimeBinning.from_manifest("mode = fixed\n")

    @pytest.mark.parametrize("text, message", [
        ("mode = threshold\nparam = 5\nn_tau = 2\nbins = 2000:2001,2002:2004,2005:2005\n",
         "n_tau = 2 but 3 bins"),
        ("mode = threshold\nparam = 5\nn_tau = 2\nbins = 2000:2002,2002:2004\n",
         "bins must ascend"),
        ("mode = threshold\nparam = 5\nn_tau = 2\nbins = 2003:2002,2004:2005\n",
         "bins must ascend"),
        ("mode = threshold\nparam = 5\nn_tau = 2\nbins = 2004:2005,2000:2001\n",
         "bins must ascend"),
    ])
    def test_inconsistent_threshold_manifest_rejected(self, text, message):
        with pytest.raises(DataError, match=f"bad binning manifest: {message}"):
            TimeBinning.from_manifest(text)

    @pytest.mark.parametrize("change, message", [
        (("origin = 2014-01-01", "origin = ####-##-##"), "origin must be a full date"),
        (("origin = 2014-01-01", "origin = 2014-##-##"), "origin must be a full date"),
        (("param = 2", "param = 0"), "param must be at least 1"),
        (("mode = fixed", "mode = weekly"), "unknown mode 'weekly'"),
        (("n_tau = 183", "n_tau = 182"), "n_tau = 182, but 365 days in units of 2 make 183 steps"),
        (("span_days = 365", "span_days = 0"), "span_days must be at least 1, got 0"),
    ])
    def test_invalid_values_rejected(self, change, message):
        text = bin_fixed(year_span_dates(2014), 2).to_manifest()
        assert change[0] in text
        with pytest.raises(DataError, match=f"bad binning manifest: {message}"):
            TimeBinning.from_manifest(text.replace(*change))


annotations = st.lists(
    st.one_of(full_dates.map(TimeAnnotation.point),
              st.tuples(st.integers(-500, 2500), st.integers(0, 40)).map(
                  lambda t: TimeAnnotation(PartialDate(t[0]), PartialDate(t[0] + t[1]))),
              st.integers(-500, 2500).map(lambda y: TimeAnnotation(PartialDate(y), None)),
              st.integers(-500, 2500).map(lambda y: TimeAnnotation(None, PartialDate(y)))),
    min_size=1, max_size=8)


def fresh(times, picks):
    """Facts built one at a time, each with its own copy of ``times[i]``.

    Nothing else holds a fact once it is consumed, so CPython may hand the
    freed annotation's address, and with it its ``id()``, to the next copy.
    """
    for i in picks:
        yield Quadruple(0, 0, 1, TimeAnnotation(times[i].begin, times[i].end))


class TestColumns:
    def test_rows_index_annotations_in_first_seen_order(self):
        year = TimeAnnotation(PartialDate(2003), None)
        point = TimeAnnotation.point(PartialDate(2014, 1, 2))
        copy = TimeAnnotation.point(PartialDate(2014, 1, 2))  # equal to point, another object
        facts = [Quadruple(3, 1, 4, year), Quadruple(0, 2, 5, point), Quadruple(6, 0, 7, year),
                 Quadruple(1, 1, 1, copy)]
        rows, times = columns(iter(facts))
        assert rows.dtype == np.int64
        assert rows.tolist() == [[3, 1, 4, 0], [0, 2, 5, 1], [6, 0, 7, 0], [1, 1, 1, 2]]
        assert len(times) == 3
        assert times[0] is year and times[1] is point and times[2] is copy

    def test_fresh_annotations_stay_apart(self):
        days = [TimeAnnotation.point(PartialDate(2014, 1, 1 + i % 3)) for i in range(50)]
        rows, times = columns(fresh(days, range(50)))
        assert rows[:, 3].tolist() == list(range(50))
        assert times == days

    def test_empty(self):
        rows, times = columns([])
        assert rows.shape == (0, 4) and rows.dtype == np.int64 and times == []


class TestBinningOverSharedAnnotations:
    """Facts that share annotation objects bin as facts with their own copies do."""

    @staticmethod
    def facts(times, picks, shared):
        return [Quadruple(0, 0, 1, times[i] if shared else
                          TimeAnnotation(times[i].begin, times[i].end)) for i in picks]

    @given(annotations, st.lists(st.integers(0, 7), min_size=1, max_size=60),
           st.integers(1, 20))
    def test_threshold_bins_unchanged(self, times, picks, threshold):
        picks = [i % len(times) for i in picks]
        shared, own = self.facts(times, picks, True), self.facts(times, picks, False)
        per_fact: dict[int, int] = {}
        for q in own:
            for y in {d.year for d in (q.time.begin, q.time.end) if d is not None}:
                per_fact[y] = per_fact.get(y, 0) + 1
        assert year_mention_counts(shared) == per_fact
        assert year_mention_counts(iter(shared)) == per_fact
        assert year_mention_counts(fresh(times, picks)) == per_fact
        assert build_binning(shared, None, threshold) == bin_threshold(per_fact, threshold)
        assert build_binning(fresh(times, picks), None, threshold) == \
            bin_threshold(per_fact, threshold)

    @given(st.lists(full_dates.map(TimeAnnotation.point), min_size=1, max_size=8),
           st.lists(st.integers(0, 7), min_size=1, max_size=60), st.integers(1, 30))
    def test_fixed_bins_unchanged(self, times, picks, unit):
        picks = [i % len(times) for i in picks]
        every_date = [times[i].begin for i in picks]
        for facts in (self.facts(times, picks, True), self.facts(times, picks, False),
                      fresh(times, picks)):
            assert build_binning(facts, unit, None) == bin_fixed(every_date, unit)


class TestExpansionOverSharedAnnotations:
    """Binning each distinct annotation once expands facts as one by one does."""

    @given(annotations, st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3),
                                           st.integers(0, 3), st.integers(0, 3), st.booleans()),
                                 max_size=60),
           st.integers(1, 20), st.booleans())
    def test_matches_per_fact_oracle(self, times, rows, threshold, dual):
        # a fact shares times[i] or carries its own equal copy; a threshold above
        # the mention count puts every interval in one bin
        facts = [Quadruple(s, r, o, times[i % len(times)] if shared else
                           TimeAnnotation(times[i % len(times)].begin, times[i % len(times)].end))
                 for i, s, r, o, shared in rows]
        binning = build_binning([Quadruple(0, 0, 0, t) for t in times], None, threshold)
        out = expand_for_training(facts, binning, dual, 4)
        assert out.dtype == np.int64
        assert np.array_equal(out, expand_oracle(facts, binning, dual, 4))
        # the same facts built one at a time, each freed once consumed
        lone = (Quadruple(q.subject, q.relation, q.object,
                          TimeAnnotation(q.time.begin, q.time.end)) for q in facts)
        assert np.array_equal(expand_for_training(lone, binning, dual, 4), out)


class TestBuildBinning:
    def test_requires_exactly_one_parameter(self):
        facts = [Quadruple(0, 0, 1, TimeAnnotation.point(PartialDate(2014, 1, 1)))]
        with pytest.raises(ValueError):
            build_binning(facts, 1, 300)
        with pytest.raises(ValueError):
            build_binning(facts, None, None)
