from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from tero.data import (DataError, PartialDate, Quadruple, TimeAnnotation, TimeBinning,
                       Vocab, INTERVAL_TSV, POINT_TSV, bin_fixed, bin_threshold,
                       build_binning, expand_for_training, format_fact, load_dataset,
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
        assert fact.time.is_begin_only
        assert fact.time.begin == PartialDate(2003)

    def test_end_only(self, tmp_path):
        p = write(tmp_path, "t.txt", ["A\tr\tB\t####-##-##\t2005-##-##"])
        (fact,) = read_facts(p, INTERVAL_TSV)
        assert fact.time.is_end_only
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
        assert [(q.slot, q.tau) for q in out] == [(1, 0), (5, 2)]
        assert all((q.subject, q.object) == (0, 2) for q in out)

    def test_begin_only_yields_single_quad(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation(PartialDate(2003), None))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert [(q.slot, q.tau) for q in out] == [(1, 0)]

    def test_end_only_yields_end_slot(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation(None, PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert [(q.slot, q.tau) for q in out] == [(5, 1)]

    def test_point_dual_yields_both_slots_same_step(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation.point(PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=True, n_relations=4)
        assert [(q.slot, q.tau) for q in out] == [(1, 1), (5, 1)]

    def test_point_single_slot(self):
        binning = self.make_binning()
        quad = Quadruple(0, 1, 2, TimeAnnotation.point(PartialDate(2004)))
        out = expand_for_training([quad], binning, dual=False, n_relations=4)
        assert [(q.slot, q.tau) for q in out] == [(1, 1)]


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
        for q in quads:
            assert 0 <= q.tau < ds.binning.n_tau
            assert 0 <= q.subject < ds.vocab.n_entities
            assert 0 <= q.object < ds.vocab.n_entities
            assert 0 <= q.slot < 2 * ds.vocab.n_relations

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
    def test_fixed_round_trip(self):
        binning = bin_fixed(year_span_dates(2014), 2)
        again = TimeBinning.from_manifest(binning.to_manifest())
        assert again == binning

    def test_threshold_round_trip(self):
        binning = bin_threshold({-453: 10, 100: 5, 2008: 7}, 12)
        again = TimeBinning.from_manifest(binning.to_manifest())
        assert again == binning

    def test_bad_manifest_rejected(self):
        with pytest.raises(DataError):
            TimeBinning.from_manifest("mode = fixed\n")


class TestBuildBinning:
    def test_requires_exactly_one_parameter(self):
        facts = [Quadruple(0, 0, 1, TimeAnnotation.point(PartialDate(2014, 1, 1)))]
        with pytest.raises(ValueError):
            build_binning(facts, 1, 300)
        with pytest.raises(ValueError):
            build_binning(facts, None, None)
