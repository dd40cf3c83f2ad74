"""The generator is deterministic per seed and hits the target shapes;
the brute-force rank agrees with the program's evaluation."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import graphs  # noqa: E402
from tero import data, evaluation, model  # noqa: E402

SMALL = graphs.Shape(60, 6, 400, 40, 40, entity_zipf=0.9, relation_zipf=1.1)


def test_same_seed_same_graph_other_seed_other_graph():
    for gen in (graphs.icews14, graphs.yago11k):
        a, b, c = gen(3), gen(3), gen(4)
        assert a.splits == b.splits
        assert a.splits["train"] != c.splits["train"]


def _entities(g):
    return {f[0] for f in g.all_facts} | {f[2] for f in g.all_facts}


def test_icews14_shape():
    g = graphs.icews14(5)
    shape = graphs.ICEWS14
    assert [len(g.splits[s]) for s in graphs.SPLITS] == \
        [shape.n_train, shape.n_valid, shape.n_test]
    assert len(_entities(g)) == shape.n_entities
    assert len({f[1] for f in g.all_facts}) == shape.n_relations
    days = {f[3] for f in g.all_facts}
    assert len(days) == 365 and all(f[3] == f[4] for f in g.all_facts)
    assert len(set(g.all_facts)) == len(g.all_facts)
    assert all(f[0] != f[2] for f in g.all_facts)
    per_day = len(g.splits["valid"]) / len(days)
    assert 20 < per_day < 30  # ~24 validation facts per step, as in ICEWS14


def test_yago11k_shape(tmp_path):
    g = graphs.yago11k(5)
    shape = graphs.YAGO11K
    paths = g.write(tmp_path)
    ds = data.load_dataset(paths["train"], paths["valid"], paths["test"], g.fmt,
                           threshold=100)
    assert (ds.vocab.n_entities, ds.vocab.n_relations) == (shape.n_entities, shape.n_relations)
    assert [len(ds.train), len(ds.valid), len(ds.test)] == \
        [shape.n_train, shape.n_valid, shape.n_test]
    assert 55 <= ds.binning.n_tau <= 65
    facts = ds.all_facts
    half_open = sum(q.time.begin is None or q.time.end is None for q in facts) / len(facts)
    assert 0.2 < half_open < 0.3
    assert any(q.time.is_interval for q in facts) and any(q.time.is_point for q in facts)
    assert any(d[1] is None for f in g.all_facts for d in f[3:] if d is not None)
    assert any(d[0] < 0 for f in g.all_facts for d in f[3:] if d is not None)


def test_brute_rank_matches_program(tmp_path):
    for gen, kw in ((graphs.icews14, {"unit_days": 1}), (graphs.yago11k, {"threshold": 100})):
        g = gen(2, SMALL)
        paths = g.write(tmp_path / g.name)
        ds = data.load_dataset(paths["train"], paths["valid"], paths["test"], g.fmt, **kw)
        params = model.init_params(ds.vocab.n_entities, ds.vocab.n_relations,
                                   ds.binning.n_tau, 8, ds.dual, seed=1)
        fs = evaluation.FilterSet.build(ds.all_facts, ds.binning)
        report = evaluation.evaluate(params, ds.valid[:10], fs, ds.binning)
        filt = checks.RawFilter(g.all_facts, ds.vocab, ds.binning)
        index = {q: i for i, q in enumerate(ds.valid[:10])}
        for qr in report.ranks:
            raw = g.splits["valid"][index[qr.quad]]
            assert checks.brute_rank(params, filt, raw, qr.side) == qr.rank
