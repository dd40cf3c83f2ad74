"""Smoke tests: every script's ``main()`` runs end to end at toy size."""

import ast
import runpy
import sys
from pathlib import Path

import pytest

from oracles import format_fact
from tero.data import POINT_TSV, load_dataset
from tero.synthetic import collapsed_binning, subsample_dataset, temporary_relation_suite
from tero.training import TrainConfig, train_and_test

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, monkeypatch, *args: str) -> None:
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


@pytest.fixture()
def split_args(tmp_path) -> list[str]:
    """``--train/--valid/--test`` flags for the temporary suite as point TSVs."""
    ds = temporary_relation_suite()
    args = []
    for split in ("train", "valid", "test"):
        path = tmp_path / f"{split}.txt"
        path.write_text("".join(format_fact(q, ds.vocab, POINT_TSV) + "\n"
                                for q in getattr(ds, split)), encoding="utf-8")
        args += [f"--{split}", str(path)]
    return args


def test_run_pattern_suites(monkeypatch, capsys):
    run_script("run_pattern_suites.py", monkeypatch, "--dim", "4", "--epochs", "2")
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == \
        ["temporary", "asymmetric", "reflexive", "temporary/time-collapsed"]
    assert all("\tmrr=" in row and row.endswith("\tvalidations=0") for row in rows)


def test_granularity_sweep(split_args, tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.tsv"
    run_script("granularity_sweep.py", monkeypatch, *split_args, "--grans", "1", "collapsed",
               "15", "--subsample", "40", "5", "10", "--dim", "4", "--epochs", "100",
               "--out", str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "granularity\tn_tau\tmrr\thits1\thits3\thits10\tseconds"
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[:2] for row in rows] == [["1", "15"], ["collapsed", "1"], ["15", "1"]]
    # one time step under the data's own filter, whichever way it is asked for
    assert rows[2][2:6] == rows[1][2:6]
    printed = capsys.readouterr()
    assert printed.out.splitlines() == lines[1:]
    assert printed.err.startswith("40/5/10 facts, 20 entities, filtered on 15 time steps\n")
    sub = subsample_dataset(load_dataset(*split_args[1::2], POINT_TSV, unit_days=1),
                            40, 5, 10, seed=0)
    config = TrainConfig(k=4, margin=30.0, lr=0.1, max_epochs=100, valid_every=50,
                         patience=5, seed=0)
    _, _, report = train_and_test(sub, config, collapsed_binning(sub))
    assert rows[1][2:6] == [f"{m:.4f}" for m in
                            (report.mrr, report.hits1, report.hits3, report.hits10)]


def test_granularity_sweep_interval(tmp_path, monkeypatch):
    splits = {"train": ["a\tworksAt\tb\t2001-##-##\t2003-##-##",
                        "b\tlivesIn\tc\t2002-##-##\t####-##-##",
                        "c\tworksAt\ta\t####-##-##\t2003-##-##",
                        "d\tlivesIn\ta\t2004-##-##\t2005-##-##"],
              "valid": ["a\tlivesIn\tc\t2001-##-##\t2002-##-##"],
              "test": ["b\tworksAt\tc\t2002-##-##\t2003-##-##"]}
    args = []
    for split, facts in splits.items():
        path = tmp_path / f"{split}.txt"
        path.write_text("".join(fact + "\n" for fact in facts), encoding="utf-8")
        args += [f"--{split}", str(path)]
    out = tmp_path / "sweep.tsv"
    run_script("granularity_sweep.py", monkeypatch, *args, "--format", "interval-tsv",
               "--grans", "1", "collapsed", "--dim", "4", "--epochs", "2", "--out", str(out))
    rows = [line.split("\t")[:2] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows == [["1", "5"], ["collapsed", "1"]]  # one bin per year, 2001-2005


def test_every_script_has_a_smoke_test():
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    smoked = {node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_script"
              and node.args and isinstance(node.args[0], ast.Constant)}
    assert smoked == {path.name for path in SCRIPTS.glob("*.py")}
