"""Smoke tests: every script's ``main()`` runs end to end at toy size."""

import runpy
import sys
from pathlib import Path

import pytest

from oracles import format_fact
from tero.data import POINT_TSV
from tero.synthetic import temporary_relation_suite

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


def test_benchmark_subsample(split_args, monkeypatch, capsys):
    run_script("benchmark_subsample.py", monkeypatch, *split_args, "--n-train", "40",
               "--n-valid", "5", "--n-test", "10", "--dim", "4", "--epochs", "2")
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("subsample: 40/5/10 facts")
    assert rows[1].startswith("temporal\tmrr=") and rows[2].startswith("time-blind\tmrr=")
    assert rows[3].startswith("granularity gain: ") and len(rows) == 4


def test_granularity_sweep(split_args, tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.tsv"
    run_script("granularity_sweep.py", monkeypatch, *split_args, "--grans", "1", "7",
               "--dim", "4", "--epochs", "2", "--out", str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "granularity\tn_tau\tmrr\thits1\thits3\thits10\tseconds"
    assert [line.split("\t")[0] for line in lines[1:]] == ["1", "7"]
    assert capsys.readouterr().out.splitlines() == lines[1:]
