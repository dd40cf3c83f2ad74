"""Golden outputs of ``tero eval --dump-ranks`` and ``tero predict``.

Small seeded models are trained a few epochs with ``tero train`` on point
data (p=1, p=2 and dual) and on interval data (dual, p=1 and p=2). Their
metrics, rank dumps and top-5 predictions must equal, byte for byte, the
files in ``tests/golden/``, which were made by scoring every candidate in
float64. To make them again from a tree known to be right:

    PYTHONPATH=<that tree>/src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from oracles import format_fact, random_kg
from tero.cli import main
from tero.data import POINT_TSV

GOLDEN = Path(__file__).parent / "golden"
TRAIN = ["--dim", "16", "--max-epochs", "3", "--batch-size", "128", "--neg-ratio", "4",
         "--margin", "6", "--seed", "1", "--valid-every", "100"]
CASES = {
    "point-p1": ("point", ["--norm", "1", "--time-unit", "1"]),
    "point-p2": ("point", ["--norm", "2", "--time-unit", "1"]),
    "point-dual": ("point", ["--norm", "1", "--time-unit", "1", "--dual", "on"]),
    "interval-p1": ("interval", ["--norm", "1", "--time-threshold", "40"]),
    "interval-p2": ("interval", ["--norm", "2", "--time-threshold", "40"]),
}


def write_splits(kind: str, out: Path) -> dict[str, str]:
    """Seeded point facts (``random_kg``) or interval facts with masked and unknown ends."""
    if kind == "point":
        ds = random_kg(seed=21, n_entities=80, n_relations=4, n_steps=12, n_facts=900)
        splits = {name: [format_fact(q, ds.vocab, POINT_TSV) for q in getattr(ds, name)]
                  for name in ("train", "valid", "test")}
    else:
        rng = np.random.default_rng(22)
        lines = []
        for i in range(900):
            begin = int(rng.integers(1990, 2010))
            end = begin + int(rng.integers(0, 6))
            dates = [f"{begin}-##-##", f"{end}-{int(rng.integers(1, 13)):02d}-##"]
            if i % 7 == 3:
                dates[1] = "####-##-##"
            elif i % 7 == 5:
                dates[0] = "####-##-##"
            lines.append(f"e{int(rng.integers(80)):03d}\tr{int(rng.integers(4))}\t"
                         f"e{int(rng.integers(80)):03d}\t" + "\t".join(dates))
        lines = sorted(set(lines), key=lines.index)
        splits = {"train": lines[:700], "valid": lines[700:800], "test": lines[800:]}
    paths = {}
    for name, rows in splits.items():
        paths[name] = str(out / f"{name}.txt")
        Path(paths[name]).write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    return paths


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def golden_output(case: str, tmp: Path) -> str:
    """Eval metrics, the rank dump and six top-5 predictions of one trained case."""
    kind, extra = CASES[case]
    paths = write_splits(kind, tmp)
    fmt = ["--format", "point-tsv" if kind == "point" else "interval-tsv"]
    data = ["--train", paths["train"], "--valid", paths["valid"], "--test", paths["test"], *fmt]
    run(["train", *data, *TRAIN, *extra, "--out-dir", str(tmp / "model")])
    ckpt = str(tmp / "model" / "model.tero")
    dump = tmp / "ranks.tsv"
    text = run(["eval", *data, "--checkpoint", ckpt, "--out-dir", str(tmp / "eval"),
                "--dump-ranks", str(dump)])
    text += dump.read_text(encoding="utf-8")
    for i, line in enumerate(Path(paths["test"]).read_text(encoding="utf-8").splitlines()[:6]):
        s, r, o, *dates = line.split("\t")
        side = ("subject", "object")[i % 2]
        anchor = ["--subject", s] if side == "object" else ["--object", o]
        argv = ["predict", "--checkpoint", ckpt, "--side", side, *anchor, "--relation", r,
                "--time", dates[0] if kind == "point" else "..".join(
                    "" if d.startswith("#") else d for d in dates), "--top-n", "5"]
        text += f"# {' '.join(argv[3:])}\n" + run(argv)
    return text


@pytest.mark.parametrize("case", sorted(CASES))
def test_eval_and_predict_match_golden_bytes(case, tmp_path):
    assert golden_output(case, tmp_path) == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.txt").write_text(golden_output(name, Path(tmp)), encoding="utf-8")
