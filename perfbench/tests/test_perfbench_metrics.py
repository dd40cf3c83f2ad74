"""Every metric the benchmark prints is declared in BENCHMARK.json."""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_end_to_end_names_and_units():
    assert run.END_TO_END == _declared("end_to_end")
    assert "setup_s" in run.END_TO_END


def test_per_layer_names_and_units():
    assert layers.PER_LAYER == _declared("per_layer")
    # an empty trace still reports every metric
    assert list(layers.per_layer([], set(), 0.0)) == list(layers.PER_LAYER)


def test_workloads_match():
    # every declared workload runs; yago11k-train-valid runs but is not declared
    declared = {w["name"] for w in BENCH["workloads"]}
    assert declared | {"yago11k-train-valid"} == set(run.NAMED)


def test_names_and_units_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCH[kind]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for kind in ("end_to_end", "per_layer")
               for m in BENCH[kind])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
