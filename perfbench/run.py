#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload icews14-eval --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run wraps the program's
functions and reports the per-layer metrics instead. Each run also writes
a record (environment, graph shape, phase times, metrics and, when traced,
every span) to ``.perfbench_runs/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
}
# The workload-specific names of the generic metrics: (name, unit, value).
NAMED = {
    "icews14-train": [("train_quads_per_s", "quads/s", lambda m: m["work_per_s"])],
    "icews14-eval": [("eval_queries_per_s", "queries/s", lambda m: m["work_per_s"])],
    "yago11k-train-valid": [("epoch_s", "s", lambda m: 1.0 / m["work_per_s"])],
    "icews14-predict": [("predict_ms_p50", "ms", lambda m: m["unit_ms_p50"]),
                        ("predict_ms_p90", "ms", lambda m: m["unit_ms_p90"])],
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read from files; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text().strip()
    except OSError:
        thp = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "thp": thp,
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def graph_shape(ds) -> dict:
    """Shape of the graph as the program loaded it."""
    facts = ds.all_facts
    per_step: dict[int, int] = {}
    for q in facts:
        first = q.time.begin if q.time.begin is not None else q.time.end
        tau = ds.binning.index_of(first)
        per_step[tau] = per_step.get(tau, 0) + 1
    counts = list(per_step.values())
    return {
        "entities": ds.vocab.n_entities,
        "relations": ds.vocab.n_relations,
        "n_tau": ds.binning.n_tau,
        "facts": {"train": len(ds.train), "valid": len(ds.valid), "test": len(ds.test)},
        "facts_per_step": {"mean": len(facts) / ds.binning.n_tau,
                           "min": min(counts), "max": max(counts)},
        "half_open_share": sum(q.time.begin is None or q.time.end is None
                               for q in facts) / len(facts),
    }


def measure(wl, items, seconds: float, min_units: int, set_up_due):
    """Run work items until ``seconds`` have passed and ``min_units`` are done.

    Between two items, ``set_up_due(elapsed)`` runs the set-ups owed by
    then; their time does not count toward ``seconds``.
    """
    units, samples, busy, paused = 0, [], 0.0, 0.0
    t0 = time.perf_counter()
    for item in items:
        n, per_unit_ms, dt = wl.do(item)
        units += n
        samples += per_unit_ms
        busy += dt
        elapsed = time.perf_counter() - t0 - paused
        if elapsed >= seconds and len(samples) >= min_units:
            break
        t = time.perf_counter()
        set_up_due(elapsed)
        paused += time.perf_counter() - t
    return units, samples, busy


def measure_traced(wl, tracer, targets, seconds: float, set_up_due):
    """Run each work item untraced and traced, alternating which goes first.

    Returns the untraced pass's units, samples and busy time, and the
    tracing overhead as traced over untraced busy time, minus one.
    """
    import layers

    units, samples, busy, traced_busy, paused = 0, [], 0.0, 0.0, 0.0
    t0 = time.perf_counter()
    for k, item in enumerate(wl.items()):
        for traced in (k % 2 == 1, k % 2 == 0):
            if not traced:
                wl.check_calls = True
                n, per_unit_ms, dt = wl.do(item)
                units, samples, busy = units + n, samples + per_unit_ms, busy + dt
                continue
            wl.check_calls = False  # the untraced call checks the same work
            tracer.install(targets)
            try:
                with tracer.span(layers.MEASURE):
                    traced_busy += wl.do(item)[2]
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - t0 - paused
        if elapsed >= seconds and len(samples) >= wl.min_units // 2:
            break
        t = time.perf_counter()
        set_up_due(elapsed)
        paused += time.perf_counter() - t
    return units, samples, busy, traced_busy / busy - 1.0


def run(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    import numpy as np

    import graphs
    import layers
    import workloads
    from tracing import Tracer

    phases: dict[str, float] = {}
    tracer = Tracer() if traced else None
    targets = layers.targets() if traced else []

    @contextlib.contextmanager
    def phase(label):
        if not tracer:
            yield
            return
        tracer.install(targets)
        try:
            with tracer.span(f"bench.{label}"):
                yield
        finally:
            tracer.uninstall()

    t = time.perf_counter()
    with phase("generate"):
        wl = workloads.WORKLOADS[name](seed, workdir)
    phases["generate_s"] = time.perf_counter() - t
    setups: list[float] = []

    def set_up():
        # each set-up starts as the first did, with nothing of the last alive
        with phase("setup"):
            wl.release()
            gc.collect()
            setups.append(wl.setup_once(first=not setups))

    set_up()
    reps = max(workloads.SETUP_REPS, math.ceil(workloads.SETUP_SECONDS / setups[0]))

    def set_up_due(elapsed: float) -> None:
        # the set-ups are spread evenly over the measured seconds, so that
        # their median spans the host's speed swings as the work does
        while len(setups) < reps and elapsed >= len(setups) * seconds / reps:
            set_up()

    t = time.perf_counter()
    with phase("warm_up"):
        wl.warm_up()
    phases["warm_up_s"] = time.perf_counter() - t

    if tracer:
        units, samples, busy, overhead = measure_traced(wl, tracer, targets, seconds,
                                                        set_up_due)
    else:
        units, samples, busy = measure(wl, wl.items(), seconds, wl.min_units, set_up_due)
    while len(setups) < reps:
        set_up()
    phases["setup_s"] = setups
    phases["measure_s"] = busy
    t = time.perf_counter()
    wl.check()
    phases["check_s"] = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        spans = tracer.finish()
        metrics = layers.per_layer(spans, tracer.absent, overhead)
        units_of = layers.PER_LAYER
        if wl.min_coverage:
            cov = metrics["trace.coverage_frac"]
            wl.record(cov >= wl.min_coverage,
                      f"spans cover {cov:.3f} of the measured calls, below {wl.min_coverage}")
    else:
        spans = []
        values = {
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": units / busy,
            "unit_ms_p50": float(np.percentile(samples, 50)),
            "unit_ms_p90": float(np.percentile(samples, 90)),
        }
        metrics = {k: values[k] for k in END_TO_END}
        units_of = END_TO_END
    return {
        "workload": name,
        "unit": wl.unit,
        "unit_samples": len(samples),
        "work_units": units,
        "env": environment(seed),
        "shape": graph_shape(wl.ds),
        "generator_assumptions": graphs.assumptions(wl.graph_name),
        "phases": phases,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
        "absent_spans": sorted(tracer.absent) if tracer else [],
        "spans": [list(s) for s in spans],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(NAMED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tero" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src / 'tero'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    rec_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(rec), encoding="utf-8")

    print("env " + json.dumps(rec["env"]))
    print("shape " + json.dumps(rec["shape"]))
    print("assumed " + json.dumps(rec["generator_assumptions"]))
    print("phases " + json.dumps(rec["phases"]))
    if not args.trace:
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        for name, unit, value in NAMED[args.workload]:
            print(f"{name} {value(values):.6g} {unit}")
    for k, v in rec["metrics"].items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    print(f"{rec['unit']} samples {rec['unit_samples']}, work units {rec['work_units']}, "
          f"record {rec_path.relative_to(ROOT)}")
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
