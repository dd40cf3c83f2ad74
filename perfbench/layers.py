"""Where the traced run wraps the program, and the per-layer metrics.

Each function is wrapped on every name a caller looks it up by: the
evaluation module imports the full-table scorers by name and the CLI
imports ``load_checkpoint``/``candidate_scores`` by name, so patching the
defining module alone would miss those calls.
"""

from __future__ import annotations

import os

import numpy as np
from tero.model import score_quads

from tracing import Span, Target, ancestor_named, descendants_of, self_times

# loss weights below this are flushed to zero by the training step
ZERO_WEIGHT = 1e-30
# the flushed-weight share costs a scoring pass, so only every n-th step pays it
ZERO_WEIGHT_EVERY = 8


def _table_rotation(re, im, phase):
    return int(np.ndim(re) == 2)


def _tau_arg(params, a, b, tau):
    return int(tau)


def _checkpoint_mb(path):
    try:
        return os.path.getsize(path) / 2**20
    except OSError:
        return None


class StepProbe:
    """Info hook on ``loss_and_grads``: touched rows and flushed weights."""

    def __init__(self):
        self.calls = 0

    def __call__(self, params, pos, neg, margin, neg_ratio):
        self.calls += 1
        quads = np.concatenate([pos, neg])
        info = {
            "ent": len(np.unique(quads[:, [0, 2]])) / params.n_entities,
            "rel": len(np.unique(quads[:, 1])) / params.n_slots,
            "phase": len(np.unique(quads[:, 3])) / params.n_tau,
        }
        if self.calls % ZERO_WEIGHT_EVERY == 1:
            f = score_quads(params, quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3])
            b = len(pos)
            # |w| = sigmoid(x) / scale; compare in log space to avoid underflow
            x = np.concatenate([f[:b] - margin, margin - f[b:]])
            scale = np.concatenate([np.full(b, b), np.full(len(neg), b * neg_ratio)])
            log_w = -np.logaddexp(0.0, -x) - np.log(scale)
            info["zero"] = float((log_w < np.log(ZERO_WEIGHT)).mean())
        return info


def targets() -> list[Target]:
    return [
        # data
        Target("tero.data", "load_dataset", "data.load_dataset"),
        Target("tero.cli", "load_dataset", "data.load_dataset"),
        Target("tero.data", "expand_for_training", "data.expand_for_training"),
        Target("tero.training", "expand_for_training", "data.expand_for_training"),
        # model
        Target("tero.model", "init_params", "model.init_params"),
        Target("tero.training", "init_params", "model.init_params"),
        Target("tero.model", "rotate", "model.rotate", _table_rotation),
        Target("tero.model", "score_all_objects", "model.score_all", _tau_arg),
        Target("tero.evaluation", "score_all_objects", "model.score_all", _tau_arg),
        Target("tero.model", "score_all_subjects", "model.score_all", _tau_arg),
        Target("tero.evaluation", "score_all_subjects", "model.score_all", _tau_arg),
        Target("tero.model", "load_checkpoint", "model.load_checkpoint",
               _checkpoint_mb),
        Target("tero.cli", "load_checkpoint", "model.load_checkpoint",
               _checkpoint_mb),
        # training
        Target("tero.training", "train", "training.train"),
        Target("tero.training", "quads_to_array", "training.quads_to_array"),
        Target("tero.training", "_corrupt_batch", "training.corrupt_batch"),
        Target("tero.training", "grad_step", "training.grad_step"),
        Target("tero.training", "loss_and_grads", "training.loss_and_grads", StepProbe()),
        Target("tero.training", "_scatter_rows", "training.scatter_rows"),
        Target("tero.training", "apply_adagrad", "training.apply_adagrad"),
        # evaluation
        Target("tero.evaluation:FilterSet", "build", "evaluation.filterset_build"),
        Target("tero.evaluation", "evaluate", "evaluation.evaluate"),
        Target("tero.evaluation", "rank_query", "evaluation.rank_query"),
        Target("tero.evaluation", "candidate_scores", "evaluation.candidate_scores"),
        Target("tero.cli", "candidate_scores", "evaluation.candidate_scores"),
        Target("tero.evaluation", "rank_from_scores", "evaluation.rank_from_scores"),
        # cli
        Target("tero.cli", "main", "cli.main"),
        Target("tero.cli", "_load_model", "cli.load_model"),
    ]


# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "training.step_ms_p50": "ms",
    "training.step_ms_p90": "ms",
    "training.sample_ms_p50": "ms",
    "training.fwd_bwd_ms_p50": "ms",
    "training.scatter_ms_p50": "ms",
    "training.adagrad_ms_p50": "ms",
    "training.touched_frac.ent": "fraction",
    "training.touched_frac.rel": "fraction",
    "training.touched_frac.phase": "fraction",
    "training.zero_weight_frac": "fraction",
    "evaluation.query_ms_p50": "ms",
    "evaluation.query_ms_p90": "ms",
    "model.rotate_ms_per_query": "ms",
    "model.distance_ms_per_query": "ms",
    "evaluation.filter_ms_per_query": "ms",
    "evaluation.rank_ms_per_query": "ms",
    "model.table_rotations_per_query": "count",
    "evaluation.queries_per_step": "count",
    "evaluation.terms_per_query": "count",
    "evaluation.valid_share": "fraction",
    "data.load_dataset_s": "s",
    "evaluation.filterset_build_s": "s",
    "model.load_checkpoint_ms": "ms",
    "model.checkpoint_mb": "MB",
    "model.init_params_s": "s",
    "data.expand_for_training_s": "s",
    "cli.load_model_ms_p50": "ms",
    "cli.score_ms_p50": "ms",
    "trace.coverage_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.absent_spans": "count",
}

MEASURE = "bench.measure"


def pct(values: list[float], q: float) -> float:
    """Percentile by linear interpolation; 0 for no samples (layer idle)."""
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(spans: list[Span], absent: set[str], overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric from one traced run's spans.

    Training, evaluation and CLI metrics come from spans under the traced
    measurement pass; set-up metrics take the median over every call in
    the run. A layer the workload leaves idle reports 0.
    """
    st = self_times(spans)
    measured = descendants_of(spans, {i for i, s in enumerate(spans) if s.name == MEASURE})

    def dur(i):
        return spans[i].end - spans[i].start

    def idx(name, only_measured=True):
        return [i for i, s in enumerate(spans)
                if s.name == name and (measured[i] or not only_measured)]

    ms = 1e3
    m: dict[str, float] = {}

    # training: one step = sampling + gradient step
    sample = idx("training.corrupt_batch")
    lag = idx("training.loss_and_grads")
    ada = idx("training.apply_adagrad")
    gstep = idx("training.grad_step")
    update = gstep or [a for pair in zip(lag, ada) for a in pair]
    per_step = len(update) // max(len(sample), 1) or 1
    steps = [(dur(s) + sum(dur(u) for u in update[k * per_step:(k + 1) * per_step])) * ms
             for k, s in enumerate(sample)]
    m["training.step_ms_p50"] = pct(steps, 50)
    m["training.step_ms_p90"] = pct(steps, 90)
    m["training.sample_ms_p50"] = pct([dur(i) * ms for i in sample], 50)
    m["training.fwd_bwd_ms_p50"] = pct([st[i] * ms for i in lag], 50)
    scatter: dict[int, float] = {i: 0.0 for i in lag}
    for i in idx("training.scatter_rows"):
        p = ancestor_named(spans, i, "training.loss_and_grads")
        scatter[p] = scatter.get(p, 0.0) + dur(i) * ms
    m["training.scatter_ms_p50"] = pct(list(scatter.values()), 50)
    m["training.adagrad_ms_p50"] = pct([dur(i) * ms for i in ada], 50)
    infos = [spans[i].info for i in lag if isinstance(spans[i].info, dict)]
    for table in ("ent", "rel", "phase"):
        m[f"training.touched_frac.{table}"] = float(np.mean([d[table] for d in infos])) \
            if infos else 0.0
    zero = [d["zero"] for d in infos if "zero" in d]
    m["training.zero_weight_frac"] = float(np.mean(zero)) if zero else 0.0

    # evaluation and model scoring; a query is one candidate_scores call
    queries = idx("evaluation.candidate_scores")
    ranked = idx("evaluation.rank_query")
    nq, nr = max(len(queries), 1), max(len(ranked), 1)
    rot = idx("model.rotate")
    score_all = idx("model.score_all")
    m["evaluation.query_ms_p50"] = pct([dur(i) * ms for i in ranked], 50)
    m["evaluation.query_ms_p90"] = pct([dur(i) * ms for i in ranked], 90)
    m["model.rotate_ms_per_query"] = sum(dur(i) for i in rot) * ms / nq
    m["model.distance_ms_per_query"] = sum(st[i] for i in score_all) * ms / nq
    m["evaluation.filter_ms_per_query"] = sum(st[i] for i in ranked) * ms / nr
    m["evaluation.rank_ms_per_query"] = \
        sum(dur(i) for i in idx("evaluation.rank_from_scores")) * ms / nr
    m["model.table_rotations_per_query"] = sum(spans[i].info or 0 for i in rot) / nq
    m["evaluation.terms_per_query"] = len(score_all) / nq if queries else 0.0
    per_eval: dict[int, list] = {}
    for i in score_all:
        e = ancestor_named(spans, i, "evaluation.evaluate")
        if e >= 0:
            per_eval.setdefault(e, []).append(spans[i].info)
    n_ranked = {e: 0 for e in per_eval}
    for i in ranked:
        e = ancestor_named(spans, i, "evaluation.evaluate")
        if e in n_ranked:
            n_ranked[e] += 1
    m["evaluation.queries_per_step"] = float(np.mean(
        [n_ranked[e] / len(set(taus)) for e, taus in per_eval.items()])) if per_eval else 0.0
    trains = idx("training.train")
    in_train = [i for i in idx("evaluation.evaluate")
                if ancestor_named(spans, i, "training.train") >= 0]
    train_time = sum(dur(i) for i in trains)
    m["evaluation.valid_share"] = sum(dur(i) for i in in_train) / train_time \
        if train_time else 0.0

    # set-up, over the whole run
    m["data.load_dataset_s"] = pct([dur(i) for i in idx("data.load_dataset", False)], 50)
    m["evaluation.filterset_build_s"] = \
        pct([dur(i) for i in idx("evaluation.filterset_build", False)], 50)
    loads = idx("model.load_checkpoint", False)
    m["model.load_checkpoint_ms"] = pct([dur(i) * ms for i in loads], 50)
    m["model.checkpoint_mb"] = pct([spans[i].info for i in loads
                                        if spans[i].info is not None], 50)
    m["model.init_params_s"] = pct([dur(i) for i in idx("model.init_params", False)], 50)
    m["data.expand_for_training_s"] = \
        pct([dur(i) for i in idx("data.expand_for_training", False)], 50)

    # cli
    m["cli.load_model_ms_p50"] = pct([dur(i) * ms for i in idx("cli.load_model")], 50)
    m["cli.score_ms_p50"] = pct([dur(i) * ms for i in queries
                                 if ancestor_named(spans, i, "cli.main") >= 0], 50)

    # trace quality: share of each top-level call that its child spans explain
    tops = [i for i in range(len(spans))
            if measured[i] and spans[i].parent >= 0 and spans[spans[i].parent].name == MEASURE]
    top_time = sum(dur(i) for i in tops)
    m["trace.coverage_frac"] = sum(dur(i) - st[i] for i in tops) / top_time if top_time else 0.0
    m["trace.overhead_frac"] = overhead_frac
    m["trace.absent_spans"] = float(len(absent))
    return {name: m[name] for name in PER_LAYER}
