"""Command line front end: preprocess, train, eval, predict.

Configuration precedence is flag > config file > profile > built-in default.
Config files are plain ``key = value`` lines with ``#`` comments; keys match
the long flag names with dashes or underscores. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import (DataError, PartialDate, Quadruple, TimeAnnotation, TimeBinning,
                   Vocab, INTERVAL_TSV, POINT_TSV, load_dataset, parse_date)
from .evaluation import FilterSet, candidate_scores, evaluate
from .model import load_checkpoint, save_checkpoint
from .training import NumericalError, TrainConfig, train

DEFAULTS: dict = {
    "train": None, "valid": None, "test": None,
    "format": POINT_TSV,
    "dim": 500, "margin": 110.0, "lr": 0.1, "neg_ratio": 10, "batch_size": 512,
    "time_unit": 1, "time_threshold": None,
    "norm": 1, "dual": "auto", "seed": 0,
    "max_epochs": 5000, "valid_every": 100, "patience": 5,
    "checkpoint": None, "out_dir": "runs", "threads": 1,
    "tie": "mean", "dump_ranks": None,
    "side": "object", "top_n": 10,
    "subject": None, "relation": None, "object": None, "time": None,
}

# Per-dataset presets: only parameters that differ from the defaults above.
PROFILES: dict[str, dict] = {
    "icews14": {"format": POINT_TSV, "lr": 0.1, "margin": 110.0, "time_unit": 1},
    "icews05-15": {"format": POINT_TSV, "lr": 0.1, "margin": 120.0, "time_unit": 2},
    "yago11k": {"format": INTERVAL_TSV, "lr": 0.1, "margin": 50.0, "time_threshold": 100},
    "wikidata12k": {"format": INTERVAL_TSV, "lr": 0.3, "margin": 20.0, "time_threshold": 300},
}

_INT_KEYS = {"dim", "neg_ratio", "batch_size", "time_unit", "time_threshold", "norm",
             "seed", "max_epochs", "valid_every", "patience", "threads", "top_n"}
_FLOAT_KEYS = {"margin", "lr"}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    train: str | None
    valid: str | None
    test: str | None
    format: str
    dim: int
    margin: float
    lr: float
    neg_ratio: int
    batch_size: int
    time_unit: int | None
    time_threshold: int | None
    norm: int
    dual: str
    seed: int
    max_epochs: int
    valid_every: int
    patience: int
    checkpoint: str | None
    out_dir: str
    threads: int
    tie: str
    dump_ranks: str | None
    side: str
    top_n: int
    subject: str | None
    relation: str | None
    object: str | None
    time: str | None

    def dual_flag(self) -> bool:
        if self.dual == "auto":
            return self.format == INTERVAL_TSV
        return self.dual == "on"

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                k=self.dim, batch_size=self.batch_size, neg_ratio=self.neg_ratio,
                margin=self.margin, lr=self.lr, max_epochs=self.max_epochs,
                valid_every=self.valid_every, patience=self.patience, norm_p=self.norm,
                seed=self.seed, dual=self.dual_flag(),
                time_unit=self.time_unit, time_threshold=self.time_threshold,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment, 'none' means null."""
    values: dict = {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    for line_no, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{line_no}: unknown option {key!r}")
        values[key] = _coerce(key, value)
    return values


def _coerce(key: str, value: str):
    if value.lower() in ("none", "null", ""):
        return None
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


def _merge_layer(cfg: dict, layer: dict) -> None:
    # The granularity parameters are mutually exclusive: setting one at a
    # given precedence level clears the other unless that level sets both.
    if "time_unit" in layer and "time_threshold" not in layer and layer["time_unit"] is not None:
        cfg["time_threshold"] = None
    if "time_threshold" in layer and "time_unit" not in layer and layer["time_threshold"] is not None:
        cfg["time_unit"] = None
    cfg.update(layer)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = dict(DEFAULTS)
    profile = getattr(args, "profile", None)
    if profile is not None:
        _merge_layer(cfg, PROFILES[profile])
    config_path = getattr(args, "config", None)
    if config_path is not None:
        _merge_layer(cfg, parse_config_file(config_path))
    cli_layer = {key: value for key, value in vars(args).items()
                 if key in DEFAULTS and value is not None}
    _merge_layer(cfg, cli_layer)
    if cfg["time_unit"] is None and cfg["time_threshold"] is None:
        raise UsageError("one of --time-unit / --time-threshold is required")
    known = {f.name for f in fields(RunConfig)}
    return RunConfig(**{key: value for key, value in cfg.items() if key in known})


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dataset_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("dataset")
    g.add_argument("--train", metavar="FILE", help="training split TSV")
    g.add_argument("--valid", metavar="FILE", help="validation split TSV")
    g.add_argument("--test", metavar="FILE", help="test split TSV")
    g.add_argument("--format", choices=[POINT_TSV, INTERVAL_TSV],
                   help=f"input layout (default: {DEFAULTS['format']})")
    g.add_argument("--time-unit", type=int, metavar="DAYS",
                   help=f"fixed time-step length in days (default: {DEFAULTS['time_unit']})")
    g.add_argument("--time-threshold", type=int, metavar="N",
                   help="min fact mentions per clubbed year bin (default: none)")
    g.add_argument("--dual", choices=["auto", "on", "off"],
                   help="dual begin/end relation embeddings (default: auto)")


def _training_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training")
    g.add_argument("--dim", type=int, help=f"embedding dimension (default: {DEFAULTS['dim']})")
    g.add_argument("--margin", type=float, help=f"loss margin (default: {DEFAULTS['margin']})")
    g.add_argument("--lr", type=float, help=f"Adagrad learning rate (default: {DEFAULTS['lr']})")
    g.add_argument("--neg-ratio", type=int,
                   help=f"negatives per positive (default: {DEFAULTS['neg_ratio']})")
    g.add_argument("--batch-size", type=int,
                   help=f"minibatch size (default: {DEFAULTS['batch_size']})")
    g.add_argument("--norm", type=int, choices=[1, 2],
                   help=f"score p-norm (default: {DEFAULTS['norm']})")
    g.add_argument("--seed", type=int, help=f"RNG seed (default: {DEFAULTS['seed']})")
    g.add_argument("--max-epochs", type=int,
                   help=f"epoch cap (default: {DEFAULTS['max_epochs']})")
    g.add_argument("--valid-every", type=int,
                   help=f"epochs between validations (default: {DEFAULTS['valid_every']})")
    g.add_argument("--patience", type=int,
                   help=f"non-improving validations before stopping (default: {DEFAULTS['patience']})")


def _common_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("run")
    g.add_argument("--checkpoint", metavar="FILE",
                   help="checkpoint path (default: <out-dir>/model.tero)")
    g.add_argument("--out-dir", metavar="DIR",
                   help=f"artifact directory (default: {DEFAULTS['out_dir']})")
    g.add_argument("--threads", type=int,
                   help=f"evaluation worker threads, each scoring whole time steps; "
                        f"ranks do not depend on it (default: {DEFAULTS['threads']})")
    g.add_argument("--profile", choices=sorted(PROFILES),
                   help="named hyperparameter preset")
    g.add_argument("--config", metavar="FILE", help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tero",
                     description="Temporal KG embeddings with per-time-step rotation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("preprocess", help="build vocab tables and binning manifest")
    _dataset_args(p)
    _common_args(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model and write the best checkpoint")
    _dataset_args(p)
    _training_args(p)
    _common_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="time-wise filtered link prediction metrics")
    _dataset_args(p)
    _common_args(p)
    g = p.add_argument_group("evaluation")
    g.add_argument("--tie", choices=["mean", "optimistic", "pessimistic"],
                   help=f"tie handling for equal scores (default: {DEFAULTS['tie']})")
    g.add_argument("--dump-ranks", metavar="FILE", help="write per-query ranks TSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="rank completions for a partial fact")
    _common_args(p)
    g = p.add_argument_group("query")
    g.add_argument("--subject", metavar="STR", help="subject entity (object-side query)")
    g.add_argument("--relation", metavar="STR", help="relation name")
    g.add_argument("--object", metavar="STR", help="object entity (subject-side query)")
    g.add_argument("--time", metavar="T",
                   help="date, 'B..E' interval, 'B..' begin only or '..E' end only")
    g.add_argument("--side", choices=["subject", "object"],
                   help=f"which side to predict (default: {DEFAULTS['side']})")
    g.add_argument("--top-n", type=int, help=f"completions to print (default: {DEFAULTS['top_n']})")
    p.set_defaults(func=cmd_predict)
    return parser


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise UsageError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _load(cfg: RunConfig):
    _require(cfg, "train", "valid", "test")
    return load_dataset(cfg.train, cfg.valid, cfg.test, cfg.format,
                        unit_days=cfg.time_unit, threshold=cfg.time_threshold,
                        dual=cfg.dual_flag())


def _sidecar_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out_dir)


def _write_sidecar(ds, out_dir: Path) -> None:
    ds.vocab.save(out_dir)
    (out_dir / "binning.txt").write_text(ds.binning.to_manifest(), encoding="utf-8")


def cmd_preprocess(cfg: RunConfig) -> int:
    ds = _load(cfg)
    out = _sidecar_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_sidecar(ds, out)
    print(f"n_entities\t{ds.vocab.n_entities}")
    print(f"n_relations\t{ds.vocab.n_relations}")
    print(f"n_tau\t{ds.binning.n_tau}")
    print(f"train_facts\t{len(ds.train)}")
    print(f"valid_facts\t{len(ds.valid)}")
    print(f"test_facts\t{len(ds.test)}")
    print(f"artifacts\t{out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    ds = _load(cfg)
    out = _sidecar_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_sidecar(ds, out)
    ckpt = Path(cfg.checkpoint) if cfg.checkpoint else out / "model.tero"
    best, history = train(ds.train, ds.valid, cfg.train_config(), ds.binning, ds.vocab,
                          log_path=out / "training_log.tsv", progress=True)
    save_checkpoint(best, ckpt, vocab_ref=str(out))
    if history:
        top = max(history, key=lambda rec: rec.mrr)
        print(f"best_valid_mrr\t{top.mrr:.6f}\tepoch\t{top.epoch}")
    print(f"checkpoint\t{ckpt}")
    return 0


def _load_model(cfg: RunConfig):
    if cfg.checkpoint is None:
        default = Path(cfg.out_dir) / "model.tero"
        if not default.exists():
            raise UsageError("missing required option(s): --checkpoint")
        cfg.checkpoint = str(default)
    if not Path(cfg.checkpoint).exists():
        raise DataError("checkpoint not found", cfg.checkpoint)
    try:
        params, vocab_ref = load_checkpoint(cfg.checkpoint)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sidecar = Path(vocab_ref) if vocab_ref else _sidecar_dir(cfg)
    if not sidecar.is_absolute() and not sidecar.exists():
        alt = Path(cfg.checkpoint).parent / sidecar
        sidecar = alt if alt.exists() else sidecar
    vocab = Vocab.load(sidecar)
    if (vocab.n_entities, vocab.n_relations) != (params.n_entities, params.n_relations):
        raise DataError(f"sidecar vocab has {vocab.n_entities} entities and "
                        f"{vocab.n_relations} relations, the checkpoint "
                        f"{params.n_entities} and {params.n_relations}", sidecar)
    manifest = sidecar / "binning.txt"
    if not manifest.exists():
        raise DataError("binning manifest missing from sidecar", manifest)
    binning = TimeBinning.from_manifest(manifest.read_text(encoding="utf-8"))
    if binning.n_tau != params.n_tau:
        raise DataError(f"checkpoint has {params.n_tau} time steps but manifest "
                        f"describes {binning.n_tau}", manifest)
    return params, vocab, binning


def cmd_eval(cfg: RunConfig) -> int:
    params, vocab, binning = _load_model(cfg)
    ds = _load(cfg)
    if ds.vocab.n_entities != vocab.n_entities or ds.vocab.n_relations != vocab.n_relations:
        raise DataError("dataset vocabulary does not match the checkpoint sidecar")
    filter_set = FilterSet.build(ds.all_facts, binning)
    report = evaluate(params, ds.test, filter_set, binning, tie=cfg.tie, threads=cfg.threads)
    sys.stdout.write(report.to_tsv())
    out = _sidecar_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval.tsv").write_text(report.to_tsv(), encoding="utf-8")
    if cfg.dump_ranks:
        with open(cfg.dump_ranks, "w", encoding="utf-8") as fh:
            for qr in report.ranks:
                q = qr.quad
                t = q.time
                stamp = str(t.begin) if t.is_point else \
                    f"{t.begin or '####-##-##'}..{t.end or '####-##-##'}"
                fh.write(f"{vocab.id2ent[q.subject]}\t{vocab.id2rel[q.relation]}\t"
                         f"{vocab.id2ent[q.object]}\t{stamp}\t{qr.side}\t{qr.rank}\n")
    return 0


def _parse_query_time(text: str) -> TimeAnnotation:
    if ".." in text:
        b_text, e_text = text.split("..", 1)
        begin = parse_date(b_text) if b_text.strip() else None
        end = parse_date(e_text) if e_text.strip() else None
        return TimeAnnotation(begin, end)
    d = parse_date(text)
    if d is None:
        raise ValueError("query time cannot be fully unknown")
    return TimeAnnotation.point(d)


def cmd_predict(cfg: RunConfig) -> int:
    params, vocab, binning = _load_model(cfg)
    _require(cfg, "relation", "time")
    anchor_name = "subject" if cfg.side == "object" else "object"
    _require(cfg, anchor_name)

    def ent_id(token: str) -> int:
        if token not in vocab.ent2id:
            raise DataError(f"unknown entity {token!r}")
        return vocab.ent2id[token]

    if cfg.relation not in vocab.rel2id:
        raise DataError(f"unknown relation {cfg.relation!r}")
    rel = vocab.rel2id[cfg.relation]
    anchor = ent_id(getattr(cfg, anchor_name))
    try:
        annotation = _parse_query_time(cfg.time)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if cfg.side == "object":
        quad = Quadruple(anchor, rel, 0, annotation)
    else:
        quad = Quadruple(0, rel, anchor, annotation)
    try:
        scores = candidate_scores(params, [(quad, cfg.side)], binning)[0]
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    top_n = max(0, min(cfg.top_n, params.n_entities))
    for idx in np.argsort(scores, kind="stable")[:top_n]:
        print(f"{vocab.id2ent[idx]}\t{scores[idx]:.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except UsageError as exc:
        print(f"tero: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"tero: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"tero: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"tero: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
