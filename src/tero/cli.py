"""Command line front end: preprocess, train, eval, predict.

Every option is declared once, as a row of ``OPTIONS``; the argparse flags,
the built-in defaults and the checks on config-file values all come from
that table, whose training rows take their defaults from ``TrainConfig``.
Configuration precedence is flag > config file > profile > built-in
default. Config files are plain ``key = value`` lines with ``#`` comments;
keys match the long flag names with dashes or underscores, and values are
checked against the option's type, choices and lower bound as flags are.
Exit codes: 0 success, 1 usage error (a model too large to allocate among
them), 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .data import (DataError, Quadruple, TimeAnnotation, TimeBinning, Vocab, FORMATS,
                   INTERVAL_TSV, POINT_TSV, load_dataset, parse_dataset, parse_date,
                   read_lines)
from .evaluation import TIE_MODES, FilterSet, candidate_scores, evaluate
from .model import load_checkpoint, save_checkpoint
from .training import NumericalError, TrainConfig, train


class Option(NamedTuple):
    name: str  # config key; the flag is --name with dashes
    type: type
    default: object
    group: str
    help: str
    choices: tuple | None = None
    metavar: str | None = None
    min: int | None = None  # smallest value accepted


OPTIONS: tuple[Option, ...] = (
    Option("train", str, None, "dataset", "training split TSV", metavar="FILE"),
    Option("valid", str, None, "dataset", "validation split TSV", metavar="FILE"),
    Option("test", str, None, "dataset", "test split TSV", metavar="FILE"),
    Option("format", str, POINT_TSV, "dataset", "input layout", FORMATS),
    Option("time_unit", int, TrainConfig.time_unit, "dataset", "fixed time-step length in days",
           metavar="DAYS", min=1),
    Option("time_threshold", int, TrainConfig.time_threshold, "dataset",
           "min fact mentions per clubbed year bin (default: none)", metavar="N", min=1),
    Option("dual", str, "auto", "dataset", "dual begin/end relation embeddings",
           ("auto", "on", "off")),
    Option("dim", int, TrainConfig.k, "training", "embedding dimension", min=1),
    Option("margin", float, TrainConfig.margin, "training", "loss margin"),
    Option("lr", float, TrainConfig.lr, "training", "Adagrad learning rate"),
    Option("neg_ratio", int, TrainConfig.neg_ratio, "training", "negatives per positive", min=1),
    Option("batch_size", int, TrainConfig.batch_size, "training", "minibatch size", min=1),
    Option("norm", int, TrainConfig.norm_p, "training", "score p-norm", (1, 2)),
    Option("seed", int, TrainConfig.seed, "training", "RNG seed", min=0),
    # 0 epochs is allowed: it writes the seeded initialization as a checkpoint
    Option("max_epochs", int, TrainConfig.max_epochs, "training", "epoch cap", min=0),
    Option("valid_every", int, TrainConfig.valid_every, "training", "epochs between validations",
           min=1),
    Option("patience", int, TrainConfig.patience, "training",
           "non-improving validations before stopping", min=1),
    Option("checkpoint", str, None, "run", "checkpoint path (default: <out-dir>/model.tero)",
           metavar="FILE"),
    Option("out_dir", str, "runs", "run", "artifact directory", metavar="DIR"),
    Option("tie", str, "mean", "evaluation", "tie handling for equal scores", TIE_MODES),
    Option("dump_ranks", str, None, "evaluation", "write per-query ranks TSV", metavar="FILE"),
    Option("subject", str, None, "query", "subject entity (object-side query)", metavar="STR"),
    Option("relation", str, None, "query", "relation name", metavar="STR"),
    Option("object", str, None, "query", "object entity (subject-side query)", metavar="STR"),
    Option("time", str, None, "query",
           "date, 'B..E' interval, 'B..' begin only or '..E' end only", metavar="T"),
    Option("side", str, None, "query",
           "which side to predict (default: object if --subject is given, else subject)",
           ("subject", "object")),
    Option("top_n", int, 10, "query", "completions to print", min=1),
)
_OPTION = {opt.name: opt for opt in OPTIONS}
DEFAULTS: dict = {opt.name: opt.default for opt in OPTIONS}

# Per-dataset presets: only parameters that differ from the defaults above.
PROFILES: dict[str, dict] = {
    "icews14": {"format": POINT_TSV, "lr": 0.1, "margin": 110.0, "time_unit": 1},
    "icews05-15": {"format": POINT_TSV, "lr": 0.1, "margin": 120.0, "time_unit": 2},
    "yago11k": {"format": INTERVAL_TSV, "lr": 0.1, "margin": 50.0, "time_threshold": 100},
    "wikidata12k": {"format": INTERVAL_TSV, "lr": 0.3, "margin": 20.0, "time_threshold": 300},
}


class UsageError(Exception):
    pass


class RunConfig(SimpleNamespace):
    """Resolved configuration: one attribute per ``OPTIONS`` row."""

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
    try:
        lines = read_lines(p)
    except DataError as exc:
        raise UsageError(f"bad config file: {exc}") from None
    for line_no, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTION:
            raise UsageError(f"{path}:{line_no}: unknown option {key!r}")
        values[key] = _coerce(_OPTION[key], value, f"{path}:{line_no}")
    return values


def _coerce(opt: Option, value: str, where: str):
    """A config-file value checked like the flag: type, then choices."""
    if value.lower() in ("none", "null", ""):
        # time_unit has a default but may be unset: time_threshold then bins
        if opt.default is not None and opt.name != "time_unit":
            raise UsageError(f"{where}: {opt.name} cannot be none")
        return None
    try:
        out = _flag_type(opt)(value)
    except ValueError:
        raise UsageError(f"{where}: {opt.name}: invalid {opt.type.__name__} value: "
                         f"{value!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{where}: {opt.name}: {exc}") from None
    if opt.choices is not None and out not in opt.choices:
        raise UsageError(f"{where}: {opt.name}: invalid choice: {out!r} (choose from "
                         f"{', '.join(map(repr, opt.choices))})")
    return out


def _flag_type(opt: Option):
    """The option's type, checked against its lower bound if it has one."""
    def bounded(text: str):
        value = opt.type(text)
        if opt.min is not None and value < opt.min:
            raise argparse.ArgumentTypeError(f"must be at least {opt.min}, got {value}")
        return value

    bounded.__name__ = opt.type.__name__  # argparse names it in "invalid int value"
    return bounded


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
    return RunConfig(**cfg)


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise UsageError("missing required option(s): " + ", ".join(f"--{n}" for n in missing))


def _load(cfg: RunConfig):
    _require(cfg, "train", "valid", "test")
    if cfg.time_unit is not None and cfg.time_threshold is not None:
        raise UsageError("--time-unit and --time-threshold exclude each other")
    return load_dataset(cfg.train, cfg.valid, cfg.test, cfg.format,
                        unit_days=cfg.time_unit, threshold=cfg.time_threshold,
                        dual=cfg.dual_flag())


def _write_sidecar(ds, out_dir: Path) -> None:
    ds.vocab.save(out_dir)
    (out_dir / "binning.txt").write_text(ds.binning.to_manifest(), encoding="utf-8")


def cmd_preprocess(cfg: RunConfig) -> int:
    ds = _load(cfg)
    out = Path(cfg.out_dir)
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
    config = cfg.train_config()
    ds = _load(cfg)
    if ds.vocab.n_entities < 2:
        raise DataError("negative sampling needs at least 2 entities, the dataset has "
                        f"{ds.vocab.n_entities}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_sidecar(ds, out)
    ckpt = Path(cfg.checkpoint) if cfg.checkpoint else out / "model.tero"
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    # absolute, so the sidecar is found from any directory
    vocab_ref = str(out.absolute())
    # each new best is saved at once, so a later failure cannot lose it; the
    # final save covers runs that never validate
    best, history = train(ds.train, ds.valid, config, ds.binning, ds.vocab,
                          log_path=out / "training_log.tsv", progress=True,
                          on_best=lambda snapshot, _: save_checkpoint(snapshot, ckpt, vocab_ref))
    save_checkpoint(best, ckpt, vocab_ref)
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
    sidecar = Path(vocab_ref) if vocab_ref else Path(cfg.out_dir)
    if not sidecar.exists():
        # moved, or relative to where an older tero trained: look next to the checkpoint
        sidecar = Path(cfg.checkpoint).parent
    vocab = Vocab.load(sidecar)
    if (vocab.n_entities, vocab.n_relations) != (params.n_entities, params.n_relations):
        raise DataError(f"sidecar vocab has {vocab.n_entities} entities and "
                        f"{vocab.n_relations} relations, the checkpoint "
                        f"{params.n_entities} and {params.n_relations}", sidecar)
    manifest = sidecar / "binning.txt"
    if not manifest.exists():
        raise DataError("binning manifest missing from sidecar", manifest)
    binning = TimeBinning.from_manifest("\n".join(read_lines(manifest)))
    if binning.n_tau != params.n_tau:
        raise DataError(f"checkpoint has {params.n_tau} time steps but manifest "
                        f"describes {binning.n_tau}", manifest)
    return params, vocab, binning


def cmd_eval(cfg: RunConfig) -> int:
    params, vocab, binning = _load_model(cfg)
    _require(cfg, "train", "valid", "test")
    # the checkpoint's binning scores the splits, so none is built from them
    ds_vocab, splits = parse_dataset([cfg.train, cfg.valid, cfg.test], cfg.format)
    if (ds_vocab.id2ent, ds_vocab.id2rel) != (vocab.id2ent, vocab.id2rel):
        raise DataError("dataset vocabulary does not match the checkpoint sidecar")
    try:
        filter_set = FilterSet.build([q for split in splits for q in split], binning)
        report = evaluate(params, splits[2], filter_set, binning, tie=cfg.tie)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    sys.stdout.write(report.to_tsv())
    out = Path(cfg.out_dir)
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
    side = cfg.side or ("object" if cfg.subject is not None else "subject")
    anchor_name = "subject" if side == "object" else "object"
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
    if side == "object":
        quad = Quadruple(anchor, rel, 0, annotation)
    else:
        quad = Quadruple(0, rel, anchor, annotation)
    try:
        screen = candidate_scores(params, [(quad, side)], binning)
        ids, scores = screen.top(0, cfg.top_n)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    for idx, score in zip(ids, scores):
        print(f"{vocab.id2ent[idx]}\t{score:.6f}")
    return 0


# command -> (help, handler, option groups in --help order)
COMMANDS = {
    "preprocess": ("build vocab tables and binning manifest", cmd_preprocess,
                   ("dataset", "run")),
    "train": ("train a model and write the best checkpoint", cmd_train,
              ("dataset", "training", "run")),
    "eval": ("time-wise filtered link prediction metrics", cmd_eval,
             ("dataset", "run", "evaluation")),
    "predict": ("rank completions for a partial fact", cmd_predict, ("run", "query")),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tero",
                     description="Temporal KG embeddings with per-time-step rotation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, handler, groups) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=handler)
        for group in groups:
            g = p.add_argument_group(group)
            for opt in OPTIONS:
                if opt.group != group:
                    continue
                shown = opt.help if opt.default is None else f"{opt.help} (default: {opt.default})"
                g.add_argument("--" + opt.name.replace("_", "-"), type=_flag_type(opt),
                               choices=opt.choices, metavar=opt.metavar, help=shown)
            # --profile and --config pick the layers under the flags; they are
            # not config keys, so they are not rows of OPTIONS
            if group == "run":
                g.add_argument("--profile", choices=sorted(PROFILES),
                               help="named hyperparameter preset")
                g.add_argument("--config", metavar="FILE", help="key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg)
    except (UsageError, MemoryError) as exc:
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
