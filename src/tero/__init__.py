"""Temporal knowledge graph embeddings via per-time-step rotation in complex space."""

from .data import (Dataset, DataError, PartialDate, Quadruple, TimeAnnotation,
                   TimeBinning, TrainQuad, Vocab, bin_fixed, bin_threshold,
                   expand_for_training, load_dataset, parse_dataset)
from .evaluation import EvalReport, FilterSet, evaluate
from .model import (ModelParams, init_params, load_checkpoint, param_count,
                    rotate, save_checkpoint, score_fact, score_point)
from .training import NumericalError, TrainConfig, grad_step, loss, train

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DataError", "PartialDate", "Quadruple", "TimeAnnotation",
    "TimeBinning", "TrainQuad", "Vocab", "bin_fixed", "bin_threshold",
    "expand_for_training", "load_dataset", "parse_dataset",
    "EvalReport", "FilterSet", "evaluate",
    "ModelParams", "init_params", "load_checkpoint", "param_count", "rotate",
    "save_checkpoint", "score_fact", "score_point",
    "NumericalError", "TrainConfig", "grad_step", "loss", "train",
    "__version__",
]
