"""Temporal knowledge graph embeddings via per-time-step rotation in complex space."""

from .data import (Dataset, DataError, PartialDate, Quadruple, TimeAnnotation,
                   TimeBinning, Vocab, bin_fixed, bin_threshold,
                   expand_for_training, load_dataset, parse_dataset)
from .evaluation import EvalReport, FilterSet, evaluate
from .model import ModelParams, init_params, load_checkpoint, rotate, save_checkpoint
from .training import NumericalError, TrainConfig, grad_step, train, train_and_test

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DataError", "PartialDate", "Quadruple", "TimeAnnotation",
    "TimeBinning", "Vocab", "bin_fixed", "bin_threshold",
    "expand_for_training", "load_dataset", "parse_dataset",
    "EvalReport", "FilterSet", "evaluate",
    "ModelParams", "init_params", "load_checkpoint", "rotate", "save_checkpoint",
    "NumericalError", "TrainConfig", "grad_step", "train", "train_and_test",
    "__version__",
]
