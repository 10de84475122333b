"""Toy byte-level transformer and training loop for convergence comparisons."""

from .checkpoint import load_checkpoint, save_checkpoint
from .compare import RunComparison, compare_runs, format_table, read_metrics
from .model import ByteLM, ModelConfig
from .train import AdamState, TrainConfig, load_corpus, resume, train

__all__ = [
    "AdamState",
    "ByteLM",
    "ModelConfig",
    "RunComparison",
    "TrainConfig",
    "compare_runs",
    "format_table",
    "load_checkpoint",
    "load_corpus",
    "read_metrics",
    "resume",
    "save_checkpoint",
    "train",
]
