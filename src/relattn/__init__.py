"""Bag-level relation extraction with two-level structured self-attention.

Sentences are encoded by a BiLSTM over word and relative-position
embeddings; a matrix-valued word-level self-attention summarizes each
sentence from several angles, and a matrix-valued sentence-level attention
weighs the sentences of a bag against each other before classification.
Everything runs on the package's own numpy-backed reverse-mode autodiff,
validated end to end by finite differences.
"""

from .autodiff import (Node, Parameter, ShapeError, Tape, backward, cross_entropy,
                       finite_diff_check, frobenius_penalty, matmul, relu_map,
                       row_softmax, tanh_map)
from .config import ConfigError, ModelConfig, PROFILES
from .data import (Bag, DataError, Dataset, Instance, SynthSpec, Vocab,
                   generate_synthetic, load_dataset, make_batches)
from .evaluation import (EvalError, PnSetting, PredictionRecord, export_attention,
                         gold_facts, macro_f1, p_at_n, pr_curve, score_test_set)
from .model import BagForward, Model
from .training import (Checkpoint, CheckpointError, TrainingDiverged, TrainResult,
                       adam_step, checkpoint_from, load_checkpoint, model_from_checkpoint,
                       save_checkpoint, total_loss, train)

__version__ = "0.1.0"

__all__ = [
    "Node", "Parameter", "Tape", "ShapeError", "backward", "cross_entropy",
    "finite_diff_check", "frobenius_penalty", "matmul", "relu_map", "row_softmax",
    "tanh_map", "ConfigError", "ModelConfig", "PROFILES", "Bag", "DataError",
    "Dataset", "Instance", "SynthSpec", "Vocab", "generate_synthetic", "load_dataset",
    "make_batches", "EvalError", "PnSetting", "PredictionRecord",
    "export_attention", "gold_facts", "macro_f1", "p_at_n", "pr_curve", "score_test_set",
    "BagForward", "Model", "Checkpoint", "CheckpointError", "TrainingDiverged",
    "TrainResult", "adam_step", "checkpoint_from", "load_checkpoint",
    "model_from_checkpoint", "save_checkpoint", "total_loss", "train", "__version__",
]
