"""Desk-scale lab for NLI models that predict labels and generate explanations."""

__version__ = "0.1.0"

from .autodiff import SgdState, Tape, Tensor, backward, sgd_step
from .data import (Batch, ColumnMap, EmbeddingTable, Example, Vocabulary,
                   build_vocab, encode_corpus, encode_example, iterate_batches,
                   load_corpus, load_embeddings, tokenize)
from .evaluation import (AnnotationRecord, EvalReport, bleu, expl_at_k,
                         inter_annotator_bleu, label_accuracy, perplexity,
                         transfer_eval)
from .models import (ExplainThenPredict, ModelConfig, build_model,
                     feature_vector, joint_loss, load_model)
from .quality import (TEMPLATES, ValidationReport, edit_distance,
                      instantiate_templates, is_uninformative,
                      validate_annotation)
from .training import RunRecord, TrainConfig, TrainData, grid_select, train

__all__ = [
    "SgdState", "Tape", "Tensor", "backward", "sgd_step",
    "Batch", "ColumnMap", "EmbeddingTable", "Example", "Vocabulary",
    "build_vocab", "encode_corpus", "encode_example", "iterate_batches",
    "load_corpus", "load_embeddings", "tokenize",
    "AnnotationRecord", "EvalReport", "bleu", "expl_at_k",
    "inter_annotator_bleu", "label_accuracy", "perplexity", "transfer_eval",
    "ExplainThenPredict", "ModelConfig", "build_model", "feature_vector",
    "joint_loss", "load_model",
    "TEMPLATES", "ValidationReport", "edit_distance", "instantiate_templates",
    "is_uninformative", "validate_annotation",
    "RunRecord", "TrainConfig", "TrainData", "grid_select", "train",
]
