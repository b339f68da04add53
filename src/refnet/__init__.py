"""Attention NMT with anchor-coded global context (M-RefNet / B-RefNet)."""

from . import autodiff
from .autodiff import Tensor, no_grad
from .corpus import (Batch, ParallelCorpus, Vocab, build_vocab,
                     filter_by_length, generate_synthetic_task, make_batches)
from .evaluation import bleu, length_buckets, param_report
from .lcc import fit_anchors, lcc_weights, localization_measures, reconstruct
from .model import TranslationModel
from .params import (GradRecord, Optimizer, ParamStore, backward,
                     clip_gradient_norm, finite_diff_grad)
from .seq2seq import (ModelDims, beam_search, decoder_step, encode_batch,
                      nll_loss)
from .training import Checkpoint, TrainConfig, run_pipeline, run_stage

__version__ = "0.1.0"

__all__ = [
    "Batch", "Checkpoint", "GradRecord", "ModelDims",
    "Optimizer", "ParallelCorpus", "ParamStore", "Tensor", "TrainConfig",
    "TranslationModel", "Vocab", "autodiff", "backward", "beam_search",
    "bleu", "build_vocab", "clip_gradient_norm", "decoder_step",
    "encode_batch", "filter_by_length", "finite_diff_grad", "fit_anchors",
    "generate_synthetic_task", "lcc_weights", "length_buckets",
    "localization_measures", "make_batches", "nll_loss", "no_grad",
    "param_report", "reconstruct", "run_pipeline", "run_stage",
]
