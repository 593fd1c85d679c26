"""Gated composition of soft prompts and domain-keyword prompts for a frozen
transformer encoder, with keyword mining, a few-shot protocol, and a training
runner built on a small reverse-mode autodiff core."""

from .autograd import Tensor, backward, no_grad
from .data import (
    FewShotSplit,
    LabeledDataset,
    generate_synthetic_domains,
    load_dataset,
    sample_fewshot,
)
from .encoder import (
    ClassificationHead,
    EncoderConfig,
    EncoderWeights,
    TransformerEncoder,
)
from .keywords import (
    CorpusStats,
    KeywordSet,
    compute_stats,
    score_word,
    select_keywords,
    vectorize_keywords,
)
from .prompts import (
    PromptState,
    Variant,
    compose_with_gates,
    gate,
    init_prompt_state,
    per_layer_prompts,
)
from .runner import PromptedClassifier, RunConfig, RunResult, ablate, evaluate, train
from .tokenizer import Tokenizer

__version__ = "0.1.0"
