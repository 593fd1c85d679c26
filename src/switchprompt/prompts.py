"""Input-gated composition of soft prompts and keyword prompts.

The full composition mixes a zero-padded stack of per-layer soft prompt
vectors with a domain prompt built from the keyword vectors:

    P = g1 * pad(soft) + (1 - g1) * P_d
    P_d = g2 * [soft; keywords] + (1 - g2) * [keywords; soft]

Both gates are sigmoids of a trained weight vector dotted with the CLS
representation of the input sentence, so the prompt handed to the encoder
depends on the input even though the keyword vectors themselves are fixed.
For a batch of B representations ``(B, e)`` the gates have shape
``(B, 1, 1)`` and broadcast the composition to one ``(B, l, e)`` prompt
per layer.
The restricted variants remove pieces of this formula (no second gate, fixed
concatenation order, keywords alone, soft prompts alone).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import autograd as ag
from .autograd import Tensor

INIT_STD = 0.02


class Variant(str, Enum):
    SWITCHPROMPT = "switchprompt"
    MIX_NO_CONCAT = "mix-no-concat"
    CONCAT_VK = "concat-vk"
    CONCAT_KV = "concat-kv"
    KEYWORDS_ONLY = "keywords-only"
    SOFT_ONLY = "soft-only"

    @classmethod
    def parse(cls, name: "str | Variant") -> "Variant":
        if isinstance(name, Variant):
            return name
        try:
            return cls(name)
        except ValueError:
            valid = " | ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {name!r}; expected one of: {valid}") from None


# table order used by ablation sweeps
VARIANT_ORDER = (
    Variant.SWITCHPROMPT,
    Variant.MIX_NO_CONCAT,
    Variant.CONCAT_VK,
    Variant.CONCAT_KV,
    Variant.KEYWORDS_ONLY,
    Variant.SOFT_ONLY,
)

_USES_SOFT = {v for v in Variant if v is not Variant.KEYWORDS_ONLY}
_USES_KEYWORDS = {v for v in Variant if v is not Variant.SOFT_ONLY}
_USES_GATE1 = {Variant.SWITCHPROMPT, Variant.MIX_NO_CONCAT, Variant.CONCAT_VK, Variant.CONCAT_KV}
_USES_GATE2 = {Variant.SWITCHPROMPT, Variant.MIX_NO_CONCAT}


class PromptState:
    """Trainable prompt parameters for one variant.

    ``soft_prompts`` holds one (m, e) matrix per encoder layer; the keyword
    matrix (n, e) is shared across layers and stays fixed unless
    ``train_keywords`` was requested. Gate weight vectors exist only for the
    variants that use them.
    """

    def __init__(
        self,
        variant: Variant,
        soft_prompts: list[Tensor] | None,
        keyword_vectors: Tensor | None,
        gate1_weights: Tensor | None,
        gate2_weights: Tensor | None,
    ):
        self.variant = variant
        self.soft_prompts = soft_prompts
        self.keyword_vectors = keyword_vectors
        self.gate1_weights = gate1_weights
        self.gate2_weights = gate2_weights

    @property
    def soft_len(self) -> int:
        return self.soft_prompts[0].shape[0] if self.soft_prompts else 0

    @property
    def num_keywords(self) -> int:
        return self.keyword_vectors.shape[0] if self.keyword_vectors is not None else 0

    @property
    def prompt_len(self) -> int:
        """Number of prompt slots the encoder sees for this variant."""
        m, n = self.soft_len, self.num_keywords
        if self.variant is Variant.KEYWORDS_ONLY:
            return n
        if self.variant is Variant.SOFT_ONLY:
            return m
        if self.variant is Variant.MIX_NO_CONCAT:
            return max(m, n)
        return m + n

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        if self.soft_prompts is not None:
            params.extend(self.soft_prompts)
        if self.keyword_vectors is not None:
            params.append(self.keyword_vectors)
        if self.gate1_weights is not None:
            params.append(self.gate1_weights)
        if self.gate2_weights is not None:
            params.append(self.gate2_weights)
        return [p for p in params if p.requires_grad]

    def named_arrays(self) -> dict[str, np.ndarray]:
        named: dict[str, np.ndarray] = {}
        if self.soft_prompts is not None:
            for i, p in enumerate(self.soft_prompts):
                named[f"prompt.layer{i}.soft"] = p.data
        if self.keyword_vectors is not None:
            named["prompt.keywords"] = self.keyword_vectors.data
        if self.gate1_weights is not None:
            named["prompt.gate1"] = self.gate1_weights.data
        if self.gate2_weights is not None:
            named["prompt.gate2"] = self.gate2_weights.data
        return named


def init_prompt_state(
    variant: "str | Variant",
    num_layers: int,
    embed_dim: int,
    soft_len: int,
    keyword_vectors: np.ndarray | Tensor | None,
    rng: np.random.Generator,
    train_keywords: bool = False,
) -> PromptState:
    """Fresh prompt parameters (normal, std 0.02) for the given variant."""
    variant = Variant.parse(variant)

    soft = None
    if variant in _USES_SOFT:
        if soft_len < 1:
            raise ValueError(f"variant {variant.value} needs soft_len >= 1, got {soft_len}")
        soft = [
            Tensor(rng.normal(0.0, INIT_STD, size=(soft_len, embed_dim)), requires_grad=True)
            for _ in range(num_layers)
        ]

    kw = None
    if variant in _USES_KEYWORDS:
        if keyword_vectors is None:
            raise ValueError(f"variant {variant.value} needs keyword vectors")
        data = keyword_vectors.data if isinstance(keyword_vectors, Tensor) else keyword_vectors
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != embed_dim:
            raise ValueError(f"keyword vectors shape {data.shape} incompatible with embed_dim {embed_dim}")
        kw = Tensor(data.copy(), requires_grad=train_keywords)

    if variant is Variant.MIX_NO_CONCAT and soft_len != kw.shape[0]:
        raise ValueError(
            f"variant mix-no-concat needs soft_len == num_keywords, got {soft_len} != {kw.shape[0]}"
        )

    g1 = g2 = None
    if variant in _USES_GATE1:
        g1 = Tensor(rng.normal(0.0, INIT_STD, size=(embed_dim,)), requires_grad=True)
    if variant in _USES_GATE2:
        g2 = Tensor(rng.normal(0.0, INIT_STD, size=(embed_dim,)), requires_grad=True)
    return PromptState(variant, soft, kw, g1, g2)


def pad_prompt(prompt: Tensor, length: int) -> Tensor:
    """Zero-pad (m, e) to (length, e); gradient flows only to the copied rows."""
    m, e = prompt.shape
    if length < m:
        raise ValueError(f"cannot pad {m} rows down to {length}")
    if length == m:
        return prompt
    return ag.concat([prompt, Tensor(np.zeros((length - m, e)))], axis=0)


def gate(weights: Tensor, sentence_repr: Tensor) -> Tensor:
    """sigmoid(weights . s) in (0, 1): a scalar for an (e,) input, (B, 1, 1) for (B, e)."""
    if (
        len(weights.shape) != 1
        or len(sentence_repr.shape) not in (1, 2)
        or sentence_repr.shape[-1] != weights.shape[0]
    ):
        raise ValueError(f"gate dimension mismatch: weights {weights.shape} vs input {sentence_repr.shape}")
    logit = ag.sum_axis(ag.mul(sentence_repr, weights), -1)
    if len(sentence_repr.shape) == 2:
        logit = ag.reshape(logit, (-1, 1, 1))
    return ag.sigmoid(logit)


def compose_domain_prompt(soft: Tensor, keywords: Tensor, gate2: Tensor) -> Tensor:
    """Convex mix of the two concatenation orders, row by row."""
    if soft.shape[1] != keywords.shape[1]:
        raise ValueError(f"embed dims differ: soft {soft.shape} vs keywords {keywords.shape}")
    soft_first = ag.concat([soft, keywords], axis=0)
    keywords_first = ag.concat([keywords, soft], axis=0)
    return _convex_mix(gate2, soft_first, keywords_first)


def _convex_mix(g: Tensor, a: Tensor, b: Tensor) -> Tensor:
    one_minus = ag.add(ag.scale(g, -1.0), Tensor(1.0))
    return ag.add(ag.mul(g, a), ag.mul(one_minus, b))


def compute_gates(state: PromptState, sentence_repr: Tensor) -> tuple[Tensor | None, Tensor | None]:
    """The (g1, g2) pair for an input or a batch; shared by every layer's composition."""
    g1 = gate(state.gate1_weights, sentence_repr) if state.gate1_weights is not None else None
    g2 = gate(state.gate2_weights, sentence_repr) if state.gate2_weights is not None else None
    return g1, g2


def compose_with_gates(
    state: PromptState, g1: Tensor | None, g2: Tensor | None, layer: int
) -> Tensor:
    """Compose one layer's prompt from precomputed gate values.

    Scalar gates give an (l, e) prompt and (B, 1, 1) gates a (B, l, e) one;
    the gate-free variants return their shared (l, e) parameters.
    """
    variant = state.variant
    if variant is Variant.KEYWORDS_ONLY:
        return state.keyword_vectors
    soft = state.soft_prompts[layer]
    if variant is Variant.SOFT_ONLY:
        return soft
    kw = state.keyword_vectors
    if variant is Variant.SWITCHPROMPT:
        domain = compose_domain_prompt(soft, kw, g2)
    elif variant is Variant.MIX_NO_CONCAT:
        domain = _convex_mix(g2, soft, kw)
    elif variant is Variant.CONCAT_VK:
        domain = ag.concat([soft, kw], axis=0)
    else:  # CONCAT_KV
        domain = ag.concat([kw, soft], axis=0)
    padded = pad_prompt(soft, domain.shape[-2])
    return _convex_mix(g1, padded, domain)


def compose_prompt(state: PromptState, sentence_repr: Tensor, layer: int = 0) -> Tensor:
    """Prompt matrix for one layer, gates computed from the input sentence."""
    g1, g2 = compute_gates(state, sentence_repr)
    return compose_with_gates(state, g1, g2, layer)


def per_layer_prompts(state: PromptState, sentence_repr: Tensor, num_layers: int) -> list[Tensor]:
    """One composed prompt per layer; gate values are computed once and shared.

    `sentence_repr` is one (e,) representation or a (B, e) batch of them.
    """
    if state.soft_prompts is not None and len(state.soft_prompts) != num_layers:
        raise ValueError(
            f"prompt state has {len(state.soft_prompts)} per-layer soft prompts, "
            f"encoder has {num_layers} layers"
        )
    g1, g2 = compute_gates(state, sentence_repr)
    return [compose_with_gates(state, g1, g2, layer) for layer in range(num_layers)]
