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

The restricted variants remove pieces of this formula. ``VARIANT_ORDERS``
is the one table of variants: each row gives the concatenation orders of the
soft block V (m rows per layer) and the keyword block K (n rows), and every
other fact about a variant follows from its row:

    variant          orders    gates    prompt_len
    switchprompt     VK, KV    g1, g2   m + n
    mix-no-concat    V, K      g1, g2   m = n
    concat-vk        VK        g1       m + n
    concat-kv        KV        g1       m + n
    keywords-only    K         -        n
    soft-only        V         -        m

A variant has V (and its tensors) if an order contains V, and K likewise. g2
mixes two orders row by row, so they must be equally long; g1 mixes the padded
soft block with that mix, or with the single order, when both parts are used.

Composition has three entry points. ``gate`` turns a (B, e) batch of
representations into (B, 1, 1) gate values, ``compose_with_gates`` builds one
layer's prompt from given gates, and ``per_layer_prompts`` computes both gates
once and composes every layer with it. The runner calls only
``per_layer_prompts``, but the benchmark's tracer patches both names on
``runner``, so the last two stay separate; they merge into one batched
composer once the program has its own trace hook.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .checkpoint import check_shapes

INIT_STD = 0.02


class Variant(str, Enum):
    """Prompt-composition variants, in ablation-table order."""

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

    @property
    def orders(self) -> tuple[str, ...]:
        """Concatenation orders of the soft block V and the keyword block K."""
        return VARIANT_ORDERS[self]

    def uses(self, part: str) -> bool:
        """Whether the prompt contains part "V" (soft) or "K" (keywords)."""
        return part in "".join(self.orders)

    @property
    def uses_gate1(self) -> bool:
        """Both parts, mixed by g1: exactly the variants whose prompt depends on the input."""
        return self.uses("V") and self.uses("K")

    @property
    def uses_gate2(self) -> bool:
        return len(self.orders) == 2

    def prompt_len(self, m: int, n: int) -> int:
        """Prompt slots for m soft vectors and n keywords; two mixed orders must be equally long."""
        lengths = {order.count("V") * m + order.count("K") * n for order in self.orders}
        if len(lengths) > 1:
            raise ValueError(
                f"variant {self.value} mixes {' and '.join(self.orders)} row by row, so they "
                f"must be equally long: got m = {m} soft prompt vectors, n = {n} keywords"
            )
        return lengths.pop()


VARIANT_ORDERS: dict[Variant, tuple[str, ...]] = {
    Variant.SWITCHPROMPT: ("VK", "KV"),
    Variant.MIX_NO_CONCAT: ("V", "K"),
    Variant.CONCAT_VK: ("VK",),
    Variant.CONCAT_KV: ("KV",),
    Variant.KEYWORDS_ONLY: ("K",),
    Variant.SOFT_ONLY: ("V",),
}


def prompt_shapes(
    variant: Variant, num_layers: int, m: int, n: int, e: int
) -> dict[str, tuple[int, ...]]:
    """Every prompt tensor's name and shape, in the order Adam, clipping and checkpoints see them."""
    shapes = {f"prompt.layer{i}.soft": (m, e) for i in range(num_layers)} if variant.uses("V") else {}
    if variant.uses("K"):
        shapes["prompt.keywords"] = (n, e)
    if variant.uses_gate1:
        shapes["prompt.gate1"] = (e,)
    if variant.uses_gate2:
        shapes["prompt.gate2"] = (e,)
    return shapes


class PromptState:
    """Trainable prompt parameters for one variant, by the names of ``prompt_shapes``.

    ``soft_prompts`` holds one (m, e) matrix per encoder layer; the keyword
    matrix (n, e) is shared across layers and fixed: its rows are keyword
    vectors and never take gradient. A tensor exists only for the variants
    whose table row uses it; the others are None.
    """

    def __init__(self, variant: Variant, tensors: dict[str, Tensor]):
        self.variant = variant
        self.tensors = tensors
        self.soft_prompts = [t for name, t in tensors.items() if name.endswith(".soft")] or None
        self.keyword_vectors = tensors.get("prompt.keywords")
        self.gate1_weights = tensors.get("prompt.gate1")
        self.gate2_weights = tensors.get("prompt.gate2")
        m = self.soft_prompts[0].shape[0] if self.soft_prompts else 0
        n = self.keyword_vectors.shape[0] if self.keyword_vectors is not None else 0
        self.prompt_len = variant.prompt_len(m, n)

    def parameters(self) -> list[Tensor]:
        return [t for t in self.tensors.values() if t.requires_grad]

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    @classmethod
    def from_arrays(cls, variant: "str | Variant", arrays: dict[str, np.ndarray], num_layers: int,
                    m: int, n: int, e: int) -> "PromptState":
        """Inverse of ``named_arrays``; names every tensor that `arrays` lacks or holds misshaped."""
        variant = Variant.parse(variant)
        shapes = prompt_shapes(variant, num_layers, m, n, e)
        missing = [name for name in shapes if name not in arrays]
        if missing:
            raise ValueError(f"variant {variant.value} needs prompt tensors {', '.join(missing)}")
        check_shapes(arrays, shapes)
        return cls(variant, {name: Tensor(arrays[name], requires_grad=name != "prompt.keywords")
                             for name in shapes})


def init_prompt_state(variant: "str | Variant", num_layers: int, embed_dim: int, soft_len: int,
                      keyword_vectors: np.ndarray | Tensor | None,
                      rng: np.random.Generator) -> PromptState:
    """Fresh prompt parameters (normal, std 0.02) for the given variant, drawn in table order."""
    variant = Variant.parse(variant)
    if variant.uses("V") and soft_len < 1:
        raise ValueError(f"variant {variant.value} needs soft_len >= 1, got {soft_len}")
    kw = None
    if variant.uses("K"):
        if keyword_vectors is None:
            raise ValueError(f"variant {variant.value} needs keyword vectors")
        kw = np.array(getattr(keyword_vectors, "data", keyword_vectors), dtype=np.float64)
    n = len(kw) if kw is not None else 0
    arrays = {
        name: kw if name == "prompt.keywords" else rng.normal(0.0, INIT_STD, size=shape)
        for name, shape in prompt_shapes(variant, num_layers, soft_len, n, embed_dim).items()
    }
    return PromptState.from_arrays(variant, arrays, num_layers, soft_len, n, embed_dim)


def gate(weights: Tensor, sentence_repr: Tensor) -> Tensor:
    """sigmoid(weights . s) in (0, 1), as (B, 1, 1) for a (B, e) batch of representations."""
    if len(weights.shape) != 1 or len(sentence_repr.shape) != 2 or sentence_repr.shape[1] != weights.shape[0]:
        raise ValueError(f"gate dimension mismatch: weights {weights.shape} vs input {sentence_repr.shape}")
    logit = ag.sum_axis(ag.mul(sentence_repr, weights), -1)
    return ag.sigmoid(ag.reshape(logit, (-1, 1, 1)))


def _convex_mix(g: Tensor, a: Tensor, b: Tensor) -> Tensor:
    one_minus = ag.add(ag.scale(g, -1.0), Tensor(1.0))
    return ag.add(ag.mul(g, a), ag.mul(one_minus, b))


def compose_with_gates(
    state: PromptState, g1: Tensor | None, g2: Tensor | None, layer: int
) -> Tensor:
    """Compose one layer's prompt from precomputed gate values.

    Scalar gates give an (l, e) prompt and (B, 1, 1) gates a (B, l, e) one;
    the gate-free variants return their shared (l, e) parameters. Gates the
    variant does not use are ignored.
    """
    variant = state.variant
    blocks = {"V": state.soft_prompts[layer] if variant.uses("V") else None, "K": state.keyword_vectors}
    # the single order, or the g2 mix of the two
    orders = [
        ag.concat([blocks[part] for part in order], axis=0) if len(order) > 1 else blocks[order]
        for order in variant.orders
    ]
    domain = _convex_mix(g2, *orders) if len(orders) == 2 else orders[0]
    if not variant.uses_gate1:
        return domain
    soft = blocks["V"]
    (m, e), length = soft.shape, domain.shape[-2]
    padded = soft if length == m else ag.concat([soft, Tensor(np.zeros((length - m, e)))], axis=0)
    return _convex_mix(g1, padded, domain)


def per_layer_prompts(state: PromptState, sentence_repr: Tensor, num_layers: int) -> list[Tensor]:
    """One composed prompt per layer for a (B, e) batch; gate values are computed once and shared."""
    if state.soft_prompts is not None and len(state.soft_prompts) != num_layers:
        raise ValueError(
            f"prompt state has {len(state.soft_prompts)} per-layer soft prompts, "
            f"encoder has {num_layers} layers"
        )
    g1 = gate(state.gate1_weights, sentence_repr) if state.gate1_weights is not None else None
    g2 = gate(state.gate2_weights, sentence_repr) if state.gate2_weights is not None else None
    return [compose_with_gates(state, g1, g2, layer) for layer in range(num_layers)]
