"""Small transformer encoder with per-layer prompt injection.

The backbone stands in for a pre-trained language model: token and learned
position embeddings, post-norm self-attention blocks, a final layer norm, and
fixed weights: only the masked-token warm-up trains them, so the encoder
caches the plain CLS vector of each id sequence it has seen.
Prompts are injected prefix-style: at every layer, that layer's
prompt matrix is prepended to the key and value sequences after the token
projections, so each token attends over the prompt slots plus the tokens.
Queries come from token positions only, and prompt rows receive no position
embedding.

The encoder runs a padded batch: ``(B, T)`` ids with per-example lengths,
and one prompt per layer, either shared ``(l, e)`` or per-example
``(B, l, e)``. Exact per-layer computation (post-norm, as used by the
reference oracle in the tests), with H heads of width d = e / H:

    q = (h Wq + bq) / sqrt(d)           k_tok = h Wk + bk,  v_tok = h Wv + bv
    k = [prompt; k_tok]                 v = [prompt; v_tok]     (B, l+T, e)
    q, k, v split into heads by reshape: (B, H, T, d) and (B, H, l+T, d)
    probs = softmax_rows(q kᵀ + mask)   (B, H, T, l+T)
    attn = merge_heads(probs v) Wo + bo (B, T, e)
    h = layer_norm(h + dropout(attn))
    f = act(h W1 + b1) W2 + b2
    h = layer_norm(h + dropout(f))

with h0 = dropout(token_emb[ids] + pos_emb[:T]) and a final layer norm after
the last block. The key-padding mask has shape (B, 1, 1, l+T): 0 on the l
prompt slots and the first lengths[b] token slots of example b, -inf on its
padding, so a padded row attends exactly as the unpadded sequence would.
Rows past an example's length carry finite values that no real row reads.
The CLS vector is token row 0 of the final states.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autograd as ag
from .autograd import DropoutRng, ExampleStreams, Tensor
from .checkpoint import check_shapes
from .optim import Adam
from .tokenizer import CLS_ID, MASK_ID

INIT_STD = 0.02


@dataclass
class EncoderConfig:
    vocab_size: int
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 64
    max_seq_len: int = 128
    dropout_rate: float = 0.1
    activation: str = "gelu"  # or "relu"
    # weight scale of the randomly initialized stand-in backbone; large enough
    # that attention varies with the input (a pretrained model would not need this)
    init_std: float = 0.3

    def __post_init__(self):
        if self.num_heads < 1 or self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")


def weight_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every backbone tensor's name and shape, in init and checkpoint order."""
    e, f = config.embed_dim, config.ffn_dim
    layer = {
        "wq": (e, e), "bq": (e,), "wk": (e, e), "bk": (e,), "wv": (e, e), "bv": (e,),
        "wo": (e, e), "bo": (e,), "ln1_gain": (e,), "ln1_bias": (e,),
        "w1": (e, f), "b1": (f,), "w2": (f, e), "b2": (e,), "ln2_gain": (e,), "ln2_bias": (e,),
    }
    shapes = {"token_emb": (config.vocab_size, e), "pos_emb": (config.max_seq_len, e)}
    for i in range(config.num_layers):
        prefix = f"layer{i}."
        for name, shape in layer.items():
            shapes[prefix + name] = shape
    shapes.update({"final_ln.gain": (e,), "final_ln.bias": (e,)})
    return shapes


class EncoderWeights:
    """Named weight tensors; none requires grad outside the masked-token warm-up.

    Names and shapes come from :func:`weight_shapes` (the checkpoint format
    uses them); ``from_arrays`` checks outside arrays against it.
    """

    def __init__(self, config: EncoderConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    @classmethod
    def init(cls, config: EncoderConfig, seed: int = 0) -> "EncoderWeights":
        """Matrices drawn normal(0, init_std) in table order, gains one, biases zero."""
        rng = np.random.default_rng(seed)
        tensors: dict[str, Tensor] = {}
        for name, shape in weight_shapes(config).items():
            if name.endswith("gain"):
                tensors[name] = Tensor(np.ones(shape))
            elif len(shape) == 2:
                tensors[name] = Tensor(rng.normal(0.0, config.init_std, size=shape))
            else:
                tensors[name] = Tensor(np.zeros(shape))
        return cls(config, tensors)

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: dict[str, np.ndarray]) -> "EncoderWeights":
        """Inverse of ``named_arrays``; names outside the table are ignored."""
        shapes = weight_shapes(config)
        check_shapes(arrays, shapes)
        return cls(config, {name: Tensor(arrays[name]) for name in shapes})

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def checksum(self) -> str:
        """sha256 over names and raw buffers, to show the weights did not move."""
        digest = hashlib.sha256()
        for name in sorted(self.tensors):
            digest.update(name.encode())
            digest.update(self.tensors[name].data.tobytes())
        return digest.hexdigest()

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}


def pad_batch(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences into a (B, T) array (pad id 0) plus their lengths."""
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    ids = np.zeros((len(sequences), int(lengths.max())), dtype=np.int64)
    for row, seq in zip(ids, sequences):
        row[: len(seq)] = seq
    return ids, lengths


class TransformerEncoder:
    def __init__(self, config: EncoderConfig, weights: EncoderWeights):
        if weights.config is not config and weights.config != config:
            raise ValueError("weights were initialized for a different config")
        self.config = config
        self.weights = weights
        self._cls_cache: dict[bytes, np.ndarray] = {}  # unpadded ids -> plain CLS row

    # -- public entry points -------------------------------------------------

    def encode_plain(
        self, token_ids: Sequence[int] | np.ndarray, lengths: Sequence[int] | None = None
    ) -> tuple[Tensor, Tensor]:
        """Eval-mode pass without prompts; returns (B, e) CLS vectors and (B, T, e) states.

        Ids are a (B, T) array with per-example `lengths` (default: all T); a
        1-D id list is read as one row.
        """
        ids, lengths = self._check_ids(token_ids, lengths, 0)
        states = self._forward(ids, lengths, None, False, None)
        return self._cls(states), states

    def cached_cls(self, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """(B, e) plain CLS rows of a padded int64 batch, keyed by each row's unpadded ids;
        one no-grad :meth:`encode_plain` covers the rows not cached yet."""
        keys = [row[:n].tobytes() for row, n in zip(ids, lengths)]
        missing = [b for b, key in enumerate(keys) if key not in self._cls_cache]
        if missing:
            with ag.no_grad():
                cls, _ = self.encode_plain(ids[missing], lengths=lengths[missing])
            self._cls_cache.update(zip([keys[b] for b in missing], cls.data))
        return np.stack([self._cls_cache[key] for key in keys])

    def encode_prompted(
        self,
        token_ids: Sequence[int] | np.ndarray,
        layer_prompts: Sequence[Tensor],
        train: bool = False,
        rng: DropoutRng | None = None,
        lengths: Sequence[int] | None = None,
    ) -> Tensor:
        """Forward pass with one key/value prompt per layer; returns (B, e) CLS vectors.

        Each prompt is (l, e), shared by the batch, or (B, l, e). Ids and
        lengths are as for :meth:`encode_plain`.
        """
        if len(layer_prompts) != self.config.num_layers:
            raise ValueError(
                f"expected {self.config.num_layers} layer prompts, got {len(layer_prompts)}"
            )
        e = self.config.embed_dim
        for i, p in enumerate(layer_prompts):
            if len(p.shape) not in (2, 3) or p.shape[-1] != e:
                raise ValueError(f"layer {i} prompt has shape {p.shape}, expected (l, {e}) or (B, l, {e})")
        prompt_lens = {p.shape[-2] for p in layer_prompts}
        if len(prompt_lens) != 1:
            raise ValueError(f"layer prompts disagree on length: {sorted(prompt_lens)}")
        ids, lengths = self._check_ids(token_ids, lengths, prompt_lens.pop())
        batch = ids.shape[0]
        prompts = []
        for i, p in enumerate(layer_prompts):
            if len(p.shape) == 3 and p.shape[0] != batch:
                raise ValueError(f"layer {i} prompt has batch {p.shape[0]}, ids have {batch}")
            if len(p.shape) == 2:
                # broadcast a shared prompt over the batch; its gradient sums back
                p = ag.mul(p, Tensor(np.ones((batch, 1, 1))))
            prompts.append(p)
        return self._cls(self._forward(ids, lengths, prompts, train, rng))

    # -- internals -----------------------------------------------------------

    def _check_ids(self, token_ids, lengths, prompt_len: int):
        """Validated (B, T) ids trimmed to the longest length, and their lengths."""
        cfg = self.config
        ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
        if ids.ndim != 2 or ids.size == 0:
            raise ValueError("token ids must be a non-empty 1-D id list or a (B, T) id array")
        batch, width = ids.shape
        lengths = np.full(batch, width) if lengths is None else np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > width:
            raise ValueError(f"lengths must be {batch} values in [1, {width}], got {lengths.tolist()}")
        width = int(lengths.max())
        ids = ids[:, :width]
        valid = np.arange(width) < lengths[:, None]
        if (ids[:, 0] != CLS_ID).any():
            b = int(np.argmax(ids[:, 0] != CLS_ID))
            raise ValueError(f"sequence must start with the CLS id ({CLS_ID}), got {ids[b, 0]}")
        bad = ids[valid & ((ids < 0) | (ids >= cfg.vocab_size))]
        if bad.size:
            raise ValueError(f"unknown token id {bad[0]} for vocabulary of size {cfg.vocab_size}")
        if width + prompt_len > cfg.max_seq_len:
            raise ValueError(
                f"sequence too long: {width} tokens + {prompt_len} prompt slots "
                f"exceed max_seq_len {cfg.max_seq_len}"
            )
        if not valid.all():
            ids = np.where(valid, ids, CLS_ID)
        return ids, lengths

    def _cls(self, states: Tensor) -> Tensor:
        return ag.reshape(ag.slice_cols(states, 0, 1), (states.shape[0], self.config.embed_dim))

    def _forward(
        self,
        ids: np.ndarray,
        lengths: np.ndarray,
        layer_prompts: list[Tensor] | None,
        train: bool,
        rng: DropoutRng | None,
    ) -> Tensor:
        cfg, w = self.config, self.weights
        width = ids.shape[1]
        prompt_len = layer_prompts[0].shape[1] if layer_prompts else 0
        mask = None
        if lengths.min() < width:
            slots = np.arange(prompt_len + width) < prompt_len + lengths[:, None]
            mask = np.where(slots, 0.0, -np.inf)[:, None, None, :]
        if train and cfg.dropout_rate > 0.0 and rng is not None:
            # the embedding site plus two per layer, keyed per example
            rng = rng.per_example(lengths, 1 + 2 * cfg.num_layers)

        h = ag.add(ag.embedding(w["token_emb"], ids), ag.slice_rows(w["pos_emb"], 0, width))
        h = ag.dropout(h, cfg.dropout_rate, rng, train)
        for i in range(cfg.num_layers):
            prompt = layer_prompts[i] if layer_prompts else None
            h = self._layer(i, h, prompt, mask, train, rng)
        return ag.layer_norm(h, w["final_ln.gain"], w["final_ln.bias"])

    def _layer(
        self,
        index: int,
        h: Tensor,
        prompt: Tensor | None,
        mask: np.ndarray | None,
        train: bool,
        rng: "DropoutRng | ExampleStreams | None",
    ) -> Tensor:
        cfg, w = self.config, self.weights
        p = f"layer{index}."
        batch, width, e = h.shape
        heads, head_dim = cfg.num_heads, e // cfg.num_heads

        def split_heads(x: Tensor, axes=(0, 2, 1, 3)) -> Tensor:  # (B, S, e) -> (B, H, S, d)
            return ag.permute(ag.reshape(x, (batch, -1, heads, head_dim)), axes)

        q = ag.scale(ag.add(ag.matmul(h, w[p + "wq"]), w[p + "bq"]), 1.0 / math.sqrt(head_dim))
        k = ag.add(ag.matmul(h, w[p + "wk"]), w[p + "bk"])
        v = ag.add(ag.matmul(h, w[p + "wv"]), w[p + "bv"])
        if prompt is not None and prompt.shape[1] > 0:
            k = ag.concat([prompt, k], axis=1)
            v = ag.concat([prompt, v], axis=1)
        scores = ag.matmul(split_heads(q), split_heads(k, (0, 2, 3, 1)))  # K as (B, H, d, S)
        probs = ag.softmax_rows(scores, mask)
        attn = ag.permute(ag.matmul(probs, split_heads(v)), (0, 2, 1, 3))
        attn = ag.add(ag.matmul(ag.reshape(attn, (batch, width, e)), w[p + "wo"]), w[p + "bo"])
        attn = ag.dropout(attn, cfg.dropout_rate, rng, train)
        h = ag.layer_norm(ag.add(h, attn), w[p + "ln1_gain"], w[p + "ln1_bias"])

        act = ag.gelu if cfg.activation == "gelu" else ag.relu
        f = act(ag.add(ag.matmul(h, w[p + "w1"]), w[p + "b1"]))
        f = ag.add(ag.matmul(f, w[p + "w2"]), w[p + "b2"])
        f = ag.dropout(f, cfg.dropout_rate, rng, train)
        return ag.layer_norm(ag.add(h, f), w[p + "ln2_gain"], w[p + "ln2_bias"])


class ClassificationHead:
    """Always-trainable linear head over a (B, e) batch of CLS vectors."""

    def __init__(self, projection: Tensor, bias: Tensor, dropout_rate: float = 0.1):
        self.projection = projection
        self.bias = bias
        self.dropout_rate = dropout_rate
        self.projection.requires_grad = True
        self.bias.requires_grad = True

    @classmethod
    def init(
        cls, embed_dim: int, num_classes: int, dropout_rate: float, rng: np.random.Generator
    ) -> "ClassificationHead":
        proj = Tensor(rng.normal(0.0, INIT_STD, size=(embed_dim, num_classes)))
        bias = Tensor(np.zeros(num_classes))
        return cls(proj, bias, dropout_rate)

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], embed_dim: int, num_classes: int, dropout_rate: float
    ) -> "ClassificationHead":
        """Inverse of ``named_arrays``; names a tensor `arrays` lacks or holds misshaped."""
        shapes = {"head.weight": (embed_dim, num_classes), "head.bias": (num_classes,)}
        check_shapes(arrays, shapes)
        return cls(Tensor(arrays["head.weight"]), Tensor(arrays["head.bias"]), dropout_rate)

    @property
    def num_classes(self) -> int:
        return self.bias.shape[0]

    def __call__(self, x: Tensor, train: bool = False, rng: DropoutRng | None = None) -> Tensor:
        """(B, classes) logits = dropout(x) @ projection + bias for (B, e) input."""
        x = ag.dropout(x, self.dropout_rate, rng, train)
        return ag.add(ag.matmul(x, self.projection), self.bias)

    def parameters(self) -> list[Tensor]:
        return [self.projection, self.bias]

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {"head.weight": self.projection.data, "head.bias": self.bias.data}


def pretrain_masked_token(
    encoder: TransformerEncoder,
    sequences: Iterable[Sequence[int]],
    steps: int = 300,
    seed: int = 0,
    lr: float = 1e-3,
) -> None:
    """Brief masked-token warm-up so CLS states carry input-dependent structure.

    One random non-CLS position per step is replaced with the mask id and
    predicted back through the (tied) token embedding table. The weights
    take gradient for the duration only, and the CLS cache is emptied after.
    """
    pool = [np.asarray(s, dtype=np.int64) for s in sequences if len(s) > 1]
    if not pool:
        raise ValueError("masked-token warm-up needs at least one sequence with a word")
    params = list(encoder.weights.tensors.values())
    for t in params:
        t.requires_grad = True
    try:
        opt = Adam(params, lr=lr)
        rng = np.random.default_rng((seed, 77))
        token_emb = encoder.weights["token_emb"]
        for _ in range(steps):
            ids = pool[int(rng.integers(0, len(pool)))].copy()
            pos = int(rng.integers(1, ids.size))
            target = int(ids[pos])
            ids[pos] = MASK_ID
            _, states = encoder.encode_plain(ids)
            hidden = ag.reshape(ag.slice_cols(states, pos, pos + 1), (1, states.shape[2]))
            logits = ag.matmul(hidden, ag.permute(token_emb, (1, 0)))
            loss = ag.softmax_cross_entropy(logits, [target])
            opt.zero_grad()
            ag.backward(loss)
            opt.step()
    finally:
        for t in params:
            t.requires_grad, t.grad = False, None
        encoder._cls_cache.clear()
