"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tensor` wraps a numpy array plus an optional gradient buffer. Every
operation records its inputs and a vector-Jacobian product on the output, so
the tape is rebuilt on every forward pass (define-by-run). :func:`backward`
walks the recorded graph in reverse topological order and accumulates
gradients into the leaf tensors (those with ``requires_grad`` set and no
recorded parents).

Ops take an optional leading batch axis: ``matmul`` broadcasts stacked
operands, ``softmax_rows`` normalizes the last axis under an optional
additive mask, ``permute`` reorders axes and ``embedding`` gathers a
``(B, T)`` id array.

All math runs in double precision. Dropout randomness is drawn from
counter-based streams (:class:`DropoutRng`) keyed on (seed, step, call index),
so a full forward+backward pass is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "DropoutRng",
    "no_grad",
    "add",
    "mul",
    "scale",
    "matmul",
    "permute",
    "reshape",
    "concat",
    "slice_rows",
    "slice_cols",
    "sigmoid",
    "relu",
    "gelu",
    "softmax_rows",
    "layer_norm",
    "embedding",
    "dropout",
    "sum_all",
    "sum_axis",
    "softmax_cross_entropy",
    "backward",
]

_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class no_grad:
    """Context manager that disables graph recording (used for evaluation)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense float64 array with an optional accumulated gradient.

    Value buffers are treated as immutable once produced by an op; in-place
    edits are only legitimate on leaf parameters between training steps
    (which is what the optimizer does).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _record(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result, attaching the backward rule only when needed."""
    needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _record(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    data = a.data * b.data
    return _record(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar constant (the constant gets no gradient)."""
    s = float(s)
    return _record(a.data * s, (a,), lambda g: (g * s,))


def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting any leading axes.

    A 2-D right operand (a weight) gets its gradient from one GEMM over the
    flattened leading axes of `a`. Gradients are only formed for operands
    that require them, so a frozen weight costs no backward arithmetic.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from None

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ _swap_last(b.data), a.shape)
        if b.requires_grad:
            if b.data.ndim == 2:
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(_swap_last(a.data) @ g, b.shape)
        return ga, gb

    return _record(data, (a, b), vjp)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Reorder axes as numpy's transpose(axes); used to split attention heads."""
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ValueError(f"permute axes {axes} do not match shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _record(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    return _record(data, (a,), lambda g: (g.reshape(a.shape),))


# ---------------------------------------------------------------------------
# structure: concatenation and slicing
# ---------------------------------------------------------------------------


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along `axis`; the backward rule splits the gradient back."""
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _record(data, tensors, vjp)


def _slice_axis(t: Tensor, start: int, stop: int, axis: int) -> Tensor:
    dim = t.shape[axis]
    if not (0 <= start <= stop <= dim):
        raise ValueError(f"slice [{start}:{stop}] out of bounds for axis {axis} of shape {t.shape}")
    index = [slice(None)] * t.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    data = t.data[index].copy()

    def vjp(g):
        full = np.zeros_like(t.data)
        full[index] = g
        return (full,)

    return _record(data, (t,), vjp)


def slice_rows(t: Tensor, start: int, stop: int) -> Tensor:
    return _slice_axis(t, start, stop, axis=0)


def slice_cols(t: Tensor, start: int, stop: int) -> Tensor:
    return _slice_axis(t, start, stop, axis=1)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise 1/(1+exp(-x)), computed without overflow for any finite x."""
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _record(out, (x,), lambda g: (g * out * (1.0 - out),))


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    return _record(data, (x,), lambda g: (g * (x.data > 0),))


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) gaussian error linear unit."""
    d = x.data
    cdf = erf(d * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    data = d * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
        return (g * (cdf + d * pdf),)

    return _record(data, (x,), vjp)


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis; each output row sums to 1.

    `mask` is an additive constant broadcast against `x`, 0 where an entry
    takes part and -inf where it does not. It is added before the max-shift,
    so masked entries get exactly 0 probability and 0 gradient. Every row
    needs at least one unmasked entry.
    """
    if x.data.ndim < 1:
        raise ValueError("softmax_rows expects at least one axis")
    if mask is None:
        y = x.data - x.data.max(axis=-1, keepdims=True)
    else:
        y = x.data + mask
        y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _record(y, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    d = x.data
    n = d.shape[-1]
    mu = d.mean(axis=-1, keepdims=True)
    centered = d - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered
    xhat *= inv_std
    data = xhat * gain.data
    data += bias.data

    def vjp(g):
        dxhat = g * gain.data
        # standard layer-norm backward over the last axis
        dx = (
            inv_std
            / n
            * (n * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        )
        if not (gain.requires_grad or bias.requires_grad):
            return (dx, None, None)
        axes = tuple(range(d.ndim - 1))
        dgain = (g * xhat).sum(axis=axes) if axes else g * xhat
        dbias = g.sum(axis=axes) if axes else g.copy()
        return (dx, dgain, dbias)

    return _record(data, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# lookup, dropout, reductions
# ---------------------------------------------------------------------------


def embedding(weight: Tensor, ids) -> Tensor:
    """Gather rows of `weight` for a (T,) or (B, T) id array.

    The backward rule scatter-adds into the table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise ValueError(f"embedding expects a (T,) or (B, T) id array, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ValueError(
            f"embedding id out of range: ids span [{ids.min()}, {ids.max()}] "
            f"but the table has {weight.shape[0]} rows"
        )
    data = weight.data[ids]

    def vjp(g):
        table = np.zeros_like(weight.data)
        np.add.at(table, ids, g)
        return (table,)

    return _record(data, (weight,), vjp)


class DropoutRng:
    """Counter-based dropout stream: masks depend only on (seed, step, call).

    ``begin_step`` resets the per-step call counter, so the k-th dropout call
    of a given step always sees the same mask regardless of how many times the
    surrounding graph is rebuilt. That keeps training runs reproducible and
    lets finite-difference checks re-evaluate a stochastic forward pass.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.step = 0
        self.calls = 0

    def begin_step(self, step: int) -> None:
        self.step = int(step)
        self.calls = 0

    def mask(self, shape: tuple[int, ...], rate: float) -> np.ndarray:
        self.calls += 1
        return self._draw(self.calls - 1, shape, rate)

    def _draw(self, call: int, shape: tuple[int, ...], rate: float) -> np.ndarray:
        keep = 1.0 - rate
        rng = np.random.default_rng((self.seed, self.step, call))
        return (rng.random(shape) < keep).astype(np.float64) / keep

    def per_example(self, lengths: Sequence[int], sites: int) -> "ExampleStreams":
        """Reserve `sites` calls for each example of a padded (B, T, ...) batch.

        Example b's mask at its s-th dropout site is the call
        ``first + b * sites + s`` of this stream, drawn at its unpadded shape
        ``(lengths[b], ...)``. So a batch draws exactly the masks that B
        one-example passes in a row would, and calls made after it (the
        classification head's) keep their counters.
        """
        first = self.calls
        self.calls += len(lengths) * sites
        return ExampleStreams(self, first, lengths, sites)


class ExampleStreams:
    """Dropout masks for a padded batch, one counter-keyed stream per example."""

    def __init__(self, parent: DropoutRng, first: int, lengths: Sequence[int], sites: int):
        self.parent = parent
        self.first = first
        self.lengths = [int(n) for n in lengths]
        self.sites = sites
        self.site = 0

    def mask(self, shape: tuple[int, ...], rate: float) -> np.ndarray:
        if self.site >= self.sites:
            raise RuntimeError(f"more than the {self.sites} reserved dropout sites were used")
        out = np.zeros(shape)
        for b, n in enumerate(self.lengths):
            call = self.first + b * self.sites + self.site
            out[b, :n] = self.parent._draw(call, (n,) + tuple(shape[2:]), rate)
        self.site += 1
        return out


def dropout(
    x: Tensor, rate: float, rng: "DropoutRng | ExampleStreams | None" = None, train: bool = False
) -> Tensor:
    """Inverted-scaling dropout; the identity (same object) in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a DropoutRng")
    mask = rng.mask(x.shape, rate)
    return _record(x.data * mask, (x,), lambda g: (g * mask,))


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum())
    return _record(data, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))


def sum_axis(x: Tensor, axis: int) -> Tensor:
    data = x.data.sum(axis=axis)
    return _record(data, (x,), lambda g: (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels.

    Stabilized by max-subtraction; the gradient w.r.t. the logits is
    (softmax - one_hot) / batch.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects 2-D logits, got shape {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch size {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(
            f"label out of range: labels span [{labels.min()}, {labels.max()}] "
            f"for {classes} classes"
        )
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    log_z = np.log(e.sum(axis=1))
    nll = log_z - shifted[np.arange(batch), labels]
    data = np.asarray(nll.mean())

    def vjp(g):
        onehot = np.zeros_like(probs)
        onehot[np.arange(batch), labels] = 1.0
        return (g * (probs - onehot) / batch,)

    return _record(data, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _toposort(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS (graphs can exceed the recursion limit).

    Parents that take no gradient are not visited: `_record` gives a tensor
    parents only when one of its inputs needs a gradient, so such a parent
    is a leaf (a frozen weight or a constant) and nothing flows into it.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dT into `.grad` of every leaf that requires grad.

    Leaves are tensors with no recorded parents (parameters and inputs);
    interior nodes keep ``grad is None``. The flow of gradients lives in a
    scratch map, and a node's entry is dropped as soon as its vjp has run,
    so at most one frontier of interior gradients is alive at a time. Each
    leaf's entry is complete when the reverse walk reaches it and is added
    into `.grad` then, so calling backward twice on the same graph without
    zeroing doubles every leaf gradient exactly.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            held = flow.get(pid)
            flow[pid] = pg if held is None else held + pg
