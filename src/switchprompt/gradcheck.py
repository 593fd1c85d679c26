"""Finite-difference verification of every differentiable op.

The numeric side is an independent oracle: central differences with step h
on a scalar-valued function of raw numpy arrays, never touching the tape.
``run_suite`` draws random shapes for each op and compares the analytic
gradient from :func:`autograd.backward` against that oracle.

Error metric: elementwise |analytic - numeric| / max(1, |analytic|, |numeric|),
i.e. relative error with an absolute floor of one, reported as the max over
all checked elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-4


def numeric_gradient(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    which: int,
    step: float = DEFAULT_STEP,
) -> np.ndarray:
    """Central-difference gradient of f w.r.t. arrays[which]."""
    arrays = [a.copy() for a in arrays]
    target = arrays[which]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = f(arrays)
        flat[i] = orig - step
        down = f(arrays)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(
    build: Callable[[Sequence[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    differentiable: Sequence[bool] | None = None,
    step: float = DEFAULT_STEP,
) -> float:
    """Compare analytic vs finite-difference gradients of a scalar graph.

    ``build`` maps a list of freshly wrapped tensors to a scalar loss tensor;
    it is re-invoked for every probe, so any randomness inside must be
    counter-based. Returns the worst error over all differentiable inputs.
    """
    if differentiable is None:
        differentiable = [True] * len(arrays)

    tensors = [Tensor(a, requires_grad=d) for a, d in zip(arrays, differentiable)]
    loss = build(tensors)
    ag.backward(loss)

    def eval_loss(raw: Sequence[np.ndarray]) -> float:
        with ag.no_grad():
            probe = [Tensor(a) for a in raw]
            return build(probe).item()

    worst = 0.0
    for i, diff in enumerate(differentiable):
        if not diff:
            continue
        analytic = tensors[i].grad
        if analytic is None:
            analytic = np.zeros_like(arrays[i])
        numeric = numeric_gradient(eval_loss, arrays, i, step=step)
        worst = max(worst, max_error(analytic, numeric))
    return worst


def _weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    # reduce a non-scalar op output with fixed random weights so the
    # incoming gradient is generic rather than all-ones
    return ag.sum_all(ag.mul(out, Tensor(weights)))


def _rand(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape)


def _trial_add(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    b = _rand(rng, *a.shape) if rng.random() < 0.5 else _rand(rng, a.shape[1])
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.add(t[0], t[1]), w), [a, b]


def _trial_mul(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    b = _rand(rng, *a.shape) if rng.random() < 0.5 else np.asarray(rng.standard_normal())
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.mul(t[0], t[1]), w), [a, b]


def _trial_scale(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    s = float(rng.standard_normal())
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.scale(t[0], s), w), [a]


def _trial_matmul(rng):
    p, q, r = rng.integers(1, 5, size=3)
    a, b = _rand(rng, p, q), _rand(rng, q, r)
    w = _rand(rng, p, r)
    return lambda t: _weighted_sum(ag.matmul(t[0], t[1]), w), [a, b]


def _trial_reshape(rng):
    p, q = rng.integers(1, 5), rng.integers(1, 6)
    a = _rand(rng, p, q)
    w = _rand(rng, p * q)
    return lambda t: _weighted_sum(ag.reshape(t[0], (p * q,)), w), [a]


def _trial_concat(rng):
    cols = rng.integers(1, 5)
    parts = [_rand(rng, rng.integers(1, 4), cols) for _ in range(rng.integers(2, 4))]
    total = sum(p.shape[0] for p in parts)
    w = _rand(rng, total, cols)
    return lambda t: _weighted_sum(ag.concat(t, axis=0), w), parts


def _trial_slice(rng):
    rows, cols = rng.integers(2, 6), rng.integers(2, 6)
    a = _rand(rng, rows, cols)
    axis = int(rng.integers(0, 2))
    dim = a.shape[axis]
    start = int(rng.integers(0, dim))
    stop = int(rng.integers(start + 1, dim + 1))
    out_shape = (stop - start, cols) if axis == 0 else (rows, stop - start)
    w = _rand(rng, *out_shape)
    op = ag.slice_rows if axis == 0 else ag.slice_cols
    return lambda t: _weighted_sum(op(t[0], start, stop), w), [a]


def _trial_sigmoid(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6)) * 2.0
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.sigmoid(t[0]), w), [a]


def _trial_relu(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    # keep probes away from the kink, where central differences are invalid
    a[np.abs(a) < 10 * DEFAULT_STEP] += 0.1
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.relu(t[0]), w), [a]


def _trial_gelu(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6)) * 2.0
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.gelu(t[0]), w), [a]


def _trial_softmax_rows(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(2, 6))
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.softmax_rows(t[0]), w), [a]


def _trial_layer_norm(rng):
    rows, cols = rng.integers(1, 5), rng.integers(2, 7)
    x, gain, bias = _rand(rng, rows, cols), _rand(rng, cols), _rand(rng, cols)
    w = _rand(rng, rows, cols)
    return lambda t: _weighted_sum(ag.layer_norm(t[0], t[1], t[2]), w), [x, gain, bias]


def _trial_embedding(rng):
    vocab, dim = rng.integers(3, 8), rng.integers(2, 5)
    table = _rand(rng, vocab, dim)
    ids = rng.integers(0, vocab, size=rng.integers(1, 6))
    w = _rand(rng, ids.size, dim)
    return lambda t: _weighted_sum(ag.embedding(t[0], ids), w), [table]


def _trial_dropout(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    w = _rand(rng, *a.shape)
    rate = float(rng.uniform(0.1, 0.6))
    stream = ag.DropoutRng(int(rng.integers(0, 2**31)))

    def build(t):
        stream.begin_step(0)  # same mask on every re-evaluation
        return _weighted_sum(ag.dropout(t[0], rate, stream, train=True), w)

    return build, [a]


def _trial_sum_all(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    return lambda t: ag.sum_all(t[0]), [a]


def _trial_sum_axis(rng):
    a = _rand(rng, rng.integers(1, 5), rng.integers(1, 6))
    axis = int(rng.integers(0, 2))
    w = _rand(rng, a.shape[1 - axis])
    return lambda t: _weighted_sum(ag.sum_axis(t[0], axis), w), [a]


def _trial_softmax_cross_entropy(rng):
    batch, classes = rng.integers(1, 6), rng.integers(2, 6)
    logits = _rand(rng, batch, classes) * 2.0
    labels = rng.integers(0, classes, size=batch)
    return lambda t: ag.softmax_cross_entropy(t[0], labels), [logits]


def _trial_matmul_batched(rng):
    # stacked operands: batched by batched (a size-1 axis of `b` broadcasts)
    # or batched by a 2-D weight
    lead = tuple(int(d) for d in rng.integers(1, 3, size=rng.integers(1, 3)))
    p, q, r = rng.integers(1, 4, size=3)
    a = _rand(rng, *lead, p, q)
    if rng.random() < 0.5:
        b = _rand(rng, q, r)
    else:
        b = _rand(rng, *(d if rng.random() < 0.7 else 1 for d in lead), q, r)
    w = _rand(rng, *lead, p, r)
    return lambda t: _weighted_sum(ag.matmul(t[0], t[1]), w), [a, b]


def _trial_permute(rng):
    a = _rand(rng, *rng.integers(1, 4, size=rng.integers(3, 5)))
    axes = tuple(int(i) for i in rng.permutation(a.ndim))
    w = _rand(rng, *(a.shape[i] for i in axes))
    return lambda t: _weighted_sum(ag.permute(t[0], axes), w), [a]


def _trial_softmax_masked(rng):
    # (B, H, T, S) scores under a key-padding mask that keeps >= 1 slot per row;
    # masked slots must get zero gradient, which the numeric side sees as well
    batch, heads, rows, slots = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 4), rng.integers(2, 5)
    keep = rng.integers(1, slots + 1, size=batch)
    mask = np.where(np.arange(slots) < keep[:, None], 0.0, -np.inf)[:, None, None, :]
    a = _rand(rng, batch, heads, rows, slots)
    w = _rand(rng, *a.shape)
    return lambda t: _weighted_sum(ag.softmax_rows(t[0], mask), w), [a]


def _trial_embedding_2d(rng):
    vocab, dim = rng.integers(3, 8), rng.integers(2, 5)
    table = _rand(rng, vocab, dim)
    ids = rng.integers(0, vocab, size=(rng.integers(1, 4), rng.integers(1, 5)))
    w = _rand(rng, *ids.shape, dim)
    return lambda t: _weighted_sum(ag.embedding(t[0], ids), w), [table]


OP_TRIALS: dict[str, Callable] = {
    "add": _trial_add,
    "mul": _trial_mul,
    "scale": _trial_scale,
    "matmul": _trial_matmul,
    "reshape": _trial_reshape,
    "concat": _trial_concat,
    "slice": _trial_slice,
    "sigmoid": _trial_sigmoid,
    "relu": _trial_relu,
    "gelu": _trial_gelu,
    "softmax_rows": _trial_softmax_rows,
    "layer_norm": _trial_layer_norm,
    "embedding": _trial_embedding,
    "dropout": _trial_dropout,
    "sum_all": _trial_sum_all,
    "sum_axis": _trial_sum_axis,
    "softmax_cross_entropy": _trial_softmax_cross_entropy,
    "matmul_batched": _trial_matmul_batched,
    "permute": _trial_permute,
    "softmax_masked": _trial_softmax_masked,
    "embedding_2d": _trial_embedding_2d,
}


@dataclass
class OpReport:
    name: str
    trials: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def run_suite(
    trials: int = 100,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
) -> list[OpReport]:
    """Run `trials` randomized finite-difference checks per op."""
    reports = []
    for op_index, (name, make_trial) in enumerate(OP_TRIALS.items()):
        rng = np.random.default_rng((seed, op_index))
        worst = 0.0
        for _ in range(trials):
            build, arrays = make_trial(rng)
            worst = max(worst, check_gradients(build, arrays, step=step))
        reports.append(OpReport(name, trials, worst, tol))
    return reports
