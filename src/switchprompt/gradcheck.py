"""Finite-difference verification of every differentiable op.

The numeric side is an independent oracle: central differences with step
``STEP`` on a scalar-valued function of raw numpy arrays, never touching the
tape. Each op has one trial, which draws a random instance of it and returns
``(op, arrays)``, where ``op`` maps tensors wrapping ``arrays`` to the op's own
output. ``run_suite`` reduces that output to a scalar with fixed random weights
and compares the analytic gradient from :func:`autograd.backward` against the
oracle.

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

STEP = 1e-4
TOL = 1e-4


def numeric_gradient(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    which: int,
) -> np.ndarray:
    """Central-difference gradient of f w.r.t. arrays[which]."""
    arrays = [a.copy() for a in arrays]
    target = arrays[which]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        up = f(arrays)
        flat[i] = orig - STEP
        down = f(arrays)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * STEP)
    return grad


def max_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(build: Callable[[Sequence[Tensor]], Tensor], arrays: Sequence[np.ndarray]) -> float:
    """Compare analytic vs finite-difference gradients of a scalar graph.

    ``build`` maps a list of freshly wrapped tensors to a scalar loss tensor;
    it is re-invoked for every probe, so any randomness inside must be
    counter-based. Returns the worst error over all inputs.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    ag.backward(build(tensors))

    def eval_loss(raw: Sequence[np.ndarray]) -> float:
        with ag.no_grad():
            return build([Tensor(a) for a in raw]).item()

    worst = 0.0
    for i, tensor in enumerate(tensors):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(arrays[i])
        worst = max(worst, max_error(analytic, numeric_gradient(eval_loss, arrays, i)))
    return worst


def _matrix(rng: np.random.Generator, min_cols: int = 1) -> np.ndarray:
    return rng.standard_normal((rng.integers(1, 5), rng.integers(min_cols, 6)))


def _lead(rng: np.random.Generator) -> tuple:
    """0-2 leading axes of size 1-2, for the batched forms the encoder runs."""
    return tuple(rng.integers(1, 3, size=rng.integers(0, 3)))


def _stacked(rng: np.random.Generator, min_cols: int = 1) -> np.ndarray:
    return rng.standard_normal((*_lead(rng), *_matrix(rng, min_cols).shape))


def _trial_add(rng):
    # same shape (residuals), a bias over the last axis, or the trailing
    # (rows, cols) block (position embeddings)
    a = _stacked(rng)
    b = rng.standard_normal(a.shape[-int(rng.integers(1, a.ndim + 1)):])
    return lambda t: ag.add(t[0], t[1]), [a, b]


def _trial_mul(rng):
    # same shape, a scalar, or a (B, 1, 1) gate on a (B, l, e) or shared (l, e) block
    form = rng.integers(0, 3)
    if form < 2:
        a = _stacked(rng)
        b = rng.standard_normal(a.shape if form == 0 else ())
    else:
        b = rng.standard_normal((rng.integers(1, 3), 1, 1))
        block = _matrix(rng).shape
        a = rng.standard_normal((len(b), *block) if rng.random() < 0.5 else block)
    return lambda t: ag.mul(t[0], t[1]), [a, b]


def _trial_scale(rng):
    s = float(rng.standard_normal())
    return lambda t: ag.scale(t[0], s), [_matrix(rng)]


def _trial_matmul(rng):
    # 2-D by 2-D (head, warm-up), stacked by a 2-D weight (projections), or
    # stacked by stacked with size-1 axes of `b` broadcasting (attention)
    lead = _lead(rng)
    p, q, r = rng.integers(1, 5, size=3)
    a = rng.standard_normal((*lead, p, q))
    if not lead or rng.random() < 0.5:
        b = rng.standard_normal((q, r))
    else:
        b = rng.standard_normal((*(d if rng.random() < 0.7 else 1 for d in lead), q, r))
    return lambda t: ag.matmul(t[0], t[1]), [a, b]


def _trial_permute(rng):
    a = rng.standard_normal(rng.integers(1, 4, size=rng.integers(3, 5)))
    axes = tuple(int(i) for i in rng.permutation(a.ndim))
    return lambda t: ag.permute(t[0], axes), [a]


def _trial_reshape(rng):
    a = _matrix(rng)
    return lambda t: ag.reshape(t[0], (a.size,)), [a]


def _trial_concat(rng):
    # 2-D parts (prompt blocks) or 3-D ones (prompts onto keys and values on
    # axis 1), joined on a drawn axis
    shape = rng.integers(1, 4, size=rng.integers(2, 4))
    axis = int(rng.integers(0, len(shape)))
    parts = []
    for _ in range(rng.integers(2, 4)):
        shape[axis] = rng.integers(1, 4)
        parts.append(rng.standard_normal(shape))
    return lambda t: ag.concat(t, axis=axis), parts


def _trial_slice(rng):
    a = rng.standard_normal(rng.integers(2, 6, size=2))
    axis = int(rng.integers(0, 2))
    start = int(rng.integers(0, a.shape[axis]))
    stop = int(rng.integers(start + 1, a.shape[axis] + 1))
    op = ag.slice_rows if axis == 0 else ag.slice_cols
    return lambda t: op(t[0], start, stop), [a]


def _trial_sigmoid(rng):
    return lambda t: ag.sigmoid(t[0]), [_matrix(rng) * 2.0]


def _trial_relu(rng):
    a = _matrix(rng)
    # keep probes away from the kink, where central differences are invalid
    a[np.abs(a) < 10 * STEP] += 0.1
    return lambda t: ag.relu(t[0]), [a]


def _trial_gelu(rng):
    return lambda t: ag.gelu(t[0]), [_matrix(rng) * 2.0]


def _trial_softmax_rows(rng):
    # (B, H, T, S) scores, bare or under a key-padding mask that keeps >= 1 slot
    # per row; masked slots must get zero gradient, which the numeric side sees
    batch, heads, rows, slots = rng.integers(1, 3), rng.integers(1, 3), rng.integers(1, 4), rng.integers(2, 5)
    mask = None
    if rng.random() < 0.5:
        keep = rng.integers(1, slots + 1, size=batch)
        mask = np.where(np.arange(slots) < keep[:, None], 0.0, -np.inf)[:, None, None, :]
    scores = rng.standard_normal((batch, heads, rows, slots))
    return lambda t: ag.softmax_rows(t[0], mask), [scores]


def _trial_layer_norm(rng):
    # on a near-constant row the central-difference error grows as STEP**2 / var,
    # so keep every row's variance off zero, as the relu trial keeps off the kink
    x = _stacked(rng, min_cols=2)
    while x.var(axis=-1).min() < 1e-2:
        x = _stacked(rng, min_cols=2)
    gain, bias = rng.standard_normal(x.shape[-1]), rng.standard_normal(x.shape[-1])
    return lambda t: ag.layer_norm(t[0], t[1], t[2]), [x, gain, bias]


def _trial_embedding(rng):
    table = rng.standard_normal((rng.integers(3, 8), rng.integers(2, 5)))
    shape = rng.integers(1, 6) if rng.random() < 0.5 else (rng.integers(1, 4), rng.integers(1, 5))
    ids = rng.integers(0, len(table), size=shape)
    return lambda t: ag.embedding(t[0], ids), [table]


def _trial_dropout(rng):
    rate = float(rng.uniform(0.1, 0.6))
    stream = ag.DropoutRng(int(rng.integers(0, 2**31)))

    def op(t):
        stream.begin_step(0)  # same mask on every re-evaluation
        return ag.dropout(t[0], rate, stream, train=True)

    return op, [_matrix(rng)]


def _trial_sum_all(rng):
    return lambda t: ag.sum_all(t[0]), [_matrix(rng)]


def _trial_sum_axis(rng):
    axis = int(rng.integers(0, 2))
    return lambda t: ag.sum_axis(t[0], axis), [_matrix(rng)]


def _trial_softmax_cross_entropy(rng):
    batch, classes = rng.integers(1, 6), rng.integers(2, 6)
    logits = rng.standard_normal((batch, classes)) * 2.0
    labels = rng.integers(0, classes, size=batch)
    return lambda t: ag.softmax_cross_entropy(t[0], labels), [logits]


OP_TRIALS: dict[str, Callable] = {
    "add": _trial_add,
    "mul": _trial_mul,
    "scale": _trial_scale,
    "matmul": _trial_matmul,
    "permute": _trial_permute,
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


def run_suite(trials: int = 100, seed: int = 0) -> list[OpReport]:
    """Run `trials` randomized finite-difference checks per op.

    Each trial's output is reduced to ``sum(op(t) * w)`` with weights ``w``
    drawn for it, so the incoming gradient is generic rather than all-ones.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    reports = []
    for op_index, (name, make_trial) in enumerate(OP_TRIALS.items()):
        rng = np.random.default_rng((seed, op_index))
        worst = 0.0
        for _ in range(trials):
            op, arrays = make_trial(rng)
            with ag.no_grad():
                w = Tensor(rng.standard_normal(op([Tensor(a) for a in arrays]).shape))
            worst = max(worst, check_gradients(lambda t: ag.sum_all(ag.mul(op(t), w)), arrays))
        reports.append(OpReport(name, trials, worst, TOL))
    return reports
