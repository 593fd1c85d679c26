"""Step clock and per-layer tracer, installed from outside the program.

Both work by replacing attributes of the program's modules and classes with
timing wrappers, and put every original back on exit. Names are patched
where the program looks them up: ``runner`` imports ``per_layer_prompts``,
``clip_global_norm``, ``pretrain_masked_token``, ``vectorize_keywords`` and
the checkpoint functions by name, so those are replaced on ``runner``; the
autograd ops are looked up as ``ag.<op>`` and are replaced on ``autograd``.

The untraced run installs only :class:`StepClock` (two timestamps per
optimizer step). The traced run adds :class:`Tracer`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

from switchprompt import autograd, data, keywords, optim, runner
from switchprompt.autograd import DropoutRng
from switchprompt.encoder import TransformerEncoder
from switchprompt.tokenizer import Tokenizer

# autograd op -> metric category; ops not listed fall under "other"
OP_CATEGORIES = {
    "matmul": "matmul",
    "gelu": "gelu",
    "softmax_rows": "softmax_rows",
    "layer_norm": "layer_norm",
    "add": "add",
    "concat": "concat",
    "slice_rows": "slice",
    "slice_cols": "slice",
    "embedding": "embedding",
    "dropout": "dropout",
}
CATEGORIES = tuple(dict.fromkeys(OP_CATEGORIES.values())) + ("other",)

# the non-op names of autograd.__all__: classes, and backward (its own span)
_NOT_OPS = {"Tensor", "DropoutRng", "no_grad", "backward"}


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StepClock:
    """Start and end time of every optimizer step that ``runner.train`` takes.

    A step starts when the runner calls ``DropoutRng.begin_step`` and ends when
    the following ``Adam.step`` returns. Warm-up Adam steps come before any
    ``begin_step`` of their ``train`` call and are not counted. With
    ``record_losses`` the value of the loss computed inside each step is kept
    as well.
    """

    def __init__(self, record_losses: bool = False):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.losses: list[float] = []
        self._record_losses = record_losses
        self._patches = Patches()

    def __enter__(self) -> "StepClock":
        begin, adam_step = DropoutRng.begin_step, optim.Adam.step
        starts, ends = self.starts, self.ends

        def timed_begin(rng, step):
            starts.append(perf_counter())
            return begin(rng, step)

        def timed_adam_step(opt):
            adam_step(opt)
            if len(ends) < len(starts):
                ends.append(perf_counter())

        self._patches.set(DropoutRng, "begin_step", timed_begin)
        self._patches.set(optim.Adam, "step", timed_adam_step)
        if self._record_losses:
            loss_fn, losses = autograd.softmax_cross_entropy, self.losses

            def recorded_loss(logits, labels):
                loss = loss_fn(logits, labels)
                if len(ends) < len(starts):
                    losses.append(loss.item())
                return loss

            self._patches.set(autograd, "softmax_cross_entropy", recorded_loss)
        return self

    def __exit__(self, *exc) -> bool:
        self._patches.restore()
        return False

    def step_seconds(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]


class Tracer:
    """In-memory spans around the public entry points of every module.

    A span is ``[name, start, end, parent, group, child_s]``: ``parent`` is
    the index of the enclosing span (or None), ``group`` is ``"step:<n>"``
    inside optimizer step n and ``"chunk:<n>"`` inside no-grad
    classification pass n, and ``child_s`` is the time covered by its
    children, so self time is ``end - start - child_s``. Autograd ops are
    far too many to keep one by one (a train step records thousands), so
    they are counted and timed per op category and their time is added to
    the enclosing span's ``child_s``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op_calls: Counter[str] = Counter()
        self.op_seconds: Counter[str] = Counter()
        self.step_op_calls = 0
        self.clip_calls = 0
        self.clipped = 0
        self.checkpoint_bytes = 0
        self._open: list[int] = []
        self._step_span: int | None = None
        self._steps = 0
        self._chunks = 0
        self._patches = Patches()

    # -- span bookkeeping ----------------------------------------------------

    def open(self, name: str, group: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if group is None and parent is not None:
            group = self.spans[parent][4]
        self.spans.append([name, perf_counter(), None, parent, group, 0.0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def _span(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _op(self, category: str, fn):
        calls, seconds, spans, open_ = self.op_calls, self.op_seconds, self.spans, self._open

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            calls[category] += 1
            seconds[category] += elapsed
            if open_:
                spans[open_[-1]][5] += elapsed
            if self._step_span is not None:
                self.step_op_calls += 1
            return result

        return traced

    # -- install / restore -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        p = self._patches
        for name in autograd.__all__:
            if name not in _NOT_OPS:
                fn = getattr(autograd, name)
                p.set(autograd, name, self._op(OP_CATEGORIES.get(name, "other"), fn))

        begin, adam_step = DropoutRng.begin_step, optim.Adam.step

        def step_begin(rng, step):
            self._step_span = self.open("runner.step", group=f"step:{self._steps}")
            self._steps += 1
            return begin(rng, step)

        traced_adam = self._span("optim.adam_step", adam_step)

        def step_end(opt):
            traced_adam(opt)
            if self._step_span is not None:
                self.close(self._step_span)
                self._step_span = None

        p.set(DropoutRng, "begin_step", step_begin)
        p.set(optim.Adam, "step", step_end)

        logits = runner.PromptedClassifier.logits

        def classify(model, texts, train=False, rng=None):
            group = None
            if self._step_span is None:
                group = f"chunk:{self._chunks}"
                self._chunks += 1
            index = self.open("runner.logits", group=group)
            try:
                return logits(model, texts, train=train, rng=rng)
            finally:
                self.close(index)

        p.set(runner.PromptedClassifier, "logits", classify)

        def count_clip(args, kwargs, norm):
            self.clip_calls += 1
            max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
            self.clipped += norm > max_norm > 0.0

        def size_of(args, kwargs, result):
            self.checkpoint_bytes = os.path.getsize(args[0])

        spans = [
            (autograd, "backward", "autograd.backward"),
            (runner, "train", "runner.train"),
            (runner, "evaluate", "runner.evaluate"),
            (runner, "load_model", "runner.load_model"),
            (runner.PromptedClassifier, "sentence_repr", "runner.sentence_repr"),
            (TransformerEncoder, "encode_plain", "encoder.encode_plain"),
            (TransformerEncoder, "encode_prompted", "encoder.encode_prompted"),
            (runner, "pretrain_masked_token", "encoder.pretrain_masked_token"),
            (runner, "per_layer_prompts", "prompts.compose"),
            (runner, "compose_with_gates", "prompts.compose"),
            (runner, "clip_global_norm", "optim.clip_global_norm", count_clip),
            (Tokenizer, "encode", "tokenizer.encode"),
            (keywords, "compute_stats", "keywords.select"),
            (keywords, "select_keywords", "keywords.select"),
            (runner, "vectorize_keywords", "keywords.vectorize"),
            (runner, "save_checkpoint", "checkpoint.save", size_of),
            (runner, "load_checkpoint", "checkpoint.load", size_of),
            (data, "sample_fewshot", "data.sample_fewshot"),
        ]
        for owner, attr, name, *observe in spans:
            p.set(owner, attr, self._span(name, owner.__dict__[attr], *observe))
        return self

    def __exit__(self, *exc) -> bool:
        self._patches.restore()
        return False

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers from the recorded spans and counters."""
        total = Counter()
        calls = Counter()
        self_s = Counter()
        for name, start, end, _, _, child in self.spans:
            total[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child
        misses = sum(
            1
            for name, _, _, parent, _, _ in self.spans
            if name == "encoder.encode_plain"
            and parent is not None
            and self.spans[parent][0] == "runner.sentence_repr"
        )
        lookups = calls["runner.sentence_repr"]
        in_steps = sum(
            end - start
            for name, start, end, _, group, _ in self.spans
            if name == "runner.logits" and group is not None and group.startswith("step:")
        )
        out: dict[str, float] = {
            "autograd.ops_per_step": self.step_op_calls / max(self._steps, 1),
        }
        for category in CATEGORIES:
            out[f"autograd.op_calls.{category}"] = self.op_calls[category]
        for category in CATEGORIES:
            out[f"autograd.op_s.{category}"] = self.op_seconds[category]
        out.update({
            "autograd.backward_s": total["autograd.backward"],
            "encoder.encode_prompted_calls": calls["encoder.encode_prompted"],
            "encoder.encode_plain_calls": calls["encoder.encode_plain"],
            "encoder.forward_self_s": self_s["encoder.encode_prompted"] + self_s["encoder.encode_plain"],
            "encoder.mlm_warmup_s": total["encoder.pretrain_masked_token"],
            "prompts.compose_calls": calls["prompts.compose"],
            "prompts.compose_s": total["prompts.compose"],
            "runner.gate_cache_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
            "runner.gate_cache_hits": lookups - misses,
            "runner.gate_cache_lookups": lookups,
            "runner.dev_eval_s": total["runner.logits"] - in_steps,
            "runner.train_forward_s": in_steps,
            "optim.adam_step_s": total["optim.adam_step"],
            "optim.clip_s": total["optim.clip_global_norm"],
            "optim.clip_rate": self.clipped / self.clip_calls if self.clip_calls else 0.0,
            "optim.clip_calls": self.clip_calls,
            "tokenizer.encode_calls": calls["tokenizer.encode"],
            "tokenizer.encode_s": total["tokenizer.encode"],
            "keywords.select_s": total["keywords.select"],
            "keywords.vectorize_s": total["keywords.vectorize"],
            "checkpoint.save_s": total["checkpoint.save"],
            "checkpoint.load_s": total["checkpoint.load"],
            "checkpoint.bytes": self.checkpoint_bytes,
            "data.sample_fewshot_s": total["data.sample_fewshot"],
        })
        return out

    def write(self, path: Path) -> None:
        """One JSON line per span, in the order the spans were opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, group, child) in enumerate(self.spans):
                record = {
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "group": group, "self_s": end - start - child,
                }
                handle.write(json.dumps(record) + "\n")
