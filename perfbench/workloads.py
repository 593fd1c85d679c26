"""Seeded inputs and the three benchmark workloads.

Every workload is a closed loop in one process: each optimizer step and each
evaluation chunk waits for the one before it. The program sees only the
objects built here (datasets, corpora, a config and checkpoint files); the
benchmark generates them itself, so a change to the program's own synthetic
data generator cannot change the inputs.

Workloads:

``train-small``
    ``runner.train`` on the acceptance ordering task (4 classes, 64 shots,
    12-word texts, e=32, 2 layers), at filler share 0.2. Python overhead per
    tape node dominates.
``train-wide``
    The same protocol on a wider backbone (e=128, 4 layers, 4 heads,
    ffn 256) and 56-word texts, where arithmetic dominates.
``eval-cold``
    ``runner.load_model`` on a checkpoint trained before timing, then
    ``runner.evaluate`` over thousands of unique texts of ragged length
    (4-100 words), each with an empty gate cache.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from switchprompt import data, keywords, runner
from switchprompt.data import LabeledDataset
from switchprompt.runner import RunConfig

from checks import oracle_problems
from tracing import StepClock

NUM_CLASSES = 4
KEYWORDS_PER_CLASS = 4
FILLER_VOCAB = 30
# At 0.6, the acceptance test's share, and at 0.5, six epochs leave test
# accuracy anywhere from 0.58 to 0.91 depending on the seed; at 0.2 it stays
# within 0.96-1.0, so test_accuracy can guard quality with a tight bound.
FILLER_PROB = 0.2
GENERAL_DOCS = 300
GENERAL_DOC_WORDS = 12
NUM_KEYWORDS = 8
SOFT_PROMPT_LEN = 8
P90_MIN_STEPS = 100
# eval-cold: load_model takes milliseconds, so each pass times several loads
LOADS_PER_PASS = 5


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload. ``words`` is the (min, max) text length."""

    words: tuple[int, int]
    examples_per_class: int
    shots: int
    embed_dim: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    batch_size: int
    epochs: int
    mlm_steps: int
    min_units: int  # training runs (train-*) or timed passes (eval-cold), at least
    min_steps: int = P90_MIN_STEPS  # optimizer steps per run, at least
    eval_texts: int = 0  # eval-cold: unique texts per timed pass
    warm_texts: int = 0  # eval-cold: texts of the untimed warm-up pass
    check_texts: int = 16  # texts compared with the numpy oracle
    filler_prob: float = FILLER_PROB  # chance that a word of a text is a filler


SPECS = {
    "train-small": Spec(
        words=(12, 12), examples_per_class=400, shots=64, embed_dim=32, num_layers=2,
        num_heads=2, ffn_dim=64, batch_size=32, epochs=6, mlm_steps=300, min_units=3,
    ),
    "train-wide": Spec(
        words=(56, 56), examples_per_class=80, shots=16, embed_dim=128, num_layers=4,
        num_heads=4, ffn_dim=256, batch_size=4, epochs=3, mlm_steps=100, min_units=3,
        filler_prob=0.0,
    ),
    "eval-cold": Spec(
        words=(4, 100), examples_per_class=80, shots=32, embed_dim=32, num_layers=2,
        num_heads=2, ffn_dim=64, batch_size=4, epochs=8, mlm_steps=300, min_units=3,
        eval_texts=2000, warm_texts=300, filler_prob=0.3,
    ),
}

# the same workloads shrunk to a few seconds, for the benchmark's own tests
TINY = {
    "train-small": replace(SPECS["train-small"], examples_per_class=20, shots=4, batch_size=8,
                           epochs=2, mlm_steps=10, min_units=2, min_steps=1, check_texts=4),
    "train-wide": replace(SPECS["train-wide"], words=(20, 20), examples_per_class=12, shots=2,
                          embed_dim=16, ffn_dim=32, epochs=2, mlm_steps=10, min_units=2,
                          min_steps=1, check_texts=4),
    "eval-cold": replace(SPECS["eval-cold"], words=(4, 30), examples_per_class=12, shots=2,
                         epochs=2, mlm_steps=10, min_units=2, min_steps=1, eval_texts=40,
                         warm_texts=8, check_texts=4),
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    seed: int
    general: list[str]
    domain: list[str]
    dataset: LabeledDataset
    eval_set: LabeledDataset | None = None
    warm_set: LabeledDataset | None = None


def _vocabulary():
    fillers = [f"gen{i:03d}" for i in range(FILLER_VOCAB)]
    labels = [f"class{c}" for c in range(NUM_CLASSES)]
    class_words = {
        label: [f"cls{c}kw{j}" for j in range(KEYWORDS_PER_CLASS)] for c, label in enumerate(labels)
    }
    return fillers, labels, class_words


def _labeled_texts(rng, spec: Spec, count_per_class: int, seen: set[str]):
    """Unique texts: each word is a filler with ``spec.filler_prob``, else a word of the class."""
    fillers, labels, class_words = _vocabulary()
    examples = []
    for label in labels:
        made = 0
        while made < count_per_class:
            length = int(rng.integers(spec.words[0], spec.words[1] + 1))
            text = " ".join(
                fillers[int(rng.integers(FILLER_VOCAB))]
                if rng.random() < spec.filler_prob
                else class_words[label][int(rng.integers(KEYWORDS_PER_CLASS))]
                for _ in range(length)
            )
            if text not in seen:
                seen.add(text)
                examples.append((text, label))
                made += 1
    return examples, {label: i for i, label in enumerate(labels)}


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Everything a workload feeds the program, drawn only from ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng((seed, 2024))
    fillers, _, _ = _vocabulary()
    general = [
        " ".join(fillers[int(j)] for j in rng.integers(0, FILLER_VOCAB, size=GENERAL_DOC_WORDS))
        for _ in range(GENERAL_DOCS)
    ]
    seen: set[str] = set()
    examples, label_map = _labeled_texts(rng, spec, spec.examples_per_class, seen)
    dataset = LabeledDataset(examples, label_map, domain="bench")
    inputs = Inputs(seed, general, [text for text, _ in examples], dataset)
    if spec.eval_texts:
        per_class = math.ceil(spec.eval_texts / NUM_CLASSES)
        evals, _ = _labeled_texts(rng, spec, per_class, set())
        warm_count = math.ceil(spec.warm_texts / NUM_CLASSES)
        warm, _ = _labeled_texts(rng, spec, warm_count, {text for text, _ in evals})
        inputs.eval_set = LabeledDataset(evals, dict(label_map), domain="bench")
        inputs.warm_set = LabeledDataset(warm, dict(label_map), domain="bench")
    return inputs


def run_config(spec: Spec, seed: int) -> RunConfig:
    return RunConfig(
        variant="switchprompt",
        embed_dim=spec.embed_dim,
        num_layers=spec.num_layers,
        num_heads=spec.num_heads,
        ffn_dim=spec.ffn_dim,
        encoder_dropout=0.0,
        soft_prompt_len=SOFT_PROMPT_LEN,
        num_keywords=NUM_KEYWORDS,
        batch_size=spec.batch_size,
        head_dropout=0.1,
        epochs=spec.epochs,
        lr=0.02,
        seeds=[seed],
        backbone_init="mlm",
        mlm_steps=spec.mlm_steps,
        shots=spec.shots,
        split_seed=seed,
    )


def mine_keywords(inputs: Inputs):
    general = keywords.compute_stats(inputs.general, "general")
    domain = keywords.compute_stats(inputs.domain, "domain")
    return keywords.select_keywords(general, domain, alpha=-1.0, n=NUM_KEYWORDS)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Raw measurements of one workload run, before they become metrics."""

    setup_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    train_rate: list[float] = field(default_factory=list)  # examples/s of each training run
    eval_rate: list[float] = field(default_factory=list)  # examples/s of each timed run's eval
    unit_s: list[float] = field(default_factory=list)  # wall time of each timed unit
    test_accuracy: float | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, operations: int, problem: str) -> None:
        self.failed += operations
        self.problems.append(problem)


def _train_steps(spec: Spec, train_size: int) -> int:
    return spec.epochs * math.ceil(train_size / spec.batch_size)


def _keep_going(started: float, seconds: float | None, out: Outcome, spec: Spec) -> bool:
    """One more timed unit? Yes below the minimums, else if it should end in time.

    ``seconds=None`` asks for exactly one unit.
    """
    if seconds is None:
        return not out.unit_s
    if len(out.unit_s) < spec.min_units or len(out.step_s) < spec.min_steps:
        return True
    return perf_counter() - started + statistics.mean(out.unit_s) <= seconds


def train_workload(spec: Spec, inputs: Inputs, seconds: float | None, work_dir: Path) -> Outcome:
    """Full ``runner.train`` runs until ``seconds`` pass and the minimums are met.

    Per run: set-up is keyword mining, the few-shot split and ``train`` up
    to its first optimizer step; the timed phase is the rest of ``train``
    (epochs, per-epoch dev eval, best-state restore, final eval, checkpoint
    and metrics files). Eval throughput counts every dev and test example
    over the time outside optimizer steps: the gaps between epochs and the
    tail after the last step (whose restore and file writes take
    milliseconds).
    """
    out = Outcome()
    config = run_config(spec, inputs.seed)
    reference_metrics = None
    started = perf_counter()
    with StepClock() as clock:
        while _keep_going(started, seconds, out, spec):
            unit_dir = work_dir / f"run{len(out.run_s)}"
            first = len(clock.starts)
            t0 = perf_counter()
            try:
                split = data.sample_fewshot(inputs.dataset, shots=spec.shots, seed=inputs.seed)
                keyword_set = mine_keywords(inputs)
                result = runner.train(config, split, keyword_set, unit_dir)
            except Exception:  # a failing program is reported, not fatal
                out.attempted += 1
                out.fail(1, f"train raised:\n{traceback.format_exc()}")
                break
            finished = perf_counter()
            starts, ends = clock.starts[first:], clock.ends[first:]
            per_epoch = math.ceil(len(split.train) / spec.batch_size)
            steps = _train_steps(spec, len(split.train))
            evals = (spec.epochs + 1) * len(split.dev) + len(split.test)
            out.attempted += steps + evals
            if len(starts) != steps or len(ends) != steps:
                out.fail(steps, f"expected {steps} optimizer steps, timed {len(starts)}/{len(ends)}")
                break
            out.unit_s.append(finished - t0)
            out.setup_s.append(starts[0] - t0)
            out.run_s.append(finished - starts[0])
            step_s = [end - start for start, end in zip(starts, ends)]
            out.step_s.extend(step_s)
            out.train_rate.append(spec.epochs * len(split.train) / sum(step_s))
            gaps = [starts[e * per_epoch] - ends[e * per_epoch - 1] for e in range(1, spec.epochs)]
            out.eval_rate.append(evals / (sum(gaps) + finished - ends[-1]))

            metrics_bytes = (unit_dir / "metrics.jsonl").read_bytes()
            if reference_metrics is None:
                reference_metrics = metrics_bytes
                out.digests["metrics.jsonl"] = _sha256(metrics_bytes)
            elif metrics_bytes != reference_metrics:
                out.fail(steps, "metrics.jsonl differs between two runs of the same config")
            accuracy = result.test_accuracies[0]
            if out.test_accuracy is None:
                out.test_accuracy = accuracy
            if len(out.run_s) == 1:
                try:
                    model = runner.load_model(unit_dir / f"model_seed{inputs.seed}.bin")
                    reloaded = runner.evaluate(model, split.test)
                except Exception:  # a failing program is reported, not fatal
                    out.fail(len(split.test), f"reloading the checkpoint raised:\n{traceback.format_exc()}")
                    break
                if reloaded != accuracy:
                    out.fail(len(split.test),
                             f"reloaded checkpoint scores {reloaded}, train reported {accuracy}")
                _check_oracle(out, model, split.test, spec.check_texts)
            shutil.rmtree(unit_dir)
    return out


def eval_workload(spec: Spec, inputs: Inputs, seconds: float | None, work_dir: Path) -> Outcome:
    """Train a checkpoint (its steps give the train metrics), then time cold passes.

    Each timed pass loads the checkpoint afresh ``LOADS_PER_PASS`` times
    (each load is one ``setup_s`` sample) and evaluates every text with the
    last model in ``runner.evaluate``'s chunks (``run_s``). The fresh model's
    gate cache is empty, so every text pays a plain and a prompted pass.
    An untimed pass over other texts comes first, because the first pass in
    a fresh process runs slower.
    """
    out = Outcome()
    config = run_config(spec, inputs.seed)
    try:
        split = data.sample_fewshot(inputs.dataset, shots=spec.shots, seed=inputs.seed)
        with StepClock() as clock:
            runner.train(config, split, mine_keywords(inputs), work_dir)
    except Exception:  # a failing program is reported, not fatal
        out.attempted += 1
        out.fail(1, f"checkpoint training raised:\n{traceback.format_exc()}")
        return out
    steps = _train_steps(spec, len(split.train))
    out.attempted += steps + (spec.epochs + 1) * len(split.dev) + len(split.test)
    out.step_s = clock.step_seconds()
    if len(out.step_s) != steps:
        out.fail(steps, f"expected {steps} optimizer steps, timed {len(out.step_s)}")
        return out
    out.train_rate.append(spec.epochs * len(split.train) / sum(out.step_s))
    checkpoint = work_dir / f"model_seed{inputs.seed}.bin"

    out.attempted += len(inputs.warm_set)
    try:
        runner.evaluate(runner.load_model(checkpoint), inputs.warm_set)
    except Exception:  # a failing program is reported, not fatal
        out.fail(len(inputs.warm_set), f"warm-up pass raised:\n{traceback.format_exc()}")
        return out
    size = len(inputs.eval_set)
    started = perf_counter()
    while _keep_going(started, seconds, out, spec):
        out.attempted += size
        t_start = perf_counter()
        try:
            for _ in range(LOADS_PER_PASS):
                t0 = perf_counter()
                model = runner.load_model(checkpoint)
                t1 = perf_counter()
                out.setup_s.append(t1 - t0)
            accuracy = runner.evaluate(model, inputs.eval_set)
        except Exception:  # a failing program is reported, not fatal
            out.fail(size, f"cold pass raised:\n{traceback.format_exc()}")
            break
        t2 = perf_counter()
        out.unit_s.append(t2 - t_start)
        out.run_s.append(t2 - t1)
        out.eval_rate.append(size / (t2 - t1))
        if out.test_accuracy is None:
            out.test_accuracy = accuracy
        elif accuracy != out.test_accuracy:
            out.fail(size, f"accuracy changed between passes: {accuracy} != {out.test_accuracy}")
    if out.run_s:
        _check_oracle(out, model, inputs.eval_set, spec.check_texts)
    return out


def _check_oracle(out: Outcome, model, dataset: LabeledDataset, count: int) -> None:
    try:
        problems = oracle_problems(model, dataset.texts(), count)
    except Exception:  # a failing program is reported, not fatal
        out.fail(count, f"oracle check raised:\n{traceback.format_exc()}")
        return
    if problems:
        out.fail(len(problems), "; ".join(problems))


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


WORKLOADS = {
    "train-small": train_workload,
    "train-wide": train_workload,
    "eval-cold": eval_workload,
}
