"""Training loop, evaluation, ablation sweep and metrics persistence.

``train`` builds the backbone once and runs one configuration over every
seed in the config: fresh prompt and head parameters per seed, mini-batch
Adam over cross-entropy with per-epoch exponential learning-rate decay and
global-norm gradient clipping, best-dev checkpoint selection (ties go to the
earlier epoch), and a frozen backbone throughout. ``ablate`` repeats the
seed loop for each prompt-composition variant on one backbone, with shared
seeds and data.

Outputs under the run directory:

    metrics.jsonl   one JSON record per line with exactly the keys
                    (variant, seed, epoch, split, accuracy, loss); fully
                    deterministic, byte-identical across reruns
    result.json     aggregated RunResult, including wall-clock timing
    summary.txt     human-readable table
    model_seed<k>.bin   checkpoint of the best state for each seed

Input texts are truncated to fit max_seq_len minus the prompt length.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from dataclasses import InitVar, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import DropoutRng, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .data import FewShotSplit, LabeledDataset, read_corpus
from .encoder import (
    ClassificationHead,
    EncoderConfig,
    EncoderWeights,
    TransformerEncoder,
    pad_batch,
    pretrain_masked_token,
)
from .keywords import KeywordSet, vectorize_keywords
from .optim import Adam, clip_global_norm
# compose_with_gates is not called here; the benchmark's tracer patches it on runner by name
from .prompts import PromptState, Variant, compose_with_gates, init_prompt_state, per_layer_prompts
from .tokenizer import Tokenizer, tokenize


@dataclass
class RunConfig:
    variant: str = "switchprompt"
    # encoder
    embed_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 64
    max_seq_len: int = 128
    activation: str = "gelu"
    vocab_cap: int = 2000
    # prompts
    soft_prompt_len: int = 8
    num_keywords: int = 10
    alpha: float = -1.0
    train_keywords: bool = False
    keyword_vector_mode: str = "embedding"  # embedding | cls
    # optimization
    batch_size: int = 32
    head_dropout: float = 0.1
    epochs: int = 50
    lr: float = 5e-3
    lr_gamma: float = 0.95
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    # backbone
    backbone_init: str = "random"  # random | mlm
    backbone_seed: int = 1234
    backbone_init_std: float = 0.3
    mlm_steps: int = 300
    mlm_lr: float = 1e-3
    # data and io
    shots: int = 4
    split_seed: int = 0
    general_corpus: str = ""
    domain_corpus: str = ""
    dataset: str = ""
    keywords_file: str = ""
    out_dir: str = ""
    save_checkpoints: bool = True
    # not a config key: the benchmark's run_config (perfbench/workloads.py) passes
    # encoder_dropout=0.0, the only reason this argument exists; it goes with that line
    encoder_dropout: InitVar[float] = 0.0

    def __post_init__(self, encoder_dropout):
        if encoder_dropout != 0.0:
            raise ValueError(
                f"config key encoder_dropout: removed (the encoder has no dropout), "
                f"got {encoder_dropout!r}"
            )
        for key, kinds in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if not isinstance(value, kinds) or (type(value) is bool) != (bool in kinds):
                raise ValueError(f"config key {key}: expected {kinds[-1].__name__}, got {value!r}")
            if float in kinds and not abs(value) <= sys.float_info.max:  # NaN, ±inf, huge ints
                raise ValueError(f"config key {key}: must be finite, got {value!r}")
        if (not self.seeds or not all(type(seed) is int and seed >= 0 for seed in self.seeds)
                or len(set(self.seeds)) < len(self.seeds)):
            raise ValueError(
                f"config key seeds: must be a non-empty list of distinct ints >= 0, got {self.seeds!r}"
            )
        variant = Variant.parse(self.variant)
        for key, ok, rule in (
            ("embed_dim", self.embed_dim >= 1, ">= 1"),
            ("num_layers", self.num_layers >= 1, ">= 1"),
            ("num_heads", self.num_heads >= 1, ">= 1"),
            ("num_heads", self.num_heads >= 1 and self.embed_dim % self.num_heads == 0,
             f"a divisor of embed_dim {self.embed_dim}"),
            ("ffn_dim", self.ffn_dim >= 1, ">= 1"),
            ("vocab_cap", self.vocab_cap >= 4, ">= 4 (three reserved ids and a word)"),
            ("activation", self.activation in ("gelu", "relu"), "gelu or relu"),
            ("soft_prompt_len", self.soft_prompt_len >= 0, ">= 0"),
            ("soft_prompt_len", self.soft_prompt_len >= 1 or not variant.uses("V"),
             f">= 1 for variant {variant.value}"),
            ("num_keywords", self.num_keywords >= 0, ">= 0"),
            ("num_keywords", self.num_keywords >= 1 or not variant.uses("K"),
             f">= 1 for variant {variant.value}"),
            ("alpha", self.alpha < 0, "< 0"),
            ("shots", self.shots >= 1, ">= 1"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("backbone_init", self.backbone_init in ("random", "mlm"), "random or mlm"),
            ("keyword_vector_mode", self.keyword_vector_mode in ("embedding", "cls"),
             "embedding or cls"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("lr", self.lr > 0, "> 0"),
            ("lr_gamma", self.lr_gamma > 0, "> 0"),
            ("adam_beta1", 0 <= self.adam_beta1 < 1, "in [0, 1)"),
            ("adam_beta2", 0 <= self.adam_beta2 < 1, "in [0, 1)"),
            ("adam_eps", self.adam_eps > 0, "> 0"),
            ("grad_clip", self.grad_clip >= 0, ">= 0 (0 turns clipping off)"),
            ("mlm_steps", self.mlm_steps >= 0, ">= 0"),
            ("backbone_seed", self.backbone_seed >= 0, ">= 0"),
            ("backbone_init_std", self.backbone_init_std >= 0, ">= 0"),
            ("split_seed", self.split_seed >= 0, ">= 0"),
            ("mlm_lr", self.mlm_lr > 0, "> 0"),
            ("head_dropout", 0 <= self.head_dropout < 1, "in [0, 1)"),
        ):
            if not ok:
                raise ValueError(f"config key {key}: must be {rule}, got {getattr(self, key)!r}")
        prompt_len = variant.prompt_len(self.soft_prompt_len, self.num_keywords)
        if prompt_len >= self.max_seq_len:
            raise ValueError(
                f"config key max_seq_len: {self.max_seq_len} leaves no room for text after "
                f"the {prompt_len} prompt slots of variant {variant.value}"
            )

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(
            vocab_size=vocab_size,
            embed_dim=self.embed_dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            ffn_dim=self.ffn_dim,
            max_seq_len=self.max_seq_len,
            activation=self.activation,
            init_std=self.backbone_init_std,
        )

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        unknown = set(values) - _CONFIG_TYPES.keys()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# each config key's type, from its default value; an int is a valid float
_CONFIG_TYPES = {
    f.name: (int, float) if type(default) is float else (type(default),)
    for f in dataclasses.fields(RunConfig)
    for default in [f.default_factory() if f.default is dataclasses.MISSING else f.default]
}


def parse_config_text(text: str) -> dict:
    """`key = value` lines; values are parsed as JSON when possible, `#` starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        values[key.strip()] = _parse_value(value.strip())
    return values


def _parse_value(value: str):
    """A JSON value with an optional trailing comment, else the text before any `#`."""
    try:
        parsed, end = json.JSONDecoder().raw_decode(value)
        if value[end:].lstrip()[:1] in ("", "#"):
            return parsed
    except json.JSONDecodeError:
        pass
    return value.split("#", 1)[0].strip()


@dataclass
class RunResult:
    variant: str
    seeds: list[int]
    dev_accuracies: list[float]
    test_accuracies: list[float]
    test_mean: float
    test_std: float
    dev_mean: float
    best_epochs: list[int]
    trainable_params: int
    seconds_per_epoch: float
    config: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# padded tokens per length-sorted no-grad sub-batch: sorting keeps short texts
# from being padded to long ones, and the cap bounds the attention and FFN
# temporaries (larger caps were slower on short texts and raised peak memory)
EVAL_TOKEN_BUDGET = 1024


class PromptedClassifier:
    """A trained (or training) bundle: frozen backbone, prompts, head.

    The gates read the CLS vector of a plain pass, which the backbone caches
    per id sequence. Every pass covers the whole batch.
    """

    def __init__(
        self,
        encoder: TransformerEncoder,
        head: ClassificationHead,
        prompt_state: PromptState,
        tokenizer: Tokenizer,
        label_names: list[str],
    ):
        self.encoder = encoder
        self.head = head
        self.prompt_state = prompt_state
        self.tokenizer = tokenizer
        self.label_names = list(label_names)
        self.label_map = {name: i for i, name in enumerate(self.label_names)}

    @property
    def text_budget(self) -> int:
        """Token slots a text may fill, CLS included, after the prompt's."""
        return self.encoder.config.max_seq_len - self.prompt_state.prompt_len

    def _ids(self, text: str) -> list[int]:
        return self.tokenizer.encode(text)[: self.text_budget]

    def sentence_repr(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor | None:
        """(B, e) plain CLS vectors that drive the gates, for a padded batch."""
        if not self.prompt_state.variant.uses_gate1:
            return None
        return Tensor(self.encoder.cached_cls(ids, lengths))

    def logits(self, texts: list[str], train: bool = False, rng: DropoutRng | None = None) -> Tensor:
        """(B, classes) logits from one batched prompted pass; train mode reaches only the head."""
        if not texts:
            raise ValueError("cannot classify an empty batch of texts")
        ids, lengths = pad_batch([self._ids(text) for text in texts])
        prompts = per_layer_prompts(
            self.prompt_state, self.sentence_repr(ids, lengths), self.encoder.config.num_layers
        )
        cls = self.encoder.encode_prompted(ids, prompts, lengths=lengths)
        return self.head(cls, train=train, rng=rng)

    def label_indices(self, dataset: LabeledDataset) -> list[int]:
        """The model's class index of each example's label."""
        unknown = [label for _, label in dataset.examples if label not in self.label_map]
        if unknown:
            raise ValueError(
                f"label-space mismatch: dataset labels {sorted(set(unknown))} "
                f"unknown to the model ({self.label_names})"
            )
        return [self.label_map[label] for _, label in dataset.examples]

    def parameters(self) -> list[Tensor]:
        return self.prompt_state.parameters() + self.head.parameters()


def evaluate(model: PromptedClassifier, dataset: LabeledDataset) -> float:
    """Fraction of argmax-correct predictions, dropout disabled."""
    return _evaluate(model, dataset)[0]


def _evaluate(model: PromptedClassifier, dataset: LabeledDataset) -> tuple[float, float]:
    """Accuracy and mean cross-entropy over `dataset`, without a tape.

    Texts are sorted by token length and classified in sub-batches of at
    most EVAL_TOKEN_BUDGET padded tokens; results go back to dataset order.
    """
    if not dataset.examples:
        raise ValueError("cannot evaluate on an empty dataset")
    labels = np.asarray(model.label_indices(dataset))
    texts = dataset.texts()
    # len(model._ids(text)) without encoding the text a second time
    lengths = np.array([min(len(tokenize(text)) + 1, model.text_budget) for text in texts])
    order = np.argsort(lengths, kind="stable")
    logits = np.empty((len(texts), model.head.num_classes))
    with ag.no_grad():
        start = 0
        while start < len(order):
            stop = start + 1
            while stop < len(order) and (stop + 1 - start) * lengths[order[stop]] <= EVAL_TOKEN_BUDGET:
                stop += 1
            chosen = order[start:stop]
            logits[chosen] = model.logits([texts[i] for i in chosen]).data
            start = stop
        loss = ag.softmax_cross_entropy(Tensor(logits), labels).item()
    return float((np.argmax(logits, axis=1) == labels).mean()), loss


def _build_backbone(config: RunConfig, split: FewShotSplit, keyword_set: KeywordSet | None):
    """Tokenizer + (optionally warmed-up) frozen encoder, all deterministic."""
    if config.general_corpus and config.domain_corpus:
        texts = read_corpus(config.general_corpus) + read_corpus(config.domain_corpus)
    else:
        texts = split.train.texts() + split.dev.texts() + split.test.texts()
    if keyword_set is not None:
        texts = texts + [" ".join(keyword_set.words)]
    tokenizer = Tokenizer.build(texts, max_vocab=config.vocab_cap)
    enc_cfg = config.encoder_config(tokenizer.vocab_size)
    weights = EncoderWeights.init(enc_cfg, seed=config.backbone_seed)
    encoder = TransformerEncoder(enc_cfg, weights)
    if config.backbone_init == "mlm":
        sequences = [tokenizer.encode(t)[: config.max_seq_len] for t in texts]
        pretrain_masked_token(
            encoder, sequences, steps=config.mlm_steps, seed=config.backbone_seed, lr=config.mlm_lr
        )
    return tokenizer, encoder


def train(
    config: RunConfig,
    split: FewShotSplit,
    keyword_set: KeywordSet | None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Run every seed of one configuration; returns the aggregated result."""
    _check_keywords(config, keyword_set)
    _check_split(config, split)
    out_dir = _output_dir(config, out_dir)
    backbone = _build_backbone(config, split, keyword_set)
    return _train_seeds(config, split, keyword_set, backbone, out_dir)


def _output_dir(config: RunConfig, out_dir: str | Path | None) -> str | Path | None:
    """`out_dir`, else the config's; raises before any compute if it cannot be a directory."""
    out_dir = out_dir if out_dir is not None else config.out_dir or None
    if out_dir is not None:
        path = Path(out_dir)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ValueError(f"output directory {out_dir}: {existing} is not a directory")
    return out_dir


def _check_keywords(config: RunConfig, keyword_set: KeywordSet | None) -> None:
    variant = Variant.parse(config.variant)
    if variant.uses("K"):
        if keyword_set is None:
            raise ValueError(f"variant {variant.value} needs a keyword set")
        if keyword_set.n != config.num_keywords:
            raise ValueError(
                f"keyword count mismatch: config expects {config.num_keywords}, "
                f"file has {keyword_set.n}"
            )


def _check_split(config: RunConfig, split: FewShotSplit) -> None:
    if not split.test.examples:
        source = f" of {config.dataset}" if config.dataset else ""
        raise ValueError(
            f"config key shots: {config.shots} train and {config.shots} dev examples per class "
            f"leave no test examples{source}"
        )


def _train_seeds(config, split, keyword_set, backbone, out_dir) -> RunResult:
    """The seed loop of `train` on a built backbone, which it leaves unchanged."""
    tokenizer, built = backbone
    variant = Variant.parse(config.variant)
    kw_vectors = (vectorize_keywords(keyword_set, tokenizer, built, method=config.keyword_vector_mode)
                  if variant.uses("K") else None)

    label_names = list(split.train.label_map)
    records: list[dict] = []
    seed_results: list[dict] = []
    for seed in config.seeds:
        rng = np.random.default_rng((seed, 11))  # the prompts, then the head
        state = init_prompt_state(
            config.variant, config.num_layers, config.embed_dim, config.soft_prompt_len,
            kw_vectors, rng, config.train_keywords,
        )
        head = ClassificationHead.init(config.embed_dim, len(label_names), config.head_dropout, rng)
        model = PromptedClassifier(built, head, state, tokenizer, label_names)
        seed_results.append(_train_one_seed(config, split, model, seed, records))
        if out_dir is not None and config.save_checkpoints:
            _save_model(Path(out_dir) / f"model_seed{seed}.bin", config, model, seed, seed_results[-1])

    dev_accs = [r["dev"] for r in seed_results]
    test_accs = [r["test"] for r in seed_results]
    result = RunResult(
        variant=variant.value,
        seeds=list(config.seeds),
        dev_accuracies=dev_accs,
        test_accuracies=test_accs,
        test_mean=float(np.mean(test_accs)),
        test_std=float(np.std(test_accs)),
        dev_mean=float(np.mean(dev_accs)),
        best_epochs=[r["best_epoch"] for r in seed_results],
        trainable_params=sum(p.size for p in model.parameters()),
        seconds_per_epoch=float(np.mean([r["seconds_per_epoch"] for r in seed_results])),
        config=config.to_dict(),
    )
    if out_dir is not None:
        write_run_outputs(Path(out_dir), records, result)
    return result


def _train_one_seed(config, split, model, seed, records) -> dict:
    train_set = split.train
    labels = model.label_indices(train_set)
    texts = train_set.texts()
    shuffle_rng = np.random.default_rng((seed, 22))
    drop = DropoutRng(seed)
    # prompt, then head tensors: the order clipping sums the norm in
    params = model.parameters()
    opt = Adam(params, lr=config.lr, betas=(config.adam_beta1, config.adam_beta2),
               eps=config.adam_eps)

    def snapshot():
        return [p.data.copy() for p in params]

    best = {"acc": -1.0, "epoch": 0, "params": snapshot()}
    global_step = 0
    elapsed = 0.0

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        perm = shuffle_rng.permutation(len(texts))
        loss_sum, correct = 0.0, 0
        for start in range(0, len(perm), config.batch_size):
            chosen = perm[start : start + config.batch_size]
            batch_texts = [texts[i] for i in chosen]
            batch_labels = [labels[i] for i in chosen]
            drop.begin_step(global_step)
            opt.zero_grad()
            logits = model.logits(batch_texts, train=True, rng=drop)
            loss = ag.softmax_cross_entropy(logits, batch_labels)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise RuntimeError(
                    f"training diverged: non-finite loss at seed {seed}, step {global_step}"
                )
            ag.backward(loss)
            clip_global_norm(params, config.grad_clip)
            opt.step()
            global_step += 1
            loss_sum += loss_value * len(chosen)
            correct += int((np.argmax(logits.data, axis=1) == np.asarray(batch_labels)).sum())
        opt.lr = config.lr * config.lr_gamma**epoch
        elapsed += time.perf_counter() - started

        dev_acc, dev_loss = _evaluate(model, split.dev)
        records.append(
            _record(config.variant, seed, epoch, "train", correct / len(texts), loss_sum / len(texts))
        )
        records.append(_record(config.variant, seed, epoch, "dev", dev_acc, dev_loss))
        if dev_acc > best["acc"]:
            best = {"acc": dev_acc, "epoch": epoch, "params": snapshot()}

    for p, data in zip(params, best["params"]):
        p.data = data.copy()
    dev_acc, _ = _evaluate(model, split.dev)
    test_acc, test_loss = _evaluate(model, split.test)
    records.append(_record(config.variant, seed, best["epoch"], "test", test_acc, test_loss))
    return {
        "dev": dev_acc,
        "test": test_acc,
        "best_epoch": best["epoch"],
        "seconds_per_epoch": elapsed / config.epochs if config.epochs else 0.0,
    }


def _record(variant, seed, epoch, part, accuracy, loss) -> dict:
    return {
        "variant": variant,
        "seed": int(seed),
        "epoch": int(epoch),
        "split": part,
        "accuracy": float(accuracy),
        "loss": float(loss),
    }


def _save_model(path: Path, config: RunConfig, model: PromptedClassifier, seed, seed_result) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    weights, state, head = model.encoder.weights, model.prompt_state, model.head
    tensors = {**weights.named_arrays(), **state.named_arrays(), **head.named_arrays()}
    meta = {
        "config": config.to_dict(),
        "vocab": model.tokenizer.id_to_word,
        "labels": model.label_names,
        "variant": model.prompt_state.variant.value,
        "seed": int(seed),
        "best_epoch": int(seed_result["best_epoch"]),
    }
    save_checkpoint(path, tensors, meta)


def load_model(path: str | Path) -> PromptedClassifier:
    """Rebuild a PromptedClassifier from a training checkpoint."""
    tensors, meta = load_checkpoint(path)
    for key, kind in (("config", dict), ("vocab", list), ("labels", list), ("variant", str)):
        if not isinstance(meta.get(key), kind):
            raise ValueError(f"{path}: checkpoint meta lacks {key!r} (a JSON {kind.__name__})")
    try:
        config = RunConfig.from_dict(meta["config"])
        tokenizer = Tokenizer.from_full_vocab(meta["vocab"])
        enc_cfg = config.encoder_config(tokenizer.vocab_size)
        weights = EncoderWeights.from_arrays(enc_cfg, tensors)
        head = ClassificationHead.from_arrays(
            tensors, config.embed_dim, len(meta["labels"]), config.head_dropout
        )
        state = PromptState.from_arrays(
            meta["variant"], tensors, config.num_layers, config.soft_prompt_len,
            config.num_keywords, config.embed_dim, config.train_keywords,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    encoder = TransformerEncoder(enc_cfg, weights)
    return PromptedClassifier(encoder, head, state, tokenizer, meta["labels"])


def write_run_outputs(out_dir: Path, records: list[dict], result: RunResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics(out_dir / "metrics.jsonl", records)
    (out_dir / "result.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "summary.txt").write_text(format_results_table([result]) + "\n", encoding="utf-8")


def write_metrics(path: Path, records: list[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_results_table(results: list[RunResult]) -> str:
    headers = ("variant", "test_mean", "test_std", "dev_mean", "seeds", "params", "sec/epoch")
    rows = [
        (
            r.variant,
            f"{r.test_mean:.4f}",
            f"{r.test_std:.4f}",
            f"{r.dev_mean:.4f}",
            str(len(r.seeds)),
            str(r.trainable_params),
            f"{r.seconds_per_epoch:.2f}",
        )
        for r in results
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
    return "\n".join([fmt(headers)] + [fmt(row) for row in rows])


def ablate(
    config: RunConfig,
    split: FewShotSplit,
    keyword_set: KeywordSet | None,
    out_dir: str | Path | None = None,
    variants: list[Variant] | None = None,
) -> list[RunResult]:
    """Train every variant on one backbone with shared seeds and data; table in fixed order."""
    variants = list(variants) if variants is not None else list(Variant)
    # building every variant's config checks them all before the backbone is built
    configs = [replace(config, variant=variant.value) for variant in variants]
    for variant_config in configs:
        _check_keywords(variant_config, keyword_set)
    _check_split(config, split)
    out_dir = _output_dir(config, out_dir)
    backbone = _build_backbone(config, split, keyword_set)  # no variant shapes the backbone
    results = []
    for variant_config in configs:
        sub_dir = Path(out_dir) / variant_config.variant if out_dir is not None else None
        results.append(_train_seeds(variant_config, split, keyword_set, backbone, sub_dir))
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "ablation_table.txt").write_text(
            format_results_table(results) + "\n", encoding="utf-8"
        )
    return results
