"""Dataset ingestion, few-shot splits, and synthetic domain-shift tasks.

Dataset files are UTF-8 text with one `label<TAB>text` record per line.
Few-shot splits draw exactly N train and N dev examples per class (dev kept
in sync with train), with everything left over forming the test set.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np



@dataclass
class LabeledDataset:
    examples: list[tuple[str, str]]  # (text, label)
    label_map: dict[str, int]
    domain: str = "unspecified"

    def __post_init__(self):
        for text, label in self.examples:
            if label not in self.label_map:
                raise ValueError(f"label {label!r} missing from label_map")

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def num_classes(self) -> int:
        return len(self.label_map)

    def texts(self) -> list[str]:
        return [text for text, _ in self.examples]


@dataclass
class FewShotSplit:
    train: LabeledDataset
    dev: LabeledDataset
    test: LabeledDataset
    shots: int
    seed: int
    # positions in the source dataset, for disjointness bookkeeping
    train_indices: list[int] = field(default_factory=list)
    dev_indices: list[int] = field(default_factory=list)
    test_indices: list[int] = field(default_factory=list)


def read_text(path: str | Path) -> str:
    """Contents of a UTF-8 text file; any other encoding raises a ValueError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_dataset(path: str | Path, domain: str = "unspecified") -> LabeledDataset:
    """Parse `label<TAB>text` records; label indices in first-appearance order."""
    examples: list[tuple[str, str]] = []
    label_map: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        label, sep, text = line.partition("\t")
        if not sep or not label:
            raise ValueError(f"{path}:{lineno}: expected label<TAB>text, got {line!r}")
        if not text.strip():
            raise ValueError(f"{path}:{lineno}: empty text")
        if label not in label_map:
            label_map[label] = len(label_map)
        examples.append((text, label))
    if not examples:
        raise ValueError(f"{path}: dataset is empty")
    return LabeledDataset(examples, label_map, domain)


def save_dataset(path: str | Path, dataset: LabeledDataset) -> None:
    lines = [f"{label}\t{text}" for text, label in dataset.examples]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def sample_fewshot(dataset: LabeledDataset, shots: int, seed: int) -> FewShotSplit:
    """Seeded stratified split: N train + N dev per class, remainder is test.

    Examples are sorted by (label, text, position) before sampling, so the
    split contents do not depend on the record order of the source file.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    by_class: dict[str, list[int]] = {label: [] for label in dataset.label_map}
    order = sorted(
        range(len(dataset.examples)),
        key=lambda i: (dataset.examples[i][1], dataset.examples[i][0], i),
    )
    for i in order:
        by_class[dataset.examples[i][1]].append(i)

    for label, members in by_class.items():
        if len(members) < 2 * shots:
            raise ValueError(
                f"class {label!r} has {len(members)} examples, "
                f"needs at least {2 * shots} for {shots}-shot train+dev"
            )

    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    dev_idx: list[int] = []
    test_idx: list[int] = []
    for label in dataset.label_map:  # label-index order
        members = by_class[label]
        perm = rng.permutation(len(members))
        chosen = [members[j] for j in perm]
        train_idx.extend(chosen[:shots])
        dev_idx.extend(chosen[shots : 2 * shots])
        rest = chosen[2 * shots :]
        test_idx.extend(rest)
        if not rest:
            warnings.warn(f"class {label!r} has no examples left for the test set")

    def subset(indices: list[int]) -> LabeledDataset:
        return LabeledDataset(
            [dataset.examples[i] for i in indices], dict(dataset.label_map), dataset.domain
        )

    return FewShotSplit(
        train=subset(train_idx),
        dev=subset(dev_idx),
        test=subset(test_idx),
        shots=shots,
        seed=seed,
        train_indices=train_idx,
        dev_indices=dev_idx,
        test_indices=test_idx,
    )


def write_split(out_dir: str | Path, split: FewShotSplit) -> None:
    """train/dev/test files plus a JSON manifest with seed, shots and counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        save_dataset(out_dir / f"{name}.tsv", part)
    counts = {
        label: {
            "train": sum(1 for _, lab in split.train.examples if lab == label),
            "dev": sum(1 for _, lab in split.dev.examples if lab == label),
            "test": sum(1 for _, lab in split.test.examples if lab == label),
        }
        for label in split.train.label_map
    }
    manifest = {
        "seed": split.seed,
        "shots": split.shots,
        "label_map": split.train.label_map,
        "counts": counts,
        "indices": {
            "train": split.train_indices,
            "dev": split.dev_indices,
            "test": split.test_indices,
        },
    }
    (out_dir / "split.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


@dataclass
class SyntheticTask:
    general_corpus: list[str]
    domain_corpus: list[str]
    dataset: LabeledDataset
    planted_keywords: dict[str, list[str]]  # label -> its exclusive tokens


def generate_synthetic_domains(
    seed: int,
    filler_vocab: int = 30,
    keywords_per_class: int = 4,
    num_classes: int = 4,
    examples_per_class: int = 160,
    tokens_per_example: int = 12,
    filler_prob: float = 0.5,
    general_docs: int = 300,
    general_doc_len: int = 12,
) -> SyntheticTask:
    """Build a general corpus and a domain task with planted keywords.

    Filler words appear in both corpora; each class owns exclusive tokens
    that never occur in the general corpus, so the contrastive score ranks
    them above every filler word. Each domain example mixes fillers (with
    probability ``filler_prob`` per slot) and tokens of its class, which
    makes the label recoverable from the class-exclusive tokens.
    """
    counts = dict(
        filler_vocab=filler_vocab, keywords_per_class=keywords_per_class, num_classes=num_classes,
        examples_per_class=examples_per_class, tokens_per_example=tokens_per_example,
        general_docs=general_docs, general_doc_len=general_doc_len,
    )
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= filler_prob < 1.0:
        raise ValueError(f"filler_prob must be in [0, 1), got {filler_prob}")
    rng = np.random.default_rng(seed)
    fillers = [f"gen{i:03d}" for i in range(filler_vocab)]
    class_tokens = {
        f"class{c}": [f"cls{c}kw{j}" for j in range(keywords_per_class)]
        for c in range(num_classes)
    }

    general_corpus = [
        " ".join(fillers[j] for j in rng.integers(0, filler_vocab, size=general_doc_len))
        for _ in range(general_docs)
    ]

    examples: list[tuple[str, str]] = []
    for label, tokens in class_tokens.items():
        for _ in range(examples_per_class):
            words = []
            for _ in range(tokens_per_example):
                if rng.random() < filler_prob:
                    words.append(fillers[int(rng.integers(0, filler_vocab))])
                else:
                    words.append(tokens[int(rng.integers(0, len(tokens)))])
            examples.append((" ".join(words), label))
    label_map = {label: i for i, label in enumerate(class_tokens)}
    dataset = LabeledDataset(examples, label_map, domain="synthetic")
    domain_corpus = [text for text, _ in examples]
    return SyntheticTask(general_corpus, domain_corpus, dataset, class_tokens)


def write_corpus(path: str | Path, documents: list[str]) -> None:
    Path(path).write_text("\n".join(documents) + "\n", encoding="utf-8")


def read_corpus(path: str | Path) -> list[str]:
    return [line for line in read_text(path).splitlines() if line.strip()]

