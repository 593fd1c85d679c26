"""Dataset loading, few-shot protocol and the synthetic domain-shift generator."""

import json
import re

import numpy as np
import pytest

from switchprompt.data import (
    LabeledDataset,
    generate_synthetic_domains,
    load_dataset,
    sample_fewshot,
    save_dataset,
    write_split,
)
from switchprompt.keywords import compute_stats, score_word, select_keywords
from switchprompt.tokenizer import tokenize


def toy_dataset(per_class=10, classes=("red", "blue", "green")):
    examples = []
    for label in classes:
        for i in range(per_class):
            examples.append((f"{label} sample {i}", label))
    return LabeledDataset(examples, {label: i for i, label in enumerate(classes)})


class TestLoadDataset:
    def test_two_records_two_labels(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("yes\tgood stuff\nno\tbad stuff\n", encoding="utf-8")
        ds = load_dataset(path)
        assert ds.num_classes == 2
        assert ds.label_map == {"yes": 0, "no": 1}

    def test_duplicates_preserved_as_distinct_examples(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\tsame text\na\tsame text\n", encoding="utf-8")
        ds = load_dataset(path)
        assert len(ds) == 2

    def test_roundtrip_is_identity(self, tmp_path):
        ds = toy_dataset()
        path = tmp_path / "roundtrip.tsv"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert loaded.examples == ds.examples
        assert loaded.label_map == ds.label_map

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "broken.tsv"
        path.write_text("ok\ttext\nno_tab_here\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(path)

    @pytest.mark.parametrize("text", ["", "   "], ids=["empty", "whitespace"])
    def test_empty_text_rejected_naming_file_and_line(self, tmp_path, text):
        path = tmp_path / "blank.tsv"
        path.write_text(f"ok\ttext\nok\t{text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: empty text")):
            load_dataset(path)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(path)


class TestSampleFewshot:
    def test_three_classes_four_shots(self):
        split = sample_fewshot(toy_dataset(), shots=4, seed=0)
        assert len(split.train) == 12
        assert len(split.dev) == 12
        for label in split.train.label_map:
            assert sum(1 for _, l in split.train.examples if l == label) == 4
            assert sum(1 for _, l in split.dev.examples if l == label) == 4

    def test_boundary_leaves_empty_test_with_warning(self):
        with pytest.warns(UserWarning, match="no examples left"):
            split = sample_fewshot(toy_dataset(per_class=8), shots=4, seed=0)
        assert len(split.test) == 0

    def test_deterministic_per_seed_and_varying_across_seeds(self):
        ds = toy_dataset(per_class=20)
        splits = [sample_fewshot(ds, shots=4, seed=s) for s in range(5)]
        again = sample_fewshot(ds, shots=4, seed=0)
        assert splits[0].train.examples == again.train.examples
        assert splits[0].dev.examples == again.dev.examples
        distinct = {tuple(s.train_indices) for s in splits}
        assert len(distinct) == 5

    def test_disjoint_by_identity(self):
        split = sample_fewshot(toy_dataset(per_class=12), shots=4, seed=3)
        train, dev, test = map(set, (split.train_indices, split.dev_indices, split.test_indices))
        assert not (train & dev) and not (train & test) and not (dev & test)
        assert len(train | dev | test) == 36

    def test_insufficient_examples_names_class(self):
        with pytest.raises(ValueError, match="class 'red' has 7 examples"):
            sample_fewshot(toy_dataset(per_class=7), shots=4, seed=0)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shots_below_one_rejected(self, shots):
        with pytest.raises(ValueError, match=f"shots must be >= 1, got {shots}"):
            sample_fewshot(toy_dataset(per_class=7), shots=shots, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample_fewshot(toy_dataset(per_class=8), shots=4, seed=-1)

    def test_stable_under_record_permutation(self):
        ds = toy_dataset(per_class=15)
        rng = np.random.default_rng(4)
        shuffled_examples = [ds.examples[i] for i in rng.permutation(len(ds.examples))]
        shuffled = LabeledDataset(shuffled_examples, dict(ds.label_map))
        a = sample_fewshot(ds, shots=4, seed=9)
        b = sample_fewshot(shuffled, shots=4, seed=9)
        for part_a, part_b in (
            (a.train, b.train), (a.dev, b.dev), (a.test, b.test)
        ):
            assert sorted(part_a.examples) == sorted(part_b.examples)

    def test_all_shot_settings_hold_counts(self):
        ds = toy_dataset(per_class=150, classes=("a", "b", "c", "d", "e"))
        for shots in (2, 4, 16, 64):
            split = sample_fewshot(ds, shots=shots, seed=1)
            for label in ds.label_map:
                assert sum(1 for _, l in split.train.examples if l == label) == shots
                assert sum(1 for _, l in split.dev.examples if l == label) == shots
            assert len(split.test) == len(ds) - 2 * shots * 5

    def test_split_files_roundtrip(self, tmp_path):
        split = sample_fewshot(toy_dataset(per_class=12), shots=4, seed=5)
        write_split(tmp_path, split)
        for name in ("train", "dev", "test"):
            assert load_dataset(tmp_path / f"{name}.tsv").examples == getattr(split, name).examples
        manifest = json.loads((tmp_path / "split.json").read_text(encoding="utf-8"))
        assert manifest["shots"] == 4 and manifest["seed"] == 5


def bag_of_keywords_accuracy(task, dataset) -> float:
    """Independent ceiling check: classify by counting planted class tokens."""
    token_to_label = {
        tok: label for label, tokens in task.planted_keywords.items() for tok in tokens
    }
    labels_in_order = list(dataset.label_map)
    correct = 0
    for text, label in dataset.examples:
        votes = {lab: 0 for lab in labels_in_order}
        for word in tokenize(text):
            if word in token_to_label:
                votes[token_to_label[word]] += 1
        predicted = max(labels_in_order, key=lambda lab: votes[lab])
        correct += predicted == label
    return correct / len(dataset.examples)


class TestSyntheticGenerator:
    def test_separable_when_filler_probability_zero(self):
        task = generate_synthetic_domains(seed=0, filler_prob=0.0, num_classes=3,
                                          examples_per_class=20)
        planted = {tok for toks in task.planted_keywords.values() for tok in toks}
        for text, _ in task.dataset.examples:
            assert set(text.split()) <= planted
        assert bag_of_keywords_accuracy(task, task.dataset) == 1.0

    def test_keyword_miner_recovers_planted_tokens(self):
        task = generate_synthetic_domains(seed=1, num_classes=4, keywords_per_class=4,
                                          examples_per_class=60, filler_prob=0.5)
        general = compute_stats(task.general_corpus, "general")
        domain = compute_stats(task.domain_corpus, "domain")
        planted = {tok for toks in task.planted_keywords.values() for tok in toks}
        ks = select_keywords(general, domain, alpha=-1.0, n=len(planted))
        assert set(ks.words) == planted

    def test_uniform_label_distribution(self):
        task = generate_synthetic_domains(seed=2, num_classes=5, examples_per_class=17)
        for label in task.dataset.label_map:
            assert sum(1 for _, l in task.dataset.examples if l == label) == 17

    def test_planted_scores_strictly_beat_fillers(self):
        for seed in range(5):
            task = generate_synthetic_domains(seed=seed, filler_prob=0.6,
                                              examples_per_class=40)
            general = compute_stats(task.general_corpus, "general")
            domain = compute_stats(task.domain_corpus, "domain")
            planted = {tok for toks in task.planted_keywords.values() for tok in toks}
            worst_planted = min(score_word(w, general, domain, -1.0) for w in planted)
            fillers = [w for w in domain.counts if w not in planted]
            best_filler = max(score_word(w, general, domain, -1.0) for w in fillers)
            assert worst_planted > best_filler

    def test_deterministic_per_seed(self):
        a = generate_synthetic_domains(seed=7)
        b = generate_synthetic_domains(seed=7)
        assert a.dataset.examples == b.dataset.examples
        assert a.general_corpus == b.general_corpus

    def test_invalid_filler_probability(self):
        with pytest.raises(ValueError, match="filler_prob"):
            generate_synthetic_domains(seed=0, filler_prob=1.0)

    @pytest.mark.parametrize("name, value", [
        ("num_classes", 0), ("examples_per_class", -2), ("tokens_per_example", 0),
        ("keywords_per_class", 0), ("filler_vocab", 0), ("general_docs", 0),
        ("general_doc_len", 0), ("seed", -1),
    ])
    def test_count_that_makes_no_task_is_named(self, name, value):
        kwargs = {"seed": 0, name: value}
        bound = ">= 0" if name == "seed" else ">= 1"
        with pytest.raises(ValueError, match=f"^{name} must be {bound}, got {value}$"):
            generate_synthetic_domains(**kwargs)
