"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The end-to-end ordering experiment (criterion 6) is
the long pole at a few minutes of CPU; everything else is seconds.
"""

import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from switchprompt import autograd as ag
from switchprompt.autograd import DropoutRng, Tensor
from switchprompt.cli import main as cli_main
from switchprompt.data import generate_synthetic_domains, sample_fewshot
from switchprompt.encoder import (
    ClassificationHead,
    EncoderConfig,
    EncoderWeights,
    TransformerEncoder,
)
from switchprompt.gradcheck import run_suite
from switchprompt.keywords import compute_stats, select_keywords
from switchprompt.optim import Adam
from switchprompt.prompts import compose_with_gates, gate, init_prompt_state, per_layer_prompts
from switchprompt.runner import RunConfig, train


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def ordering_config(**overrides) -> RunConfig:
    """The desk-scale experiment configuration: 2 layers, width 32, 4 classes."""
    params = dict(
        embed_dim=32, num_layers=2, num_heads=2, ffn_dim=64,
        soft_prompt_len=8, num_keywords=8,
        batch_size=32, epochs=50, lr=0.02, head_dropout=0.1,
        seeds=[0, 1, 2, 3, 4], mlm_steps=300,
    )
    params.update(overrides)
    return RunConfig(**params)


def test_criterion_1_autograd_finite_difference_suite():
    started = time.perf_counter()
    reports = run_suite(trials=100, seed=0)
    elapsed = time.perf_counter() - started
    worst = max(r.max_error for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 120.0
    report(
        "autograd: 100-trial finite-difference check per op",
        ok,
        f"{len(reports)} ops, worst error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_frozen_backbone_contract():
    cfg = EncoderConfig(vocab_size=40, embed_dim=16, num_layers=2, num_heads=2, ffn_dim=32)
    weights = EncoderWeights.init(cfg, seed=0)
    encoder = TransformerEncoder(cfg, weights)
    rng = np.random.default_rng(1)
    state = init_prompt_state(
        "switchprompt", 2, 16, soft_len=4, keyword_vectors=rng.standard_normal((5, 16)), rng=rng
    )
    head = ClassificationHead.init(16, 3, 0.1, rng)
    params = state.parameters() + head.parameters()
    initial = [p.data.copy() for p in params]
    opt = Adam(params, lr=5e-3)
    drop = DropoutRng(0)
    checksum_before = weights.checksum()

    sequences = [[0] + list(rng.integers(3, 40, size=6)) for _ in range(16)]
    s_inputs = []
    with ag.no_grad():
        for ids in sequences:
            cls_vec, _ = encoder.encode_plain(ids)
            s_inputs.append(Tensor(cls_vec.data))

    for step in range(50):
        drop.begin_step(step)
        idx = step % len(sequences)
        prompts = per_layer_prompts(state, s_inputs[idx], 2)
        cls_vec = encoder.encode_prompted(sequences[idx], prompts)
        logits = head(ag.reshape(cls_vec, (1, 16)), train=True, rng=drop)
        loss = ag.softmax_cross_entropy(logits, [step % 3])
        opt.zero_grad()
        ag.backward(loss)
        opt.step()

    backbone_ok = weights.checksum() == checksum_before
    changed = [not np.array_equal(p.data, before) for p, before in zip(params, initial)]
    report(
        "frozen backbone: checksum unchanged after 50 steps, all prompt/gate/head params moved",
        backbone_ok and all(changed),
        f"backbone {'intact' if backbone_ok else 'CHANGED'}, "
        f"{sum(changed)}/{len(changed)} trainable tensors moved",
    )


def test_criterion_3_equation_fidelity():
    rng = np.random.default_rng(2)
    e = 12
    state = init_prompt_state(
        "switchprompt", 1, e, soft_len=3, keyword_vectors=rng.standard_normal((4, e)), rng=rng
    )
    soft, kw = state.soft_prompts[0], state.keyword_vectors

    # gate saturation: align the gate weights with the input representation
    s = rng.standard_normal(e)
    state.gate1_weights.data = 20.0 * s / float(s @ s)
    g1 = gate(state.gate1_weights, Tensor(s[None]))
    g2 = gate(state.gate2_weights, Tensor(s[None]))
    composed = compose_with_gates(state, g1, g2, 0)
    padded = np.vstack([soft.data, np.zeros((state.prompt_len - len(soft.data), e))])
    saturation_ok = (
        g1.item() > 1.0 - 1e-6
        and float(np.abs(composed.data - padded).max()) < 1e-5
    )

    # second-gate extremes reproduce the two concatenation orders bit-exactly
    # (at g1 = 0 the composed prompt is the domain prompt alone)
    vk = compose_with_gates(state, Tensor(0.0), Tensor(1.0), 0).data
    kv = compose_with_gates(state, Tensor(0.0), Tensor(0.0), 0).data
    extremes_ok = np.array_equal(vk, np.vstack([soft.data, kw.data])) and np.array_equal(
        kv, np.vstack([kw.data, soft.data])
    )

    # restricted variants drop out of the full formula by gate/term elimination
    g_mid = Tensor(0.37)
    full_vk = compose_with_gates(state, g_mid, Tensor(1.0), 0).data
    full_kv = compose_with_gates(state, g_mid, Tensor(0.0), 0).data
    vk_state = init_prompt_state("concat-vk", 1, e, 3, kw.data, np.random.default_rng(3))
    kv_state = init_prompt_state("concat-kv", 1, e, 3, kw.data, np.random.default_rng(3))
    vk_state.soft_prompts[0].data = soft.data.copy()
    kv_state.soft_prompts[0].data = soft.data.copy()
    variants_ok = (
        np.array_equal(full_vk, compose_with_gates(vk_state, g_mid, None, 0).data)
        and np.array_equal(full_kv, compose_with_gates(kv_state, g_mid, None, 0).data)
    )
    ko_state = init_prompt_state("keywords-only", 1, e, 3, kw.data, np.random.default_rng(4))
    so_state = init_prompt_state("soft-only", 1, e, 3, None, np.random.default_rng(5))
    so_state.soft_prompts[0].data = soft.data.copy()
    variants_ok = (
        variants_ok
        and np.array_equal(compose_with_gates(ko_state, None, None, 0).data, kw.data)
        and np.array_equal(compose_with_gates(so_state, None, None, 0).data, soft.data)
    )

    report(
        "equation fidelity: gate saturation, concatenation extremes, variant eliminations",
        saturation_ok and extremes_ok and variants_ok,
        f"g1={g1.item():.12f}, max|P - pad| = "
        f"{float(np.abs(composed.data - padded).max()):.2e}",
    )


def _brute_force_keywords(general_docs, domain_docs, alpha, n):
    g_counts, d_counts = Counter(), Counter()
    for doc in general_docs:
        g_counts.update(doc.lower().split())
    for doc in domain_docs:
        d_counts.update(doc.lower().split())
    g_total, d_total = sum(g_counts.values()), sum(d_counts.values())
    remaining = {
        w: alpha * (g_counts.get(w, 0) / g_total) + d_counts[w] / d_total for w in d_counts
    }
    picked = []
    for _ in range(n):
        best = None
        for word, score in remaining.items():
            if (
                best is None
                or score > remaining[best]
                or (score == remaining[best] and word < best)
            ):
                best = word
        picked.append((best, remaining.pop(best)))
    return picked


def test_criterion_4_keyword_selection_equals_brute_force():
    rng = np.random.default_rng(6)
    mismatches = 0
    for trial in range(50):
        shared = [f"s{i}" for i in range(int(rng.integers(10, 100)))]
        exclusive = [f"d{i}" for i in range(int(rng.integers(5, 100)))]
        general_docs = [
            " ".join(shared[j] for j in rng.integers(0, len(shared), size=rng.integers(2, 20)))
            for _ in range(int(rng.integers(2, 12)))
        ]
        pool = shared + exclusive
        domain_docs = [
            " ".join(pool[j] for j in rng.integers(0, len(pool), size=rng.integers(2, 20)))
            for _ in range(int(rng.integers(2, 12)))
        ]
        alpha = float(rng.choice([-0.5, -1.0, -2.0]))
        vocab = {w for d in domain_docs for w in d.split()}
        n = int(rng.integers(1, len(vocab) + 1))
        got = select_keywords(
            compute_stats(general_docs, "general"),
            compute_stats(domain_docs, "domain"),
            alpha=alpha,
            n=n,
        )
        expected = _brute_force_keywords(general_docs, domain_docs, alpha, n)
        if got.words != [w for w, _ in expected] or got.scores != [s for _, s in expected]:
            mismatches += 1
    report(
        "keyword mining equals exhaustive brute-force top-n (50 random corpora)",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_5_fewshot_protocol():
    task = generate_synthetic_domains(
        seed=3, num_classes=5, examples_per_class=150, filler_prob=0.5
    )
    failures = []
    for shots in (2, 4, 16, 64):
        split = sample_fewshot(task.dataset, shots=shots, seed=11)
        again = sample_fewshot(task.dataset, shots=shots, seed=11)
        for label in task.dataset.label_map:
            if sum(1 for _, l in split.train.examples if l == label) != shots:
                failures.append(f"train count {shots} {label}")
            if sum(1 for _, l in split.dev.examples if l == label) != shots:
                failures.append(f"dev count {shots} {label}")
        seen = (
            set(split.train_indices) | set(split.dev_indices) | set(split.test_indices)
        )
        if len(seen) != len(task.dataset.examples):
            failures.append(f"overlap at N={shots}")
        if (split.train_indices, split.dev_indices) != (
            again.train_indices,
            again.dev_indices,
        ):
            failures.append(f"nondeterministic at N={shots}")
    report(
        "few-shot protocol: exact N train/dev per class, disjoint, seed-deterministic",
        not failures,
        "; ".join(failures) if failures else "N in {2,4,16,64} on 5 classes",
    )


@pytest.fixture(scope="module")
def ordering_task():
    task = generate_synthetic_domains(
        seed=0, num_classes=4, examples_per_class=160, filler_prob=0.6,
        tokens_per_example=12, filler_vocab=30, keywords_per_class=4,
    )
    split = sample_fewshot(task.dataset, shots=64, seed=0)
    general = compute_stats(task.general_corpus, "general")
    domain = compute_stats(task.domain_corpus, "domain")
    keyword_set = select_keywords(general, domain, alpha=-1.0, n=8)
    return task, split, keyword_set


def test_criterion_6_end_to_end_ordering(ordering_task):
    _, split, keyword_set = ordering_task
    started = time.perf_counter()
    config = ordering_config()
    means = {}
    for variant in ("switchprompt", "keywords-only", "soft-only"):
        result = train(replace(config, variant=variant), split, keyword_set)
        means[variant] = result.test_mean
    elapsed = time.perf_counter() - started
    gap_keywords = means["switchprompt"] - means["keywords-only"]
    gap_soft = means["switchprompt"] - means["soft-only"]
    ok = gap_keywords >= 0.05 and gap_soft >= -0.01 and elapsed < 30 * 60
    report(
        "end-to-end ordering: full variant beats keywords-only by 5+ points, "
        "matches soft-only within 1",
        ok,
        f"switchprompt={means['switchprompt']:.3f}, keywords-only={means['keywords-only']:.3f}, "
        f"soft-only={means['soft-only']:.3f}, {elapsed / 60:.1f} min",
    )


def test_criterion_7_separable_ceiling():
    task = generate_synthetic_domains(
        seed=0, num_classes=4, examples_per_class=48, filler_prob=0.0,
        tokens_per_example=12, keywords_per_class=4,
    )
    split = sample_fewshot(task.dataset, shots=16, seed=0)
    general = compute_stats(task.general_corpus, "general")
    domain = compute_stats(task.domain_corpus, "domain")
    keyword_set = select_keywords(general, domain, alpha=-1.0, n=8)
    config = ordering_config(variant="switchprompt", epochs=15, shots=16)
    result = train(config, split, keyword_set)
    report(
        "separable ceiling: full variant reaches 1.0 test accuracy on all 5 seeds",
        all(acc == 1.0 for acc in result.test_accuracies),
        f"test accuracies {result.test_accuracies}, best epochs {result.best_epochs}",
    )


def test_criterion_8_parameter_economy(ordering_task):
    _, split, keyword_set = ordering_task
    config = ordering_config(mlm_steps=0)
    from switchprompt.keywords import vectorize_keywords
    from switchprompt.runner import _build_backbone

    tokenizer, encoder = _build_backbone(config, split, keyword_set)
    kw_vectors = vectorize_keywords(keyword_set, tokenizer, encoder)
    rng = np.random.default_rng(0)
    state = init_prompt_state(
        "switchprompt", config.num_layers, config.embed_dim,
        soft_len=config.soft_prompt_len, keyword_vectors=kw_vectors, rng=rng,
    )
    classes = split.train.num_classes
    head = ClassificationHead.init(config.embed_dim, classes, config.head_dropout, rng)

    weights = list(encoder.weights.tensors.values())
    count = sum(t.size for t in weights + state.parameters() + head.parameters() if t.requires_grad)
    e, layers = config.embed_dim, config.num_layers
    trainable_slots = config.soft_prompt_len  # keyword rows stay fixed
    expected = layers * trainable_slots * e + 2 * e + e * classes + classes
    unfrozen_total = count + sum(t.size for t in weights)
    ok = count == expected and count < 0.05 * unfrozen_total
    report(
        "parameter economy: frozen trainable count matches the closed form and "
        "is under 5% of the unfrozen total",
        ok,
        f"count={count}, expected={expected}, unfrozen={unfrozen_total}, "
        f"ratio={count / unfrozen_total:.3%}",
    )


def test_criterion_9_byte_identical_metrics(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main([
        "gen-synthetic", "--out", str(data_dir), "--seed", "0", "--classes", "3",
        "--examples-per-class", "20", "--filler-prob", "0.4", "--keywords-per-class", "3",
    ]) == 0
    flags = [
        "train",
        "--data", str(data_dir / "dataset.tsv"),
        "--general", str(data_dir / "general.txt"),
        "--domain", str(data_dir / "domain.txt"),
        "--shots", "4", "--seeds", "0", "--epochs", "2", "--m", "3", "--n", "6",
    ]
    assert cli_main(flags + ["--out", str(tmp_path / "run1")]) == 0
    assert cli_main(flags + ["--out", str(tmp_path / "run2")]) == 0
    first = (tmp_path / "run1" / "metrics.jsonl").read_bytes()
    second = (tmp_path / "run2" / "metrics.jsonl").read_bytes()
    report(
        "determinism: repeated train runs write byte-identical metrics files",
        first == second,
        f"{len(first)} bytes",
    )
