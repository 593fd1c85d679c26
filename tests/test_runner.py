"""Training loop, evaluation, ablation and metrics contracts."""

import json
from dataclasses import replace

import numpy as np
import pytest

from switchprompt import autograd as ag
from switchprompt import runner
from switchprompt.data import LabeledDataset
from switchprompt.encoder import ClassificationHead
from switchprompt.keywords import KeywordSet
from switchprompt.optim import Adam
from switchprompt.runner import (
    PromptedClassifier,
    RunConfig,
    _build_backbone,
    ablate,
    evaluate,
    load_model,
    parse_config_text,
    train,
)
from switchprompt.prompts import Variant, init_prompt_state


def forced_class_zero_model(tiny_config, tiny_split, tiny_keywords, labels):
    """Classifier whose logits always favor class 0 (zero projection, peaked bias)."""
    tokenizer, encoder = _build_backbone(tiny_config, tiny_split, tiny_keywords)
    rng = np.random.default_rng(0)
    head = ClassificationHead.init(tiny_config.embed_dim, len(labels), 0.0, rng)
    head.projection.data[:] = 0.0
    head.bias.data[:] = 0.0
    head.bias.data[0] = 1.0
    state = init_prompt_state(
        "soft-only", tiny_config.num_layers, tiny_config.embed_dim,
        soft_len=2, keyword_vectors=None, rng=rng,
    )
    return PromptedClassifier(encoder, head, state, tokenizer, labels)


class TestEvaluate:
    def test_forced_class_zero_on_uniform_set_gives_chance(self, tiny_config, tiny_split,
                                                           tiny_keywords):
        labels = ["w", "x", "y", "z"]
        examples = [(f"gen00{i} gen00{i + 1}", label) for i, label in enumerate(labels)]
        uniform = LabeledDataset(examples, {l: i for i, l in enumerate(labels)})
        model = forced_class_zero_model(tiny_config, tiny_split, tiny_keywords, labels)
        assert evaluate(model, uniform) == 0.25

    def test_repeated_evaluation_is_identical(self, tiny_config, tiny_split, tiny_keywords):
        model = forced_class_zero_model(tiny_config, tiny_split, tiny_keywords,
                                        list(tiny_split.train.label_map))
        a = evaluate(model, tiny_split.dev)
        b = evaluate(model, tiny_split.dev)
        assert a == b

    def test_matches_hand_counted_accuracy(self, tiny_config, tiny_split, tiny_keywords):
        model = forced_class_zero_model(tiny_config, tiny_split, tiny_keywords,
                                        list(tiny_split.train.label_map))
        model.head.projection.data[:] = np.random.default_rng(5).normal(
            0, 0.5, size=model.head.projection.data.shape
        )
        subset = LabeledDataset(tiny_split.test.examples[:20], dict(tiny_split.test.label_map))
        # oracle: per-example argmax comparison, counted by hand
        correct = 0
        for text, label in subset.examples:
            with ag.no_grad():
                predicted = int(np.argmax(model.logits([text]).data, axis=1)[0])
            correct += predicted == subset.label_map[label]
        assert evaluate(model, subset) == correct / len(subset.examples)

    def test_label_space_mismatch_rejected(self, tiny_config, tiny_split, tiny_keywords):
        model = forced_class_zero_model(tiny_config, tiny_split, tiny_keywords, ["a", "b"])
        bad = LabeledDataset([("text", "zebra")], {"zebra": 0})
        with pytest.raises(ValueError, match="label-space mismatch"):
            evaluate(model, bad)


class TestTrain:
    def test_zero_epochs_reports_initial_model(self, tiny_config, tiny_split, tiny_keywords):
        result = train(replace(tiny_config, epochs=0), tiny_split, tiny_keywords)
        assert len(result.test_accuracies) == 1
        assert 0.0 <= result.test_accuracies[0] <= 1.0
        assert result.best_epochs == [0]

    def test_keyword_count_mismatch_rejected(self, tiny_config, tiny_split):
        wrong = KeywordSet(words=["gen000", "gen001"], scores=[0.2, 0.1], alpha=-1.0)
        with pytest.raises(ValueError, match="keyword count mismatch"):
            train(tiny_config, tiny_split, wrong)

    def test_soft_only_ignores_keywords_entirely(self, tiny_config, tiny_split, tiny_keywords,
                                                 tmp_path):
        other = KeywordSet(
            words=list(reversed(tiny_keywords.words)),
            scores=list(reversed(tiny_keywords.scores)),
            alpha=-1.0,
        )
        cfg = replace(tiny_config, variant="soft-only", epochs=2)
        a = train(cfg, tiny_split, tiny_keywords, tmp_path / "a")
        b = train(cfg, tiny_split, other, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
            tmp_path / "b" / "metrics.jsonl"
        ).read_bytes()

    def test_metrics_files_byte_identical_across_runs(self, tiny_config, tiny_split,
                                                      tiny_keywords, tmp_path):
        train(tiny_config, tiny_split, tiny_keywords, tmp_path / "run1")
        train(tiny_config, tiny_split, tiny_keywords, tmp_path / "run2")
        assert (tmp_path / "run1" / "metrics.jsonl").read_bytes() == (
            tmp_path / "run2" / "metrics.jsonl"
        ).read_bytes()

    def test_metrics_schema_and_epoch_coverage(self, tiny_config, tiny_split, tiny_keywords,
                                               tmp_path):
        train(replace(tiny_config, epochs=3, seeds=[0, 1]), tiny_split, tiny_keywords, tmp_path)
        records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert all(set(r) == {"variant", "seed", "epoch", "split", "accuracy", "loss"}
                   for r in records)
        for seed in (0, 1):
            dev_epochs = [r["epoch"] for r in records if r["seed"] == seed and r["split"] == "dev"]
            assert dev_epochs == [1, 2, 3]
            tests = [r for r in records if r["seed"] == seed and r["split"] == "test"]
            assert len(tests) == 1

    def test_mean_is_arithmetic_mean_over_seeds(self, tiny_config, tiny_split, tiny_keywords):
        result = train(replace(tiny_config, seeds=[0, 1, 2]), tiny_split, tiny_keywords)
        assert len(result.test_accuracies) == 3
        assert abs(result.test_mean - sum(result.test_accuracies) / 3) < 1e-12

    def test_reported_count_matches_enumeration(self, tiny_config, tiny_split, tiny_keywords):
        result = train(tiny_config, tiny_split, tiny_keywords)
        e, m, L = tiny_config.embed_dim, tiny_config.soft_prompt_len, tiny_config.num_layers
        classes = tiny_split.train.num_classes
        assert result.trainable_params == L * m * e + 2 * e + e * classes + classes

    def test_frozen_vs_unfrozen_parameter_gap_is_backbone_size(self, tiny_config, tiny_split,
                                                               tiny_keywords):
        frozen = train(tiny_config, tiny_split, tiny_keywords)
        unfrozen = train(replace(tiny_config, freeze_backbone=False), tiny_split, tiny_keywords)
        tokenizer, encoder = _build_backbone(tiny_config, tiny_split, tiny_keywords)
        assert unfrozen.trainable_params - frozen.trainable_params == sum(
            t.size for t in encoder.weights.tensors.values()
        )

    def test_best_dev_tie_goes_to_earlier_epoch(self, tiny_config, tiny_split, tiny_keywords,
                                                tmp_path):
        out = tmp_path / "ties"
        result = train(replace(tiny_config, epochs=4), tiny_split, tiny_keywords, out)
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        dev = {r["epoch"]: r["accuracy"] for r in records if r["split"] == "dev"}
        best_acc = max(dev.values())
        earliest = min(e for e, acc in dev.items() if acc == best_acc)
        assert result.best_epochs == [earliest]

    def test_checkpoint_roundtrips_through_evaluate(self, tiny_config, tiny_split, tiny_keywords,
                                                    tmp_path):
        cfg = replace(tiny_config, save_checkpoints=True)
        result = train(cfg, tiny_split, tiny_keywords, tmp_path)
        model = load_model(tmp_path / "model_seed0.bin")
        assert evaluate(model, tiny_split.test) == result.test_accuracies[0]

    def test_backbone_in_checkpoint_is_bit_identical_to_fresh_build(self, tiny_config,
                                                                    tiny_split, tiny_keywords,
                                                                    tmp_path):
        # training must leave the frozen backbone untouched: the saved weights
        # equal a deterministic rebuild from the same config
        cfg = replace(tiny_config, save_checkpoints=True, epochs=3)
        train(cfg, tiny_split, tiny_keywords, tmp_path)
        model = load_model(tmp_path / "model_seed0.bin")
        _, fresh = _build_backbone(cfg, tiny_split, tiny_keywords)
        for name, tensor in fresh.weights.tensors.items():
            np.testing.assert_array_equal(model.encoder.weights[name].data, tensor.data)


class TestAblate:
    def test_concat_order_changes_step_zero_loss(self, tiny_config, tiny_split, tiny_keywords,
                                                 tmp_path):
        # one epoch, one batch covering the whole train set: the first record
        # is the step-0 loss
        cfg = replace(tiny_config, epochs=1, batch_size=len(tiny_split.train))
        losses = {}
        for variant in ("concat-vk", "concat-kv"):
            out = tmp_path / variant
            train(replace(cfg, variant=variant), tiny_split, tiny_keywords, out)
            records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
            losses[variant] = [r["loss"] for r in records if r["split"] == "train"][0]
        assert losses["concat-vk"] != losses["concat-kv"]

    def test_runs_all_six_variants_in_table_order(self, tiny_config, tiny_split, tiny_keywords,
                                                  tmp_path):
        cfg = replace(tiny_config, epochs=1, soft_prompt_len=6)  # mix-no-concat needs m == n
        results = ablate(cfg, tiny_split, tiny_keywords, tmp_path)
        assert [r.variant for r in results] == [
            "switchprompt", "mix-no-concat", "concat-vk", "concat-kv",
            "keywords-only", "soft-only",
        ]
        table = (tmp_path / "ablation_table.txt").read_text().splitlines()
        assert len(table) == 7  # header + six rows

    def test_mix_no_concat_needs_equal_lengths(self, tiny_config, tiny_split, tiny_keywords):
        with pytest.raises(ValueError, match="mix-no-concat"):
            ablate(tiny_config, tiny_split, tiny_keywords)  # m=3, n=6

    def test_variant_subset_allows_unequal_lengths(self, tiny_config, tiny_split, tiny_keywords):
        results = ablate(
            replace(tiny_config, epochs=1), tiny_split, tiny_keywords,
            variants=[Variant.KEYWORDS_ONLY, Variant.SOFT_ONLY],
        )
        assert [r.variant for r in results] == ["keywords-only", "soft-only"]

    def test_falls_back_to_the_config_out_dir(self, tiny_config, tiny_split, tiny_keywords,
                                              tmp_path):
        cfg = replace(tiny_config, epochs=1, out_dir=str(tmp_path))
        ablate(cfg, tiny_split, tiny_keywords, variants=[Variant.KEYWORDS_ONLY, Variant.SOFT_ONLY])
        for variant in ("keywords-only", "soft-only"):
            assert json.loads((tmp_path / variant / "result.json").read_text())["variant"] == variant
        assert len((tmp_path / "ablation_table.txt").read_text().splitlines()) == 3


class TestBackboneBuilds:
    """Each command builds and warms up its backbone once."""

    @pytest.fixture
    def warmups(self, monkeypatch):
        calls = []
        warm_up = runner.pretrain_masked_token
        monkeypatch.setattr(runner, "pretrain_masked_token",
                            lambda *a, **k: calls.append(1) or warm_up(*a, **k))
        return calls

    def test_six_variant_ablate_warms_up_once(self, tiny_config, tiny_split, tiny_keywords,
                                              warmups):
        cfg = replace(tiny_config, epochs=1, soft_prompt_len=6, backbone_init="mlm", mlm_steps=5)
        assert len(ablate(cfg, tiny_split, tiny_keywords)) == 6
        assert len(warmups) == 1

    def test_unfrozen_two_seed_train_warms_up_once(self, tiny_config, tiny_split, tiny_keywords,
                                                   warmups):
        cfg = replace(tiny_config, epochs=1, seeds=[0, 1], freeze_backbone=False,
                      backbone_init="mlm", mlm_steps=5)
        train(cfg, tiny_split, tiny_keywords)
        assert len(warmups) == 1


class TestConfigKnobs:
    def test_prompted_gate_input_trains_and_differs_from_plain(self, tiny_config, tiny_split,
                                                               tiny_keywords, tmp_path):
        train(tiny_config, tiny_split, tiny_keywords, tmp_path / "plain")
        train(replace(tiny_config, gate_input="prompted"), tiny_split, tiny_keywords,
              tmp_path / "prompted")
        assert (tmp_path / "plain" / "metrics.jsonl").read_bytes() != (
            tmp_path / "prompted" / "metrics.jsonl"
        ).read_bytes()

    def test_trainable_keywords_increase_parameter_count(self, tiny_config, tiny_split,
                                                         tiny_keywords):
        fixed = train(replace(tiny_config, epochs=0), tiny_split, tiny_keywords)
        trained = train(replace(tiny_config, epochs=0, train_keywords=True),
                        tiny_split, tiny_keywords)
        e = tiny_config.embed_dim
        assert trained.trainable_params - fixed.trainable_params == tiny_keywords.n * e

    def test_unfrozen_seeds_are_independent(self, tiny_config, tiny_split, tiny_keywords,
                                            tmp_path):
        # every seed must start from the same fresh backbone, so seed 1's
        # records are identical whether or not seed 0 ran first
        cfg = replace(tiny_config, freeze_backbone=False, epochs=1)
        train(replace(cfg, seeds=[0, 1]), tiny_split, tiny_keywords, tmp_path / "both")
        train(replace(cfg, seeds=[1]), tiny_split, tiny_keywords, tmp_path / "solo")
        both = [json.loads(l) for l in (tmp_path / "both" / "metrics.jsonl").read_text().splitlines()]
        solo = [json.loads(l) for l in (tmp_path / "solo" / "metrics.jsonl").read_text().splitlines()]
        assert [r for r in both if r["seed"] == 1] == solo

    def test_unfrozen_training_actually_moves_the_backbone(self, tiny_config, tiny_split,
                                                           tiny_keywords, tmp_path):
        cfg = replace(tiny_config, freeze_backbone=False, epochs=1, save_checkpoints=True)
        train(cfg, tiny_split, tiny_keywords, tmp_path)
        model = load_model(tmp_path / "model_seed0.bin")
        _, fresh = _build_backbone(cfg, tiny_split, tiny_keywords)
        moved = any(
            not np.array_equal(model.encoder.weights[name].data, tensor.data)
            for name, tensor in fresh.weights.tensors.items()
        )
        assert moved

    def test_cls_keyword_vectorization_changes_the_run(self, tiny_config, tiny_split,
                                                       tiny_keywords, tmp_path):
        a = train(replace(tiny_config, variant="keywords-only"), tiny_split, tiny_keywords,
                  tmp_path / "emb")
        b = train(replace(tiny_config, variant="keywords-only", keyword_vector_mode="cls"),
                  tiny_split, tiny_keywords, tmp_path / "cls")
        assert (tmp_path / "emb" / "metrics.jsonl").read_bytes() != (
            tmp_path / "cls" / "metrics.jsonl"
        ).read_bytes()


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        text = """
        # experiment settings
        variant = "concat-vk"
        epochs = 7
        lr = 0.01       # prompt learning rate
        seeds = [0, 1]
        freeze_backbone = true
        dataset = data/train.tsv
        """
        values = parse_config_text(text)
        assert values == {
            "variant": "concat-vk", "epochs": 7, "lr": 0.01, "seeds": [0, 1],
            "freeze_backbone": True, "dataset": "data/train.tsv",
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"warp_speed": 9})

    def test_defaults_match_documented_recipe(self):
        cfg = RunConfig()
        assert cfg.batch_size == 32
        assert cfg.max_seq_len == 128
        assert cfg.head_dropout == 0.1
        assert cfg.lr_gamma == 0.95
        assert (cfg.adam_beta1, cfg.adam_beta2) == (0.9, 0.999)
        assert len(cfg.seeds) == 5

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            RunConfig(seeds=[])

    @pytest.mark.parametrize("key, value", [
        ("gate_input", "cls"),
        ("backbone_init", "bert"),
        ("keyword_vector_mode", "tfidf"),
        ("batch_size", 0),
        ("lr", 0.0),
        ("lr", -1e-3),
        ("encoder_dropout", 1.0),
        ("encoder_dropout", -0.1),
        ("head_dropout", 1.0),
        ("head_dropout", -0.5),
        ("max_seq_len", 18),  # the default switchprompt prompt is m + n = 18 slots
        ("lr", None),
        ("batch_size", "32"),
        ("epochs", 2.5),
        ("freeze_backbone", 1),
        ("seeds", 0),
        ("seeds", [0, "a"]),
        ("embed_dim", 0),
        ("num_layers", 0),
        ("num_heads", 0),
        ("num_heads", 3),  # does not divide the default embed_dim 32
        ("activation", "tanh"),
        ("soft_prompt_len", 0),
        ("num_keywords", 0),
        ("shots", 0),
        ("epochs", -1),
        ("ffn_dim", 0),
        ("lr_gamma", 0.0),
        ("lr_gamma", -1.0),
        ("grad_clip", -1.0),
        ("mlm_steps", -5),
        ("vocab_cap", 0),
        ("vocab_cap", 3),
        ("adam_beta1", 1.5),
        ("adam_beta1", 1.0),
        ("adam_beta1", -0.1),
        ("adam_beta2", 1.0),
        ("adam_eps", -1.0),
        ("adam_eps", 0.0),
        ("mlm_lr", -1.0),
        ("mlm_lr", 0.0),
        ("alpha", 0.5),
        ("alpha", 0.0),
        ("backbone_init_std", -1.0),
        ("backbone_seed", -1),
        ("split_seed", -1),
        ("seeds", [-1]),
        ("seeds", [0, -2]),
        ("seeds", [0, 0]),
    ])
    def test_bad_value_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"config key {key}"):
            RunConfig(**{key: value})

    def test_prompt_length_limit_follows_the_variant(self):
        RunConfig(variant="soft-only", max_seq_len=9)  # m = 8 slots leave room for CLS
        with pytest.raises(ValueError, match="max_seq_len"):
            RunConfig(variant="keywords-only", max_seq_len=10)

    def test_boundary_values_accepted(self):
        RunConfig(grad_clip=0.0, mlm_steps=0, vocab_cap=4, adam_beta1=0.0, adam_beta2=0.0)

    def test_unused_prompt_part_may_have_length_zero(self):
        RunConfig(variant="keywords-only", soft_prompt_len=0)
        RunConfig(variant="soft-only", num_keywords=0)

    def test_unused_prompt_part_may_not_be_negative(self):
        with pytest.raises(ValueError, match="config key soft_prompt_len: must be >= 0"):
            RunConfig(variant="keywords-only", soft_prompt_len=-2)
        with pytest.raises(ValueError, match="config key num_keywords: must be >= 0"):
            RunConfig(variant="soft-only", num_keywords=-3)

    def test_mix_no_concat_with_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="mix-no-concat"):
            RunConfig(variant="mix-no-concat", soft_prompt_len=8, num_keywords=10)

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text('variant = "keywords-only"\nepochs = 3\nseeds = [7]\n')
        cfg = RunConfig.from_dict(parse_config_text(path.read_text()))
        assert cfg.variant == "keywords-only"
        assert cfg.epochs == 3
        assert cfg.seeds == [7]

    def test_hash_inside_a_json_string_is_not_a_comment(self):
        values = parse_config_text('out_dir = "runs/#2"  # trailing comment\nlr = 0.5 # rate')
        assert values == {"out_dir": "runs/#2", "lr": 0.5}

    EVERY_KEY_CHANGED = dict(
        variant="concat-kv", embed_dim=16, num_layers=3, num_heads=4, ffn_dim=48,
        max_seq_len=96, encoder_dropout=0.2, activation="relu", vocab_cap=500,
        soft_prompt_len=4, num_keywords=5, alpha=-0.5, train_keywords=True,
        gate_input="prompted", keyword_vector_mode="cls", batch_size=8, head_dropout=0.0,
        epochs=12, lr=0.02, lr_gamma=0.9, adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-6,
        grad_clip=0.5, seeds=[3, 1], freeze_backbone=False, backbone_init="mlm",
        backbone_seed=7, backbone_init_std=0.25, mlm_steps=50, mlm_lr=2e-3, shots=8,
        split_seed=4, general_corpus="corpora/general.txt", domain_corpus="corpora/domain.txt",
        dataset="data/tasks.tsv", keywords_file="kw.tsv", out_dir="runs/#2",
        save_checkpoints=False,
    )

    @pytest.mark.parametrize("values", [{}, EVERY_KEY_CHANGED], ids=["defaults", "every-key"])
    def test_config_text_roundtrips(self, tmp_path, values):
        config = RunConfig(**values)
        text = "".join(f"{key} = {json.dumps(value)}\n" for key, value in config.to_dict().items())
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        assert RunConfig.from_dict(parse_config_text(path.read_text(encoding="utf-8"))) == config

    def test_every_key_changed_covers_every_key(self):
        defaults = RunConfig().to_dict()
        assert set(self.EVERY_KEY_CHANGED) == set(defaults)
        assert all(self.EVERY_KEY_CHANGED[key] != defaults[key] for key in defaults)


class TestBenchmarkHooks:
    """Names the benchmark's tracer patches on ``runner`` or reads from prompt states."""

    PATCHED = ("per_layer_prompts", "compose_with_gates", "clip_global_norm",
               "pretrain_masked_token", "vectorize_keywords", "save_checkpoint", "load_checkpoint")

    def test_runner_binds_the_patched_names(self):
        for name in self.PATCHED:
            assert callable(runner.__dict__[name]), name

    @pytest.mark.parametrize("gate_input, composer", [
        ("plain", "per_layer_prompts"), ("prompted", "compose_with_gates"),
    ])
    def test_classification_composes_through_the_runner_names(self, tiny_config, tiny_split,
                                                              tiny_keywords, monkeypatch,
                                                              gate_input, composer):
        model = forced_class_zero_model(tiny_config, tiny_split, tiny_keywords, ["a", "b"])
        kw = np.random.default_rng(0).standard_normal((3, tiny_config.embed_dim))
        model.prompt_state = init_prompt_state(
            "switchprompt", tiny_config.num_layers, tiny_config.embed_dim, soft_len=2,
            keyword_vectors=kw, rng=np.random.default_rng(1),
        )
        model.gate_input = gate_input
        calls = []
        original = runner.__dict__[composer]
        monkeypatch.setattr(runner, composer, lambda *a, **k: calls.append(1) or original(*a, **k))
        with ag.no_grad():
            model.logits(["gen000 gen001"])
        assert calls

    def test_prompt_state_fields_read_by_the_oracle(self):
        state = init_prompt_state("switchprompt", 2, 4, soft_len=2,
                                  keyword_vectors=np.ones((3, 4)), rng=np.random.default_rng(0))
        assert len(state.soft_prompts) == 2
        assert state.keyword_vectors.shape == (3, 4)
        assert state.gate1_weights.shape == state.gate2_weights.shape == (4,)


class TestLearningRateSchedule:
    def test_epoch_k_steps_at_lr_times_gamma_to_k_minus_1_for_every_seed(
        self, tiny_config, tiny_split, tiny_keywords, monkeypatch
    ):
        cfg = replace(tiny_config, lr_gamma=0.5, epochs=3, seeds=[0, 1])
        seen = []
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda self: seen.append(self.lr) or step(self))
        train(cfg, tiny_split, tiny_keywords)
        steps_per_epoch = -(-len(tiny_split.train) // cfg.batch_size)
        one_seed = [cfg.lr * 0.5 ** (k - 1) for k in (1, 2, 3) for _ in range(steps_per_epoch)]
        assert steps_per_epoch > 1
        assert seen == one_seed * 2


class TestDivergenceReporting:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_names_seed_and_step(self, tiny_config, tiny_split, tiny_keywords):
        # a step of ~1e308 overflows the parameters to inf, so the next
        # forward pass produces a non-finite loss
        cfg = replace(tiny_config, lr=1e308, epochs=2, seeds=[3])
        with pytest.raises(RuntimeError, match=r"seed 3, step \d+"):
            train(cfg, tiny_split, tiny_keywords)
