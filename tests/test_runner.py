"""Training loop, evaluation, ablation and metrics contracts."""

import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from switchprompt import autograd as ag
from switchprompt import runner
from switchprompt.data import LabeledDataset
from switchprompt.encoder import ClassificationHead, TransformerEncoder, pad_batch
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
        wrong = KeywordSet(words=["gen000", "gen001"], scores=[0.2, 0.1])
        with pytest.raises(ValueError, match="keyword count mismatch"):
            train(tiny_config, tiny_split, wrong)

    def test_soft_only_ignores_keywords_entirely(self, tiny_config, tiny_split, tiny_keywords,
                                                 tmp_path):
        other = KeywordSet(
            words=list(reversed(tiny_keywords.words)),
            scores=list(reversed(tiny_keywords.scores)),
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


class TestGateCache:
    """The backbone caches each id sequence's gate CLS once, for every seed and variant."""

    def test_two_seed_six_variant_ablate_encodes_each_text_once(self, tiny_config, tiny_split,
                                                                tiny_keywords, monkeypatch):
        encode, rows = TransformerEncoder.encode_plain, []
        monkeypatch.setattr(TransformerEncoder, "encode_plain",
                            lambda self, ids, **kw: rows.append(len(ids)) or encode(self, ids, **kw))
        cfg = replace(tiny_config, epochs=1, seeds=[0, 1], soft_prompt_len=6)
        assert len(ablate(cfg, tiny_split, tiny_keywords)) == 6
        texts = tiny_split.train.texts() + tiny_split.dev.texts() + tiny_split.test.texts()
        assert sum(rows) == len(set(texts)) == 72

    def test_one_text_truncated_to_two_budgets_gets_two_rows(self, tiny_config, tiny_split,
                                                             tiny_keywords):
        cfg = replace(tiny_config, max_seq_len=20, soft_prompt_len=6)  # text budgets 8 and 14
        tokenizer, encoder = _build_backbone(cfg, tiny_split, tiny_keywords)
        keyword_vectors = np.random.default_rng(0).standard_normal((6, cfg.embed_dim))
        text = " ".join(tiny_split.train.texts()[:3])
        rows = []
        for variant in ("switchprompt", "mix-no-concat"):  # prompts of m + n and of m slots
            state = init_prompt_state(variant, cfg.num_layers, cfg.embed_dim, soft_len=6,
                                      keyword_vectors=keyword_vectors, rng=np.random.default_rng(1))
            head = ClassificationHead.init(cfg.embed_dim, 2, 0.0, np.random.default_rng(2))
            model = PromptedClassifier(encoder, head, state, tokenizer, ["a", "b"])
            ids = model._ids(text)
            assert len(ids) == model.text_budget < len(tokenizer.encode(text))
            with ag.no_grad():
                model.logits([text])
            rows.append(model.sentence_repr(*pad_batch([ids])).data)
            np.testing.assert_array_equal(rows[-1], encoder.encode_plain(ids)[0].data)
        assert not np.array_equal(*rows)


class TestFrozenBackbone:
    """Prompts and head train; the backbone built for the command never moves."""

    @pytest.fixture
    def built(self, monkeypatch):
        backbones = []
        build = runner._build_backbone
        monkeypatch.setattr(runner, "_build_backbone",
                            lambda *a: backbones.append(build(*a)) or backbones[-1])
        return backbones

    def test_two_seed_train_leaves_the_built_backbone_unchanged(self, tiny_config, tiny_split,
                                                                tiny_keywords, built):
        cfg = replace(tiny_config, seeds=[0, 1], backbone_init="mlm", mlm_steps=5)
        _, fresh = _build_backbone(cfg, tiny_split, tiny_keywords)
        train(cfg, tiny_split, tiny_keywords)
        [(_, encoder)] = built
        assert not any(t.requires_grad for t in encoder.weights.tensors.values())
        assert encoder.weights.checksum() == fresh.weights.checksum()

    def test_each_seed_adam_holds_only_prompt_and_head_tensors(self, tiny_config, tiny_split,
                                                               tiny_keywords, built, monkeypatch):
        optimizers, models = [], []
        make_adam, train_one_seed = runner.Adam, runner._train_one_seed

        def adam(*args, **kwargs):
            optimizers.append(make_adam(*args, **kwargs))
            return optimizers[-1]

        def one_seed(config, split, model, *rest):
            models.append(model)
            return train_one_seed(config, split, model, *rest)

        monkeypatch.setattr(runner, "Adam", adam)
        monkeypatch.setattr(runner, "_train_one_seed", one_seed)
        train(replace(tiny_config, seeds=[0, 1]), tiny_split, tiny_keywords)
        [(_, encoder)] = built
        assert len(optimizers) == len(models) == 2
        for opt, model in zip(optimizers, models):
            expected = model.prompt_state.parameters() + model.head.parameters()
            assert [id(p) for p in opt.params] == [id(p) for p in expected]
            assert model.encoder is encoder
            assert not {id(p) for p in opt.params} & {id(t) for t in encoder.weights.tensors.values()}


class TestConfigKnobs:
    def test_trainable_keywords_increase_parameter_count(self, tiny_config, tiny_split,
                                                         tiny_keywords):
        fixed = train(replace(tiny_config, epochs=0), tiny_split, tiny_keywords)
        trained = train(replace(tiny_config, epochs=0, train_keywords=True),
                        tiny_split, tiny_keywords)
        e = tiny_config.embed_dim
        assert trained.trainable_params - fixed.trainable_params == tiny_keywords.n * e

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
        save_checkpoints = true
        dataset = data/train.tsv
        """
        values = parse_config_text(text)
        assert values == {
            "variant": "concat-vk", "epochs": 7, "lr": 0.01, "seeds": [0, 1],
            "save_checkpoints": True, "dataset": "data/train.tsv",
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
        ("dataset", 5),  # first, so the positional ids of the list values below stay put
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
        ("save_checkpoints", 1),
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

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if type(f.default) is float])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    def test_float_key_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match=f"config key {key}: must be finite"):
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
        keyword_vector_mode="cls", batch_size=8, head_dropout=0.0,
        epochs=12, lr=0.02, lr_gamma=0.9, adam_beta1=0.8, adam_beta2=0.99, adam_eps=1e-6,
        grad_clip=0.5, seeds=[3, 1], backbone_init="mlm",
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

    def test_classification_composes_through_the_runner_names(self, tiny_config, tiny_split,
                                                              tiny_keywords, monkeypatch):
        model = forced_class_zero_model(tiny_config, tiny_split, tiny_keywords, ["a", "b"])
        kw = np.random.default_rng(0).standard_normal((3, tiny_config.embed_dim))
        model.prompt_state = init_prompt_state(
            "switchprompt", tiny_config.num_layers, tiny_config.embed_dim, soft_len=2,
            keyword_vectors=kw, rng=np.random.default_rng(1),
        )
        calls = []
        original = runner.per_layer_prompts
        monkeypatch.setattr(runner, "per_layer_prompts",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
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
