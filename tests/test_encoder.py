"""Encoder contracts: reference-oracle equality, frozen backbone, prompt paths."""

import math
import os

import numpy as np
import pytest
from scipy.special import erf

from switchprompt import autograd as ag
from switchprompt.autograd import DropoutRng, Tensor
from switchprompt.checkpoint import load_checkpoint, save_checkpoint
from switchprompt.encoder import (
    ClassificationHead,
    EncoderConfig,
    EncoderWeights,
    TransformerEncoder,
    pad_batch,
    pretrain_masked_token,
    weight_shapes,
)
from switchprompt.gradcheck import check_gradients
from switchprompt.optim import Adam
from switchprompt.prompts import init_prompt_state, per_layer_prompts


def small_encoder(seed=0, **overrides):
    params = dict(
        vocab_size=12, embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16, max_seq_len=32,
        dropout_rate=0.1,
    )
    params.update(overrides)
    cfg = EncoderConfig(**params)
    weights = EncoderWeights.init(cfg, seed=seed)
    return TransformerEncoder(cfg, weights)


def no_weight_takes_grad(weights):
    return not any(t.requires_grad or t.grad is not None for t in weights.tensors.values())


def trainable_count(*tensor_lists):
    """Scalars with requires_grad set, over every tensor of every list."""
    return sum(t.size for tensors in tensor_lists for t in tensors if t.requires_grad)


# ---------------------------------------------------------------------------
# independent straight-line reimplementation (pure numpy, no tape)
# ---------------------------------------------------------------------------


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def reference_forward(encoder, ids, prompts=None):
    cfg = encoder.config
    w = {name: t.data for name, t in encoder.weights.tensors.items()}
    ids = np.asarray(ids)
    h = w["token_emb"][ids] + w["pos_emb"][: len(ids)]
    d = cfg.embed_dim // cfg.num_heads
    for i in range(cfg.num_layers):
        p = f"layer{i}."
        q = h @ w[p + "wq"] + w[p + "bq"]
        k = h @ w[p + "wk"] + w[p + "bk"]
        v = h @ w[p + "wv"] + w[p + "bv"]
        if prompts is not None:
            k = np.vstack([prompts[i], k])
            v = np.vstack([prompts[i], v])
        outs = []
        for head in range(cfg.num_heads):
            sl = slice(head * d, (head + 1) * d)
            scores = q[:, sl] @ k[:, sl].T / math.sqrt(d)
            scores -= scores.max(axis=1, keepdims=True)
            probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
            outs.append(probs @ v[:, sl])
        attn = np.hstack(outs) @ w[p + "wo"] + w[p + "bo"]
        h = _np_layer_norm(h + attn, w[p + "ln1_gain"], w[p + "ln1_bias"])
        f = _np_gelu(h @ w[p + "w1"] + w[p + "b1"]) @ w[p + "w2"] + w[p + "b2"]
        h = _np_layer_norm(h + f, w[p + "ln2_gain"], w[p + "ln2_bias"])
    return _np_layer_norm(h, w["final_ln.gain"], w["final_ln.bias"])


class TestEncodePlain:
    def test_eval_mode_is_deterministic(self):
        enc = small_encoder()
        ids = [0, 4, 7, 2, 9]
        a, _ = enc.encode_plain(ids)
        b, _ = enc.encode_plain(ids)
        np.testing.assert_array_equal(a.data, b.data)

    def test_cached_cls_encodes_each_id_sequence_once(self, monkeypatch):
        enc = small_encoder(seed=4)
        encode, rows = enc.encode_plain, []
        monkeypatch.setattr(enc, "encode_plain",
                            lambda ids, **kw: rows.append(len(ids)) or encode(ids, **kw))
        sequences = [[0, 4, 7], [0, 4, 7, 9], [0, 4, 7]]
        cached = enc.cached_cls(*pad_batch(sequences))
        for row, seq in zip(cached, sequences):
            np.testing.assert_allclose(row, encode(seq)[0].data[0], rtol=0.0, atol=1e-12)
        # a row is keyed by its ids without padding, whatever batch it arrives in
        np.testing.assert_array_equal(enc.cached_cls(*pad_batch(sequences[1::-1])), cached[1::-1])
        enc.cached_cls(*pad_batch([[0, 4, 7], [0, 9]]))
        assert rows == [3, 1]

    def test_token_permutation_changes_output(self):
        enc = small_encoder()
        a, _ = enc.encode_plain([0, 4, 7, 9])
        b, _ = enc.encode_plain([0, 7, 4, 9])
        assert not np.allclose(a.data, b.data)

    def test_matches_straight_line_reference(self):
        # single layer, single head, explicitly set weights
        enc = small_encoder(num_layers=1, num_heads=1, embed_dim=6, ffn_dim=10)
        rng = np.random.default_rng(42)
        for t in enc.weights.tensors.values():
            t.data = rng.normal(0.0, 0.5, size=t.data.shape)
        ids = [0, 3, 8, 5, 1]
        _, states = enc.encode_plain(ids)
        np.testing.assert_allclose(states.data, reference_forward(enc, ids)[None], atol=1e-9)

    def test_multi_layer_multi_head_matches_reference(self):
        enc = small_encoder(seed=3)
        ids = [0, 2, 11, 6]
        _, states = enc.encode_plain(ids)
        np.testing.assert_allclose(states.data, reference_forward(enc, ids)[None], atol=1e-9)

    def test_requires_cls_start(self):
        with pytest.raises(ValueError, match="CLS"):
            small_encoder().encode_plain([4, 5])

    def test_unknown_token_id(self):
        with pytest.raises(ValueError, match="unknown token id 99"):
            small_encoder().encode_plain([0, 99])

    def test_sequence_too_long(self):
        enc = small_encoder(max_seq_len=4)
        with pytest.raises(ValueError, match="too long"):
            enc.encode_plain([0, 1, 2, 3, 4])

    def test_frozen_pass_builds_no_gradient_graph(self):
        enc = small_encoder()
        cls_vec, _ = enc.encode_plain([0, 5, 6])
        assert not cls_vec.requires_grad


class TestEncodePrompted:
    def test_zero_prompts_ignored_under_constant_key_attention(self):
        # queries and token keys are forced constant and large, so zero-norm
        # prompt keys get vanishing softmax mass and the output matches the
        # plain pass
        enc = small_encoder(num_layers=1, num_heads=1, embed_dim=8, seed=5)
        w = enc.weights.tensors
        w["layer0.wq"].data = np.zeros((8, 8))
        w["layer0.bq"].data = np.full(8, 3.0)
        w["layer0.wk"].data = np.zeros((8, 8))
        w["layer0.bk"].data = np.full(8, 3.0)
        ids = [0, 4, 6, 2]
        plain, _ = enc.encode_plain(ids)
        prompted = enc.encode_prompted(ids, [Tensor(np.zeros((3, 8)))])
        np.testing.assert_allclose(prompted.data, plain.data, atol=1e-9)

    def test_prompted_matches_reference_forward(self):
        enc = small_encoder(seed=9)
        rng = np.random.default_rng(10)
        prompts = [Tensor(rng.standard_normal((3, 8))) for _ in range(2)]
        ids = [0, 1, 7, 4, 4]
        cls_vec = enc.encode_prompted(ids, prompts)
        expected = reference_forward(enc, ids, [p.data for p in prompts])[:1]
        np.testing.assert_allclose(cls_vec.data, expected, atol=1e-9)

    def test_prompt_gradients_match_finite_differences(self):
        enc = small_encoder(seed=11)
        ids = [0, 3, 9]
        rng = np.random.default_rng(12)
        prompt_arrays = [rng.standard_normal((2, 8)) * 0.5 for _ in range(2)]
        w = rng.standard_normal(8)

        def build(tensors):
            cls_vec = enc.encode_prompted(ids, list(tensors))
            return ag.sum_all(ag.mul(cls_vec, Tensor(w)))

        assert check_gradients(build, prompt_arrays) < 1e-4

    def test_prompt_gradients_nonzero_and_flow_when_frozen(self):
        enc = small_encoder(seed=13)
        assert no_weight_takes_grad(enc.weights)
        rng = np.random.default_rng(14)
        prompts = [Tensor(rng.standard_normal((2, 8)), requires_grad=True) for _ in range(2)]
        cls_vec = enc.encode_prompted([0, 5, 8, 1], prompts)
        assert cls_vec.requires_grad
        # plain sum of a layer-normed row is constant, so weight it unevenly
        ag.backward(ag.sum_all(ag.mul(cls_vec, Tensor(rng.standard_normal(8)))))
        for p in prompts:
            assert p.grad is not None and np.abs(p.grad).max() > 0

    def test_zero_length_prompts_equal_plain_bit_exactly(self):
        enc = small_encoder(seed=15)
        ids = [0, 2, 3, 10]
        plain, _ = enc.encode_plain(ids)
        prompted = enc.encode_prompted(ids, [Tensor(np.zeros((0, 8))) for _ in range(2)])
        np.testing.assert_array_equal(prompted.data, plain.data)

    def test_prompt_count_mismatch(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match="expected 2 layer prompts"):
            enc.encode_prompted([0, 1], [Tensor(np.zeros((2, 8)))])

    def test_prompt_shape_mismatch(self):
        enc = small_encoder()
        bad = [Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5)))]
        with pytest.raises(ValueError, match="prompt has shape"):
            enc.encode_prompted([0, 1], bad)

    def test_frozen_weights_unchanged_by_training_steps(self):
        enc = small_encoder(seed=16)
        rng = np.random.default_rng(17)
        state = init_prompt_state("switchprompt", 2, 8, soft_len=2,
                                  keyword_vectors=rng.standard_normal((3, 8)), rng=rng)
        head = ClassificationHead.init(8, 3, 0.1, rng)
        params = state.parameters() + head.parameters()
        opt = Adam(params, lr=1e-2)
        before = enc.weights.checksum()
        drop = DropoutRng(0)
        s_input = Tensor(rng.standard_normal((1, 8)))
        for step in range(12):
            drop.begin_step(step)
            prompts = per_layer_prompts(state, s_input, 2)
            cls_vec = enc.encode_prompted([0, 4, 6], prompts, train=True, rng=drop)
            loss = ag.softmax_cross_entropy(head(cls_vec, train=True, rng=drop), [step % 3])
            opt.zero_grad()
            ag.backward(loss)
            opt.step()
        assert enc.weights.checksum() == before


class TestRaggedBatch:
    SEQUENCES = [[0, 2, 11, 6], [0, 5], [0, 1, 7, 4, 4, 9, 3], [0, 8, 8]]

    def test_plain_batch_matches_reference_per_sequence(self):
        enc = small_encoder(seed=40)
        ids, lengths = pad_batch(self.SEQUENCES)
        cls, states = enc.encode_plain(ids, lengths=lengths)
        assert cls.shape == (4, 8) and states.shape == (4, 7, 8)
        for b, seq in enumerate(self.SEQUENCES):
            expected = reference_forward(enc, seq)
            np.testing.assert_allclose(states.data[b, : len(seq)], expected, atol=1e-9)
            np.testing.assert_allclose(cls.data[b], expected[0], atol=1e-9)

    def test_prompted_batch_matches_reference_per_sequence(self):
        enc = small_encoder(seed=41)
        rng = np.random.default_rng(42)
        prompts = [Tensor(rng.standard_normal((4, 3, 8))) for _ in range(2)]
        ids, lengths = pad_batch(self.SEQUENCES)
        cls = enc.encode_prompted(ids, prompts, lengths=lengths)
        for b, seq in enumerate(self.SEQUENCES):
            expected = reference_forward(enc, seq, [p.data[b] for p in prompts])[0]
            np.testing.assert_allclose(cls.data[b], expected, atol=1e-9)

    def test_shared_prompt_broadcasts_over_the_batch(self):
        enc = small_encoder(seed=43)
        rng = np.random.default_rng(44)
        shared = [Tensor(rng.standard_normal((2, 8))) for _ in range(2)]
        ids, lengths = pad_batch(self.SEQUENCES)
        cls = enc.encode_prompted(ids, shared, lengths=lengths)
        for b, seq in enumerate(self.SEQUENCES):
            expected = reference_forward(enc, seq, [p.data for p in shared])[0]
            np.testing.assert_allclose(cls.data[b], expected, atol=1e-9)

    def test_batch_errors_name_the_problem(self):
        enc = small_encoder()
        ids, lengths = pad_batch([[0, 3], [4, 5]])
        with pytest.raises(ValueError, match="CLS"):
            enc.encode_plain(ids, lengths=lengths)
        with pytest.raises(ValueError, match="lengths"):
            enc.encode_plain(np.zeros((2, 3), dtype=int), lengths=[0, 3])
        with pytest.raises(ValueError, match="batch 3"):
            enc.encode_prompted(np.zeros((2, 3), dtype=int), [Tensor(np.zeros((3, 1, 8)))] * 2)
        with pytest.raises(ValueError, match="empty batch"):
            pad_batch([])


class TestActivationChoice:
    def test_relu_backbone_runs_and_differs_from_gelu(self):
        gelu_enc = small_encoder(seed=30, activation="gelu")
        relu_enc = small_encoder(seed=30, activation="relu")
        ids = [0, 4, 9, 2]
        a, _ = gelu_enc.encode_plain(ids)
        b, _ = relu_enc.encode_plain(ids)
        assert not np.allclose(a.data, b.data)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            EncoderConfig(vocab_size=10, embed_dim=8, num_heads=2, activation="swish")

    def test_head_count_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(vocab_size=10, embed_dim=10, num_heads=4)


class TestAttentionNormalization:
    def test_rows_sum_to_one_with_and_without_prompt_slots(self):
        # (B, H, T, l+T) scores under the encoder's key-padding mask
        rng = np.random.default_rng(18)
        lengths = np.array([5, 3])
        for extra in (0, 3):
            slots = np.arange(extra + 5) < extra + lengths[:, None]
            mask = np.where(slots, 0.0, -np.inf)[:, None, None, :]
            scores = Tensor(rng.standard_normal((2, 2, 5, 5 + extra)))
            probs = ag.softmax_rows(scores, mask)
            np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-9)
            assert (probs.data[1, :, :, extra + 3:] == 0.0).all()
            assert (probs.data[1, :, :, : extra + 3] > 0.0).all()


class TestClassificationHead:
    def test_zero_input_gives_bias(self):
        rng = np.random.default_rng(19)
        head = ClassificationHead.init(8, 3, 0.1, rng)
        head.bias.data = np.array([1.0, -2.0, 0.5])
        logits = head(Tensor(np.zeros((1, 8))))
        np.testing.assert_array_equal(logits.data, head.bias.data[None])

    def test_eval_mode_is_affine(self):
        rng = np.random.default_rng(20)
        head = ClassificationHead.init(6, 4, 0.5, rng)
        x1, x2 = rng.standard_normal((1, 6)), rng.standard_normal((1, 6))
        l1 = head(Tensor(x1)).data
        l2 = head(Tensor(x2)).data
        l12 = head(Tensor(x1 + x2)).data
        bias = head(Tensor(np.zeros((1, 6)))).data
        np.testing.assert_allclose(l12, l1 + l2 - bias, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 6))
        proj, bias = rng.standard_normal((6, 3)), rng.standard_normal(3)
        labels = [0, 2, 1, 0]

        def build(t):
            head = ClassificationHead(t[0], t[1], dropout_rate=0.0)
            return ag.softmax_cross_entropy(head(Tensor(x)), labels)

        assert check_gradients(build, [proj, bias]) < 1e-4

    def test_head_trainable_even_with_frozen_backbone(self):
        enc = small_encoder()
        head = ClassificationHead.init(8, 3, 0.1, np.random.default_rng(22))
        assert no_weight_takes_grad(enc.weights)
        assert all(p.requires_grad for p in head.parameters())


class TestTrainableParameterCount:
    def test_default_full_variant_matches_expected_enumeration(self):
        # embed 32, 2 layers, 8 trainable prompt vectors per layer, 3 classes:
        # 2*8*32 + 2*32 + 32*3 + 3 = 675 (fixed keyword vectors contribute 0)
        cfg = EncoderConfig(vocab_size=50, embed_dim=32, num_layers=2, num_heads=2, ffn_dim=64)
        weights = EncoderWeights.init(cfg, seed=0)
        rng = np.random.default_rng(23)
        state = init_prompt_state("switchprompt", 2, 32, soft_len=8,
                                  keyword_vectors=rng.standard_normal((10, 32)), rng=rng)
        head = ClassificationHead.init(32, 3, 0.1, rng)
        count = trainable_count(weights.tensors.values(), head.parameters(), state.parameters())
        assert count == 675

    def test_keywords_only_counts_just_the_head(self):
        rng = np.random.default_rng(25)
        state = init_prompt_state("keywords-only", 2, 32, soft_len=8,
                                  keyword_vectors=rng.standard_normal((10, 32)), rng=rng)
        head = ClassificationHead.init(32, 3, 0.1, rng)
        assert trainable_count(head.parameters(), state.parameters()) == 32 * 3 + 3

    def test_trainable_keywords_add_their_size(self):
        rng = np.random.default_rng(26)
        fixed = init_prompt_state("switchprompt", 2, 16, soft_len=4,
                                  keyword_vectors=rng.standard_normal((5, 16)), rng=rng)
        trained = init_prompt_state("switchprompt", 2, 16, soft_len=4,
                                    keyword_vectors=rng.standard_normal((5, 16)), rng=rng,
                                    train_keywords=True)
        head = ClassificationHead.init(16, 2, 0.1, rng)
        delta = trainable_count(head.parameters(), trained.parameters()) - trainable_count(
            head.parameters(), fixed.parameters()
        )
        assert delta == 5 * 16


class TestNamedArrays:
    def test_weights_follow_the_shape_table_and_roundtrip(self):
        enc = small_encoder(seed=29)
        shapes = weight_shapes(enc.config)
        assert {name: t.shape for name, t in enc.weights.tensors.items()} == shapes
        assert list(enc.weights.tensors) == list(shapes)
        loaded = EncoderWeights.from_arrays(enc.config, {**enc.weights.named_arrays(), "x": 0})
        assert loaded.checksum() == enc.weights.checksum() and no_weight_takes_grad(loaded)

    def test_weights_name_a_missing_or_misshaped_tensor(self):
        enc = small_encoder()
        arrays = dict(enc.weights.named_arrays())
        del arrays["layer1.b2"]
        with pytest.raises(ValueError, match="missing tensors layer1.b2"):
            EncoderWeights.from_arrays(enc.config, arrays)
        arrays["layer1.b2"] = np.zeros(9)
        with pytest.raises(ValueError, match=r"layer1.b2 has shape \[9\], expected \[8\]"):
            EncoderWeights.from_arrays(enc.config, arrays)

    def test_head_roundtrips_and_checks_shapes(self):
        head = ClassificationHead.init(8, 3, 0.2, np.random.default_rng(30))
        loaded = ClassificationHead.from_arrays(head.named_arrays(), 8, 3, 0.2)
        assert loaded.dropout_rate == 0.2
        for a, b in zip(loaded.parameters(), head.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.requires_grad
        with pytest.raises(ValueError, match="head.weight has shape"):
            ClassificationHead.from_arrays(head.named_arrays(), 8, 4, 0.2)


class TestCheckpointIO:
    def test_roundtrip_preserves_tensors_and_meta(self, tmp_path):
        enc = small_encoder(seed=27)
        path = tmp_path / "weights.bin"
        meta = {"note": "roundtrip", "labels": ["a", "b"]}
        save_checkpoint(path, enc.weights.named_arrays(), meta)
        tensors, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert set(tensors) == set(enc.weights.tensors)
        for name, arr in tensors.items():
            np.testing.assert_array_equal(arr, enc.weights[name].data)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "weights.bin"
        save_checkpoint(path, {"a": np.ones(3)}, {"note": "old"})
        before = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"a": np.zeros(5)}, {"note": "new"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["weights.bin"]

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"xy")
        with pytest.raises(ValueError, match="too short"):
            load_checkpoint(bad)


class TestMaskedTokenWarmup:
    def test_changes_weights_then_refreezes(self):
        enc = small_encoder(seed=28)
        before = enc.weights.checksum()
        sequences = [[0, 4, 5, 6], [0, 7, 8], [0, 9, 10, 11, 3]]
        pretrain_masked_token(enc, sequences, steps=20, seed=0)
        assert enc.weights.checksum() != before
        assert no_weight_takes_grad(enc.weights)

    def test_empties_the_cls_cache(self):
        enc = small_encoder(seed=31)
        ids, lengths = pad_batch([[0, 4, 5, 6], [0, 7, 8]])
        stale = enc.cached_cls(ids, lengths)
        pretrain_masked_token(enc, [[0, 4, 5, 6], [0, 9, 10, 11, 3]], steps=20, seed=0)
        fresh = enc.encode_plain(ids, lengths)[0].data
        assert not np.array_equal(stale, fresh)
        np.testing.assert_array_equal(enc.cached_cls(ids, lengths), fresh)
        assert no_weight_takes_grad(enc.weights)

    def test_a_failed_warmup_still_refreezes_and_empties_the_cache(self, monkeypatch):
        enc = small_encoder(seed=32)
        enc.cached_cls(*pad_batch([[0, 4, 5]]))

        def interrupted(ids):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(enc, "encode_plain", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            pretrain_masked_token(enc, [[0, 4, 5, 6]], steps=3, seed=0)
        assert no_weight_takes_grad(enc.weights) and not enc._cls_cache
