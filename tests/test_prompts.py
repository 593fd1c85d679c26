"""Gated composition: padding, gates, concatenation orders, variant semantics."""

import re

import numpy as np
import pytest

from switchprompt import autograd as ag
from switchprompt.autograd import Tensor
from switchprompt.gradcheck import check_gradients
from switchprompt.prompts import (
    Variant,
    PromptState,
    compose_domain_prompt,
    compose_with_gates,
    compute_gates,
    gate,
    init_prompt_state,
    pad_prompt,
    per_layer_prompts,
    prompt_shapes,
)

EMBED = 6


def make_state(variant, rng=None, layers=2, m=2, n=3, train_keywords=False):
    rng = rng or np.random.default_rng(0)
    kw = rng.standard_normal((n, EMBED))
    return init_prompt_state(variant, layers, EMBED, soft_len=m, keyword_vectors=kw,
                             rng=rng, train_keywords=train_keywords)


def compose(state, sentence_repr, layer):
    """One layer's prompt with the gates computed from `sentence_repr`."""
    return compose_with_gates(state, *compute_gates(state, sentence_repr), layer)


class TestPadPrompt:
    def test_equal_length_is_identity(self):
        p = Tensor(np.random.default_rng(1).standard_normal((3, EMBED)))
        assert pad_prompt(p, 3) is p

    def test_pads_with_zero_rows(self):
        p = Tensor(np.arange(2.0 * EMBED).reshape(2, EMBED))
        out = pad_prompt(p, 3)
        np.testing.assert_array_equal(out.data[:2], p.data)
        np.testing.assert_array_equal(out.data[2], np.zeros(EMBED))

    def test_shorter_target_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            pad_prompt(Tensor(np.zeros((3, EMBED))), 2)

    def test_gradient_flows_only_to_copied_rows(self):
        arr = np.random.default_rng(2).standard_normal((2, EMBED))
        err = check_gradients(lambda t: ag.sum_all(pad_prompt(t[0], 5)), [arr])
        assert err < 1e-4
        p = Tensor(arr, requires_grad=True)
        ag.backward(ag.sum_all(pad_prompt(p, 5)))
        np.testing.assert_array_equal(p.grad, np.ones((2, EMBED)))


class TestGate:
    def test_zero_weights_give_half(self):
        for _ in range(3):
            s = Tensor(np.random.default_rng(3).standard_normal(EMBED))
            assert gate(Tensor(np.zeros(EMBED)), s).item() == 0.5

    def test_sign_flip_sums_to_one(self):
        rng = np.random.default_rng(4)
        w, s = Tensor(rng.standard_normal(EMBED)), rng.standard_normal(EMBED)
        total = gate(w, Tensor(s)).item() + gate(w, Tensor(-s)).item()
        assert abs(total - 1.0) < 1e-12

    def test_aligned_weights_saturate(self):
        s = np.random.default_rng(5).standard_normal(EMBED)
        w = 100.0 * s / float(s @ s)
        assert gate(Tensor(w), Tensor(s)).item() > 0.9999

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gate(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_differentiable_in_weights(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(EMBED)
        err = check_gradients(lambda t: gate(t[0], Tensor(s)), [rng.standard_normal(EMBED)])
        assert err < 1e-4


class TestComposeDomainPrompt:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.soft = Tensor(rng.standard_normal((2, EMBED)))
        self.kw = Tensor(rng.standard_normal((3, EMBED)))

    def test_gate_one_gives_soft_first(self):
        out = compose_domain_prompt(self.soft, self.kw, Tensor(1.0))
        np.testing.assert_array_equal(
            out.data, np.vstack([self.soft.data, self.kw.data])
        )

    def test_gate_zero_gives_keywords_first(self):
        out = compose_domain_prompt(self.soft, self.kw, Tensor(0.0))
        np.testing.assert_array_equal(
            out.data, np.vstack([self.kw.data, self.soft.data])
        )

    def test_half_gate_averages_equal_length_blocks(self):
        rng = np.random.default_rng(8)
        soft = Tensor(rng.standard_normal((3, EMBED)))
        kw = Tensor(rng.standard_normal((3, EMBED)))
        out = compose_domain_prompt(soft, kw, Tensor(0.5))
        a = np.vstack([soft.data, kw.data])
        b = np.vstack([kw.data, soft.data])
        # row-by-row average of the two orders, checked elementwise
        np.testing.assert_allclose(out.data, (a + b) / 2.0, atol=1e-15)

    def test_complementary_gates_sum_to_both_orders(self):
        for g in (0.23, 0.5, 0.71):
            lhs = (
                compose_domain_prompt(self.soft, self.kw, Tensor(g)).data
                + compose_domain_prompt(self.soft, self.kw, Tensor(1.0 - g)).data
            )
            both = np.vstack([self.soft.data, self.kw.data]) + np.vstack(
                [self.kw.data, self.soft.data]
            )
            np.testing.assert_allclose(lhs, both, atol=1e-12)

    def test_embed_dim_mismatch(self):
        with pytest.raises(ValueError, match="embed dims differ"):
            compose_domain_prompt(Tensor(np.zeros((2, 4))), self.kw, Tensor(0.5))


class TestComposePromptVariants:
    def test_soft_only_is_the_per_layer_soft_prompt(self):
        state = make_state("soft-only")
        out = compose(state, None, layer=1)
        assert out is state.soft_prompts[1]

    def test_keywords_only_is_the_keyword_matrix(self):
        state = make_state("keywords-only")
        out = compose(state, None, layer=0)
        assert out is state.keyword_vectors
        assert state.parameters() == []  # nothing trainable in the prompt

    def test_full_variant_saturated_gate_selects_padded_soft(self):
        state = make_state("switchprompt")
        s = np.random.default_rng(9).standard_normal(EMBED)
        state.gate1_weights.data = 100.0 * s / float(s @ s)
        out = compose(state, Tensor(s), layer=0)
        padded = pad_prompt(state.soft_prompts[0], state.prompt_len)
        assert float(np.abs(out.data - padded.data).max()) < 1e-6

    def test_concat_variants_recovered_from_full_formula_by_pinning_gate2(self):
        rng = np.random.default_rng(10)
        full = make_state("switchprompt", rng=np.random.default_rng(42))
        vk = make_state("concat-vk", rng=np.random.default_rng(42))
        kv = make_state("concat-kv", rng=np.random.default_rng(42))
        s = Tensor(rng.standard_normal(EMBED))
        g1, _ = compute_gates(full, s)
        np.testing.assert_array_equal(
            compose_with_gates(full, g1, Tensor(1.0), 0).data,
            compose_with_gates(vk, g1, None, 0).data,
        )
        np.testing.assert_array_equal(
            compose_with_gates(full, g1, Tensor(0.0), 0).data,
            compose_with_gates(kv, g1, None, 0).data,
        )

    def test_restricted_variants_recovered_by_term_elimination(self):
        # keywords-only: the domain prompt with the outer gate pinned to 0 and
        # no soft block; soft-only: the padded soft block with the gate at 1
        state = make_state("switchprompt")
        soft, kw = state.soft_prompts[0], state.keyword_vectors
        full_at_g1_1 = compose_with_gates(state, Tensor(1.0), Tensor(0.5), 0)
        np.testing.assert_array_equal(
            full_at_g1_1.data, pad_prompt(soft, state.prompt_len).data
        )
        ko = make_state("keywords-only")
        np.testing.assert_array_equal(ko.keyword_vectors.data, state.keyword_vectors.data)
        np.testing.assert_array_equal(
            compose_with_gates(ko, None, None, 0).data, kw.data
        )

    def test_mix_no_concat_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="mix-no-concat"):
            make_state("mix-no-concat", m=2, n=3)

    def test_mix_no_concat_length_and_semantics(self):
        state = make_state("mix-no-concat", m=3, n=3)
        assert state.prompt_len == 3
        out = compose_with_gates(state, Tensor(0.0), Tensor(1.0), 0)
        np.testing.assert_array_equal(out.data, state.soft_prompts[0].data)
        out = compose_with_gates(state, Tensor(0.0), Tensor(0.0), 0)
        np.testing.assert_array_equal(out.data, state.keyword_vectors.data)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Variant.parse("fancy-prompt")

    def test_variant_lengths(self):
        assert make_state("switchprompt", m=2, n=3).prompt_len == 5
        assert make_state("concat-vk", m=2, n=3).prompt_len == 5
        assert make_state("keywords-only", m=2, n=3).prompt_len == 3
        assert make_state("soft-only", m=2, n=3).prompt_len == 2


class TestConvexity:
    def test_rows_lie_between_the_two_candidates(self):
        rng = np.random.default_rng(11)
        state = make_state("switchprompt", rng=rng)
        s = Tensor(rng.standard_normal(EMBED))
        g1, g2 = compute_gates(state, s)
        padded = pad_prompt(state.soft_prompts[0], state.prompt_len).data
        domain = compose_domain_prompt(
            state.soft_prompts[0], state.keyword_vectors, g2
        ).data
        composed = compose_with_gates(state, g1, g2, 0).data
        eps = 1e-12
        assert np.all(composed >= np.minimum(padded, domain) - eps)
        assert np.all(composed <= np.maximum(padded, domain) + eps)

    def test_gate_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = gate(Tensor(rng.standard_normal(EMBED)), Tensor(rng.standard_normal(EMBED)))
            assert 0.0 < g.item() < 1.0


class TestInputDependence:
    def test_different_inputs_move_the_gate(self):
        rng = np.random.default_rng(13)
        w = Tensor(rng.standard_normal(EMBED))  # nonzero trained-like weights
        values = {gate(w, Tensor(rng.standard_normal(EMBED))).item() for _ in range(8)}
        assert len(values) == 8  # all distinct with probability one

    def test_composed_prompt_depends_on_the_input(self):
        rng = np.random.default_rng(14)
        state = make_state("switchprompt", rng=rng)
        s1, s2 = rng.standard_normal(EMBED), rng.standard_normal(EMBED)
        p1 = compose(state, Tensor(s1), 0).data
        p2 = compose(state, Tensor(s2), 0).data
        assert not np.array_equal(p1, p2)


class TestGradientRouting:
    def test_full_variant_gradients_reach_soft_and_gates_not_fixed_keywords(self):
        rng = np.random.default_rng(15)
        state = make_state("switchprompt", rng=rng)
        s = Tensor(rng.standard_normal(EMBED))
        prompts = per_layer_prompts(state, s, 2)
        loss = ag.sum_all(ag.mul(ag.concat(prompts, axis=0),
                                 Tensor(rng.standard_normal((2 * state.prompt_len, EMBED)))))
        ag.backward(loss)
        for soft in state.soft_prompts:
            assert soft.grad is not None and np.abs(soft.grad).max() > 0
        assert state.gate1_weights.grad is not None
        assert np.abs(state.gate1_weights.grad).max() > 0
        assert state.gate2_weights.grad is not None
        assert state.keyword_vectors.grad is None  # fixed by default

    def test_trainable_keywords_receive_gradient_when_enabled(self):
        rng = np.random.default_rng(16)
        state = make_state("switchprompt", rng=rng, train_keywords=True)
        s = Tensor(rng.standard_normal(EMBED))
        loss = ag.sum_all(ag.mul(compose(state, s, 0),
                                 Tensor(rng.standard_normal((state.prompt_len, EMBED)))))
        ag.backward(loss)
        assert state.keyword_vectors.grad is not None
        assert np.abs(state.keyword_vectors.grad).max() > 0


class TestPerLayerPrompts:
    def test_single_layer_matches_compose_with_gates(self):
        rng = np.random.default_rng(17)
        state = make_state("switchprompt", rng=np.random.default_rng(99), layers=1)
        s = Tensor(rng.standard_normal(EMBED))
        stack = per_layer_prompts(state, s, 1)
        assert len(stack) == 1
        np.testing.assert_array_equal(stack[0].data, compose(state, s, 0).data)

    def test_layer_count_mismatch(self):
        state = make_state("switchprompt")
        with pytest.raises(ValueError, match="layers"):
            per_layer_prompts(state, Tensor(np.zeros(EMBED)), 3)

    def test_gates_shared_across_layers(self):
        rng = np.random.default_rng(18)
        state = make_state("switchprompt", rng=rng)
        s = Tensor(rng.standard_normal(EMBED))
        g1, g2 = compute_gates(state, s)
        stack = per_layer_prompts(state, s, 2)
        for layer, prompt in enumerate(stack):
            expected = compose_with_gates(state, g1, g2, layer)
            np.testing.assert_array_equal(prompt.data, expected.data)

    def test_identical_init_layers_diverge_after_one_step(self):
        from switchprompt.optim import Adam

        rng = np.random.default_rng(19)
        shared = rng.standard_normal((2, EMBED))
        kw = rng.standard_normal((3, EMBED))
        state = init_prompt_state("switchprompt", 2, EMBED, 2, kw, np.random.default_rng(20))
        for soft in state.soft_prompts:
            soft.data = shared.copy()
        s = Tensor(rng.standard_normal(EMBED))
        stack = per_layer_prompts(state, s, 2)
        np.testing.assert_array_equal(stack[0].data, stack[1].data)

        # one gradient step with layer-asymmetric loss weights
        opt = Adam(state.parameters(), lr=0.1)
        weights = Tensor(rng.standard_normal((2 * state.prompt_len, EMBED)))
        ag.backward(ag.sum_all(ag.mul(ag.concat(stack, axis=0), weights)))
        opt.step()
        after = per_layer_prompts(state, s, 2)
        assert not np.array_equal(after[0].data, after[1].data)

    def test_keywords_only_identical_prompt_every_layer(self):
        state = make_state("keywords-only")
        stack = per_layer_prompts(state, None, 2)
        assert stack[0] is state.keyword_vectors and stack[1] is state.keyword_vectors


def any_shape(variant):
    """(m, n): m = 2 and n = 3, except m = n = 3 where the two mixed orders must be equally long."""
    return (3 if variant is Variant.MIX_NO_CONCAT else 2), 3


def any_state(variant, train_keywords=False):
    m, n = any_shape(variant)
    return make_state(variant, m=m, n=n, train_keywords=train_keywords)


class TestVariantTable:
    @pytest.mark.parametrize("train_keywords", [False, True])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_from_arrays_inverts_named_arrays(self, variant, train_keywords):
        state = any_state(variant, train_keywords)
        arrays = state.named_arrays()
        back = PromptState.from_arrays(variant, arrays, 2, *any_shape(variant), EMBED,
                                       train_keywords=train_keywords)
        assert list(back.named_arrays()) == list(arrays)
        for name, array in back.named_arrays().items():
            np.testing.assert_array_equal(array, arrays[name])
        assert [(n, t.requires_grad) for n, t in back.tensors.items()] == [
            (n, t.requires_grad) for n, t in state.tensors.items()
        ]
        for ours, theirs in zip(back.parameters(), state.parameters(), strict=True):
            np.testing.assert_array_equal(ours.data, theirs.data)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_composed_prompt_has_prompt_len_rows(self, variant):
        state = any_state(variant)
        rng = np.random.default_rng(21)
        for s in (rng.standard_normal(EMBED), rng.standard_normal((4, EMBED))):
            for prompt in per_layer_prompts(state, Tensor(s), 2):
                assert prompt.shape[-2:] == (state.prompt_len, EMBED)
        # neutral gates, as the prompted gate input passes them to every variant
        half = Tensor(0.5)
        assert compose_with_gates(state, half, half, 1).shape == (state.prompt_len, EMBED)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_missing_tensor_is_named(self, variant):
        arrays = any_state(variant).named_arrays()
        for name in arrays:
            partial = {k: v for k, v in arrays.items() if k != name}
            with pytest.raises(ValueError, match=rf"{variant.value} needs .*{re.escape(name)}"):
                PromptState.from_arrays(variant, partial, 2, *any_shape(variant), EMBED)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_misshaped_tensor_is_named(self, variant):
        arrays = any_state(variant).named_arrays()
        for name, array in arrays.items():
            bad = {**arrays, name: np.zeros(array.shape + (1,))}
            with pytest.raises(ValueError, match=rf"tensor {re.escape(name)} has shape"):
                PromptState.from_arrays(variant, bad, 2, *any_shape(variant), EMBED)

    def test_table_lists_each_tensor_in_parameter_order(self):
        shapes = prompt_shapes(Variant.SWITCHPROMPT, 2, 4, 5, EMBED)
        assert shapes == {
            "prompt.layer0.soft": (4, EMBED), "prompt.layer1.soft": (4, EMBED),
            "prompt.keywords": (5, EMBED), "prompt.gate1": (EMBED,), "prompt.gate2": (EMBED,),
        }
        state = make_state(Variant.SWITCHPROMPT, m=4, n=5, train_keywords=True)
        assert [t.shape for t in state.parameters()] == list(shapes.values())
