"""Op-level contracts: hand-checkable values plus finite-difference oracles."""

import inspect
import math

import numpy as np
import pytest
from scipy.special import erf

from switchprompt import autograd as ag
from switchprompt.autograd import DropoutRng, Tensor
from switchprompt.gradcheck import OP_TRIALS, check_gradients


class TestMatmul:
    def test_identity(self):
        out = ag.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[3.0], [4.0]]

    def test_zero_annihilation(self):
        out = ag.matmul(Tensor([[2.0]]), Tensor([[0.0]]))
        assert out.data.tolist() == [[0.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        err = check_gradients(lambda t: ag.sum_all(ag.matmul(t[0], t[1])), [a, b])
        assert err < 1e-4


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert ag.sigmoid(Tensor(0.0)).item() == 0.5

    def test_symmetry_sums_to_one(self):
        x = np.linspace(-30.0, 30.0, 41)
        total = ag.sigmoid(Tensor(x)).data + ag.sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(total, 1.0, atol=1e-15)

    def test_value_against_direct_evaluation(self):
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(ag.sigmoid(Tensor(2.0)).item() - expected) < 1e-9

    def test_no_overflow_for_extreme_inputs(self):
        out = ag.sigmoid(Tensor([-1e6, 1e6])).data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_gradient_matches_finite_differences(self):
        x = np.random.default_rng(1).standard_normal((3, 3))
        err = check_gradients(lambda t: ag.sum_all(ag.sigmoid(t[0])), [x])
        assert err < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        loss = ag.softmax_cross_entropy(Tensor(np.zeros((2, 5))), [3, 0])
        assert abs(loss.item() - math.log(5)) < 1e-12

    def test_saturated_correct_prediction_is_near_zero(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 50.0
        assert ag.softmax_cross_entropy(Tensor(logits), [1]).item() < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ag.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 3))
        labels = [0, 2, 1, 1]
        err = check_gradients(lambda t: ag.softmax_cross_entropy(t[0], labels), [logits])
        assert err < 1e-4

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        labels = [2, 0, 1, 2]
        ag.backward(ag.softmax_cross_entropy(logits, labels))
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 4, atol=1e-12)


class TestBackward:
    def test_sum_gives_all_ones(self):
        x = Tensor(np.random.default_rng(4).standard_normal((3, 5)), requires_grad=True)
        ag.backward(ag.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 5)))

    def test_weighted_sum_gives_the_constant(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((2, 4))
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        ag.backward(ag.sum_all(ag.mul(x, Tensor(c))))
        np.testing.assert_allclose(x.grad, c, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ag.backward(Tensor(np.zeros(3), requires_grad=True))

    def test_composed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))

        def build(t):
            return ag.sum_all(ag.sigmoid(ag.matmul(t[0], t[1])))

        assert check_gradients(build, [a, b]) < 1e-4

    def test_double_backward_doubles_gradients_exactly(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        loss = ag.sum_all(ag.gelu(ag.matmul(a, b)))
        ag.backward(loss)
        first_a, first_b = a.grad.copy(), b.grad.copy()
        ag.backward(loss)
        np.testing.assert_array_equal(a.grad, 2.0 * first_a)
        np.testing.assert_array_equal(b.grad, 2.0 * first_b)

    def test_only_leaves_hold_gradients(self):
        rng = np.random.default_rng(24)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        product = ag.matmul(a, b)
        hidden = ag.gelu(product)
        loss = ag.sum_all(hidden)
        ag.backward(loss)
        # leaf gradients as the chain rule gives them: d sum(gelu(ab)) = gelu'(ab)
        x = a.data @ b.data
        dgelu = 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        np.testing.assert_allclose(a.grad, dgelu @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ dgelu, atol=1e-12)
        assert product.grad is None and hidden.grad is None and loss.grad is None
        first_a, first_b = a.grad.copy(), b.grad.copy()
        ag.backward(loss)
        np.testing.assert_array_equal(a.grad, 2.0 * first_a)
        np.testing.assert_array_equal(b.grad, 2.0 * first_b)
        assert product.grad is None and hidden.grad is None

    def test_constant_tensors_never_accumulate(self):
        const = Tensor(np.ones((2, 2)))
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        ag.backward(ag.sum_all(ag.mul(const, x)))
        assert const.grad is None and x.grad is not None

    def test_walk_skips_tensors_that_take_no_gradient(self):
        rng = np.random.default_rng(25)
        prompt = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        frozen = Tensor(rng.standard_normal((3, 3)))
        const = Tensor(rng.standard_normal((2, 3)))
        hidden = ag.matmul(prompt, frozen)
        mixed = ag.add(hidden, const)
        act = ag.gelu(mixed)
        loss = ag.sum_all(act)
        walked = [id(t) for t in ag._toposort(loss)]
        assert walked == [id(t) for t in (prompt, hidden, mixed, act, loss)]


class TestRemainingOps:
    """One trivial plus one finite-difference example per op."""

    def test_add_values_and_gradient(self):
        out = ag.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert out.data.tolist() == [4.0, 6.0]
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal((2, 3)), rng.standard_normal(3)]
        err = check_gradients(lambda t: ag.sum_all(ag.sigmoid(ag.add(t[0], t[1]))), arrays)
        assert err < 1e-4

    def test_mul_values_and_gradient(self):
        out = ag.mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0]))
        assert out.data.tolist() == [8.0, 15.0]
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal((3, 2)), rng.standard_normal((3, 2))]
        err = check_gradients(lambda t: ag.sum_all(ag.gelu(ag.mul(t[0], t[1]))), arrays)
        assert err < 1e-4

    def test_scale_values_and_gradient(self):
        assert ag.scale(Tensor([1.0, -2.0]), -3.0).data.tolist() == [-3.0, 6.0]
        x = np.random.default_rng(10).standard_normal((2, 2))
        assert check_gradients(lambda t: ag.sum_all(ag.scale(t[0], 2.5)), [x]) < 1e-4

    def test_concat_values_and_gradient(self):
        out = ag.concat([Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]])], axis=0)
        assert out.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((2, 3)), rng.standard_normal((1, 3))]
        w = rng.standard_normal((3, 3))
        err = check_gradients(
            lambda t: ag.sum_all(ag.mul(ag.concat(t, axis=0), Tensor(w))), arrays
        )
        assert err < 1e-4

    def test_slice_values_and_gradient(self):
        base = Tensor(np.arange(12.0).reshape(3, 4))
        assert ag.slice_rows(base, 1, 2).data.tolist() == [[4.0, 5.0, 6.0, 7.0]]
        assert ag.slice_cols(base, 0, 2).data.tolist() == [[0, 1], [4, 5], [8, 9]]
        x = np.random.default_rng(12).standard_normal((4, 3))
        err = check_gradients(lambda t: ag.sum_all(ag.slice_rows(t[0], 1, 3)), [x])
        assert err < 1e-4

    def test_slice_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            ag.slice_rows(Tensor(np.zeros((2, 2))), 0, 3)

    def test_layer_norm_values_and_gradient(self):
        # constant gain 1 / bias 0: rows end up zero-mean, unit variance
        x = np.random.default_rng(13).standard_normal((3, 8))
        out = ag.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)
        rng = np.random.default_rng(14)
        arrays = [rng.standard_normal((2, 5)), rng.standard_normal(5), rng.standard_normal(5)]
        w = rng.standard_normal((2, 5))
        err = check_gradients(
            lambda t: ag.sum_all(ag.mul(ag.layer_norm(t[0], t[1], t[2]), Tensor(w))), arrays
        )
        assert err < 1e-4

    def test_embedding_values_and_gradient(self):
        table = Tensor(np.arange(10.0).reshape(5, 2))
        out = ag.embedding(table, [3, 0, 3])
        assert out.data.tolist() == [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]]
        rng = np.random.default_rng(15)
        weight = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 3))
        err = check_gradients(
            lambda t: ag.sum_all(ag.mul(ag.embedding(t[0], [1, 1, 2]), Tensor(w))), [weight]
        )
        assert err < 1e-4

    def test_embedding_repeated_ids_accumulate(self):
        table = Tensor(np.zeros((3, 2)), requires_grad=True)
        ag.backward(ag.sum_all(ag.embedding(table, [1, 1, 1])))
        np.testing.assert_array_equal(table.grad, [[0, 0], [3, 3], [0, 0]])

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ag.embedding(Tensor(np.zeros((3, 2))), [0, 5])

    def test_relu_and_gelu_values_and_gradients(self):
        assert ag.relu(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]
        # gelu(0) = 0, gelu(x) -> x for large x
        assert ag.gelu(Tensor(0.0)).item() == 0.0
        assert abs(ag.gelu(Tensor(10.0)).item() - 10.0) < 1e-9
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4)) + 0.3
        assert check_gradients(lambda t: ag.sum_all(ag.gelu(t[0])), [x]) < 1e-4
        x = x + 10 * 1e-4 * np.sign(x)  # keep relu probes off the kink
        assert check_gradients(lambda t: ag.sum_all(ag.relu(t[0])), [x]) < 1e-4

    def test_reductions_values_and_gradients(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert ag.sum_all(x).item() == 10.0
        assert ag.sum_axis(x, 0).data.tolist() == [4.0, 6.0]
        rng = np.random.default_rng(17)
        arr = rng.standard_normal((3, 4))
        w = rng.standard_normal(4)
        err = check_gradients(
            lambda t: ag.sum_all(ag.mul(ag.sum_axis(t[0], 0), Tensor(w))), [arr]
        )
        assert err < 1e-4

    def test_transpose_and_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ag.reshape(ag.reshape(x, (6,)), (2, 3)).data, x.data)
        arr = np.random.default_rng(18).standard_normal((2, 3))
        w = np.random.default_rng(19).standard_normal((3, 2))
        err = check_gradients(
            lambda t: ag.sum_all(ag.mul(ag.permute(t[0], (1, 0)), Tensor(w))), [arr]
        )
        assert err < 1e-4


class TestBatchedOps:
    def test_broadcast_matmul_matches_stacked_products(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 1, 5, 2))
        w = rng.standard_normal((5, 2))
        out = ag.matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[i, j], a[i, j] @ b[i, 0])
        np.testing.assert_allclose(ag.matmul(Tensor(a), Tensor(w)).data, a @ w, atol=1e-15)
        with pytest.raises(ValueError, match="shape mismatch"):
            ag.matmul(Tensor(a), Tensor(rng.standard_normal((4, 5, 2))))

    def test_frozen_operand_gets_no_gradient(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)))
        ag.backward(ag.sum_all(ag.matmul(x, w)))
        assert w.grad is None
        np.testing.assert_allclose(x.grad, np.broadcast_to(w.data.sum(axis=1), (2, 3, 4)), atol=1e-15)

    def test_permute_and_transpose_invert(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4))
        np.testing.assert_array_equal(ag.permute(x, (1, 2, 0)).data, x.data.transpose(1, 2, 0))
        with pytest.raises(ValueError, match="permute axes"):
            ag.permute(x, (0, 1))

    def test_masked_softmax_gives_masked_slots_zero_probability_and_gradient(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
        mask = np.where(np.arange(5) < np.array([[5], [2]]), 0.0, -np.inf)[:, None, :]
        probs = ag.softmax_rows(x, mask)
        np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (probs.data[1, :, 2:] == 0.0).all()
        # the unmasked part equals an unmasked softmax of the kept slots
        kept = ag.softmax_rows(Tensor(x.data[1, :, :2])).data
        np.testing.assert_allclose(probs.data[1, :, :2], kept, atol=1e-15)
        ag.backward(ag.sum_all(ag.mul(probs, Tensor(rng.standard_normal((2, 3, 5))))))
        assert (x.grad[1, :, 2:] == 0.0).all()
        assert np.abs(x.grad[1, :, :2]).max() > 0

    def test_embedding_gathers_a_batch_of_id_rows(self):
        table = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
        out = ag.embedding(table, [[3, 0], [1, 3]])
        assert out.data.tolist() == [[[6.0, 7.0], [0.0, 1.0]], [[2.0, 3.0], [6.0, 7.0]]]
        ag.backward(ag.sum_all(out))
        np.testing.assert_array_equal(table.grad[:, 0], [1, 1, 0, 2, 0])


class TestDropout:
    def test_eval_mode_is_identity_object(self):
        x = Tensor(np.random.default_rng(20).standard_normal((4, 4)))
        assert ag.dropout(x, 0.5, train=False) is x

    def test_train_mode_masks_and_rescales(self):
        rng = DropoutRng(0)
        rng.begin_step(0)
        x = Tensor(np.ones((100, 100)))
        out = ag.dropout(x, 0.25, rng, train=True)
        values = np.unique(out.data)
        assert set(values.tolist()) <= {0.0, 1.0 / 0.75}
        # empirical keep rate close to 0.75
        assert abs((out.data != 0).mean() - 0.75) < 0.02

    def test_mask_depends_only_on_seed_step_call(self):
        a, b = DropoutRng(7), DropoutRng(7)
        a.begin_step(3)
        b.begin_step(3)
        m1, m2 = a.mask((5, 5), 0.5), b.mask((5, 5), 0.5)
        np.testing.assert_array_equal(m1, m2)
        assert not np.array_equal(m1, a.mask((5, 5), 0.5))  # next call, new mask

    def test_invalid_rate(self):
        with pytest.raises(ValueError, match="rate"):
            ag.dropout(Tensor([1.0]), 1.0, train=True)

    def test_gradient_uses_the_same_mask(self):
        rng = DropoutRng(3)
        x = Tensor(np.random.default_rng(21).standard_normal((3, 3)), requires_grad=True)
        rng.begin_step(0)
        out = ag.dropout(x, 0.5, rng, train=True)
        ag.backward(ag.sum_all(out))
        mask = out.data / np.where(x.data == 0, 1, x.data)
        np.testing.assert_allclose(x.grad, np.where(out.data != 0, 2.0, 0.0), atol=1e-12)


class TestStructuralInvariants:
    def test_concat_then_slice_recovers_inputs_bit_exactly(self):
        rng = np.random.default_rng(22)
        a, b = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((2, 4)))
        joined = ag.concat([a, b], axis=0)
        np.testing.assert_array_equal(ag.slice_rows(joined, 0, 3).data, a.data)
        np.testing.assert_array_equal(ag.slice_rows(joined, 3, 5).data, b.data)

    def test_forward_backward_deterministic_for_fixed_seed(self):
        def run():
            rng = np.random.default_rng(23)
            drop = DropoutRng(11)
            drop.begin_step(0)
            x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            h = ag.dropout(ag.gelu(ag.matmul(x, w)), 0.3, drop, train=True)
            loss = ag.softmax_cross_entropy(h, [0, 1, 2, 1])
            ag.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        loss1, gx1, gw1 = run()
        loss2, gx2, gw2 = run()
        assert loss1 == loss2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)

    def test_no_grad_blocks_graph_recording(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with ag.no_grad():
            out = ag.sigmoid(x)
        assert not out.requires_grad and out._vjp is None


def test_every_op_has_a_gradcheck_trial():
    not_ops = {"Tensor", "DropoutRng", "no_grad", "backward"}
    ops = {"slice" if name.startswith("slice_") else name for name in ag.__all__} - not_ops
    assert ops == set(OP_TRIALS), sorted(ops ^ set(OP_TRIALS))


def _draws(name: str, count: int = 200) -> list:
    rng = np.random.default_rng(0)
    return [OP_TRIALS[name](rng) for _ in range(count)]


class TestGradcheckTrials:
    """One trial per op still draws every form of the op that the program runs."""

    def test_matmul_draws_plain_projection_and_broadcast_attention_forms(self):
        forms = set()
        for _, (a, b) in _draws("matmul"):
            if a.ndim == 2:
                forms.add("2-D @ 2-D")
            elif b.ndim == 2:
                forms.add("stacked @ weight")
            elif any(db == 1 < da for da, db in zip(a.shape[:-2], b.shape[:-2])):
                forms.add("stacked @ broadcast stacked")
        assert forms == {"2-D @ 2-D", "stacked @ weight", "stacked @ broadcast stacked"}

    def test_softmax_rows_draws_bare_and_masked_scores(self):
        masks = [inspect.getclosurevars(op).nonlocals["mask"] for op, _ in _draws("softmax_rows")]
        assert any(mask is None for mask in masks)
        assert any(mask is not None and np.isneginf(mask).any() for mask in masks)

    def test_embedding_draws_one_and_two_dimensional_ids(self):
        ranks = {inspect.getclosurevars(op).nonlocals["ids"].ndim for op, _ in _draws("embedding")}
        assert ranks == {1, 2}

    def test_concat_draws_two_and_three_dimensional_parts_on_every_axis(self):
        forms = {(parts[0].ndim, inspect.getclosurevars(op).nonlocals["axis"])
                 for op, parts in _draws("concat")}
        assert forms == {(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}  # (3, 1): prompts onto keys

    @pytest.mark.parametrize("name", ["add", "mul", "layer_norm"])
    def test_elementwise_ops_draw_zero_to_two_leading_axes(self, name):
        assert {arrays[0].ndim for _, arrays in _draws(name)} == {2, 3, 4}

    def test_add_draws_full_trailing_block_and_bias_operands(self):
        forms = {("full" if b.shape == a.shape else f"last {b.ndim}")
                 for _, (a, b) in _draws("add") if a.ndim == 3}
        assert forms == {"full", "last 2", "last 1"}

    def test_mul_draws_scalar_and_gate_forms(self):
        forms = set()
        for _, (a, b) in _draws("mul"):
            if b.shape == a.shape:
                forms.add("same")
            elif b.ndim == 0:
                forms.add("scalar")
            elif b.shape == (len(b), 1, 1):
                forms.add("gate on stacked block" if a.ndim == 3 else "gate on shared block")
        assert forms == {"same", "scalar", "gate on stacked block", "gate on shared block"}

    def test_layer_norm_rows_keep_off_zero_variance(self):
        # central differences on a near-constant row err by far more than the tolerance
        assert all(x.var(axis=-1).min() >= 1e-2 for _, (x, _, _) in _draws("layer_norm", 1000))
