"""Adam and gradient clipping."""

import numpy as np

from switchprompt import autograd as ag
from switchprompt.autograd import Tensor
from switchprompt.optim import Adam, clip_global_norm


class TestAdam:
    def test_minimizes_a_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ag.backward(ag.sum_all(ag.mul(x, x)))
            opt.step()
        assert np.abs(x.data).max() < 1e-3

    def test_first_step_moves_by_lr_in_gradient_sign(self):
        # with bias correction the first Adam step has magnitude ~lr
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        start = x.data.copy()
        opt = Adam([x], lr=0.05)
        ag.backward(ag.sum_all(ag.mul(x, Tensor(np.array([1.0, -1.0, 2.0])))))
        opt.step()
        np.testing.assert_allclose(start - x.data, 0.05 * np.sign([1.0, -1.0, 2.0]), atol=1e-6)

    def test_params_without_grad_untouched(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([x, y], lr=0.1)
        ag.backward(ag.sum_all(ag.mul(x, x)))
        opt.step()
        np.testing.assert_array_equal(y.data, np.ones(3))
        assert not np.array_equal(x.data, np.ones(3))


class TestClipGlobalNorm:
    def test_leaves_small_gradients_alone(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        x.grad = np.full(4, 0.1)
        norm = clip_global_norm([x], max_norm=1.0)
        np.testing.assert_array_equal(x.grad, np.full(4, 0.1))
        assert abs(norm - 0.2) < 1e-12

    def test_scales_large_gradients_to_the_bound(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        y = Tensor(np.zeros(9), requires_grad=True)
        x.grad = np.full(4, 3.0)
        y.grad = np.full(9, 4.0)
        clip_global_norm([x, y], max_norm=1.0)
        total = float(np.sqrt((x.grad**2).sum() + (y.grad**2).sum()))
        assert abs(total - 1.0) < 1e-12
