import numpy as np
import pytest

from graphdiag import autodiff as ad
from graphdiag import optim
from graphdiag.autodiff import Parameter
from graphdiag.models import ModelSpec


def make_param(values):
    return Parameter(np.asarray(values, dtype=float))


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        p = make_param([1.0, -2.0, 3.0])
        p.grad = np.array([0.5, -4.0, 1e-3])
        optim.Adam([p], lr=0.1).step()
        assert np.allclose(p.data, [0.9, -1.9, 3.0 - 0.1], atol=1e-6)

    def test_grad_cleared_after_step(self):
        p = make_param([1.0])
        p.grad = np.ones(1)
        optim.Adam([p], lr=0.1).step()
        assert p.grad is None

    def test_missing_gradient(self):
        p = make_param([1.0])
        with pytest.raises(optim.MissingGradient):
            optim.Adam([p], lr=0.1).step()

    def test_quadratic_descent(self):
        p = make_param([5.0])
        opt = optim.Adam([p], lr=0.1)
        losses = []
        for _ in range(200):
            losses.append(float(p.data[0] ** 2))
            p.grad = 2.0 * p.data
            opt.step()
        assert losses[-1] < 1e-2 < losses[0]

    def test_deterministic(self):
        def run():
            p = make_param([1.0, 2.0])
            opt = optim.Adam([p], lr=0.05)
            for t in range(10):
                p.grad = np.array([np.sin(t), np.cos(t)])
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_hyperparameters(self):
        assert (optim.Adam.BETA1, optim.Adam.BETA2, optim.Adam.EPS) == (0.9, 0.999, 1e-8)


class TestRMSProp:
    def test_first_step(self):
        # s = 0.1 g^2, update = lr g / (sqrt(s) + eps)
        p = make_param([0.0])
        p.grad = np.array([2.0])
        optim.RMSProp([p], lr=0.1).step()
        expected = -0.1 * 2.0 / (np.sqrt(0.1 * 4.0) + 1e-8)
        assert p.data[0] == pytest.approx(expected)

    def test_quadratic_descent(self):
        p = make_param([3.0])
        opt = optim.RMSProp([p], lr=0.05)
        for _ in range(300):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 0.1

    def test_missing_gradient(self):
        p = make_param([1.0])
        with pytest.raises(optim.MissingGradient):
            optim.RMSProp([p], lr=0.1).step()

    def test_hyperparameters(self):
        assert (optim.RMSProp.RHO, optim.RMSProp.EPS) == (0.9, 1e-8)


class TestFactory:
    def test_kinds(self):
        p = [make_param([0.0])]
        assert isinstance(optim.make_optimizer("adam", p, 0.1), optim.Adam)
        assert isinstance(optim.make_optimizer("RMSProp", p, 0.1), optim.RMSProp)
        with pytest.raises(ValueError):
            optim.make_optimizer("sgd", p, 0.1)


class Scalar:
    """A one-parameter model whose loss is p^2."""

    def __init__(self):
        self.params = [make_param([3.0])]

    def loss(self):
        return ad.sum_(ad.mul(self.params[0], self.params[0]))


def spec(epochs):
    return ModelSpec("scripted", epochs=epochs, lr=0.1, optimizer="adam")


class TestFit:
    def test_post_step_score_restores_latest_of_tied_best_epochs(self):
        model, scores, after = Scalar(), iter([0.5, 0.8, 0.8, 0.6]), []

        def score(epoch):
            after.append(model.params[0].data.copy())
            return next(scores)

        def steps(epoch):
            yield model.loss(), 1, None

        optim.fit(model, spec(4), steps, score)
        # epochs 1 and 2 tie at 0.8; the latest of them wins
        assert np.array_equal(model.params[0].data, after[2])

    def test_pre_step_accuracy_restores_latest_of_tied_best_epochs(self):
        model, accs, before = Scalar(), [0.3, 0.9, 0.9, 0.1], []

        def steps(epoch):
            before.append(model.params[0].data.copy())
            yield model.loss(), 1, accs[epoch]

        optim.fit(model, spec(4), steps)
        assert np.array_equal(model.params[0].data, before[2])

    def test_no_accuracy_keeps_the_trained_parameters(self):
        model, trained = Scalar(), Scalar()
        optim.fit(model, spec(3), lambda epoch: iter([(model.loss(), 1, None)]))
        opt = optim.Adam(trained.params, 0.1)
        for _ in range(3):
            trained.loss().backward()
            opt.step()
        assert np.array_equal(model.params[0].data, trained.params[0].data)

    def test_trace_is_the_weighted_mean_of_step_losses(self):
        model = Scalar()
        losses = []

        def steps(epoch):
            for weight in (3, 1):
                loss = model.loss()
                losses.append(loss.item())
                yield loss, weight, None

        trace = optim.fit(model, spec(2), steps)
        assert trace == [(0.0 + losses[0] * 3 + losses[1]) / 4,
                         (0.0 + losses[2] * 3 + losses[3]) / 4]

    def test_non_finite_loss_raises_divergence_error(self):
        model = Scalar()
        model.params[0].data[0] = np.nan
        with pytest.raises(optim.DivergenceError, match="at epoch 0"):
            optim.fit(model, spec(3), lambda epoch: iter([(model.loss(), 1, None)]))
