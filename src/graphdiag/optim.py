"""Adam and RMSProp parameter updates, and `fit`, the one training loop."""

from __future__ import annotations

import numpy as np


class MissingGradient(RuntimeError):
    pass


class DivergenceError(RuntimeError):
    pass


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradient(f"no gradient for parameter {getattr(p, 'name', i)!r}")
            g = p.grad
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)
            p.grad = None


class RMSProp:
    RHO, EPS = 0.9, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.s = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise MissingGradient(f"no gradient for parameter {getattr(p, 'name', i)!r}")
            g = p.grad
            self.s[i] = self.RHO * self.s[i] + (1 - self.RHO) * g * g
            p.data -= self.lr * g / (np.sqrt(self.s[i]) + self.EPS)
            p.grad = None


def make_optimizer(kind, params, lr):
    kind = kind.lower()
    if kind == "adam":
        return Adam(params, lr)
    if kind == "rmsprop":
        return RMSProp(params, lr)
    raise ValueError(f"unknown optimizer kind {kind!r}")


def fit(model, spec, steps, score=None):
    """Train model.params for spec.epochs epochs; returns the per-epoch loss trace.

    `steps(epoch)` yields `(loss, weight, acc)` per optimizer step: the loss
    Tensor, its weight in the epoch's weighted-mean trace entry, and the
    validation accuracy of the parameters before the step, or None.
    `score(epoch)` gives the validation accuracy of the parameters after
    the epoch's steps, or None.  Every parameter set given an accuracy is a
    candidate, and the latest candidate with the best accuracy is restored;
    with no candidate the trained parameters stay.  A non-finite loss
    raises DivergenceError.
    """
    opt = make_optimizer(spec.optimizer, model.params, spec.lr)
    trace, best, best_acc = [], None, -1.0

    def consider(acc):
        nonlocal best, best_acc
        if acc is not None and acc >= best_acc:
            best, best_acc = [p.data.copy() for p in model.params], acc

    for epoch in range(spec.epochs):
        total = weight = 0.0
        for loss, w, acc in steps(epoch):
            if not np.isfinite(loss.data):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            total += loss.item() * w
            weight += w
            consider(acc)
            loss.backward()
            opt.step()
        trace.append(total / weight)
        if score is not None:
            consider(score(epoch))
    if best is not None:
        for p, data in zip(model.params, best):
            p.data = data
    return trace
