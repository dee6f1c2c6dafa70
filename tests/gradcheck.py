"""Shared test helpers: the gradient checker, the LSTM oracle and the model builders.

Training needs only the analytic gradients of ``nn.forward`` and
``nn.backward``; nothing in ``reviewlab`` calls a loss of the whole
classifier or compares it against finite differences.  So the checker
and the two loss functions it perturbs live here, next to the tests
that use them, and ``src/reviewlab`` keeps only what the program runs.
``lstm_oracle`` is the suite's one reference for the LSTM equations:
plain lists and a triple-loop product, written independently of
``nn``.  ``row_lengths`` gives the lengths ``forward`` takes, and
``packed`` the packed layout ``lstm_sequence_forward`` takes, for the
tests that run the rows of x in order.  ``padded`` lays ``backward``'s
input gradients out like x, for the tests that compare them position by
position.  ``zero_params``, ``lstm_params``, ``toy_classifier`` and
``random_xs`` build the parameters, models and inputs the tests run.
"""

import math
from dataclasses import dataclass

import numpy as np

from reviewlab.nn import (
    BiLstmClassifier,
    backward,
    batch_cross_entropy,
    batch_cross_entropy_grad,
    forward,
)
from reviewlab.rng import SeededRng, init_uniform


def lstm_oracle(W, b, xs):
    """Final (h, C) of one example by the gate equations over plain lists.

    W (4H, H + D) and b (4H,) are lists whose rows are the gates f, i, C, o;
    xs is the example's own steps.  The pre-activation W.[h; x] + b is a
    triple-loop product.
    """
    H = len(b) // 4
    h, c = [0.0] * H, [0.0] * H

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    for x in xs:
        z = h + list(x)
        a = []
        for row, bias in zip(W, b):
            s = 0.0
            for w, v in zip(row, z):
                s += w * v
            a.append(s + bias)
        f = [sig(v) for v in a[:H]]
        i = [sig(v) for v in a[H:2 * H]]
        g = [math.tanh(v) for v in a[2 * H:3 * H]]
        o = [sig(v) for v in a[3 * H:]]
        c = [fv * cv + iv * gv for fv, cv, iv, gv in zip(f, c, i, g)]
        h = [ov * math.tanh(cv) for ov, cv in zip(o, c)]
    return h, c


def zero_params(cell, inp, **gates):
    """One direction's (W, b), zero but for the gate blocks given, e.g. b_C=[...] or W_i=[[...]]."""
    W, b = np.zeros((4 * cell, cell + inp)), np.zeros(4 * cell)
    for name, value in gates.items():
        kind, gate = name.split("_")
        rows = slice("fiCo".index(gate) * cell, ("fiCo".index(gate) + 1) * cell)
        (W if kind == "W" else b)[rows] = value
    return W, b


def lstm_params(cell, inp, rng):
    """One direction's (W, b), drawn as build() draws the forward direction."""
    return BiLstmClassifier.build(cell, inp, 1, rng)[:2]


def toy_classifier(seed=0, cell=4, inp=3, n_classes=3, dtype=np.float64):
    """BiLstmClassifier.build(cell, inp, n_classes, SeededRng(seed)) in dtype."""
    model = BiLstmClassifier.build(cell, inp, n_classes, SeededRng(seed))
    return BiLstmClassifier(*(a.astype(dtype, copy=False) for a in model))


def random_xs(rng, input_size, length, batch=1):
    """(length, batch, input_size) inputs uniform on [-1, 1], drawn step by step."""
    return np.stack([init_uniform(input_size, batch, rng, 1.0).T for _ in range(length)])


def row_lengths(x, lengths=None):
    """lengths as an array, by default all T steps for each row of x (T, B, D)."""
    return np.full(x.shape[1], len(x)) if lengths is None else np.asarray(lengths)


def packed(x, lengths=None):
    """(offsets, index) that step row j of x (T, B, D) over x[0, j] ... x[lengths[j] - 1, j].

    lengths, non-increasing, defaults to all T steps.  lstm_sequence_forward()
    takes the pair as its arguments after x.
    """
    t, j = np.nonzero(np.arange(len(x))[:, None] < row_lengths(x, lengths))
    return np.searchsorted(t, np.arange(len(x) + 1)).tolist(), (t, j)


def padded(dx, lengths, T):
    """backward()'s dx, one row per real token, step-major, as (T, B, D) with zeros at the pads."""
    out = np.zeros((T, len(lengths), dx.shape[1]), dtype=dx.dtype)
    out[np.nonzero(np.arange(T)[:, None] < np.asarray(lengths))] = dx
    return out


def cell_states(cache):
    """The packed cell states C_t, which z's first H columns hold from forward until backward."""
    return cache.z[:, :cache.acts.shape[1] // 4]


def loss(model, instance) -> float:
    """Mean cross-entropy of a BiLstmClassifier; instance is (x, targets[, lengths])."""
    x, targets, *lengths = instance
    return batch_cross_entropy(forward(model, x, row_lengths(x, *lengths))[0], targets)


def loss_and_grads(model, instance):
    """The loss and its analytic gradients, in param_blocks() order."""
    x, targets, *lengths = instance
    probs, cache = forward(model, x, row_lengths(x, *lengths), training=True)
    grads, _ = backward(model, cache, batch_cross_entropy_grad(probs, targets))
    return batch_cross_entropy(probs, targets), grads


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative error per parameter block from central differences."""

    per_block: dict
    max_rel_err: float
    epsilon: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def grad_check(model, instance, epsilon: float, tolerance: float = 1e-4, *,
               loss=loss, loss_and_grads=loss_and_grads) -> GradCheckReport:
    """Compare analytic gradients to (L(p+eps) - L(p-eps)) / (2 eps).

    The model supplies param_blocks() (live arrays, perturbed in place and
    restored); loss(model, instance) and loss_and_grads(model, instance)
    default to the BiLstmClassifier ones above.  Relative error uses a
    1e-6 floor in the denominator so near-zero gradient pairs are compared
    absolutely instead of blowing up.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _, grads = loss_and_grads(model, instance)
    per_block = {}
    for (name, param), analytic in zip(model.param_blocks(), grads):
        worst = 0.0
        for k in np.ndindex(param.shape):
            orig = param[k]
            param[k] = orig + epsilon
            loss_plus = loss(model, instance)
            param[k] = orig - epsilon
            loss_minus = loss(model, instance)
            param[k] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            a = float(analytic[k])
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
        per_block[name] = worst
    overall = max(per_block.values()) if per_block else 0.0
    return GradCheckReport(
        per_block=per_block, max_rel_err=overall, epsilon=epsilon, tolerance=tolerance
    )
