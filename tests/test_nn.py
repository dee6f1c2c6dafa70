"""Tests for the LSTM recurrence, bidirectional classifier, losses, and optimizers."""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlab import nn
from reviewlab.nn import (
    BiLstmClassifier,
    adam_step,
    backward,
    batch_cross_entropy,
    batch_cross_entropy_grad,
    clip_by_global_norm,
    dropout_mask,
    forward,
    lstm_sequence_backward,
    lstm_sequence_forward,
    softmax,
)
from reviewlab.rng import SeededRng, init_uniform
from reviewlab.training import TrainConfig

from gradcheck import cell_states, grad_check, loss, packed, padded, row_lengths


def zero_params(cell, inp):
    return np.zeros((4 * cell, cell + inp)), np.zeros(4 * cell)


def lstm_params(cell, inp, rng):
    """One direction's (W, b), drawn as build() draws the forward direction."""
    return BiLstmClassifier.build(cell, inp, 1, rng)[:2]


def params_with(cell, inp, **overrides):
    """Zero parameters with per-gate blocks overridden, e.g. b_C=[...] or W_i=[[...]]."""
    W, b = zero_params(cell, inp)
    for name, value in overrides.items():
        kind, gate = name.split("_")
        rows = slice("fiCo".index(gate) * cell, ("fiCo".index(gate) + 1) * cell)
        (W if kind == "W" else b)[rows] = value
    return W, b


def random_xs(rng, input_size, length, batch=1, scale=1.0):
    """(length, batch, input_size) inputs, drawn step by step."""
    return np.stack([init_uniform(input_size, batch, rng, scale).T for _ in range(length)])


def one_step(params, x):
    """First-step (h, C, (f, i, C~, o)) for inputs x (B, D).

    With one step the packed cache rows are the B examples.
    """
    x = np.asarray(x, dtype=float)[None]
    h, cache = lstm_sequence_forward(params, x, *packed(x))
    return h, cell_states(cache), np.split(cache.acts, 4, axis=1)


def sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def manual_steps(params, x):
    """The gate equations applied step by step in plain numpy."""
    W, b = params
    H = len(b) // 4
    h = np.zeros((x.shape[1], H))
    c = np.zeros_like(h)
    for x_t in x:
        a = np.hstack([h, x_t]) @ W.T + b
        f, i, g, o = sig(a[:, :H]), sig(a[:, H:2 * H]), np.tanh(a[:, 2 * H:3 * H]), sig(a[:, 3 * H:])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h, c


def zero_head(cell, n_classes=3):
    return np.zeros((n_classes, 2 * cell)), np.zeros(n_classes)


class TestLstmCellForward:
    def test_all_zero_parameters(self):
        """Zero weights force f=i=o=0.5, candidate 0, state 0."""
        h, c, (f, i, g, o) = one_step(zero_params(2, 3), [[1.0, -2.0, 3.0]])
        assert np.allclose(f, 0.5)
        assert np.allclose(i, 0.5)
        assert np.allclose(o, 0.5)
        assert np.allclose(g, 0.0)
        assert np.allclose(c, 0.0)
        assert np.allclose(h, 0.0)

    def test_hand_evaluated_candidate_bias(self):
        """b_C = atanh(0.5) with zero weights gives h = 0.5 tanh(0.25)."""
        p = params_with(1, 1, b_C=[math.atanh(0.5)])
        h, c, (_, _, g, _) = one_step(p, [[123.0]])
        assert abs(g[0, 0] - 0.5) < 1e-12
        assert abs(c[0, 0] - 0.25) < 1e-12
        assert abs(h[0, 0] - 0.122460) < 1e-6

    def test_saturated_gates_carry_cell_state(self):
        """f pushed to 1 and i to 0 make the cell a pure memory line."""
        # x = 1 opens the input gate once to write C~ = [0.7, -0.3]; x = 0 closes it.
        p = params_with(2, 1, b_f=[1e3, 1e3], b_i=[-1e3, -1e3],
                        W_i=[[0.0, 0.0, 2e3], [0.0, 0.0, 2e3]],
                        b_C=[math.atanh(0.7), math.atanh(-0.3)])
        x = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
        _, cache = lstm_sequence_forward(p, x, *packed(x))
        # One example: packed row t is step t.
        c = cell_states(cache)
        assert np.allclose(c[0], [0.7, -0.3], atol=1e-9)
        assert np.allclose(c[2], c[0], atol=1e-9)

    def test_memory_carry_over_fifty_steps(self):
        p = params_with(1, 1, b_f=[1e3], b_i=[-1e3], W_i=[[0.0, 2e3]],
                        b_C=[math.atanh(0.42)])
        x = np.zeros((61, 1, 1))
        x[0] = 1.0
        _, cache = lstm_sequence_forward(p, x, *packed(x))
        assert abs(cell_states(cache)[-1, 0] - 0.42) < 1e-9

    def test_gate_ranges_on_random_inputs(self):
        rng = SeededRng(0)
        p = lstm_params(3, 2, rng)
        h, _, (f, i, g, o) = one_step(p, [[10.0, -10.0]])
        for gate in (f, i, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(g) < 1.0)
        assert np.all(np.abs(h) < 1.0)

    def test_input_size_mismatch(self):
        """Inputs of another width fail the input projection's GEMM."""
        with pytest.raises(ValueError, match="mismatch"):
            one_step(zero_params(2, 3), [[1.0, 2.0]])

    def test_batched_columns_match_single_runs(self):
        """A two-example batch equals the two single-example passes."""
        rng = SeededRng(5)
        p = lstm_params(3, 2, rng)
        xa, xb = [0.3, -0.8], [1.5, 0.2]
        ha, _, _ = one_step(p, [xa])
        hb, _, _ = one_step(p, [xb])
        hboth, _, _ = one_step(p, [xa, xb])
        assert np.allclose(hboth[:1], ha, atol=1e-15)
        assert np.allclose(hboth[1:], hb, atol=1e-15)


class TestLstmSequenceForward:
    def test_length_one_equals_single_cell(self):
        rng = SeededRng(1)
        p = lstm_params(2, 2, rng)
        x = np.array([[[0.5, -1.0]]])
        h, cache = lstm_sequence_forward(p, x, *packed(x))
        want_h, want_c = manual_steps(p, x)
        assert np.allclose(h, want_h, atol=1e-15)
        assert np.allclose(cell_states(cache), want_c, atol=1e-15)
        assert cache.acts.shape == (1, 8)

    def test_zero_params_zero_final_state(self):
        xs = random_xs(SeededRng(2), 2, 6)
        h, _ = lstm_sequence_forward(zero_params(2, 2), xs, *packed(xs))
        assert np.allclose(h, 0.0)

    def test_length_three_equals_manual_composition(self):
        """The fold agrees with three explicit applications of the gate equations."""
        rng = SeededRng(3)
        p = lstm_params(3, 2, rng)
        xs = random_xs(SeededRng(4), 2, 3)
        h, cache = lstm_sequence_forward(p, xs, *packed(xs))
        want_h, want_c = manual_steps(p, xs)
        assert np.allclose(h, want_h, atol=1e-15)
        assert np.allclose(cell_states(cache)[-1], want_c, atol=1e-15)
        assert cache.acts.shape[0] == 3

    def test_caches_record_cell_states_in_order(self):
        """Step t packs the rows still running, a prefix; each row carries its own state."""
        rng = SeededRng(6)
        p = lstm_params(2, 2, rng)
        xs = random_xs(SeededRng(7), 2, 4, batch=3)
        h, cache = lstm_sequence_forward(p, xs, *packed(xs, [4, 3, 1]))
        assert cache.offsets == [0, 3, 5, 7, 8]
        c, prev_c, last_h = cell_states(cache), np.zeros((3, 2)), np.zeros((3, 2))
        for t, k in enumerate(np.diff(cache.offsets)):
            rows = slice(cache.offsets[t], cache.offsets[t + 1])
            f, i, g, o = np.split(cache.acts[rows], 4, axis=1)
            assert np.array_equal(c[rows], f * prev_c[:k] + i * g)
            prev_c[:k] = c[rows]
            last_h[:k] = o * np.tanh(c[rows])
        assert np.array_equal(h, last_h)

    def test_cache_holds_five_h_plus_d_floats_per_real_token(self):
        """Each direction caches z (N, H + D) and the gate block (N, 4H), nothing more."""
        model = toy_classifier(seed=12, cell=4, inp=3, dtype=np.float32)
        lengths = np.array([2, 6, 0, 5])
        xs = random_xs(SeededRng(13), 3, 6, batch=4).astype(np.float32)
        _, cache = forward(model, xs, lengths, training=True)
        N, H, D = lengths.sum(), 4, 3
        for direction in (cache.fwd, cache.bwd):
            arrays = [a for a in direction if isinstance(a, np.ndarray)]
            assert sum(a.nbytes for a in arrays) == N * (5 * H + D) * 4


class TestInferenceKeepsNoCache:
    """Without keep, a direction stores no BPTT cache and projects its inputs 16 steps
    at a time; an eval forward() passes keep=False."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lengths", [
        [40, 33, 17, 16, 15, 1, 0],  # rows ending on, beside and between 16-step chunks
        [33], [17], [1],  # a last chunk of one row, and one single-token row
    ])
    def test_same_final_state_across_chunk_boundaries(self, dtype, lengths):
        p = tuple(a.astype(dtype) for a in lstm_params(32, 8, SeededRng(130)))
        xs = random_xs(SeededRng(131), 8, max(lengths), batch=len(lengths)).astype(dtype)
        want, cache = lstm_sequence_forward(p, xs, *packed(xs, lengths))
        got, none = lstm_sequence_forward(p, xs, *packed(xs, lengths), False)
        assert none is None and cache is not None
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    def test_eval_forward_at_the_reference_batch_traces_half_the_memory(self):
        """B=256, H=256, D=50 and gamma lengths up to 120: an eval forward keeps no direction
        cache, gives the training pass's probabilities and peaks at most half as high."""
        rng = np.random.default_rng(132)
        lengths = np.minimum(1 + rng.gamma(3.2, 18.6, 256).astype(int), 120)
        x = rng.standard_normal((lengths.max(), 256, 50), dtype=np.float32)
        model = toy_classifier(seed=133, cell=256, inp=50, dtype=np.float32)
        runs = {}
        for training in (False, True):
            tracemalloc.start()
            try:
                probs, cache = forward(model, x, lengths, training=training)
                runs[training] = probs, cache, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        (probs, cache, peak), (want, kept, train_peak) = runs[False], runs[True]
        assert cache.fwd is None and cache.bwd is None
        assert kept.fwd is not None and kept.bwd is not None
        assert np.array_equal(probs, want)
        assert peak <= train_peak / 2, (peak, train_peak)


class TestBiLstmForward:
    def test_palindrome_with_shared_params_gives_equal_halves(self):
        rng = SeededRng(8)
        p = lstm_params(3, 2, rng)
        model = BiLstmClassifier(*p, *p, *zero_head(3))
        a, b = [0.4, -0.2], [1.0, 0.5]
        xs = np.array([[a], [b], [a]])
        _, cache = forward(model, xs, row_lengths(xs))
        assert np.array_equal(cache.features[:, :3], cache.features[:, 3:])

    def test_zero_params_zero_vector(self):
        model = BiLstmClassifier(*zero_params(2, 2), *zero_params(2, 2), *zero_head(2))
        xs = random_xs(SeededRng(9), 2, 5)
        _, cache = forward(model, xs, row_lengths(xs))
        assert cache.features.shape == (1, 4)
        assert np.allclose(cache.features, 0.0)

    def test_matches_explicit_reversal_oracle(self):
        """Four-step output equals running each direction by hand."""
        rng = SeededRng(10)
        model = BiLstmClassifier.build(3, 2, 3, rng)._replace(head_W=np.zeros((3, 6)),
                                                             head_b=np.zeros(3))
        xs = random_xs(SeededRng(11), 2, 4)
        _, cache = forward(model, xs, row_lengths(xs))
        fwd, _ = lstm_sequence_forward(model[0:2], xs, *packed(xs))
        reversed_xs = xs[::-1].copy()
        bwd, _ = lstm_sequence_forward(model[2:4], reversed_xs, *packed(reversed_xs))
        assert np.array_equal(cache.features[:, :3], fwd)
        assert np.array_equal(cache.features[:, 3:], bwd)


class TestDenseSoftmax:
    """forward()'s probabilities are softmax(features . head_W^T + head_b)."""

    def test_zero_parameters_uniform_probs(self):
        model = toy_classifier(seed=12)._replace(head_W=np.zeros((3, 8)), head_b=np.zeros(3))
        xs = random_xs(SeededRng(12), 3, 4)
        probs, cache = forward(model, xs, row_lengths(xs))
        assert np.any(cache.features != 0.0)
        assert np.allclose(probs, 1 / 3, atol=1e-12)

    def test_large_bias_dominates(self):
        model = toy_classifier(seed=12, n_classes=2)._replace(
            head_W=np.zeros((2, 8)), head_b=np.array([10.0, 0.0]))
        xs = random_xs(SeededRng(12), 3, 4)
        probs, _ = forward(model, xs, row_lengths(xs))
        assert probs[0, 0] >= 0.9999

    def test_matches_matmul_softmax_composition(self):
        model = toy_classifier(seed=12)
        xs = random_xs(SeededRng(13), 3, 4)
        probs, cache = forward(model, xs, row_lengths(xs))
        logits = model.head_W @ cache.features[0] + model.head_b
        want = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(probs[0], want, atol=1e-12)

    def test_columns_sum_to_one(self):
        """Each example's class probabilities sum to one."""
        model = toy_classifier(seed=13)
        xs = random_xs(SeededRng(14), 3, 4, batch=5)
        probs, cache = forward(model, xs, row_lengths(xs))
        assert cache.features.shape == (5, 8)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestCrossEntropy:
    def test_certain_correct_prediction(self):
        assert abs(batch_cross_entropy(np.array([[1.0, 0.0, 0.0]]), [0])) < 1e-9

    def test_uniform_three_class(self):
        probs = np.array([[1 / 3, 1 / 3, 1 / 3]])
        for target in range(3):
            assert abs(batch_cross_entropy(probs, [target]) - 1.098612) < 1e-6

    def test_target_out_of_range(self):
        """A target past the last class is an index error, not a silent wrong loss."""
        with pytest.raises(IndexError, match="out of bounds"):
            batch_cross_entropy(np.array([[0.5, 0.5]]), [2])
        with pytest.raises(IndexError, match="out of bounds"):
            batch_cross_entropy_grad(np.array([[0.5, 0.5]]), [2])

    def test_clamp_guards_zero_probability(self):
        loss = batch_cross_entropy(np.array([[0.0, 1.0]]), [0])
        assert loss == pytest.approx(-math.log(1e-12))

    def test_gradient_matches_finite_differences(self):
        """d(loss)/d(logits) equals the central-difference estimate."""
        logits = np.array([[0.2, -1.3, 0.7]])
        target = [1]

        def loss_of(vals):
            return batch_cross_entropy(softmax(vals), target)

        analytic = batch_cross_entropy_grad(softmax(logits), target)
        eps = 1e-6
        for k in range(3):
            up, dn = logits.copy(), logits.copy()
            up[0, k] += eps
            dn[0, k] -= eps
            numeric = (loss_of(up) - loss_of(dn)) / (2 * eps)
            a = analytic[0, k]
            assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-6) < 1e-6

    def test_batch_mean_and_grad_scaling(self):
        """Batched loss is the mean; gradient carries the 1/B factor."""
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        targets = [0, 1]
        want = -(math.log(0.7) + math.log(0.8)) / 2
        assert batch_cross_entropy(probs, targets) == pytest.approx(want)
        g = batch_cross_entropy_grad(probs, targets)
        assert np.allclose(g[0], [(0.7 - 1) / 2, 0.3 / 2])
        assert np.allclose(g[1], [0.2 / 2, (0.8 - 1) / 2])


class TestDropout:
    def test_rate_zero_identity(self):
        assert np.array_equal(dropout_mask(3, 4, 0.0, SeededRng(1), np.float64), np.ones((3, 4)))
        model = toy_classifier()
        xs = random_xs(SeededRng(1), 3, 2)
        _, cache = forward(model, xs, row_lengths(xs), dropout_rate=0.0, rng=SeededRng(1),
                           training=True)
        assert cache.mask is None

    def test_inference_identity(self):
        model = toy_classifier()
        xs = random_xs(SeededRng(1), 3, 2)
        plain, _ = forward(model, xs, row_lengths(xs))
        out, cache = forward(model, xs, row_lengths(xs), dropout_rate=0.5, rng=SeededRng(1),
                             training=False)
        assert cache.mask is None
        assert np.array_equal(out, plain)

    def test_monte_carlo_mean_preserved(self):
        """Inverted scaling keeps the expected activation at 1.0."""
        mask = dropout_mask(100, 100, 0.5, SeededRng(99), np.float64)
        assert 0.96 <= mask.mean() <= 1.04

    def test_surviving_entries_scaled(self):
        mask = dropout_mask(50, 50, 0.25, SeededRng(3), np.float64)
        vals = set(np.round(mask, 12).reshape(-1))
        assert vals <= {0.0, round(1 / 0.75, 12)}

    def test_invalid_rate_rejected(self):
        """TrainConfig refuses the rate before any mask is drawn."""
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="dropout_rate"):
                TrainConfig(dropout_rate=rate)


def toy_classifier(seed=0, cell=4, inp=3, n_classes=3, dtype=np.float64):
    model = BiLstmClassifier.build(cell, inp, n_classes, SeededRng(seed))
    return BiLstmClassifier(*(a.astype(dtype, copy=False) for a in model))


def bump(param, k, delta):
    """A copy of param with entry k moved by delta."""
    out = param.copy()
    out[k] += delta
    return out


class TestBackward:
    def test_zero_loss_gradient_gives_zero_grads(self):
        model = toy_classifier()
        xs = random_xs(SeededRng(20), 3, 5)
        _, cache = forward(model, xs, row_lengths(xs), training=True)
        grads, dx = backward(model, cache, np.zeros((1, 3)))
        for g in grads:
            assert np.allclose(g, 0.0)
        assert np.allclose(dx, 0.0)

    def test_master_gradient_check(self):
        """Analytic BPTT matches central differences on the toy instance."""
        model = toy_classifier(seed=0)
        xs = random_xs(SeededRng(100), 3, 5)
        report = grad_check(model, (xs, 2), epsilon=1e-5, tolerance=1e-4)
        assert report.passed, report.per_block

    def test_duplicated_direction_grads_identical(self):
        """Cloned directions on a palindrome receive identical gradients."""
        rng = SeededRng(21)
        p = lstm_params(3, 2, rng)
        half = init_uniform(3, 3, SeededRng(22), 0.5)
        model = BiLstmClassifier(*p, *p, np.hstack([half, half]), np.array([0.1, -0.2, 0.3]))
        a, b = [0.9, -0.4], [0.2, 0.6]
        xs = np.array([[a], [b], [a]])
        probs, cache = forward(model, xs, row_lengths(xs), training=True)
        grads, _ = backward(model, cache, batch_cross_entropy_grad(probs, [1]))
        for gf, gb in zip(grads[0:2], grads[2:4]):
            assert np.allclose(gf, gb, atol=1e-12)

    def test_input_gradients_match_finite_differences(self):
        """The input-gradient hook dx agrees with perturbing the inputs."""
        model = toy_classifier(seed=5)
        xs = random_xs(SeededRng(23), 3, 4)
        target = 0
        probs, cache = forward(model, xs, row_lengths(xs), training=True)
        _, dx = backward(model, cache, batch_cross_entropy_grad(probs, [target]))
        dx = padded(dx, row_lengths(xs), len(xs))
        eps = 1e-6
        for t in (0, 3):
            for r in range(3):
                lu = loss(model, (bump(xs, (t, 0, r), eps), target))
                ld = loss(model, (bump(xs, (t, 0, r), -eps), target))
                numeric = (lu - ld) / (2 * eps)
                a = dx[t, 0, r]
                assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-6) < 1e-5

    def test_gradient_through_dropout_mask(self):
        """With the mask replayed, gradients stay finite-difference exact."""
        model = toy_classifier(seed=9)
        xs = random_xs(SeededRng(25), 3, 3)
        target = 1
        mask_seed = 7

        def loss_with_mask():
            probs, _ = forward(
                model, xs, row_lengths(xs), dropout_rate=0.5, rng=SeededRng(mask_seed),
                training=True,
            )
            return batch_cross_entropy(probs, [target])

        probs, cache = forward(
            model, xs, row_lengths(xs), dropout_rate=0.5, rng=SeededRng(mask_seed),
            training=True,
        )
        assert cache.mask is not None
        grads, _ = backward(model, cache, batch_cross_entropy_grad(probs, [target]))
        blocks = model.param_blocks()
        eps = 1e-6
        head_w_index = [i for i, (n, _) in enumerate(blocks) if n == "head.W"][0]
        for bi in (0, head_w_index):
            param = blocks[bi][1]
            orig = param[0, 0]
            param[0, 0] = orig + eps
            up = loss_with_mask()
            param[0, 0] = orig - eps
            dn = loss_with_mask()
            param[0, 0] = orig
            numeric = (up - dn) / (2 * eps)
            a = grads[bi][0, 0]
            assert abs(a - numeric) / max(abs(a), abs(numeric), 1e-6) < 1e-4


class TestRaggedBatch:
    """Per-row lengths: each row of a padded batch equals that row run alone
    over its own real inputs, and the padding is never read."""

    LENGTHS = np.array([3, 0, 5, 1])  # unsorted, with an empty row and a full-length one
    TARGETS = [0, 2, 1, 1]

    def instance(self):
        model = toy_classifier(seed=90)
        xs = random_xs(SeededRng(91), 3, 5, batch=4)
        for r, length in enumerate(self.LENGTHS):
            xs[length:, r] = 99.0
        return model, xs

    def test_features_match_rows_run_alone(self):
        model, xs = self.instance()
        _, cache = forward(model, xs, self.LENGTHS)
        for r, length in enumerate(self.LENGTHS):
            row = xs[:length, r:r + 1]
            want = forward(model, row, row_lengths(row))[1].features[0] if length else 0.0
            assert np.abs(cache.features[r] - want).max() <= 1e-12

    def test_gradients_match_rows_run_alone(self):
        """The batch gradients are the sum of the per-row gradients."""
        model, xs = self.instance()
        probs, cache = forward(model, xs, self.LENGTHS, training=True)
        dlogits = batch_cross_entropy_grad(probs, self.TARGETS)
        grads, dx = backward(model, cache, dlogits)
        want = [np.zeros_like(p) for _, p in model.param_blocks()]
        want_dx = np.zeros_like(xs)
        for r, length in enumerate(self.LENGTHS):
            if length == 0:
                want[-1] += dlogits[r]  # zero features: only the head bias moves
                continue
            row = xs[:length, r:r + 1]
            _, alone = forward(model, row, row_lengths(row), training=True)
            row_grads, row_dx = backward(model, alone, dlogits[r:r + 1])
            for w, g in zip(want, row_grads):
                w += g
            want_dx[:length, r] = row_dx
        for g, w in zip(grads, want):
            assert np.abs(g - w).max() <= 1e-12
        assert np.abs(padded(dx, self.LENGTHS, len(xs)) - want_dx).max() <= 1e-12

    def test_grad_check_passes(self):
        model, xs = self.instance()
        report = grad_check(model, (xs, self.TARGETS, self.LENGTHS), epsilon=1e-5)
        assert report.passed, report.per_block


def sequential_pass(model, xs, lengths, targets, dropout_rate):
    """forward() then backward(), with each direction run on this thread in turn.

    The reverse direction reads an explicitly sorted and reversed copy of
    the inputs.  Returns (probs, features, grads, dx).
    """
    T, B = xs.shape[:2]
    H = model.cell_size
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    L = lengths[order]
    x_sorted = xs[:, order]
    x_rev = x_sorted[np.maximum(L - 1 - np.arange(T)[:, None], 0), np.arange(B)]
    h_fwd, fwd = lstm_sequence_forward(model[0:2], x_sorted, *packed(x_sorted, L))
    h_bwd, bwd = lstm_sequence_forward(model[2:4], x_rev, *packed(x_rev, L))
    features = np.hstack([h_fwd, h_bwd])[np.argsort(order)]
    mask = dropout_mask(2 * H, B, dropout_rate, SeededRng(7), model.head_W.dtype).T
    probs = softmax(features * mask @ model.head_W.T + model.head_b)
    dlogits = batch_cross_entropy_grad(probs, targets).astype(model.head_W.dtype)
    dfeat = (dlogits @ model.head_W * mask)[order]
    dW_fwd, db_fwd, dx_fwd = lstm_sequence_backward(model[0:2], fwd, dfeat[:, :H])
    dW_bwd, db_bwd, dx_bwd = lstm_sequence_backward(model[2:4], bwd, dfeat[:, H:])
    t, j = np.nonzero(np.arange(T)[:, None] < L)
    dx = np.zeros_like(xs)
    dx[t, order[j]] = dx_fwd
    dx[L[j] - 1 - t, order[j]] += dx_bwd
    grads = [dW_fwd, db_fwd, dW_bwd, db_bwd, dlogits.T @ (features * mask), dlogits.sum(axis=0)]
    return probs, features, grads, dx


class TestDirectionsOnTwoThreads:
    """forward() and backward() run the reverse direction on a worker thread from two rows
    up, and a one-row batch on the calling thread; the results are the same."""

    CASES = pytest.mark.parametrize("lengths, dropout_rate", [
        ([3, 0, 5, 1], 0.5),  # ragged, unsorted, with an empty row
        ([5, 5, 2], 0.0),
        ([4], 0.0),
        ([2], 0.5),
    ])

    @CASES
    def test_bit_identical_to_sequential_directions(self, lengths, dropout_rate):
        self.check_bit_identical(lengths, dropout_rate, np.float64)

    @CASES
    def test_bit_identical_in_float32(self, lengths, dropout_rate):
        self.check_bit_identical(lengths, dropout_rate, np.float32)

    @staticmethod
    def check_bit_identical(lengths, dropout_rate, dtype):
        model = toy_classifier(seed=95, dtype=dtype)
        xs = random_xs(SeededRng(96), 3, max(lengths), batch=len(lengths)).astype(dtype)
        targets = [r % 3 for r in range(len(lengths))]
        probs, cache = forward(model, xs, np.array(lengths), dropout_rate=dropout_rate,
                               rng=SeededRng(7), training=True)
        grads, dx = backward(model, cache, batch_cross_entropy_grad(probs, targets))
        want_probs, want_features, want_grads, want_dx = sequential_pass(
            model, xs, lengths, targets, dropout_rate)
        assert np.array_equal(probs, want_probs)
        assert np.array_equal(cache.features, want_features)
        assert cache.features.dtype == dx.dtype == dtype
        for g, w in zip(grads, want_grads):
            assert g.dtype == dtype
            assert np.array_equal(g, w)
        assert len(dx) == sum(lengths)
        assert np.array_equal(padded(dx, lengths, len(xs)), want_dx)

    def test_worker_error_reaches_caller(self, monkeypatch):
        model = toy_classifier(seed=97)
        xs = random_xs(SeededRng(98), 3, 4, batch=2)
        lengths = np.array([4, 2])
        want, _ = forward(model, xs, lengths)

        def failing(params, *args):
            if params[0] is model.bwd_W:
                raise RuntimeError("reverse direction failed")
            return lstm_sequence_forward(params, *args)

        monkeypatch.setattr(nn, "lstm_sequence_forward", failing)
        with pytest.raises(RuntimeError, match="reverse direction failed"):
            forward(model, xs, lengths)
        monkeypatch.undo()
        probs, _ = forward(model, xs, lengths)
        assert np.array_equal(probs, want)

    def test_worker_runs_under_the_callers_errstate(self):
        """An overflow in the reverse direction raises as the caller's errstate says."""
        model = toy_classifier(seed=105, dtype=np.float32)
        H = model.cell_size
        W, b = model.bwd_W.copy(), np.full_like(model.bwd_b, 30.0)
        W[:, :H] = 3e38  # saturated gates, then h . W_h sums H terms of 2.3e38
        xs = random_xs(SeededRng(106), 3, 4, batch=2).astype(np.float32)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            forward(model._replace(bwd_W=W, bwd_b=b), xs, np.array([4, 2]))

    def test_caller_error_waits_for_worker(self, monkeypatch):
        """When the calling thread's direction raises, the reverse one has finished."""
        model = toy_classifier(seed=99)
        xs = random_xs(SeededRng(100), 3, 4, batch=2)
        finished = threading.Event()

        def slow_reverse(params, *args):
            if params[0] is model.fwd_W:
                raise RuntimeError("forward direction failed")
            time.sleep(0.05)
            finished.set()
            return lstm_sequence_forward(params, *args)

        monkeypatch.setattr(nn, "lstm_sequence_forward", slow_reverse)
        with pytest.raises(RuntimeError, match="forward direction failed"):
            forward(model, xs, row_lengths(xs))
        assert finished.is_set()

    @pytest.mark.parametrize("training", [False, True])
    def test_one_row_runs_on_the_calling_thread(self, monkeypatch, training):
        """A one-row batch runs both directions here, forward first, in both passes."""
        model = toy_classifier(seed=107)
        xs = random_xs(SeededRng(108), 3, 4)
        calls = []

        def spy(fn):
            def record(params, *args):
                calls.append((fn.__name__, params[0] is model.fwd_W, threading.current_thread()))
                return fn(params, *args)
            return record

        for fn in (lstm_sequence_forward, lstm_sequence_backward):
            monkeypatch.setattr(nn, fn.__name__, spy(fn))
        probs, cache = forward(model, xs, row_lengths(xs), training=training)
        if training:
            backward(model, cache, batch_cross_entropy_grad(probs, [1]))
        names = ["lstm_sequence_forward", "lstm_sequence_backward"][:1 + training]
        here = threading.current_thread()
        assert calls == [(name, fwd, here) for name in names for fwd in (True, False)]

    def test_concurrent_callers_share_the_worker(self):
        """Callers on several threads at once each get their own sequential result."""
        model = toy_classifier(seed=103)
        inputs = [random_xs(SeededRng(104 + n), 3, 6, batch=3) for n in range(6)]
        lengths = np.array([6, 2, 4])
        want = [forward(model, xs, lengths)[0] for xs in inputs]
        got = [[] for _ in inputs]

        def call(n):
            for _ in range(20):
                got[n].append(forward(model, inputs[n], lengths)[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(n,)) for n in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results, expected in zip(got, want):
            assert len(results) == 20
            assert all(np.array_equal(probs, expected) for probs in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self):
        """A child forked after the worker started does not wait on the parent's thread."""
        model = toy_classifier(seed=101)
        xs = random_xs(SeededRng(102), 3, 4, batch=2)
        want, _ = forward(model, xs, row_lengths(xs))
        pid = os.fork()
        if pid == 0:
            code = 2
            try:
                signal.alarm(10)
                code = 0 if np.array_equal(forward(model, xs, row_lengths(xs))[0], want) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_repeated_passes_keep_one_worker(self):
        """Twenty two-row training passes in a fresh process leave one reverse worker alive."""
        probe = (
            "import threading\n"
            "import numpy as np\n"
            "from reviewlab.nn import BiLstmClassifier, backward, batch_cross_entropy_grad, forward\n"
            "from reviewlab.rng import SeededRng\n"
            "model = BiLstmClassifier.build(4, 3, 2, SeededRng(1))\n"
            "x, lengths = np.ones((5, 2, 3)), np.array([5, 3])\n"
            "for _ in range(20):\n"
            "    probs, cache = forward(model, x, lengths, training=True)\n"
            "    backward(model, cache, batch_cross_entropy_grad(probs, [0, 1]))\n"
            "print(*(t.name for t in threading.enumerate()))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(nn.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        threads = out.split()
        assert "MainThread" in threads
        assert len([name for name in threads if name.startswith("reviewlab-reverse")]) == 1


class TestComputeDtype:
    """Every array a training step makes has the model's dtype; probabilities are float64.

    float32 is what train() runs; float64 is what the gradient checks run.
    A single silent upcast to float64 would cost the float32 speed-up.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_step_keeps_the_model_dtype(self, dtype):
        model = toy_classifier(seed=110, dtype=dtype)
        xs = random_xs(SeededRng(111), 3, 5, batch=3).astype(dtype)
        lengths = np.array([5, 2, 0])
        probs, cache = forward(model, xs, lengths, dropout_rate=0.5,
                               rng=SeededRng(112), training=True)
        assert probs.dtype == np.float64
        made = [*cache.fwd[:2], *cache.bwd[:2], cache.features, cache.mask]
        grads, dx = backward(model, cache, batch_cross_entropy_grad(probs, [0, 1, 2]))
        clipped, _ = clip_by_global_norm([*grads, padded(dx, lengths, len(xs))], 1e-3)
        params = [p for _, p in model.param_blocks()] + [xs]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        adam_step(params, clipped, moments, 1, lr=1e-3)
        made += [*grads, dx, *clipped, *(a for pair in moments for a in pair), *params]
        assert [a.dtype for a in made] == [np.dtype(dtype)] * len(made)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_is_float64(self, dtype):
        probs = softmax(np.array([[0.1, 30.0, -2.0], [0.0, 0.0, 0.0]], dtype=dtype))
        assert probs.dtype == np.float64
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-15

    def test_float32_matches_float64_copy(self):
        """Rounding the same model to float32 moves its probabilities by under 1e-5."""
        wide = toy_classifier(seed=113, cell=16, inp=8, n_classes=2)
        narrow = BiLstmClassifier(*(a.astype(np.float32) for a in wide))
        xs = random_xs(SeededRng(114), 8, 12, batch=6)
        lengths = np.array([12, 3, 7, 0, 1, 12])
        want, _ = forward(wide, xs, lengths)
        got, _ = forward(narrow, xs.astype(np.float32), lengths)
        assert np.abs(got - want).max() < 1e-5


class DenseSoftmaxModel:
    """Softmax regression on fixed feature rows.

    The smallest model grad_check accepts; its analytic gradient is exact,
    so it pins down the checker itself before the recurrent model is tried.
    """

    def __init__(self, W, b):
        self.W, self.b = W, b

    def param_blocks(self):
        return [("W", self.W), ("b", self.b)]

    def probs(self, h):
        return softmax(h @ self.W.T + self.b)

    def loss(self, instance):
        h, targets = instance
        return batch_cross_entropy(self.probs(h), targets)

    def loss_and_grads(self, instance):
        h, targets = instance
        probs = self.probs(h)
        dlogits = batch_cross_entropy_grad(probs, targets)
        return batch_cross_entropy(probs, targets), [dlogits.T @ h, dlogits.sum(axis=0)]


class TestGradCheck:
    def test_dense_only_model_near_exact(self):
        """Softmax regression gradient is analytic, so error is tiny."""
        rng = SeededRng(30)
        model = DenseSoftmaxModel(init_uniform(3, 4, rng, 0.5), init_uniform(3, 1, rng, 0.5)[:, 0])
        h = np.array([[0.5, -0.2, 1.1, 0.3]])
        report = grad_check(model, (h, 2), epsilon=1e-5, tolerance=1e-8,
                            loss=DenseSoftmaxModel.loss,
                            loss_and_grads=DenseSoftmaxModel.loss_and_grads)
        assert report.max_rel_err < 1e-8

    def test_full_bilstm_toy_within_tolerance(self):
        model = toy_classifier(seed=40)
        xs = random_xs(SeededRng(41), 3, 5)
        before = [p.copy() for _, p in model.param_blocks()]
        report = grad_check(model, (xs, 1), epsilon=1e-5, tolerance=1e-4)
        assert report.passed
        assert set(report.per_block) == {name for name, _ in model.param_blocks()}
        assert len(report.per_block) == 6
        for (_, p), q in zip(model.param_blocks(), before):
            assert np.array_equal(p, q)

    def test_zero_epsilon_rejected(self):
        model = toy_classifier()
        xs = random_xs(SeededRng(42), 3, 2)
        with pytest.raises(ValueError, match="epsilon"):
            grad_check(model, (xs, 0), epsilon=0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_random_instances_pass(self, seed):
        """Sampled seeds behave like the fixed ones."""
        model = toy_classifier(seed=seed)
        xs = random_xs(SeededRng(seed + 1), 3, 4)
        report = grad_check(model, (xs, seed % 3), epsilon=1e-5)
        assert report.passed, report.per_block


def zero_moments(params):
    return [(np.zeros_like(p), np.zeros_like(p)) for p in params]


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = [np.array([1.0, -2.0])]
        moments = zero_moments(params)
        adam_step(params, [np.zeros(2)], moments, 1, lr=1e-3)
        assert np.array_equal(params[0], [1.0, -2.0])
        assert np.allclose(moments[0][0], 0.0)

    def test_constant_gradient_descends(self):
        params = [np.array([0.0])]
        moments = zero_moments(params)
        for t in range(1, 51):
            adam_step(params, [np.array([2.5])], moments, t, lr=1e-2)
        assert params[0][0] < -0.1

    def test_first_step_magnitude(self):
        """Bias correction makes the first update almost exactly -lr."""
        params = [np.array([0.0])]
        adam_step(params, [np.array([1.0])], zero_moments(params), 1, lr=1e-3)
        assert abs(params[0][0] - (-9.999e-4)) < 1e-7

    def test_shape_mismatch_rejected(self):
        """A gradient larger than its parameter cannot be broadcast into the moments."""
        params = [np.array([0.0])]
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, [np.zeros(2)], zero_moments(params), 1, lr=1e-3)


class TestClipByGlobalNorm:
    def test_below_threshold_unchanged(self):
        grads = [np.array([3.0]), np.array([4.0])]
        clipped, norm = clip_by_global_norm(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert np.array_equal(clipped[0], grads[0])

    def test_above_threshold_scaled_to_max(self):
        grads = [np.array([30.0]), np.array([40.0])]
        clipped, norm = clip_by_global_norm(grads, 5.0)
        assert norm == pytest.approx(50.0)
        joint = math.sqrt(sum(float((g ** 2).sum()) for g in clipped))
        assert joint == pytest.approx(5.0)
        assert np.allclose(clipped[1] / clipped[0], 4 / 3)

    def test_zero_gradients_pass_through(self):
        clipped, norm = clip_by_global_norm([np.zeros((2, 2))], 1.0)
        assert norm == 0.0
        assert np.allclose(clipped[0], 0.0)


class TestClassifierForward:
    def test_probabilities_sum_to_one(self):
        model = toy_classifier(seed=50)
        xs = random_xs(SeededRng(51), 3, 6)
        probs, _ = forward(model, xs, row_lengths(xs))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        """Identical seed and inputs give bit-identical losses."""
        losses = []
        for _ in range(2):
            model = toy_classifier(seed=60)
            xs = random_xs(SeededRng(61), 3, 5)
            probs, _ = forward(model, xs, row_lengths(xs))
            losses.append(batch_cross_entropy(probs, [1]))
        assert losses[0] == losses[1]

    def test_batched_forward_matches_single(self):
        """Stacked examples give the same probabilities as separate runs."""
        model = toy_classifier(seed=70)
        xs_a = random_xs(SeededRng(71), 3, 4)
        xs_b = random_xs(SeededRng(72), 3, 4)
        xs_both = np.concatenate([xs_a, xs_b], axis=1)
        pa, _ = forward(model, xs_a, row_lengths(xs_a))
        pb, _ = forward(model, xs_b, row_lengths(xs_b))
        pboth, _ = forward(model, xs_both, row_lengths(xs_both))
        assert np.allclose(pboth[:1], pa, atol=1e-12)
        assert np.allclose(pboth[1:], pb, atol=1e-12)

    def test_first_half_of_features_is_forward_direction(self):
        model = toy_classifier(seed=80)
        xs = random_xs(SeededRng(81), 3, 5)
        _, cache = forward(model, xs, row_lengths(xs))
        fwd, _ = lstm_sequence_forward(model[0:2], xs, *packed(xs))
        assert np.array_equal(cache.features[:, :4], fwd)
