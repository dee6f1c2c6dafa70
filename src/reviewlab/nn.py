"""Bidirectional LSTM sequence classifier on plain numpy arrays.

Arrays are batch-major: a batch of inputs x is (T, B, D), T steps of B
examples with D features each, and hidden and cell states are (B, H).

A model is a BiLstmClassifier: its six arrays in checkpoint order,
fwd_W, fwd_b, bwd_W, bwd_b, head_W, head_b, whose shapes block_shapes()
gives.  Each direction is a (W, b) pair, model[0:2] forward and
model[2:4] backward: one fused weight matrix W (4H, H + D) and one bias
b (4H,).  Their rows are the four gates in the order f, i, C, o, H rows
each, and the columns of W act on the stacked [h_{t-1}; x_t]:

    a_t  = W . [h_{t-1}; x_t] + b
    f_t  = sigmoid(a_f)    i_t = sigmoid(a_i)    C~_t = tanh(a_C)
    o_t  = sigmoid(a_o)
    C_t  = f_t * C_{t-1} + i_t * C~_t
    h_t  = o_t * tanh(C_t)

The recurrence reads only real tokens.  Row r of a batch has a length
L_r; the padding after its first L_r inputs is never read.  forward()
stable-sorts the rows by descending length, so the rows still running at
step t are a prefix [:n_t] (the batch_sizes layout of a packed sequence).
A finished row keeps its final state, and an empty row the zero state.
The reverse direction starts at each row's last real token (its step s
reads x[L_r - 1 - s, r]) and is the same prefix recurrence.  forward()
builds this packed layout once per batch and keeps it for backward().
Each direction gathers its real inputs straight from the caller's x
through it, so no sorted or reversed copy of x is built.

The N = sum L_r real inputs are projected with one GEMM, then each step
adds one h[:n_t] . W_h^T GEMM (Appleyard, Kocisky & Blunsom,
arXiv:1604.01946).  In training each direction keeps a packed
SequenceCache for BPTT, 5H + D floats per real token: z (N, H + D)
holding [C_t, x_t], the gate activations (N, 4H), and the offsets that
give step t the rows offsets[t]:offsets[t + 1].  Inference keeps no
cache and projects 16 steps at a time into one buffer.  The backward sweep
injects each row's gradient at its own last step, updates only [:n_t] at
step t, and writes the pre-activation gradients over the gate
activations.  Once step t has read C_t, it writes over the spent C_{t+1}
the h_t = o_t * tanh(C_t) that step t + 1 read (recomputation for
memory, Chen et al., arXiv:1604.06174), so z ends as [h_{t-1}, x_t] and
backward() consumes its cache.  One GEMM over the N rows then gives dW
and one the packed input gradients, which backward() returns as one
row per real token, step-major with rows in caller order.

The two directions share no state until their final hidden states are
joined, so forward() and backward() run a batch of two or more rows on
two threads: the reverse direction on the process's one worker, started
on first use and run under the caller's np.errstate, and the forward
direction on the calling thread.  numpy releases the GIL in its GEMMs
and ufuncs, so the two overlap on two cores with BLAS on one thread.  A
one-row batch runs both on the calling thread, forward first: its numpy
calls are too short to overlap.  Each direction does exactly the
arithmetic it would do alone, so results are bit-identical either way.

The two final hidden states are joined into (B, 2H) features, passed
through dropout (training only), and fed to the softmax head
softmax(features . head_W^T + head_b), head_W (C, 2H) and head_b (C,).

Each step takes one tanh over its whole (n_t, 4H) gate block, with the
f, i and o columns halved before it and halved and shifted by 0.5 after
it: exactly sigmoid(x) = 0.5 * (1 + tanh(x / 2)), since halving is exact,
which saturates to 0 and 1 without overflow.

The compute dtype follows the arrays: every buffer, cache, gradient,
dropout mask and Adam moment takes the dtype of the model's weights.
training.train runs float32, whose GEMMs are about twice as fast; the
gradient checks run float64 models through the same functions.
softmax() returns float64 whatever its input, so probabilities sum to 1
to float64 precision and the losses are float64.
"""

from __future__ import annotations

import functools
import math
import os
from typing import NamedTuple

import numpy as np

from .rng import SeededRng, init_uniform

PROB_FLOOR = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def softmax(logits: np.ndarray) -> np.ndarray:
    """Per-row float64 softmax in max-subtracted form; each row sums to 1."""
    logits = np.asarray(logits, dtype=np.float64)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class SequenceCache(NamedTuple):
    """One direction's BPTT record (module doc); z is [C_t, x_t] until backward runs."""

    z: np.ndarray
    acts: np.ndarray
    offsets: list


def lstm_sequence_forward(params, x: np.ndarray, offsets, index, keep=True):
    """Run one direction, params = (W, b), from a zero state on inputs from x (T, B, D).

    Step t runs rows [:offsets[t + 1] - offsets[t]], a count non-increasing
    in t.  index = (steps, cols), two arrays, lists the N = offsets[T] real
    inputs in that packed order: the k-th of them is x[steps[k], cols[k]].
    Returns each row's final h (B, H) and its SequenceCache, None unless keep.
    """
    W, b = params
    (T, B, D), H = x.shape, len(W) // 4
    W_h, W_x = W[:, :H], W[:, H:]
    span, z = 16, None  # steps projected per GEMM, into one reused acts buffer
    if keep:  # z holds [C_t, x_t] for backward, and all steps are projected at once
        span, z = T, np.empty((offsets[-1], H + D), dtype=W.dtype)
        z[:, H:] = x[index]
    xs = z[:, H:] if keep else x[index]
    acts = np.empty((offsets[min(span, T)], 4 * H), dtype=W.dtype)
    h = np.zeros((B, H), dtype=W.dtype)
    c = np.zeros((B, H), dtype=W.dtype)
    cell = np.empty((B, H), dtype=W.dtype)
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=W.dtype), H)  # f, i, C, o
    shift = 1.0 - scale
    for t in range(T):
        lo, hi = offsets[t], offsets[t + 1]
        k = hi - lo
        if t % span == 0:
            base, end = lo, offsets[min(t + span, T)]  # acts[0] is packed row base
            if end - base == 1 and base:  # numpy's one-row product rounds unlike a GEMM row
                base -= 1
            np.matmul(xs[base:end], W_x.T, out=acts[:end - base])
            acts[:end - base] += b
        a = acts[lo - base:hi - base]
        a += h[:k] @ W_h.T
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        f, i, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        c[:k] *= f
        c[:k] += np.multiply(i, g, out=cell[:k])
        if keep:
            z[lo:hi, :H] = c[:k]
        np.multiply(o, np.tanh(c[:k], out=cell[:k]), out=h[:k])
    return h, SequenceCache(z, acts, offsets) if keep else None


def lstm_sequence_backward(params, cache: SequenceCache, dh_last: np.ndarray):
    """Backpropagation through time for one direction, params = (W, b).

    Given d(loss)/d(h) (B, H) of each row's final h, walks the steps in
    reverse, overwriting cache.acts with the gate pre-activation gradients
    and the C_t in cache.z with h_{t-1}, the [h_{t-1}, x_t] that dW needs.
    Returns (dW (4H, H + D), db (4H,), dx (N, D)), dx packed like the cache.
    """
    z, acts, offsets = cache
    W = params[0]
    T, H = len(offsets) - 1, len(W) // 4
    W_h, c = W[:, :H], z[:, :H]
    dh = np.array(dh_last, dtype=W.dtype)
    dC = np.zeros_like(dh)
    for t in reversed(range(T)):
        lo, hi = offsets[t], offsets[t + 1]
        k = hi - lo
        a = acts[lo:hi]
        f, i, g, o = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
        dh_t, dC_t = dh[:k], dC[:k]
        tC = np.tanh(c[lo:hi])
        n = offsets[min(t + 2, T)] - hi  # step t + 1 is done with C_{t+1}: put h_t there
        np.multiply(o[:n], tC[:n], out=c[hi:hi + n])
        dC_t += dh_t * o * (1.0 - tC * tC)
        da_o = dh_t * tC * o * (1.0 - o)
        c_prev = c[offsets[t - 1]:offsets[t - 1] + k] if t else 0.0
        da_f = dC_t * c_prev * f * (1.0 - f)
        da_i = dC_t * g * i * (1.0 - i)
        da_g = dC_t * i * (1.0 - g * g)
        dC_t *= f
        f[...], i[...], g[...], o[...] = da_f, da_i, da_g, da_o
        dh[:k] = a @ W_h
    c[:offsets[min(1, T)]] = 0.0  # h_{-1}
    # (z^T dA)^T rather than dA^T z: the same product, about 25% faster in OpenBLAS.
    dW = (z.T @ acts).T
    return dW, acts.sum(axis=0), acts @ W[:, H:]


def batch_cross_entropy(probs: np.ndarray, targets) -> float:
    """Mean negative log probability of each row's target, floored at 1e-12."""
    picked = probs[np.arange(len(probs)), targets]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def batch_cross_entropy_grad(probs: np.ndarray, targets) -> np.ndarray:
    """Gradient of the mean loss w.r.t. logits: (probs - onehot) / batch."""
    d = probs.copy()
    d[np.arange(len(d)), targets] -= 1.0
    return d / len(d)


def dropout_mask(rows: int, cols: int, rate: float, rng: SeededRng,
                 dtype) -> np.ndarray:
    """Inverted-dropout mask: entries 0 with probability rate, else 1/(1-rate)."""
    u = rng.fill(rows * cols).reshape(rows, cols)
    return (u >= rate).astype(dtype) / (1.0 - rate)


def block_shapes(cell_size: int, input_size: int, n_classes: int) -> list[tuple[int, ...]]:
    """The shapes of a model's six param_blocks() arrays, in that order."""
    lstm = [(4 * cell_size, cell_size + input_size), (4 * cell_size,)]
    return [*lstm, *lstm, (n_classes, 2 * cell_size), (n_classes,)]


class BiLstmClassifier(NamedTuple):
    """The model's six arrays, in param_blocks() (checkpoint) order."""

    fwd_W: np.ndarray
    fwd_b: np.ndarray
    bwd_W: np.ndarray
    bwd_b: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray

    @property
    def cell_size(self) -> int:
        return len(self.fwd_W) // 4

    @property
    def n_classes(self) -> int:
        return len(self.head_b)

    def param_blocks(self) -> list[tuple[str, np.ndarray]]:
        """The six parameter arrays (not copies), named as in checkpoints."""
        return [(name.replace("_", "."), a) for name, a in zip(self._fields, self)]

    @staticmethod
    def build(cell_size: int, input_size: int, n_classes: int, rng: SeededRng) -> "BiLstmClassifier":
        """Draw each block_shapes() block in turn, row-major from the stream.

        Entries are uniform on [-1/sqrt(fan_in), +1/sqrt(fan_in)], with fan_in
        H + D for the LSTM blocks and 2H for the head.
        """
        fan_ins = [cell_size + input_size] * 4 + [2 * cell_size] * 2
        return BiLstmClassifier(*(
            init_uniform(math.prod(shape), 1, rng, 1.0 / math.sqrt(fan_in)).reshape(shape)
            for shape, fan_in in zip(block_shapes(cell_size, input_size, n_classes), fan_ins)
        ))


@functools.cache
def _reverse_worker(pid: int):
    """Process pid's worker (a forked child gets its own); racing first calls may build one each."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="reviewlab-reverse")


def _both_directions(fn, fwd_args, bwd_args, rows):
    """fn(*fwd_args) on this thread while fn(*bwd_args) runs on the reverse worker.

    Returns both results.  The worker's call runs under this thread's
    np.geterr(), which a thread does not inherit.  If this thread's call
    raises, the worker's call is waited for before the exception
    propagates.  Under two rows, both run here, forward first, without the worker.
    """
    if rows < 2:
        return fn(*fwd_args), fn(*bwd_args)
    reverse = _reverse_worker(os.getpid()).submit(np.errstate(**np.geterr())(fn), *bwd_args)
    try:
        result = fn(*fwd_args)
    except BaseException:
        reverse.exception()
        raise
    return result, reverse.result()


class ClassifierCache(NamedTuple):
    """Forward-pass record for backward(); sorted row j is caller row order[j].

    The batch's packed layout is fwd.offsets and index = (t, L_j - 1 - t,
    order[j]): for packed row k, step t of sorted row j, the step of x each
    direction read and the caller row.
    """

    fwd: SequenceCache | None  # None unless training
    bwd: SequenceCache | None
    features: np.ndarray
    mask: np.ndarray | None
    order: np.ndarray
    index: tuple


def forward(model: BiLstmClassifier, x: np.ndarray, lengths: np.ndarray, *,
            dropout_rate: float = 0.0, rng: SeededRng | None = None,
            training: bool = False):
    """Full forward pass over x (T, B, D); returns (probs (B, C), cache).

    Row r reads its first lengths[r] inputs.  Dropout is applied to the
    concatenated direction features only when training is set, using an
    explicit mask drawn from rng and kept in the cache so the backward
    pass sees the identical pattern.
    """
    T = len(x)
    order = np.argsort(-lengths, kind="stable")
    L = lengths[order]
    t, j = np.nonzero(np.arange(T)[:, None] < L)
    offsets = np.searchsorted(t, np.arange(T + 1)).tolist()
    t_rev, rows = L[j] - 1 - t, order[j]
    (h_fwd, fwd), (h_bwd, bwd) = _both_directions(
        lstm_sequence_forward, (model[0:2], x, offsets, (t, rows), training),
        (model[2:4], x, offsets, (t_rev, rows), training), len(L)
    )
    features = np.hstack([h_fwd, h_bwd])[np.argsort(order)]  # caller row order
    mask = None
    dropped = features
    if training and dropout_rate > 0.0:
        # Drawn (2H, B) row-major and transposed: the order in which the
        # mask consumes the stream is fixed, so seeded runs stay reproducible.
        mask = dropout_mask(features.shape[1], features.shape[0], dropout_rate, rng,
                            features.dtype).T
        dropped = features * mask
    probs = softmax(dropped @ model.head_W.T + model.head_b)
    return probs, ClassifierCache(fwd, bwd, features, mask, order, (t, t_rev, rows))


def backward(model: BiLstmClassifier, cache: ClassifierCache, dlogits: np.ndarray):
    """Analytic gradients given d(loss)/d(logits) (B, C); consumes the cache.

    Returns (gradients in param_blocks() order, dx (N, D): one row per real token, step-major).
    """
    dropped = cache.features if cache.mask is None else cache.features * cache.mask
    dlogits = dlogits.astype(model.head_W.dtype, copy=False)  # softmax's float64 gradient
    dfeat = dlogits @ model.head_W
    if cache.mask is not None:
        dfeat *= cache.mask
    dfeat = dfeat[cache.order]
    H = model.cell_size
    (dW_fwd, db_fwd, dx_fwd), (dW_bwd, db_bwd, dx_bwd) = _both_directions(
        lstm_sequence_backward,
        (model[0:2], cache.fwd, dfeat[:, :H]), (model[2:4], cache.bwd, dfeat[:, H:]), len(dfeat)
    )
    t, t_rev, rows = cache.index
    B = len(cache.order)  # step * B + row differs from token to token: one sorted order
    dx = dx_fwd[np.argsort(t * B + rows)]
    dx += dx_bwd[np.argsort(t_rev * B + rows)]
    grads = [dW_fwd, db_fwd, dW_bwd, db_bwd, dlogits.T @ dropped, dlogits.sum(axis=0)]
    return grads, dx


def adam_step(params, grads, moments, t: int, lr: float) -> None:
    """Update number t (counted from 1), applied to the param arrays in place.

    moments holds each param's (m, v) moment estimates, zero before the
    first update; both are updated in place and bias-corrected for t.
    """
    mc = 1.0 / (1.0 - ADAM_BETA1 ** t)
    vc = 1.0 / (1.0 - ADAM_BETA2 ** t)
    for p, g, (m, v) in zip(params, grads, moments):
        m *= ADAM_BETA1
        m += g * (1.0 - ADAM_BETA1)
        v *= ADAM_BETA2
        v += (g * g) * (1.0 - ADAM_BETA2)
        p -= (m * mc / (np.sqrt(v * vc) + ADAM_EPS)) * lr


def clip_by_global_norm(grads, max_norm: float):
    """Scale all gradients down together if their joint norm exceeds max_norm."""
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if norm <= max_norm:
        return list(grads), norm
    scale = max_norm / norm
    return [g * scale for g in grads], norm
