"""Finite-difference verification of the analytic gradients.

A check gives its pass as two closures: forward() returns (loss, cache) and
backward(cache) adds the analytic gradients.  backward runs once; every
finite-difference probe runs forward alone, so probes make no gradient sums.

All checks run in float64: central differences at h=1e-5 cannot resolve
float32 round-off.  Central differences of an O(10) loss carry ~1e-10 of
rounding noise, so entries below DENOM_FLOOR compare on an absolute scale:
|analytic - numeric| < DENOM_FLOOR * TOLERANCE instead of a raw ratio.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

import numpy as np

from .errors import NumericalError
from .nn import (LstmCellParams, Parameter, blstm_layer_backward, blstm_layer_forward,
                 dense_backward, dense_forward, glorot, lstm_cell_backward, lstm_cell_forward,
                 softmax_cross_entropy, zero_grads)

DENOM_FLOOR = 1e-5
TOLERANCE = 1e-4  # a check passes when its max relative error is below this


def numeric_gradient(loss_fn: Callable[[], float], param: Parameter,
                     eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn wrt every entry of param.  The
    probed entry is restored even when loss_fn raises."""
    grad = np.zeros_like(param.value)
    flat = param.value.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        try:
            flat[idx] = orig + eps
            up = loss_fn()
            flat[idx] = orig - eps
            down = loss_fn()
        finally:
            flat[idx] = orig
        grad.flat[idx] = (up - down) / (2.0 * eps)
    return grad


def gradient_check(forward: Callable[[], tuple[float, Any]], backward: Callable[[Any], None],
                   params: list[Parameter], eps: float = 1e-5) -> float:
    """Max relative error between analytic and numeric gradients.

    forward() returns (loss, cache) and backward(cache) adds the analytic
    gradients into params.  Both must be deterministic (any stochastic pieces
    replaced by their expectation).  backward runs once and forward 1 + 2 *
    (entries of params) times.  The gradients are zero on return.
    """
    if any(p.value.dtype != np.float64 for p in params):
        raise NumericalError("gradient_check requires float64 parameters")

    def finite_forward():
        loss, cache = forward()
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss {loss} in gradient check")
        return loss, cache

    zero_grads(params)
    backward(finite_forward()[1])
    analytic = [p.grad.copy() for p in params]
    zero_grads(params)
    worst = 0.0
    for p, a in zip(params, analytic):
        numeric = numeric_gradient(lambda: finite_forward()[0], p, eps)
        denom = np.maximum(np.abs(a) + np.abs(numeric), DENOM_FLOOR)
        worst = max(worst, float((np.abs(a - numeric) / denom).max()))
    return worst


# ---------------- verification suite ----------------

def check_dense(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for activation in ("tanh", "identity"):
        W = Parameter(glorot((4, 3), rng, np.float64), "W")
        a = Parameter(rng.normal(0, 0.3, (4, 1)), "a")
        x = Parameter(rng.normal(0, 1.0, (3, 2)), "x")

        def forward():
            y, cache = dense_forward(W, a, x.value, activation)
            return 0.5 * float((y ** 2).sum()), (cache, y)

        def backward(state):
            x.accumulate(operator.iadd, dense_backward(*state))

        worst = max(worst, gradient_check(forward, backward, [W, a, x]))
    return worst


def check_lstm_cell(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    cell = LstmCellParams(3, 2, rng, np.float64, "cell")
    x = Parameter(rng.normal(0, 1.0, (3, 2)), "x")
    h0 = Parameter(rng.normal(0, 0.5, (2, 2)), "h0")
    c0 = Parameter(rng.normal(0, 0.5, (2, 2)), "c0")

    def forward():
        h, c, cache = lstm_cell_forward(cell, x.value, h0.value, c0.value)
        return 0.5 * float((h ** 2).sum() + (c ** 2).sum()), (cache, h, c)

    def backward(state):
        for p, grad in zip((x, h0, c0), lstm_cell_backward(cell, *state)):
            p.accumulate(operator.iadd, grad)

    return gradient_check(forward, backward, cell.parameters() + [x, h0, c0])


def check_blstm(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    fwd = LstmCellParams(3, 2, rng, np.float64, "fwd")
    bwd = LstmCellParams(3, 2, rng, np.float64, "bwd")
    xs = [Parameter(rng.normal(0, 1.0, (3, 2)), f"x{t}") for t in range(3)]

    def forward():
        hs, cs, cache = blstm_layer_forward(fwd, bwd, [x.value for x in xs])
        loss = 0.5 * sum(float((h ** 2).sum() + (c ** 2).sum()) for h, c in zip(hs, cs))
        return loss, (cache, hs, cs)

    def backward(state):
        for x, dx in zip(xs, blstm_layer_backward(fwd, bwd, *state)):
            x.accumulate(operator.iadd, dx)

    return gradient_check(forward, backward, fwd.parameters() + bwd.parameters() + xs)


def check_softmax(seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    logits = Parameter(rng.normal(0, 1.0, (3, 2)), "logits")
    targets = np.array([2, 0])

    def backward(dlogits):
        logits.accumulate(operator.iadd, dlogits)

    return gradient_check(lambda: softmax_cross_entropy(logits.value, targets), backward,
                          [logits])


def check_full_graph(seed: int = 0) -> float:
    """Encoder through decoder at tiny dims, the binarizer replaced by its expectation."""
    from .model import JsccConfig, JsccModel

    config = JsccConfig(vocab_size=10, embed_dim=8, encoder_stacks=2, encoder_hidden=8,
                        decoder_stacks=2, decoder_hidden=8, bits=8, beam_width=1,
                        max_decode_len=8, precision="f64")
    model = JsccModel(config, seed=seed)
    ids = np.array([[4, 5, 6]], dtype=np.int64)
    targets = np.array([[4, 5, 6, 3]], dtype=np.int64)  # ends with EOS (id 3)
    half = config.bits // 2

    def forward():
        xs, ids_full = model._embed_steps(ids)
        h_star, c_star, enc_cache = model._encoder_forward(xs)
        obs = np.concatenate([h_star, c_star], axis=0)
        loss, dec_cache = model.decode_teacher_forced(obs, targets, tf_prob=1.0)
        return loss, (enc_cache, dec_cache, ids_full)

    def backward(state):
        enc_cache, dec_cache, ids_full = state
        d_obs = model.decode_backward(dec_cache)
        model._encoder_backward(enc_cache, d_obs[:half], d_obs[half:], ids_full)

    return gradient_check(forward, backward, model.parameters())


def run_verification_suite(seed: int = 0) -> dict[str, float]:
    """Max relative finite-difference error for every differentiable op."""
    return {
        "dense": check_dense(seed),
        "lstm_cell": check_lstm_cell(seed),
        "blstm_layer": check_blstm(seed),
        "softmax_cross_entropy": check_softmax(seed),
        "full_graph": check_full_graph(seed),
    }
