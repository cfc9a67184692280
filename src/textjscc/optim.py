"""Adam with global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .nn import Parameter

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def global_grad_norm(params: list[Parameter]) -> float:
    """The gradients' joint 2-norm.  When it is not finite in the gradients'
    dtype (an f32 square overflows from about 1.8e19), the squares are summed
    again in float64; a norm still not finite raises NumericalError naming
    the parameter with the largest sum, a NaN counting as the largest."""
    norm = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if np.isfinite(norm):
        return norm
    sums = [float(np.square(p.grad, dtype=np.float64).sum()) for p in params]
    norm = float(np.sqrt(sum(sums)))
    if not np.isfinite(norm):
        worst = max(zip(sums, params), key=lambda sp: np.inf if np.isnan(sp[0]) else sp[0])[1]
        raise NumericalError(f"gradient norm {norm} is not finite: {worst.name} holds "
                             f"a non-finite or overflowing gradient")
    return norm


def clip_global_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale all gradients so their joint norm is at most max_norm (none
    when max_norm is 0); returns the norm before scaling."""
    norm = global_grad_norm(params)
    if norm > max_norm > 0.0:
        scale = max_norm / norm
        for p in params:
            grad = p.grad
            grad *= scale
    return norm


class AdamState:
    """The parameters, their first/second moment accumulators, the step
    count, the learning rate and the gradient clip."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, clip: float = 5.0):
        self.params = list(params)
        self.lr, self.clip = lr, clip
        self.t = 0
        # np.zeros callocs: a large array's pages are zeroed at first write
        self.m = [np.zeros(p.shape, p.value.dtype) for p in self.params]
        self.v = [np.zeros(p.shape, p.value.dtype) for p in self.params]


def adam_step(state: AdamState) -> float:
    """Standard Adam update of state.params with bias correction; gradients
    are then zeroed.  Returns the gradients' global norm before clipping."""
    norm = clip_global_norm(state.params, state.clip)
    state.t += 1
    bias1 = 1.0 - BETA1 ** state.t
    bias2 = 1.0 - BETA2 ** state.t
    for p, m, v in zip(state.params, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * p.grad
        v *= BETA2
        v += (1.0 - BETA2) * p.grad ** 2
        p.value -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
        p.zero_grad()
    return norm

