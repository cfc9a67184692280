"""Reverse-mode numeric substrate: dense layers, peephole LSTM cells,
bidirectional stacks, and softmax cross-entropy.

Everything operates on 2-D numpy arrays laid out (features, batch); biases
and peephole weights are (features, 1) columns that broadcast over the batch.
Training runs in float32 by default, gradient checks require float64.

Peephole recurrence (with sigma the logistic function):
    i = sigma(W_ix x + W_ih h + p_i * c_prev + b_i)
    f = sigma(W_fx x + W_fh h + p_f * c_prev + b_f)
    g = tanh (W_gx x + W_gh h + b_g)
    c = f * c_prev + i * g
    o = sigma(W_ox x + W_oh h + p_o * c + b_o)
    h = o * tanh(c)

Each cell stores these in stacked-gate form (the cuDNN layout): Wx (4h, d)
stacks W_ix, W_fx, W_gx, W_ox; Wh (4h, h) stacks W_ih, W_fh, W_gh, W_oh;
b (4h, 1) stacks b_i, b_f, b_g, b_o; p (3h, 1) stacks p_i, p_f, p_o.  A step
takes one product with each of Wx and Wh and reads the gates as row slices.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySequence, ShapeError


class Parameter:
    """A trainable array paired with its gradient accumulator."""

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.ascontiguousarray(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot(shape: tuple[int, int], rng: np.random.Generator, dtype) -> np.ndarray:
    """Uniform(-r, r) with r = sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = shape
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape).astype(dtype)


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: no exp to overflow for large |x|
    out = np.tanh(0.5 * x)
    out += 1.0
    out *= 0.5
    return out


def dense_forward(W: Parameter, a: Parameter, x: np.ndarray, activation: str = "tanh"):
    """activation(W x + a) applied column-wise; returns (output, cache)."""
    if W.value.shape[1] != x.shape[0]:
        raise ShapeError(f"dense: W is {W.value.shape}, x is {x.shape}")
    if a.value.shape != (W.value.shape[0], 1):
        raise ShapeError(f"dense: bias is {a.value.shape}, want ({W.value.shape[0]}, 1)")
    if activation not in ("tanh", "identity"):
        raise ShapeError(f"unknown activation {activation!r}")
    z = W.value @ x + a.value
    y = np.tanh(z) if activation == "tanh" else z
    return y, (W, a, x, y, activation)


def dense_backward(cache, dy: np.ndarray) -> np.ndarray:
    """Accumulate W.grad and a.grad; return the gradient wrt the input."""
    W, a, x, y, activation = cache
    if dy.shape != y.shape:
        raise ShapeError(f"dense backward: upstream {dy.shape}, output {y.shape}")
    dz = dy * (1.0 - y * y) if activation == "tanh" else dy
    W.grad += dz @ x.T
    a.grad += dz.sum(axis=1, keepdims=True)
    return W.value.T @ dz


class LstmCellParams:
    """Weights for one peephole LSTM cell in stacked-gate form (see module
    docstring); the forget-gate bias starts at 1."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator,
                 dtype=np.float32, prefix: str = "lstm"):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h, d = hidden_dim, input_dim
        self.Wx = Parameter(np.empty((4 * h, d), dtype=dtype), f"{prefix}.Wx")
        self.Wh = Parameter(np.empty((4 * h, h), dtype=dtype), f"{prefix}.Wh")
        self.b = Parameter(np.zeros((4 * h, 1), dtype=dtype), f"{prefix}.b")
        self.p = Parameter(np.empty((3 * h, 1), dtype=dtype), f"{prefix}.p")
        self.b.value[h:2 * h] = 1.0  # open forget gate
        # Per-gate Glorot blocks drawn in the order i, f, g, o (x, h, peephole),
        # written into place: concatenating them would copy every weight again.
        for k, gate in enumerate("ifgo"):
            rows = slice(k * h, (k + 1) * h)
            self.Wx.value[rows] = glorot((h, d), rng, dtype)
            self.Wh.value[rows] = glorot((h, h), rng, dtype)
            if gate != "g":  # g has no peephole
                j = "ifo".index(gate)
                self.p.value[j * h:(j + 1) * h] = glorot((h, 1), rng, dtype)

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b, self.p]


def lstm_cell_forward(p: LstmCellParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One recurrence step; returns (h, c, cache)."""
    if x.shape[0] != p.input_dim:
        raise ShapeError(f"cell input has {x.shape[0]} rows, expected {p.input_dim}")
    if h_prev.shape[0] != p.hidden_dim or c_prev.shape[0] != p.hidden_dim:
        raise ShapeError("cell state dims do not match hidden_dim")
    n = p.hidden_dim
    peep = p.p.value
    z = p.Wx.value @ x
    z += p.Wh.value @ h_prev
    z += p.b.value
    z[:n] += peep[:n] * c_prev
    z[n:2 * n] += peep[n:2 * n] * c_prev
    i = sigmoid(z[:n])
    f = sigmoid(z[n:2 * n])
    g = np.tanh(z[2 * n:3 * n])
    c = f * c_prev + i * g
    z[3 * n:] += peep[2 * n:] * c
    o = sigmoid(z[3 * n:])
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, c, tc)


def lstm_cell_backward(p: LstmCellParams, cache, dh: np.ndarray, dc_in: np.ndarray):
    """Backward through one step.

    dh and dc_in are the total gradients flowing into h_t and c_t (recurrent
    plus external).  Accumulates parameter gradients and returns
    (dx, dh_prev, dc_prev).
    """
    x, h_prev, c_prev, i, f, g, o, c, tc = cache
    n = p.hidden_dim
    peep = p.p.value
    dzo = dh * tc * o * (1.0 - o)
    dc = dc_in + dh * o * (1.0 - tc * tc) + dzo * peep[2 * n:]
    dz = np.concatenate([dc * g * i * (1.0 - i),
                         dc * c_prev * f * (1.0 - f),
                         dc * i * (1.0 - g * g),
                         dzo])
    dzi, dzf = dz[:n], dz[n:2 * n]

    p.Wx.grad += dz @ x.T
    p.Wh.grad += dz @ h_prev.T
    p.b.grad += dz.sum(axis=1, keepdims=True)
    p.p.grad[:n] += (dzi * c_prev).sum(axis=1, keepdims=True)
    p.p.grad[n:2 * n] += (dzf * c_prev).sum(axis=1, keepdims=True)
    p.p.grad[2 * n:] += (dzo * c).sum(axis=1, keepdims=True)

    dx = p.Wx.value.T @ dz
    dh_prev = p.Wh.value.T @ dz
    dc_prev = dc * f + dzi * peep[:n] + dzf * peep[n:2 * n]
    return dx, dh_prev, dc_prev


def lstm_run(p: LstmCellParams, xs: list[np.ndarray], h0: np.ndarray | None = None,
             c0: np.ndarray | None = None):
    """Run the cell over a sequence; returns (hs, cs, caches)."""
    if not xs:
        raise EmptySequence("lstm_run needs a nonempty sequence")
    batch = xs[0].shape[1]
    dtype = p.Wx.value.dtype
    h = np.zeros((p.hidden_dim, batch), dtype=dtype) if h0 is None else h0
    c = np.zeros((p.hidden_dim, batch), dtype=dtype) if c0 is None else c0
    hs, cs, caches = [], [], []
    for x in xs:
        h, c, cache = lstm_cell_forward(p, x, h, c)
        hs.append(h)
        cs.append(c)
        caches.append(cache)
    return hs, cs, caches


def lstm_run_backward(p: LstmCellParams, caches, dhs, dcs):
    """BPTT over a cached run.

    dhs[t] / dcs[t] are the external gradients into h_t / c_t (zero arrays
    where nothing flows in).  Returns (dxs, dh0, dc0).
    """
    dh_next = np.zeros_like(dhs[-1])
    dc_next = np.zeros_like(dcs[-1])
    dxs = [None] * len(caches)
    for t in reversed(range(len(caches))):
        dx, dh_next, dc_next = lstm_cell_backward(
            p, caches[t], dhs[t] + dh_next, dcs[t] + dc_next)
        dxs[t] = dx
    return dxs, dh_next, dc_next


def blstm_layer_forward(fwd: LstmCellParams, bwd: LstmCellParams, xs: list[np.ndarray]):
    """Bidirectional layer: per-step output and cell state are concatenations
    of the two directions, so both have 2 * hidden_dim rows."""
    if not xs:
        raise EmptySequence("BLSTM input sequence is empty")
    hs_f, cs_f, caches_f = lstm_run(fwd, xs)
    hs_br, cs_br, caches_b = lstm_run(bwd, xs[::-1])
    hs_b, cs_b = hs_br[::-1], cs_br[::-1]
    hs = [np.concatenate([hf, hb], axis=0) for hf, hb in zip(hs_f, hs_b)]
    cs = [np.concatenate([cf, cb], axis=0) for cf, cb in zip(cs_f, cs_b)]
    return hs, cs, (caches_f, caches_b, fwd.hidden_dim)


def blstm_layer_backward(fwd: LstmCellParams, bwd: LstmCellParams, cache, dhs, dcs):
    """Backward through both directions; returns per-step input gradients."""
    caches_f, caches_b, h = cache
    dhs_f = [d[:h] for d in dhs]
    dcs_f = [d[:h] for d in dcs]
    dhs_b = [d[h:] for d in dhs][::-1]
    dcs_b = [d[h:] for d in dcs][::-1]
    dxs_f, _, _ = lstm_run_backward(fwd, caches_f, dhs_f, dcs_f)
    dxs_br, _, _ = lstm_run_backward(bwd, caches_b, dhs_b, dcs_b)
    dxs_b = dxs_br[::-1]
    return [df + db for df, db in zip(dxs_f, dxs_b)]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Column-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean over columns of -log softmax at the target row.

    Returns (loss, dlogits) with dlogits = (softmax - onehot) / columns.
    """
    targets = np.asarray(targets, dtype=np.int64)
    v, b = logits.shape
    if targets.shape != (b,):
        raise ShapeError(f"targets shape {targets.shape} does not match {b} columns")
    if np.any(targets < 0) or np.any(targets >= v):
        raise IndexError("target id outside logit rows")
    probs = softmax(logits)
    picked = probs[targets, np.arange(b)]
    loss = float(-np.log(np.maximum(picked, np.finfo(probs.dtype).tiny)).mean())
    dlogits = probs.copy()
    dlogits[targets, np.arange(b)] -= 1.0
    dlogits /= b
    return loss, dlogits
