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

Caches.  A step's cache holds only what its backward pass reads: x, h_prev,
c_prev, i, f, g, o and c.  Backward recomputes tanh(c), which gives the same
bits as the forward pass's.  A BLSTM layer's two directions write h and c
into their rows of the layer's outputs, so its cached states share memory
with the returned hs and cs.

Narrow products.  Beam search multiplies every decoder weight by a handful of
columns, one step at a time.  OpenBLAS multiplies without packing W into its
blocked layout only when M*N*K <= 10**6 (its small-matrix path); above that
cutoff each call repacks the whole of W, which at 4 columns costs several
times the arithmetic.  `matmul` therefore runs such a product as one batched
product over a (m // r, r, k) view of W whose row panels each fall under the
cutoff; when no divisor of m fits, the rows left over after the last full
panel form one more product.  The panels sum in another order than the
packed kernel, so the result agrees with `W @ x` only within round-off.
Products with one column (BLAS runs them as matrix-vector products, which do
not pack) or with more than NARROW_COLUMNS columns (which amortize the
packing) stay plain `W @ x`, so training batches never take the panel path.

Second core.  One worker thread, started by the first job handed to it,
reads a `queue.SimpleQueue` and runs two kinds of job in submission order:
weight-gradient sums and the input products of large cell steps.  A `Job`
runs its call in the submitter's context (so under its `np.errstate`) and
offers `result`, `exception` and `cancel`; `cancel` withdraws a job the
worker has not started, which then never runs.  So every product handed off
runs exactly once: on the worker, or by its caller after a `cancel`.  On a
2-vCPU Xeon an empty handoff and wait took a median 59 us between cell
steps and 32 us back to back.  Each of the two threads runs single-threaded
BLAS under the package's pin, and BLAS releases the GIL, so their products
overlap.  A job never runs a forward step: the step would wait for a product
queued behind itself.

Gradient accumulation.  A backward pass adds every parameter gradient
through `Parameter.accumulate(fn, *arrays)`.  A parameter with at least
INLINE_GRAD_ELEMENTS entries queues `fn(buffer, *arrays)` for the worker; a
smaller one runs it at once on the caller's thread.  Routing depends only on
a parameter's size, so each buffer's sums happen in program order and equal
the inline sums bit for bit.  Meanwhile the caller goes on down the
input-gradient chain.  Reads wait: the `grad` property and `zero_grad` first
wait for the queue to empty, and raise the first exception a job raised.
`accumulate` waits while GRAD_QUEUE_DEPTH jobs are pending.  A job touches
only its buffer and its arrays, which nothing may write after the call:
never a parameter's value or a Parameter method.  The queue belongs to the
process, so one thread at a time may run backward passes and read gradients.
Gradient jobs are never withdrawn.

Concurrent cell products.  `lstm_cell_forward` hands `Wx @ x` to the worker
and computes `Wh @ h_prev` meanwhile.  Then, if the worker has not started
the input product, the caller withdraws it and computes it itself; else it
waits for it.  Either way it adds the two as a serial step does, so every
bit is the same, and a busy or descheduled worker holds a step up no longer
than a serial step would take.  When the caller's own product raises, it
withdraws or waits for the input product but never computes it.  A step
hands off (`_hands_off`) only when its smaller product repays the handoff:
when 4h * min(d, h) * max(B, NARROW_COLUMNS) >= CONCURRENT_MNK, for input
size d, hidden size h and B columns.  A product with at most NARROW_COLUMNS
columns reads all of W and costs about as much as one with NARROW_COLUMNS.
On a 2-vCPU Xeon the break-even lay between 4e6 and 6e6, at steps of
150-300 us.  At the paper config every decoder and training step hands off
and runs 1.2-1.8x faster; one-column encoder steps do not, and inference on
toy models starts no thread.  A product queued behind pending gradient jobs
waits its turn; no forward step runs while jobs are pending, because
`adam_step` and gradient reads wait first.

Narrow runs.  A run of one column whose steps do not hand off, such as
every encoder layer of a one-sentence encode at the paper config, takes
the input products of all its steps as one product, Wx @ [x_1 ... x_T],
and passes each step its column: Wx is read once per run, not once per
step.  That product is a matrix product where each step's was a
matrix-vector one, so its columns differ from the per-step products within
round-off (at most 2.4e-6 in f32 at the paper's encoder sizes on inputs in
[-1, 1]), and a sentence's codeword differs from the one per-step products
give only where a bottleneck input lies that close to 0.  Runs of more columns
keep one product per step: a column block of a wider product differs from
the per-step product for many shapes on the same BLAS (in f32 from about
48 inputs, in f64 from 16), so training batches and grouped encodes keep
every bit.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import queue
import threading

import numpy as np

from .errors import EmptySequence, ShapeError


INLINE_GRAD_ELEMENTS = 2**16  # smaller parameters accumulate on the caller's thread
GRAD_QUEUE_DEPTH = 8

_claims = threading.Lock()  # makes taking a job's call atomic


class Job:
    """A call handed to the worker thread, run in the submitter's context.
    It runs at most once: on the worker, unless `cancel` withdraws it first."""

    def __init__(self, fn, args):
        self._call = functools.partial(contextvars.copy_context().run, fn, *args)
        self._value = self._error = None
        self._done = threading.Lock()
        self._done.acquire()  # released once the job has run or been withdrawn

    def _take(self):
        """The call, to its first taker only: the worker or `cancel`."""
        with _claims:
            call, self._call = self._call, None
        return call

    def _run(self) -> None:
        call = self._take()
        if call is None:
            return  # withdrawn
        try:
            self._value = call()
        except BaseException as exc:  # raised again by result()
            self._error = exc
        finally:
            self._done.release()

    def cancel(self) -> bool:
        """Withdraw the job if the worker has not started it; it then never
        runs, and the caller owns the call.  False once the worker has it."""
        if self._take() is None:
            return False
        self._error = RuntimeError("the job was withdrawn")
        self._done.release()
        return True

    def exception(self) -> BaseException | None:
        """Wait for the job; the exception it raised, or None."""
        with self._done:
            return self._error

    def result(self):
        """Wait for the job; its value, or raise its exception."""
        error = self.exception()
        if error is not None:
            raise error
        return self._value


class Worker:
    """One daemon thread that runs jobs in submission order."""

    def __init__(self):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="textjscc-worker", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._jobs.get()._run()

    def submit(self, fn, *args) -> Job:
        job = Job(fn, args)
        self._jobs.put(job)
        return job


_worker: Worker | None = None
_worker_lock = threading.Lock()
_pending: collections.deque = collections.deque()


def _executor() -> Worker:
    """The worker, started on first use (see the module docstring)."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = Worker()
        return _worker


def wait_for_gradients(keep: int = 0) -> None:
    """Wait until at most `keep` gradient jobs are pending.  If a job raised,
    wait for all of them and raise the first exception."""
    error = None
    while len(_pending) > keep:
        failed = _pending.popleft().exception()
        if failed is not None:
            error = error or failed
            keep = 0
    if error is not None:
        raise error


class Parameter:
    """A trainable array paired with its gradient accumulator.

    The accumulator is allocated on first access, so a model that only
    encodes and decodes holds no gradient memory.
    """

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = np.ascontiguousarray(value)
        self._grad: np.ndarray | None = None
        self.name = name

    def _buffer(self) -> np.ndarray:
        if self._grad is None:
            # np.zeros callocs: a large array's pages are zeroed at first write
            self._grad = np.zeros(self.value.shape, self.value.dtype)
        return self._grad

    @property
    def grad(self) -> np.ndarray:
        wait_for_gradients()
        return self._buffer()

    def accumulate(self, fn, *arrays: np.ndarray) -> None:
        """Run fn(gradient buffer, *arrays): now for a small parameter, else
        on the gradient worker (see the module docstring)."""
        if self.value.size < INLINE_GRAD_ELEMENTS:
            fn(self._buffer(), *arrays)
            return
        wait_for_gradients(GRAD_QUEUE_DEPTH - 1)
        _pending.append(_executor().submit(fn, self._buffer(), *arrays))

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        wait_for_gradients()
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def add_product(grad: np.ndarray, dz: np.ndarray, x: np.ndarray) -> None:
    """grad += dz x^T, the weight gradient of z = W x."""
    grad += dz @ x.T


def add_row_sums(grad: np.ndarray, dz: np.ndarray) -> None:
    """grad += the sum of dz over its columns, the gradient of a bias column."""
    grad += dz.sum(axis=1, keepdims=True)


GLOROT_CHUNK = 2**14  # float64 draws per pass of glorot_into


def glorot(shape: tuple[int, int], rng: np.random.Generator, dtype) -> np.ndarray:
    """Uniform(-r, r) with r = sqrt(6 / (fan_in + fan_out))."""
    return glorot_into(np.empty(shape, dtype), rng)


def glorot_into(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill the contiguous (fan_out, fan_in) array `out` with Glorot draws
    and return it.  It equals `rng.uniform(-r, r, out.shape).astype(out.dtype)`
    bit for bit and leaves rng in the same state, but it draws GLOROT_CHUNK
    float64 values at a time instead of a float64 copy of the whole array."""
    fan_out, fan_in = out.shape
    r = np.sqrt(6.0 / (fan_in + fan_out))
    flat = out.reshape(-1)
    draws = np.empty(min(GLOROT_CHUNK, flat.size))
    for start in range(0, flat.size, GLOROT_CHUNK):
        u = draws[:flat.size - start]
        rng.random(out=u)
        u *= r - (-r)  # uniform computes low + (high - low) * u
        np.add(u, -r, out=flat[start:start + len(u)], casting="same_kind")
    return out


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


SMALL_GEMM_MNK = 10**6  # OpenBLAS multiplies without packing W up to this M*N*K
MIN_PANEL_ROWS = 128
NARROW_COLUMNS = 16
CONCURRENT_MNK = 5 * 10**6  # a cell step's products run on two threads from this size


@functools.lru_cache(maxsize=256)
def _panel_rows(m: int, n: int, k: int) -> int:
    """Rows per panel for an (m, k) @ (k, n) product: the largest divisor r
    of m, at least MIN_PANEL_ROWS, with r*n*k <= SMALL_GEMM_MNK, else the
    largest such r, which leaves a ragged last panel; m when the product
    should stay whole."""
    if n == 1 or n > NARROW_COLUMNS or m * n * k <= SMALL_GEMM_MNK:
        return m
    widest = min(SMALL_GEMM_MNK // (n * k), m)
    for r in range(widest, MIN_PANEL_ROWS - 1, -1):
        if m % r == 0:
            return r
    # no divisor fits: full panels of `widest` rows plus one ragged product
    return widest if widest >= MIN_PANEL_ROWS else m


def matmul(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W @ x for a 2-D x, split into row panels of W when x is narrow (see
    the module docstring)."""
    m, k = W.shape
    n = x.shape[1]
    r = _panel_rows(m, n, k)
    if r == m:
        return W @ x
    full = m - m % r
    out = np.empty((m, n), np.result_type(W, x))
    np.matmul(W[:full].reshape(-1, r, k), x, out=out[:full].reshape(-1, r, n))
    if full < m:
        np.matmul(W[full:], x, out=out[full:])
    return out


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
    """Accumulate the gradients of W and a; return the gradient wrt the input."""
    W, a, x, y, activation = cache
    if dy.shape != y.shape:
        raise ShapeError(f"dense backward: upstream {dy.shape}, output {y.shape}")
    dz = dy * (1.0 - y * y) if activation == "tanh" else dy
    W.accumulate(add_product, dz, x)
    a.accumulate(add_row_sums, dz)
    return W.value.T @ dz


class LstmCellParams:
    """Weights for one peephole LSTM cell in stacked-gate form (see module
    docstring); the forget-gate bias starts at 1.  With rng None the weights
    are allocated but not drawn, for a caller that fills every one."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None,
                 dtype=np.float32, prefix: str = "lstm"):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h, d = hidden_dim, input_dim
        self.Wx = Parameter(np.empty((4 * h, d), dtype=dtype), f"{prefix}.Wx")
        self.Wh = Parameter(np.empty((4 * h, h), dtype=dtype), f"{prefix}.Wh")
        self.b = Parameter(np.zeros((4 * h, 1), dtype=dtype), f"{prefix}.b")
        self.p = Parameter(np.empty((3 * h, 1), dtype=dtype), f"{prefix}.p")
        self.b.value[h:2 * h] = 1.0  # open forget gate
        if rng is None:
            return
        # Per-gate Glorot blocks drawn in the order i, f, g, o (x, h, peephole),
        # each straight into its rows.
        for k, gate in enumerate("ifgo"):
            rows = slice(k * h, (k + 1) * h)
            glorot_into(self.Wx.value[rows], rng)
            glorot_into(self.Wh.value[rows], rng)
            if gate != "g":  # g has no peephole
                j = "ifo".index(gate)
                glorot_into(self.p.value[j * h:(j + 1) * h], rng)

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b, self.p]


def _hands_off(Wx: np.ndarray, hidden: int, columns: int) -> bool:
    """Whether a step of `columns` columns hands its input product to the
    worker (see "Concurrent cell products" in the module docstring)."""
    return len(Wx) * min(Wx.shape[1], hidden) * max(columns, NARROW_COLUMNS) >= CONCURRENT_MNK


def lstm_cell_forward(p: LstmCellParams, x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray,
                      h_out: np.ndarray | None = None, c_out: np.ndarray | None = None,
                      wx: np.ndarray | None = None):
    """One recurrence step; returns (h, c, cache), h and c written into h_out, c_out if given.
    wx is the step's input product Wx @ x when a narrow run has taken it."""
    if x.shape[0] != p.input_dim:
        raise ShapeError(f"cell input has {x.shape[0]} rows, expected {p.input_dim}")
    if h_prev.shape[0] != p.hidden_dim or c_prev.shape[0] != p.hidden_dim:
        raise ShapeError("cell state dims do not match hidden_dim")
    n = p.hidden_dim
    peep = p.p.value
    Wx, Wh = p.Wx.value, p.Wh.value
    if wx is not None:
        z = wx + matmul(Wh, h_prev)
    elif not _hands_off(Wx, n, x.shape[1]):
        z = matmul(Wx, x)
        z += matmul(Wh, h_prev)
    else:  # see "Concurrent cell products" in the module docstring
        job = _executor().submit(matmul, Wx, x)
        try:
            wh = matmul(Wh, h_prev)
        finally:
            reclaimed = job.cancel()
            if not reclaimed:
                job.exception()  # on the error path too: the worker is reading x
        z = matmul(Wx, x) if reclaimed else job.result()
        z += wh
    z += p.b.value
    z[:n] += peep[:n] * c_prev
    z[n:2 * n] += peep[n:2 * n] * c_prev
    i = sigmoid(z[:n])
    f = sigmoid(z[n:2 * n])
    g = np.tanh(z[2 * n:3 * n])
    c = np.add(f * c_prev, i * g, out=c_out)
    z[3 * n:] += peep[2 * n:] * c
    o = sigmoid(z[3 * n:])
    h = np.multiply(o, np.tanh(c), out=h_out)
    return h, c, (x, h_prev, c_prev, i, f, g, o, c)


def lstm_cell_backward(p: LstmCellParams, cache, dh: np.ndarray, dc_in: np.ndarray):
    """Backward through one step.

    dh and dc_in are the total gradients flowing into h_t and c_t (recurrent
    plus external).  Accumulates parameter gradients and returns
    (dx, dh_prev, dc_prev).
    """
    x, h_prev, c_prev, i, f, g, o, c = cache
    n = p.hidden_dim
    tc = np.tanh(c)
    peep = p.p.value
    dzo = dh * tc * o * (1.0 - o)
    dc = dc_in + dh * o * (1.0 - tc * tc) + dzo * peep[2 * n:]
    dz = np.concatenate([dc * g * i * (1.0 - i),
                         dc * c_prev * f * (1.0 - f),
                         dc * i * (1.0 - g * g),
                         dzo])
    dzi, dzf = dz[:n], dz[n:2 * n]

    p.Wx.accumulate(add_product, dz, x)
    p.Wh.accumulate(add_product, dz, h_prev)
    p.b.accumulate(add_row_sums, dz)
    p.p.accumulate(_add_peephole_grads, dz, c_prev, c)

    dx = p.Wx.value.T @ dz
    dh_prev = p.Wh.value.T @ dz
    dc_prev = dc * f + dzi * peep[:n] + dzf * peep[n:2 * n]
    return dx, dh_prev, dc_prev


def _add_peephole_grads(grad: np.ndarray, dz: np.ndarray, c_prev: np.ndarray,
                        c: np.ndarray) -> None:
    n = len(grad) // 3
    grad[:n] += (dz[:n] * c_prev).sum(axis=1, keepdims=True)
    grad[n:2 * n] += (dz[n:2 * n] * c_prev).sum(axis=1, keepdims=True)
    grad[2 * n:] += (dz[3 * n:] * c).sum(axis=1, keepdims=True)


def lstm_run(p: LstmCellParams, xs: list[np.ndarray], out=None):
    """Run the cell over a sequence from zero state; returns (hs, cs, caches).
    Step t writes its h and c into the pair of arrays out[t] when given."""
    if not xs:
        raise EmptySequence("lstm_run needs a nonempty sequence")
    batch = xs[0].shape[1]
    dtype = p.Wx.value.dtype
    h = np.zeros((p.hidden_dim, batch), dtype=dtype)
    c = np.zeros((p.hidden_dim, batch), dtype=dtype)
    if batch == 1 and not _hands_off(p.Wx.value, p.hidden_dim, batch):
        # one input product for the whole run (see "Narrow runs" in the module docstring)
        wx = matmul(p.Wx.value, np.concatenate(xs, axis=1))
        wxs = [wx[:, t, None] for t in range(len(xs))]
    else:
        wxs = [None] * len(xs)
    hs, cs, caches = [], [], []
    for t, x in enumerate(xs):
        h, c, cache = lstm_cell_forward(p, x, h, c, *(out[t] if out else (None, None)), wxs[t])
        hs.append(h)
        cs.append(c)
        caches.append(cache)
    return hs, cs, caches


def lstm_run_backward(p: LstmCellParams, caches, dhs, dcs):
    """BPTT over a cached run.

    dhs[t] / dcs[t] are the external gradients into h_t / c_t (zero arrays
    where nothing flows in).  Returns the per-step input gradients dxs.
    """
    dh_next = np.zeros_like(dhs[-1])
    dc_next = np.zeros_like(dcs[-1])
    dxs = [None] * len(caches)
    for t in reversed(range(len(caches))):
        dx, dh_next, dc_next = lstm_cell_backward(
            p, caches[t], dhs[t] + dh_next, dcs[t] + dc_next)
        dxs[t] = dx
    return dxs


def blstm_layer_forward(fwd: LstmCellParams, bwd: LstmCellParams, xs: list[np.ndarray]):
    """Bidirectional layer: per-step h and c have 2 * hidden_dim rows, the
    forward direction's then the backward's, each written in place (see Caches)."""
    if not xs:
        raise EmptySequence("BLSTM input sequence is empty")
    n = fwd.hidden_dim
    dtype = np.result_type(fwd.Wx.value, xs[0])
    hs = [np.empty((n + bwd.hidden_dim, xs[0].shape[1]), dtype) for _ in xs]
    cs = [np.empty_like(h) for h in hs]
    _, _, caches_f = lstm_run(fwd, xs, [(h[:n], c[:n]) for h, c in zip(hs, cs)])
    _, _, caches_b = lstm_run(bwd, xs[::-1], [(h[n:], c[n:]) for h, c in zip(hs[::-1], cs[::-1])])
    return hs, cs, (caches_f, caches_b, n)


def blstm_layer_backward(fwd: LstmCellParams, bwd: LstmCellParams, cache, dhs, dcs):
    """Backward through both directions; returns per-step input gradients."""
    caches_f, caches_b, h = cache
    dhs_f = [d[:h] for d in dhs]
    dcs_f = [d[:h] for d in dcs]
    dhs_b = [d[h:] for d in dhs][::-1]
    dcs_b = [d[h:] for d in dcs][::-1]
    dxs_f = lstm_run_backward(fwd, caches_f, dhs_f, dcs_f)
    dxs_br = lstm_run_backward(bwd, caches_b, dhs_b, dcs_b)
    dxs_b = dxs_br[::-1]
    return [df + db for df, db in zip(dxs_f, dxs_b)]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Column-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def log_softmax(z: np.ndarray, axis: int = 0) -> np.ndarray:
    """log softmax along `axis`, computed without the softmax so that
    entries whose probability underflows stay finite."""
    out = z - z.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))
    return out


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
    lsm = log_softmax(logits, axis=0)
    cols = np.arange(b)
    loss = float(-lsm[targets, cols].mean())
    dlogits = np.exp(lsm)
    dlogits[targets, cols] -= 1.0
    dlogits /= b
    return loss, dlogits
