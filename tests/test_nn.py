import math
import operator

import numpy as np
import pytest

from textjscc import nn
from textjscc.errors import EmptySequence, NumericalError, ShapeError
from textjscc.gradcheck import (
    check_blstm,
    check_dense,
    check_lstm_cell,
    check_softmax,
    gradient_check,
)
from textjscc.model import JsccConfig, JsccModel
from textjscc.nn import (
    LstmCellParams,
    Parameter,
    _panel_rows,
    blstm_layer_forward,
    dense_backward,
    dense_forward,
    glorot,
    glorot_into,
    lstm_cell_forward,
    matmul,
    softmax,
    softmax_cross_entropy,
)
from textjscc.optim import AdamState, adam_step, clip_global_norm


def param(values, name="p"):
    return Parameter(np.array(values, dtype=np.float64), name)


class TestDense:
    def test_zero_weights_zero_output(self):
        W, a = param(np.zeros((3, 2))), param(np.zeros((3, 1)))
        y, _ = dense_forward(W, a, np.random.default_rng(0).normal(size=(2, 4)), "tanh")
        assert np.all(y == 0)

    def test_scalar_tanh(self):
        W, a = param([[1.0]]), param([[0.0]])
        y, _ = dense_forward(W, a, np.array([[0.5]]), "tanh")
        assert y[0, 0] == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_identity_diagonal(self):
        W, a = param([[2.0, 0.0], [0.0, 2.0]]), param([[0.0], [0.0]])
        y, _ = dense_forward(W, a, np.array([[1.0], [-1.0]]), "identity")
        assert y[:, 0].tolist() == [2.0, -2.0]

    def test_shape_mismatch(self):
        W, a = param(np.zeros((3, 2))), param(np.zeros((3, 1)))
        with pytest.raises(ShapeError):
            dense_forward(W, a, np.zeros((4, 1)))

    def test_backward_zero_upstream(self):
        W, a = param(np.ones((2, 2))), param(np.ones((2, 1)))
        y, cache = dense_forward(W, a, np.ones((2, 3)), "tanh")
        dx = dense_backward(cache, np.zeros_like(y))
        assert np.all(dx == 0) and np.all(W.grad == 0) and np.all(a.grad == 0)

    def test_backward_identity_passthrough(self):
        W, a = param(np.eye(3)), param(np.zeros((3, 1)))
        y, cache = dense_forward(W, a, np.random.default_rng(1).normal(size=(3, 2)),
                                 "identity")
        upstream = np.random.default_rng(2).normal(size=y.shape)
        assert np.allclose(dense_backward(cache, upstream), upstream)

    def test_gradcheck(self):
        assert check_dense(0) < 1e-6


class TestLstmCell:
    def test_all_zero(self):
        rng = np.random.default_rng(0)
        cell = LstmCellParams(2, 2, rng, np.float64, "c")
        for p in cell.parameters():
            p.value[...] = 0.0
        h, c, _ = lstm_cell_forward(cell, np.zeros((2, 1)), np.zeros((2, 1)),
                                    np.zeros((2, 1)))
        assert np.all(h == 0) and np.all(c == 0)

    def test_cell_state_passthrough(self):
        """Zero weights, c_prev=2: gates 0.5, c = 1, h = 0.5*tanh(1)."""
        rng = np.random.default_rng(0)
        cell = LstmCellParams(2, 2, rng, np.float64, "c")
        for p in cell.parameters():
            p.value[...] = 0.0
        h, c, _ = lstm_cell_forward(cell, np.zeros((2, 1)), np.zeros((2, 1)),
                                    np.full((2, 1), 2.0))
        assert np.allclose(c, 1.0)
        assert np.allclose(h, 0.5 * np.tanh(1.0))
        assert h[0, 0] == pytest.approx(0.380797, abs=1e-6)

    def test_output_bounded(self):
        rng = np.random.default_rng(3)
        cell = LstmCellParams(4, 3, rng, np.float64, "c")
        h, c, _ = lstm_cell_forward(cell, rng.normal(size=(4, 5)),
                                    rng.normal(size=(3, 5)), rng.normal(size=(3, 5)))
        assert np.all(np.abs(h) < 1.0)
        assert np.all(np.isfinite(c))

    def test_shape_check(self):
        rng = np.random.default_rng(0)
        cell = LstmCellParams(3, 2, rng, np.float64, "c")
        with pytest.raises(ShapeError):
            lstm_cell_forward(cell, np.zeros((4, 1)), np.zeros((2, 1)), np.zeros((2, 1)))

    def test_gradcheck(self):
        assert check_lstm_cell(0) < 1e-4

    def test_stacked_forward_matches_per_gate_equations(self):
        """The module docstring's recurrence, on row slices of Wx, Wh, b, p."""
        rng = np.random.default_rng(4)
        d, n = 3, 5
        cell = LstmCellParams(d, n, rng, np.float64, "c")
        for q in cell.parameters():
            q.value[...] = rng.normal(size=q.shape)
        x, h0, c0 = (rng.normal(size=(k, 4)) for k in (d, n, n))
        h, c, _ = lstm_cell_forward(cell, x, h0, c0)

        def gate(arr, k):
            return arr[k * n:(k + 1) * n]

        def pre(k):
            return (gate(cell.Wx.value, k) @ x + gate(cell.Wh.value, k) @ h0
                    + gate(cell.b.value, k))

        def sigma(z):
            return 1.0 / (1.0 + np.exp(-z))

        p_i, p_f, p_o = (gate(cell.p.value, k) for k in range(3))
        i = sigma(pre(0) + p_i * c0)
        f = sigma(pre(1) + p_f * c0)
        g = np.tanh(pre(2))
        c_ref = f * c0 + i * g
        o = sigma(pre(3) + p_o * c_ref)
        assert np.max(np.abs(c - c_ref)) < 1e-12
        assert np.max(np.abs(h - o * np.tanh(c_ref))) < 1e-12

    def test_init_stacks_per_gate_glorot_draws(self):
        d, n = 3, 4
        cell = LstmCellParams(d, n, np.random.default_rng(5), np.float32, "c")
        assert cell.parameters() == [cell.Wx, cell.Wh, cell.b, cell.p]
        assert [q.name for q in cell.parameters()] == ["c.Wx", "c.Wh", "c.b", "c.p"]
        rng = np.random.default_rng(5)
        order = [("W_ix", (n, d)), ("W_ih", (n, n)), ("p_i", (n, 1)),
                 ("W_fx", (n, d)), ("W_fh", (n, n)), ("p_f", (n, 1)),
                 ("W_gx", (n, d)), ("W_gh", (n, n)),
                 ("W_ox", (n, d)), ("W_oh", (n, n)), ("p_o", (n, 1))]
        ref = {name: glorot(shape, rng, np.float32) for name, shape in order}
        assert np.array_equal(cell.Wx.value, np.vstack([ref[f"W_{g}x"] for g in "ifgo"]))
        assert np.array_equal(cell.Wh.value, np.vstack([ref[f"W_{g}h"] for g in "ifgo"]))
        assert np.array_equal(cell.p.value, np.vstack([ref[f"p_{g}"] for g in "ifo"]))
        bias = np.zeros((4 * n, 1), dtype=np.float32)
        bias[n:2 * n] = 1.0
        assert np.array_equal(cell.b.value, bias)


class TestGlorot:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 3), (7, 1), (1, 1), (300, 17), (128, 128), (2048, 200),
                                       (1, nn.GLOROT_CHUNK + 1), (3, nn.GLOROT_CHUNK)])
    def test_equals_uniform_draw_and_leaves_the_same_state(self, shape, dtype):
        """Chunked draws equal one float64 uniform draw cast to dtype."""
        fan_out, fan_in = shape
        r = np.sqrt(6.0 / (fan_in + fan_out))
        ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
        want = ref_rng.uniform(-r, r, size=shape).astype(dtype)
        got = glorot(shape, rng, dtype)
        assert got.dtype == dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_fills_rows_of_a_larger_array_in_place(self):
        whole = np.full((6, 5), 7.0, np.float32)
        glorot_into(whole[2:4], np.random.default_rng(2))
        assert np.array_equal(whole[2:4], glorot((2, 5), np.random.default_rng(2), np.float32))
        assert np.all(whole[:2] == 7.0) and np.all(whole[4:] == 7.0)


class TestBlstm:
    def test_empty_sequence(self):
        rng = np.random.default_rng(0)
        fwd = LstmCellParams(2, 2, rng, np.float64, "f")
        bwd = LstmCellParams(2, 2, rng, np.float64, "b")
        with pytest.raises(EmptySequence):
            blstm_layer_forward(fwd, bwd, [])

    def test_length_one_directions_match(self):
        rng = np.random.default_rng(1)
        fwd = LstmCellParams(2, 3, rng, np.float64, "f")
        bwd = LstmCellParams(2, 3, rng, np.float64, "b")
        for pf, pb in zip(fwd.parameters(), bwd.parameters()):
            pb.value[...] = pf.value
        x = rng.normal(size=(2, 1))
        hs, cs, _ = blstm_layer_forward(fwd, bwd, [x])
        assert np.allclose(hs[0][:3], hs[0][3:])
        assert np.allclose(cs[0][:3], cs[0][3:])

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(2)
        fwd = LstmCellParams(2, 2, rng, np.float64, "f")
        bwd = LstmCellParams(2, 2, rng, np.float64, "b")
        for p in fwd.parameters() + bwd.parameters():
            p.value[...] = 0.0
        xs = [rng.normal(size=(2, 2)) for _ in range(3)]
        hs, cs, _ = blstm_layer_forward(fwd, bwd, xs)
        assert all(np.all(h == 0) for h in hs)
        assert all(np.all(c == 0) for c in cs)

    def test_palindrome_symmetry(self):
        """With shared direction parameters, a palindromic input makes the
        two halves time-reverses of each other."""
        rng = np.random.default_rng(3)
        fwd = LstmCellParams(2, 3, rng, np.float64, "f")
        bwd = LstmCellParams(2, 3, rng, np.float64, "b")
        for pf, pb in zip(fwd.parameters(), bwd.parameters()):
            pb.value[...] = pf.value
        a, b = rng.normal(size=(2, 1)), rng.normal(size=(2, 1))
        xs = [a, b, a]  # palindrome
        hs, _, _ = blstm_layer_forward(fwd, bwd, xs)
        T = len(xs)
        for t in range(T):
            assert np.allclose(hs[t][:3], hs[T - 1 - t][3:])

    def test_every_step_depends_on_whole_sequence(self):
        rng = np.random.default_rng(4)
        fwd = LstmCellParams(2, 3, rng, np.float64, "f")
        bwd = LstmCellParams(2, 3, rng, np.float64, "b")
        xs = [rng.normal(size=(2, 1)) for _ in range(4)]
        hs, _, _ = blstm_layer_forward(fwd, bwd, xs)
        for perturb_t in range(4):
            bumped = [x.copy() for x in xs]
            bumped[perturb_t] += 0.5
            hs2, _, _ = blstm_layer_forward(fwd, bwd, bumped)
            for t in range(4):
                assert not np.allclose(hs[t], hs2[t])

    def test_gradcheck(self):
        assert check_blstm(0) < 1e-4

    def test_cached_states_share_memory_with_the_outputs(self):
        """Each direction writes h and c into its rows of the layer's
        outputs, so every state its caches hold is a view of hs or cs."""
        rng = np.random.default_rng(5)
        fwd = LstmCellParams(2, 3, rng, np.float32, "f")
        bwd = LstmCellParams(2, 3, rng, np.float32, "b")
        xs = [rng.normal(size=(2, 4)).astype(np.float32) for _ in range(5)]
        hs, cs, (caches_f, caches_b, n) = blstm_layer_forward(fwd, bwd, xs)
        T = len(xs)
        # a cache is (x, h_prev, c_prev, i, f, g, o, c); step 0 starts from zeros
        for t in range(T):
            _, h_prev, c_prev, *_, c = caches_f[t]
            assert np.shares_memory(c, cs[t]) and np.array_equal(c, cs[t][:n])
            if t > 0:
                assert np.shares_memory(h_prev, hs[t - 1]) and np.shares_memory(c_prev, cs[t - 1])
        for k in range(T):
            _, h_prev, c_prev, *_, c = caches_b[k]
            t = T - 1 - k
            assert np.shares_memory(c, cs[t]) and np.array_equal(c, cs[t][n:])
            if k > 0:
                assert np.shares_memory(h_prev, hs[t + 1]) and np.shares_memory(c_prev, cs[t + 1])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((7, 3)), np.array([0, 3, 6]))
        assert loss == pytest.approx(math.log(7), abs=1e-12)

    def test_large_margin_loss_vanishes(self):
        logits = np.zeros((4, 1))
        logits[2, 0] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-20

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(size=(9, 5)) * 10)
        assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)

    def test_invalid_target(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.zeros((3, 1)), np.array([3]))

    def test_underflowed_target_keeps_its_loss(self):
        """A target 200 nats below the max underflows its f32 probability to
        0; the loss still reads 200 and the gradient stays finite."""
        logits = np.zeros((5, 1), dtype=np.float32)
        logits[0, 0] = 200.0
        loss, dlogits = softmax_cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(200.0, rel=1e-6)
        assert np.all(np.isfinite(dlogits))
        assert dlogits[0, 0] == pytest.approx(1.0)
        assert dlogits[1, 0] == pytest.approx(-1.0)

    def test_gradcheck(self):
        assert check_softmax(0) < 1e-6


class TestNarrowMatmul:
    @staticmethod
    def _operands(m, n, k, dtype, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((m, k)).astype(dtype),
                rng.standard_normal((k, n)).astype(dtype))

    def test_panel_sizes(self):
        assert _panel_rows(2048, 4, 512) == 256
        assert _panel_rows(1000, 4, 512) == 250
        assert _panel_rows(2048, 4, 200) == 1024
        # no divisor fits: full panels of the widest height plus a ragged one
        assert _panel_rows(2053, 4, 512) == 488  # prime
        assert _panel_rows(20004, 4, 512) == 488  # 2**2 * 3 * 1667

    def test_whole_product_cases(self):
        assert _panel_rows(2048, 1, 512) == 2048
        assert _panel_rows(100, 4, 5000) == 100  # a panel under the cutoff is too short
        model = JsccModel(JsccConfig(vocab_size=1000), seed=0)
        cells = [cell for pair in model.encoder for cell in pair] + model.decoder
        weights = [w.value for cell in cells for w in (cell.Wx, cell.Wh)] + [model.W_out.value]
        for n in (128, 32):  # training batch and greedy train-WER batch
            for W in weights:
                assert _panel_rows(W.shape[0], n, W.shape[1]) == W.shape[0], (W.shape, n)

    @pytest.mark.parametrize("m, n, k", [(300, 4, 256), (2048, 1, 512), (2048, 32, 512)])
    def test_plain_path_is_exact(self, m, n, k):
        W, x = self._operands(m, n, k, np.float32)
        assert _panel_rows(m, n, k) == m
        assert np.array_equal(matmul(W, x), W @ x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, n, k", [(2048, 4, 512), (2048, 2, 512), (2048, 8, 200),
                                         (1000, 4, 512), (999, 3, 512), (1536, 16, 200),
                                         (1024, 4, 256), (2053, 4, 512)])
    def test_panel_path_agrees_within_roundoff(self, m, n, k, dtype):
        W, x = self._operands(m, n, k, dtype, seed=m + n + k)
        assert _panel_rows(m, n, k) < m
        got = matmul(W, x)
        # each side is within k*eps*(|W| @ |x|) of the exact product
        bound = 2 * k * np.finfo(dtype).eps * (np.abs(W) @ np.abs(x))
        assert got.shape == (m, n) and got.dtype == dtype
        assert np.all(np.abs(got - W @ x) <= bound)

    def test_panels_are_a_view_of_the_weights(self, monkeypatch):
        seen = []
        batched = np.matmul

        def spy(a, b, **kwargs):
            seen.append(a)
            return batched(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for m, shapes in ((2048, [(8, 256, 512)]), (2053, [(4, 488, 512), (101, 512)])):
            W, x = self._operands(m, 4, 512, np.float32)
            seen.clear()
            matmul(W, x)
            assert [a.shape for a in seen] == shapes
            assert all(np.shares_memory(a, W) for a in seen)


class TestOptimizers:
    def test_zero_grad_noop_adam(self):
        p = param([[1.0, 2.0]])
        adam_step(AdamState([p]))
        assert p.value.tolist() == [[1.0, 2.0]]

    def test_adam_first_step_is_minus_lr(self):
        p = param([[0.0]])
        p.grad[...] = 1.0
        adam_step(AdamState([p], lr=1e-3))
        assert p.value[0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_global_norm_clipping(self):
        p = param(np.zeros((1, 2)))
        p.grad[...] = [[3.0, 4.0]]  # norm 5 -> clipped to 2.5
        norm = clip_global_norm([p], 2.5)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(2.5)

    @pytest.mark.parametrize("clip", [2.5, 0.0])
    def test_adam_step_returns_pre_clip_norm(self, clip):
        p = param(np.zeros((1, 2)))
        p.grad[...] = [[3.0, 4.0]]
        assert adam_step(AdamState([p], clip=clip)) == 5.0
        assert np.all(p.grad == 0)


class TestNonFiniteGradients:
    """A norm not finite in f32 is summed again in float64: finite there,
    it clips; not finite, the step raises before any moment or weight moves."""

    @staticmethod
    def _state(entry):
        params = [Parameter(np.full((2, 3), 0.5, np.float32), "enc0.fwd.Wx"),
                  Parameter(np.full((4, 1), 0.25, np.float32), "out.b")]
        params[0].grad[...] = 1.0
        params[1].grad[...] = -2.0
        params[1].grad[2, 0] = entry
        return AdamState(params, lr=1e-3, clip=5.0)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_raises_before_the_step(self, entry):
        state = self._state(entry)
        values = [p.value.copy() for p in state.params]
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="out.b"):
            adam_step(state)
        assert state.t == 0
        for p, value, m, v in zip(state.params, values, state.m, state.v, strict=True):
            assert np.array_equal(p.value, value) and not m.any() and not v.any()

    def test_overflowing_square_clips_to_the_norm(self):
        """3e19 squared overflows f32: the step clips to norm 5 instead of
        zeroing every gradient."""
        state = self._state(3e19)
        with np.errstate(over="ignore"):
            norm = clip_global_norm(state.params, state.clip)
        assert norm == pytest.approx(3e19, rel=1e-6)
        clipped = math.sqrt(sum(float(np.square(p.grad, dtype=np.float64).sum())
                                for p in state.params))
        assert clipped == pytest.approx(5.0, rel=1e-5)

    def test_overflowing_square_still_steps(self):
        state = self._state(3e19)
        with np.errstate(over="ignore"):
            assert adam_step(state) == pytest.approx(3e19, rel=1e-6)
        # Adam's first step moves each entry with a nonzero gradient by lr
        assert state.params[1].value[2, 0] == pytest.approx(0.25 - 1e-3, rel=1e-5)
        assert all(np.all(np.isfinite(p.value)) for p in state.params)


class TestGradientCheckHarness:
    """gradient_check(forward, backward, params) on the quadratic loss
    0.5 * sum(scale * p**2), whose gradient is scale * p."""

    @staticmethod
    def quadratic(params, scale=1.0, grad_scale=1.0):
        calls = {"forward": 0, "backward": 0}

        def forward():
            calls["forward"] += 1
            return 0.5 * sum(float((scale * p.value ** 2).sum()) for p in params), calls

        def backward(cache):
            assert cache is calls
            calls["backward"] += 1
            for p in params:
                p.accumulate(operator.iadd, grad_scale * scale * p.value)
        return forward, backward, calls

    def test_constant_loss(self):
        p = param([[1.0, 2.0]])
        assert gradient_check(lambda: (3.0, None), lambda cache: None, [p]) == 0.0

    def test_requires_float64(self):
        p = Parameter(np.zeros((1, 1), dtype=np.float32), "p")
        with pytest.raises(NumericalError):
            gradient_check(lambda: (0.0, None), lambda cache: None, [p])

    def test_backward_once_and_forward_per_probe(self):
        params = [param([[1.0, -2.0, 0.5], [0.3, 0.0, 4.0]]), param([0.7, -1.1, 2.0, 0.2])]
        forward, backward, calls = self.quadratic(params, scale=3.0)
        assert gradient_check(forward, backward, params) < 1e-4
        assert calls == {"forward": 1 + 2 * 10, "backward": 1}
        assert all(np.all(p.grad == 0) for p in params)

    def test_wrong_backward_fails(self):
        params = [param([[1.0, -2.0], [0.5, 3.0]])]
        forward, backward, _ = self.quadratic(params, grad_scale=2.0)
        # |2g - g| / (|2g| + |g|) = 1/3 at every entry
        assert gradient_check(forward, backward, params) > 0.3

    def test_non_finite_loss_raises_before_backward(self):
        p = param([[1.0, 2.0]])
        backward_calls = []
        with pytest.raises(NumericalError, match="non-finite"):
            gradient_check(lambda: (math.nan, None), backward_calls.append, [p])
        assert backward_calls == []

    def test_non_finite_probe_raises_and_restores_the_entry(self):
        p = param([[0.1, 0.2], [0.3, 0.4]])
        before = p.value.copy()
        forward, backward, calls = self.quadratic([p])

        def forward_until_probed():
            loss, cache = forward()
            return (loss if calls["forward"] == 1 else math.inf), cache
        with pytest.raises(NumericalError, match="non-finite"):
            gradient_check(forward_until_probed, backward, [p])
        assert calls == {"forward": 2, "backward": 1}
        assert p.value.tobytes() == before.tobytes()
        assert np.all(p.grad == 0)
