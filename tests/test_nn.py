import math

import numpy as np
import pytest

from textjscc.errors import EmptySequence, ShapeError
from textjscc.gradcheck import (
    check_blstm,
    check_dense,
    check_lstm_cell,
    check_softmax,
    gradient_check,
)
from textjscc.nn import (
    LstmCellParams,
    Parameter,
    blstm_layer_forward,
    dense_backward,
    dense_forward,
    glorot,
    lstm_cell_forward,
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

    def test_gradcheck(self):
        assert check_softmax(0) < 1e-6


class TestOptimizers:
    def test_zero_grad_noop_adam(self):
        p = param([[1.0, 2.0]])
        state = AdamState([p])
        adam_step([p], state)
        assert p.value.tolist() == [[1.0, 2.0]]

    def test_adam_first_step_is_minus_lr(self):
        p = param([[0.0]])
        p.grad[...] = 1.0
        state = AdamState([p], lr=1e-3)
        adam_step([p], state)
        assert p.value[0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_global_norm_clipping(self):
        p = param(np.zeros((1, 2)))
        p.grad[...] = [[3.0, 4.0]]  # norm 5 -> clipped to 2.5
        norm = clip_global_norm([p], 2.5)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(2.5)


class TestGradientCheckHarness:
    def test_constant_loss(self):
        p = param([[1.0, 2.0]])

        def loss_fn():
            return 3.0

        assert gradient_check(loss_fn, [p]) == 0.0

    def test_requires_float64(self):
        from textjscc.errors import NumericalError

        p = Parameter(np.zeros((1, 1), dtype=np.float32), "p")
        with pytest.raises(NumericalError):
            gradient_check(lambda: 0.0, [p])
