import itertools
import math
import warnings

import numpy as np
import pytest

from textjscc.corpus import EOS_ID, SOS_ID
from textjscc.errors import DomainError
from textjscc.model import (
    JsccConfig,
    JsccModel,
    binarize_deterministic,
    binarize_stochastic,
)
from textjscc.nn import softmax


def tiny_config(**overrides):
    base = dict(vocab_size=12, embed_dim=6, encoder_stacks=2, encoder_hidden=5,
                decoder_stacks=2, decoder_hidden=7, bits=8, beam_width=2,
                max_decode_len=6, precision="f64")
    base.update(overrides)
    return JsccConfig(**base)


class TestJsccConfig:
    def test_paper_config_parameter_layout(self):
        model = JsccModel(JsccConfig(vocab_size=1000), seed=0)
        params = model.parameters()
        assert len(params) == 39
        assert sum(p.value.size for p in params) == 7_611_064

    def test_odd_bits_rejected(self):
        with pytest.raises(DomainError):
            tiny_config(bits=7)

    def test_tiny_bits_rejected(self):
        with pytest.raises(DomainError):
            tiny_config(bits=0)

    def test_bad_decode_len(self):
        with pytest.raises(DomainError):
            tiny_config(max_decode_len=0)


class TestBinarizers:
    def test_plus_one_always(self):
        rng = np.random.default_rng(0)
        out = binarize_stochastic(np.ones(1000), rng)
        assert np.all(out == 1)

    def test_minus_one_always(self):
        rng = np.random.default_rng(0)
        out = binarize_stochastic(-np.ones(1000), rng)
        assert np.all(out == -1)

    def test_zero_is_unbiased(self):
        rng = np.random.default_rng(1)
        out = binarize_stochastic(np.zeros(10**5), rng)
        assert abs(float(out.mean())) <= 0.01

    def test_unbiased_on_grid(self):
        n = 10**5
        rng = np.random.default_rng(2)
        for x in (-0.9, -0.5, -0.1, 0.3, 0.7):
            out = binarize_stochastic(np.full(n, x), rng)
            bound = 3 * math.sqrt((1 - x * x) / n)
            assert abs(float(out.mean()) - x) <= bound

    def test_domain_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            binarize_stochastic(np.array([1.1]), rng)

    def test_clamp_tolerance(self):
        rng = np.random.default_rng(0)
        out = binarize_stochastic(np.array([1.0 + 5e-7]), rng)
        assert out[0] == 1

    def test_deterministic_values(self):
        assert binarize_deterministic(np.array([0.3]))[0] == 1
        assert binarize_deterministic(np.array([-0.2]))[0] == -1
        assert binarize_deterministic(np.array([0.0]))[0] == 1


class TestEncode:
    def test_codeword_contract(self):
        model = JsccModel(tiny_config(), seed=0)
        for ids in ([4], [4, 5, 6], [4, 5, 6, 7, 8, 9]):
            cw = model.encode(ids, "deterministic")
            assert cw.shape == (8,)
            assert set(np.unique(cw)) <= {-1, 1}

    def test_deterministic_is_pure(self):
        model = JsccModel(tiny_config(), seed=0)
        a = model.encode([4, 5], "deterministic")
        b = model.encode([4, 5], "deterministic")
        assert np.array_equal(a, b)

    def test_stochastic_expectation_consistent(self):
        """Mean stochastic codeword approaches the expectation-mode values."""
        model = JsccModel(tiny_config(), seed=0)
        real = model.encode([4, 5, 6], "expectation")
        rng = np.random.default_rng(0)
        draws = np.stack([model.encode([4, 5, 6], "stochastic", rng)
                          for _ in range(4000)])
        assert np.allclose(draws.mean(axis=0), real, atol=0.06)

    def test_expectation_mode_in_range(self):
        model = JsccModel(tiny_config(), seed=0)
        real = model.encode([4, 5], "expectation")
        assert real.shape == (8,)
        assert np.all(np.abs(real) <= 1.0)

    def test_length_independent_of_sentence(self):
        model = JsccModel(tiny_config(), seed=1)
        lengths = {model.encode(list(range(4, 4 + m)), "deterministic").size
                   for m in (1, 3, 6)}
        assert lengths == {8}


class TestDecoderInit:
    def test_split_shapes(self):
        model = JsccModel(tiny_config(), seed=0)
        states, _ = model.decoder_init(np.ones(8))
        assert len(states) == 2
        for h0, c0 in states:
            assert h0.shape == (7, 1) and c0.shape == (7, 1)

    def test_zero_weights_give_biases(self):
        model = JsccModel(tiny_config(), seed=0)
        for Wh, ah, Wc, ac in model.init_maps:
            Wh.value[...] = 0.0
            Wc.value[...] = 0.0
            ah.value[...] = 0.25
            ac.value[...] = -1.5
        states, _ = model.decoder_init(np.ones(8))
        for h0, c0 in states:
            assert np.allclose(h0, np.tanh(0.25))
            assert np.allclose(c0, -1.5)

    def test_fully_erased_observation_valid(self):
        model = JsccModel(tiny_config(), seed=0)
        states, _ = model.decoder_init(np.zeros(8))
        for h0, c0 in states:
            assert np.all(np.isfinite(h0)) and np.all(np.isfinite(c0))

    def test_cell_init_is_affine_not_squashed(self):
        """h0 stays in [-1,1] (tanh); c0 can leave it because it has no tanh."""
        model = JsccModel(tiny_config(), seed=0)
        big = 100.0 * np.ones(8)
        states, _ = model.decoder_init(big)
        assert all(np.all(np.abs(h0) <= 1.0) for h0, _ in states)
        assert any(np.any(np.abs(c0) > 1.0) for _, c0 in states)

    def test_wrong_length(self):
        from textjscc.errors import ShapeError

        model = JsccModel(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            model.decoder_init(np.ones(6))


class TestDecodeTeacherForced:
    def test_pure_teacher_forcing_inputs(self):
        model = JsccModel(tiny_config(), seed=0)
        targets = np.array([[4, 5, 6, EOS_ID]])
        obs = model.encode([4, 5, 6], "deterministic")[:, None]
        _, _, cache = model.decode_teacher_forced(obs, targets, tf_prob=1.0)
        inputs_used = cache[3]
        assert [int(v[0]) for v in inputs_used] == [SOS_ID, 4, 5, 6]

    def test_self_feeding_inputs_are_argmax(self):
        model = JsccModel(tiny_config(), seed=0)
        targets = np.array([[4, 5, 6, EOS_ID]])
        obs = model.encode([4, 5, 6], "deterministic")[:, None]
        rng = np.random.default_rng(0)
        _, logits, cache = model.decode_teacher_forced(obs, targets, 0.0, rng)
        inputs_used = cache[3]
        assert int(inputs_used[0][0]) == SOS_ID
        for t in range(1, len(inputs_used)):
            assert int(inputs_used[t][0]) == int(logits[t - 1].argmax(axis=0)[0])

    def test_initial_loss_near_uniform(self):
        config = tiny_config(vocab_size=50)
        model = JsccModel(config, seed=0)
        ids = [4, 5, 6, 7, 8, 9]
        targets = np.array([ids + [EOS_ID]])
        obs = model.encode(ids, "deterministic")[:, None]
        loss, _, _ = model.decode_teacher_forced(obs, targets, 1.0)
        expected = (len(ids) + 1) * math.log(50)
        assert abs(loss - expected) / expected < 0.10

    def test_target_must_end_with_eos(self):
        model = JsccModel(tiny_config(), seed=0)
        obs = np.ones(8)
        with pytest.raises(DomainError):
            model.decode_teacher_forced(obs, np.array([[4, 5]]), 1.0)


def enumerate_sequences(model, obs, max_len=2):
    """Brute-force log probability of every decode of length <= max_len."""
    V = model.config.vocab_size
    states, _ = model.decoder_init(obs)

    def step(states, token):
        x = model.embed.value[[token]].T
        logits, new_states, _ = model._decoder_step(x, states)
        return np.log(softmax(logits)[:, 0]), new_states

    lp1, states1 = step(states, SOS_ID)
    best = {(): float(lp1[EOS_ID])}
    for w1 in range(V):
        if w1 == EOS_ID:
            continue
        lp2, _ = step(states1, w1)
        best[(w1,)] = float(lp1[w1] + lp2[EOS_ID])
        for w2 in range(V):
            if w2 == EOS_ID:
                continue
            best[(w1, w2)] = float(lp1[w1] + lp2[w2])
    return best


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        model = JsccModel(tiny_config(), seed=3)
        for sent in ([4, 5], [6, 7, 8], [9]):
            obs = model.encode(sent, "deterministic")
            greedy = model.greedy_decode_batch(obs[:, None])[0]
            beam = model.beam_search_decode(obs, beam_width=1)
            assert beam == greedy

    def test_full_beam_matches_exhaustive(self):
        model = JsccModel(tiny_config(vocab_size=6), seed=5)
        obs = model.encode([4, 5], "deterministic")
        table = enumerate_sequences(model, obs, max_len=2)
        best_seq = max(table, key=lambda k: (table[k], ))
        found = model.beam_search_decode(obs, beam_width=6, max_len=2)
        assert tuple(found) == best_seq

    def test_eos_door_slam_gives_empty(self):
        model = JsccModel(tiny_config(), seed=0)
        model.b_out.value[...] = 0.0
        model.b_out.value[EOS_ID, 0] = 50.0
        obs = model.encode([4, 5, 6], "deterministic")
        assert model.beam_search_decode(obs, beam_width=3) == []

    def test_wider_beam_never_worse(self):
        def score(model, obs, tokens):
            states, _ = model.decoder_init(obs)
            total = 0.0
            prev = SOS_ID
            for tok in tokens + [EOS_ID]:
                x = model.embed.value[[prev]].T
                logits, states, _ = model._decoder_step(x, states)
                total += float(np.log(softmax(logits)[tok, 0]))
                prev = tok
            return total

        for seed in (0, 1, 2, 3):
            model = JsccModel(tiny_config(vocab_size=8), seed=seed)
            obs = model.encode([4, 5, 6], "deterministic")
            scores = []
            for width in (1, 2, 4, 8):
                tokens = model.beam_search_decode(obs, beam_width=width, max_len=4)
                scores.append(score(model, obs, tokens))
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_underflowed_probability_stays_finite(self):
        """Huge logits underflow softmax entries to 0 in f32; beam search must
        neither warn on log(0) nor lose its agreement with greedy decoding."""
        model = JsccModel(tiny_config(precision="f32"), seed=3)
        model.W_out.value *= 1e3
        obs = model.encode([4, 5, 6], "deterministic")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert model.beam_search_decode(obs, beam_width=1) == \
                model.greedy_decode_batch(obs[:, None])[0]
            model.beam_search_decode(obs, beam_width=3)

    def test_logp_non_increasing_along_hypothesis(self):
        model = JsccModel(tiny_config(), seed=1)
        obs = model.encode([4, 5], "deterministic")
        states, _ = model.decoder_init(obs[:, None])
        total = 0.0
        prev = SOS_ID
        for _ in range(4):
            x = model.embed.value[[prev]].T
            logits, states, _ = model._decoder_step(x, states)
            lp = np.log(softmax(logits)[:, 0])
            nxt = int(lp.argmax())
            step_lp = float(lp[nxt])
            assert step_lp <= 0.0
            total += step_lp
            prev = nxt


class TestStraightThroughInvariant:
    def test_training_backward_masks_erasures(self):
        """Gradient reaches only surviving codeword positions."""
        model = JsccModel(tiny_config(), seed=2)
        ids = np.array([[4, 5, 6]])
        targets = np.array([[4, 5, 6, EOS_ID]])
        rng = np.random.default_rng(0)
        bits, enc_cache = model.encode_training(ids, rng)
        obs = bits.astype(np.float64).copy()
        obs[2, 0] = 0.0  # erase one position
        _, _, dec_cache = model.decode_teacher_forced(obs, targets, 1.0)
        d_obs = model.decode_backward(dec_cache)
        survive = (obs != 0).astype(d_obs.dtype)
        masked = d_obs * survive
        assert masked[2, 0] == 0.0
        model.encode_backward(enc_cache, masked)  # must run cleanly
        assert any(np.any(p.grad != 0) for p in model.parameters())
