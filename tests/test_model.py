import itertools
import json
import math
import struct
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from textjscc import model as model_module
from textjscc import nn
from textjscc.channel import erase
from textjscc.checkpoint import load_model
from textjscc.corpus import EOS_ID, SOS_ID, TokenizedSentence
from textjscc.errors import DomainError, IoError, ShapeError
from textjscc.model import (
    JsccConfig,
    JsccModel,
    binarize_deterministic,
    binarize_stochastic,
)
from textjscc.nn import softmax


def encoder_output(model, ids_batch):
    """The encoder's real-valued (bits, B) output, the binarizer's expectation."""
    xs, _ = model._embed_steps(np.asarray(ids_batch))
    h_star, c_star, _ = model._encoder_forward(xs)
    return np.concatenate([h_star, c_star], axis=0)


# every JsccConfig field that must be at least 1
SIZE_FIELDS = ["vocab_size", "embed_dim", "encoder_stacks", "encoder_hidden",
               "decoder_stacks", "decoder_hidden", "beam_width", "max_decode_len"]


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

    @pytest.mark.parametrize("name", SIZE_FIELDS)
    @pytest.mark.parametrize("value", [0, -3])
    def test_a_size_below_one_is_named_with_its_value(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be >= 1, got {value}$"):
            tiny_config(**{name: value})

    @pytest.mark.parametrize("name", SIZE_FIELDS)
    def test_checkpoint_header_with_a_size_below_one_is_an_io_error(self, tmp_path, name):
        meta = {"config": dict(tiny_config().to_dict(), **{name: 0}), "extra": {},
                "has_adam": False}
        header = json.dumps(meta).encode("utf-8")
        path = tmp_path / "bad.tjscc"
        path.write_bytes(b"TJSCC2" + struct.pack("<BI", 8, len(header)) + header
                         + struct.pack("<I", 0))
        with pytest.raises(IoError, match=f"malformed header: {name} must be >= 1, got 0$"):
            load_model(str(path))


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
            cw = model.encode(ids)
            assert cw.shape == (8,)
            assert set(np.unique(cw)) <= {-1, 1}

    def test_deterministic_is_pure(self):
        model = JsccModel(tiny_config(), seed=0)
        a = model.encode([4, 5])
        b = model.encode([4, 5])
        assert np.array_equal(a, b)

    def test_stochastic_expectation_consistent(self):
        """Mean training codeword approaches the encoder's real-valued output."""
        model = JsccModel(tiny_config(), seed=0)
        real = encoder_output(model, [[4, 5, 6]])[:, 0]
        bits, _ = model.encode_training(np.tile([4, 5, 6], (4000, 1)),
                                        np.random.default_rng(0))
        assert np.allclose(bits.mean(axis=1), real, atol=0.06)

    def test_expectation_mode_in_range(self):
        """The encoder's real output lies in [-1, 1] and encode sends its sign."""
        model = JsccModel(tiny_config(), seed=0)
        real = encoder_output(model, [[4, 5]])[:, 0]
        assert real.shape == (8,)
        assert np.all(np.abs(real) <= 1.0)
        assert np.array_equal(model.encode([4, 5]), binarize_deterministic(real))

    def test_length_independent_of_sentence(self):
        model = JsccModel(tiny_config(), seed=1)
        lengths = {model.encode(list(range(4, 4 + m))).size
                   for m in (1, 3, 6)}
        assert lengths == {8}


def reference_encoder_forward(model, xs):
    """The encoder with every layer, the top one included, running both
    directions over the whole sequence through `blstm_layer_forward`."""
    stack_caches, lasts_h, lasts_c = [], [], []
    seq = xs
    for fwd, bwd in model.encoder:
        hs, cs, cache = nn.blstm_layer_forward(fwd, bwd, seq)
        stack_caches.append(cache)
        lasts_h.append(hs[-1])
        lasts_c.append(cs[-1])
        seq = hs
    h_star, cache_h = nn.dense_forward(model.W_h, model.a_h, np.concatenate(lasts_h), "tanh")
    c_star, cache_c = nn.dense_forward(model.W_c, model.a_c, np.concatenate(lasts_c), "tanh")
    return h_star, c_star, (stack_caches, cache_h, cache_c, len(xs))


def reference_encoder_backward(model, cache, d_hstar, d_cstar, ids_full):
    """BPTT through every step of every layer of `reference_encoder_forward`,
    zero gradients included."""
    stack_caches, cache_h, cache_c, T = cache
    dh = nn.dense_backward(cache_h, d_hstar)
    dc = nn.dense_backward(cache_c, d_cstar)
    width = 2 * model.config.encoder_hidden
    d_from_above = None
    for j in reversed(range(len(model.encoder))):
        fwd, bwd = model.encoder[j]
        rows = slice(j * width, (j + 1) * width)
        dhs = [np.zeros_like(dh[rows]) for _ in range(T)]
        dcs = [np.zeros_like(dh[rows]) for _ in range(T)]
        dhs[-1] += dh[rows]
        dcs[-1] += dc[rows]
        if d_from_above is not None:
            for t in range(T):
                dhs[t] += d_from_above[t]
        d_from_above = nn.blstm_layer_backward(fwd, bwd, stack_caches[j], dhs, dcs)
    for t in range(T):
        model.embed.accumulate(np.add.at, ids_full[:, t], d_from_above[t].T)


class TestEncoderTopStep:
    """The top layer's backward direction runs one step, on the last position."""

    @pytest.mark.parametrize("stacks", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_bit_identical_to_full_top_layer(self, monkeypatch, stacks, precision):
        config = tiny_config(vocab_size=30, embed_dim=9, encoder_stacks=stacks,
                             encoder_hidden=5, bits=12, precision=precision)
        ids = np.random.default_rng(1).integers(4, 30, size=(7, 6))
        targets = np.concatenate([ids, np.full((7, 1), EOS_ID)], axis=1)

        def run():
            model = JsccModel(config, seed=3)
            rng = np.random.default_rng(5)
            expectation = encoder_output(model, ids)
            bits, enc_cache = model.encode_training(ids, rng)
            loss, dec_cache = model.decode_teacher_forced(
                bits.astype(config.dtype), targets, 0.5, rng)
            model.encode_backward(enc_cache, model.decode_backward(dec_cache))
            return expectation, loss, [p.grad.copy() for p in model.parameters()]

        expectation, loss, grads = run()
        monkeypatch.setattr(JsccModel, "_encoder_forward", reference_encoder_forward)
        monkeypatch.setattr(JsccModel, "_encoder_backward", reference_encoder_backward)
        ref_expectation, ref_loss, ref_grads = run()
        assert np.array_equal(expectation, ref_expectation)
        assert loss == ref_loss
        assert len(grads) == len(ref_grads)
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("stacks", [1, 2, 3])
    def test_dead_rows_of_the_top_backward_cell(self, stacks):
        """The one step starts from h = c = 0, so Wh, the forget gate's rows
        of Wx and b (f multiplies only c_prev) and the i, f peepholes get
        exact zero gradients; every other row of the cell gets some."""
        config = tiny_config(vocab_size=30, embed_dim=9, encoder_stacks=stacks,
                             encoder_hidden=5, bits=12)
        ids = np.random.default_rng(1).integers(4, 30, size=(7, 6))
        targets = np.concatenate([ids, np.full((7, 1), EOS_ID)], axis=1)
        model = JsccModel(config, seed=3)
        rng = np.random.default_rng(5)
        bits, enc_cache = model.encode_training(ids, rng)
        obs = erase(bits, 0.2, rng)
        _, dec_cache = model.decode_teacher_forced(obs, targets, 0.5, rng)
        model.encode_backward(enc_cache, model.decode_backward(dec_cache) * (obs != 0))
        h = config.encoder_hidden
        cell = model.encoder[-1][1]
        dead = {"Wx": slice(h, 2 * h), "Wh": slice(None), "b": slice(h, 2 * h),
                "p": slice(0, 2 * h)}
        counted = 0
        for param in cell.parameters():
            rows = np.zeros(len(param.value), dtype=bool)
            rows[dead[param.name.rsplit(".", 1)[1]]] = True
            assert np.all(param.grad[rows] == 0), param.name
            assert np.all(np.any(param.grad[~rows] != 0, axis=1)), param.name
            counted += param.value[rows].size

        def dead_entries(h, d):
            return 4 * h * h + h * d + h + 2 * h

        assert counted == dead_entries(h, cell.input_dim)
        paper = JsccConfig(vocab_size=1000)
        at_paper = dead_entries(paper.encoder_hidden, 2 * paper.encoder_hidden)
        assert (at_paper, paper.parameter_count() - at_paper) == (393_984, 7_217_080)

    @pytest.mark.parametrize("stacks", [1, 2, 3])
    def test_cell_steps_per_encode(self, monkeypatch, stacks):
        counts = {"forward": 0, "backward": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        fwd = counting("forward", nn.lstm_cell_forward)
        bwd = counting("backward", nn.lstm_cell_backward)
        for module in (nn, model_module):
            monkeypatch.setattr(module, "lstm_cell_forward", fwd)
            monkeypatch.setattr(module, "lstm_cell_backward", bwd)
        model = JsccModel(tiny_config(encoder_stacks=stacks), seed=0)
        words = [4, 5, 6, 7, 8]
        T = len(words) + 1  # EOS appended
        steps = 2 * T * (stacks - 1) + T + 1
        model.encode(words)
        assert counts == {"forward": steps, "backward": 0}
        bits, enc_cache = model.encode_training(np.array([words]), np.random.default_rng(0))
        model.encode_backward(enc_cache, np.ones(bits.shape))
        assert counts == {"forward": 2 * steps, "backward": steps}


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
        obs = model.encode([4, 5, 6])[:, None]
        _, cache = model.decode_teacher_forced(obs, targets, tf_prob=1.0)
        inputs_used = cache[3]
        assert [int(v[0]) for v in inputs_used] == [SOS_ID, 4, 5, 6]

    def test_self_feeding_inputs_are_argmax(self):
        model = JsccModel(tiny_config(), seed=0)
        targets = np.array([[4, 5, 6, EOS_ID]])
        obs = model.encode([4, 5, 6])[:, None]
        rng = np.random.default_rng(0)
        _, cache = model.decode_teacher_forced(obs, targets, 0.0, rng)
        inputs_used = cache[3]
        assert int(inputs_used[0][0]) == SOS_ID
        states, _ = model.decoder_init(obs)
        for t in range(1, len(inputs_used)):
            x = model.embed.value[inputs_used[t - 1]].T
            logits, states, _ = model._decoder_step(x, states)
            assert int(inputs_used[t][0]) == int(logits.argmax(axis=0)[0])

    def test_initial_loss_near_uniform(self):
        config = tiny_config(vocab_size=50)
        model = JsccModel(config, seed=0)
        ids = [4, 5, 6, 7, 8, 9]
        targets = np.array([ids + [EOS_ID]])
        obs = model.encode(ids)[:, None]
        loss, _ = model.decode_teacher_forced(obs, targets, 1.0)
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
            obs = model.encode(sent)
            greedy = model.greedy_decode_batch(obs[:, None])[0]
            beam = model.beam_search_decode(obs, beam_width=1)
            assert beam == greedy

    def test_full_beam_matches_exhaustive(self):
        model = JsccModel(tiny_config(vocab_size=6), seed=5)
        obs = model.encode([4, 5])
        table = enumerate_sequences(model, obs, max_len=2)
        best_seq = max(table, key=lambda k: (table[k], ))
        found = model.beam_search_decode(obs, beam_width=6, max_len=2)
        assert tuple(found) == best_seq

    def test_eos_door_slam_gives_empty(self):
        model = JsccModel(tiny_config(), seed=0)
        model.b_out.value[...] = 0.0
        model.b_out.value[EOS_ID, 0] = 50.0
        obs = model.encode([4, 5, 6])
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
            obs = model.encode([4, 5, 6])
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
        obs = model.encode([4, 5, 6])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert model.beam_search_decode(obs, beam_width=1) == \
                model.greedy_decode_batch(obs[:, None])[0]
            model.beam_search_decode(obs, beam_width=3)

    def test_logp_non_increasing_along_hypothesis(self):
        model = JsccModel(tiny_config(), seed=1)
        obs = model.encode([4, 5])
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


@dataclass
class ReferenceHypothesis:
    tokens: list
    logp: float
    states: list
    last_token: int


def reference_beam_search(model, obs, beam_width, max_len):
    """The per-hypothesis beam search the batched one replaced, kept as the
    oracle: one batch-1 decoder step per live hypothesis, and every one of
    the V x w candidates sorted in Python by (-logp, token, prefix)."""
    obs = np.asarray(obs)
    if obs.ndim == 1:
        obs = obs[:, None]
    states, _ = model.decoder_init(obs)
    alive = [ReferenceHypothesis([], 0.0, states, SOS_ID)]
    finished = []
    for _ in range(max_len):
        candidates = []
        for hyp in alive:
            x = model.embed.value[[hyp.last_token]].T
            logits, new_states, _ = model._decoder_step(x, hyp.states)
            z = logits[:, 0] - logits.max()
            logprobs = z - np.log(np.exp(z).sum())
            for v in range(model.config.vocab_size):
                candidates.append((hyp.logp + float(logprobs[v]), v, hyp, new_states))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2].tokens))
        alive = []
        for logp, v, hyp, new_states in candidates[:beam_width]:
            if v == EOS_ID:
                finished.append(ReferenceHypothesis(hyp.tokens, logp, [], v))
            else:
                alive.append(ReferenceHypothesis(hyp.tokens + [v], logp, new_states, v))
        if not alive:
            break
        if finished and max(h.logp for h in finished) >= alive[0].logp:
            break
    finished.extend(alive)
    return max(finished, key=lambda h: (h.logp, -len(h.tokens))).tokens


class TestBatchedBeamOracle:
    """The batched beam returns the reference beam's tokens, tie-breaks
    included.  Widths reach past the 7-word vocabulary."""

    WIDTHS = (1, 2, 4, 9, 40)

    @staticmethod
    def _observation(model, rng):
        obs = rng.choice([-1, 1], size=model.config.bits)
        obs[rng.random(obs.size) < 0.2] = 0  # erasures
        return obs

    def _assert_agree(self, model, rng, max_len=6):
        obs = self._observation(model, rng)
        for width in self.WIDTHS:
            assert model.beam_search_decode(obs, width, max_len) == \
                reference_beam_search(model, obs, width, max_len), width

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_random_models(self, precision):
        for seed in range(30):
            model = JsccModel(tiny_config(vocab_size=7, precision=precision), seed=seed)
            self._assert_agree(model, np.random.default_rng(seed))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_all_tied_logits(self, precision):
        """Every candidate ties on logp, so token and prefix decide."""
        for seed in range(4):
            model = JsccModel(tiny_config(vocab_size=7, precision=precision), seed=seed)
            model.W_out.value[...] = 0.0
            model.b_out.value[...] = 0.0
            self._assert_agree(model, np.random.default_rng(seed))

    @pytest.mark.parametrize("eos_bias", [1.0, 2.0, 4.0, 50.0])
    def test_eos_dominated(self, eos_bias):
        for seed in range(8):
            model = JsccModel(tiny_config(vocab_size=7, precision="f32"), seed=seed)
            model.b_out.value[EOS_ID, 0] = eos_bias
            self._assert_agree(model, np.random.default_rng(seed))

    def test_longer_decodes(self):
        for seed in range(6):
            model = JsccModel(tiny_config(vocab_size=9, precision="f32"), seed=seed)
            self._assert_agree(model, np.random.default_rng(seed), max_len=12)

    def test_multi_column_observation_rejected(self):
        model = JsccModel(tiny_config(), seed=0)
        obs = np.ones((model.config.bits, 2))
        with pytest.raises(ShapeError):
            model.beam_search_decode(obs)
        with pytest.raises(ShapeError):
            model.beam_search_decode(obs[None])
        assert model.beam_search_decode(obs[:, :1]) == model.beam_search_decode(obs[:, 0])


class TestPanelDecode:
    """Beam search over narrow products split into row panels (nn.matmul)."""

    @staticmethod
    def _plain(W, x):
        return W @ x

    def test_tokens_match_plain_products(self, monkeypatch):
        config = tiny_config(vocab_size=300, embed_dim=64, encoder_hidden=32,
                             decoder_hidden=256, bits=64, beam_width=4,
                             max_decode_len=12, precision="f32")
        assert nn._panel_rows(4 * 256, 4, 256) < 4 * 256  # the beam reaches the panels
        model = JsccModel(config, seed=0)
        rng = np.random.default_rng(7)
        observations = []
        for _ in range(6):
            obs = rng.choice([-1, 1], size=config.bits).astype(np.float32)
            obs[rng.random(obs.size) < 0.05] = 0
            observations.append(obs)
        paneled = [model.beam_search_decode(obs) for obs in observations]
        monkeypatch.setattr(nn, "matmul", self._plain)
        monkeypatch.setattr(model_module, "matmul", self._plain)
        assert paneled == [model.beam_search_decode(obs) for obs in observations]

    @pytest.mark.parametrize("stacks", [1, 2, 3])
    def test_one_step_runs_every_product_through_matmul(self, monkeypatch, stacks):
        """Two products per LSTM stack plus the vocabulary projection; a bare
        `@` on the decode path would drop a call."""
        calls = []

        def counting(W, x):
            calls.append(W.shape)
            return W @ x

        model = JsccModel(tiny_config(decoder_stacks=stacks), seed=0)
        obs = model.encode([4, 5, 6])
        monkeypatch.setattr(nn, "matmul", counting)
        monkeypatch.setattr(model_module, "matmul", counting)
        model.beam_search_decode(obs, beam_width=3, max_len=1)
        assert len(calls) == 2 * stacks + 1


def reference_greedy_decode(model, obs, max_len):
    """The argmax loop greedy decoding ran before it became the width-1 beam
    search, kept as the oracle: every column stays in the batch until all
    have emitted EOS."""
    states, _ = model.decoder_init(obs)
    b = states[0][0].shape[1]
    input_ids = np.full(b, SOS_ID, dtype=np.int64)
    rows = [[] for _ in range(b)]
    done = np.zeros(b, dtype=bool)
    for _ in range(max_len):
        x = model.embed.value[input_ids].T
        logits, states, _ = model._decoder_step(x, states)
        input_ids = logits.argmax(axis=0)
        for i in range(b):
            if not done[i]:
                if input_ids[i] == EOS_ID:
                    done[i] = True
                else:
                    rows[i].append(int(input_ids[i]))
        if done.all():
            break
    return rows


def random_observations(bits, count, seed, erased=0.2):
    rng = np.random.default_rng(seed)
    obs = rng.choice([-1, 1], size=(bits, count)).astype(np.int8)
    obs[rng.random(obs.shape) < erased] = 0
    return obs


class TestBeamSearchCore:
    """One search serves both entry points: `_beam_search` over S columns
    returns what S one-column searches return, and greedy decoding is its
    width-1 case."""

    MAX_LEN = 8

    def _model(self, eos_bias, precision="f32", seed=4):
        model = JsccModel(tiny_config(vocab_size=9, precision=precision), seed=seed)
        model.b_out.value[EOS_ID, 0] = eos_bias
        return model

    def _decode_alone(self, model, obs, width):
        """(tokens, decoder steps) of a one-column search."""
        steps = []
        step = model._decoder_step
        model._decoder_step = lambda x, states: (steps.append(1), step(x, states))[1]
        try:
            return model.beam_search_decode(obs, width, self.MAX_LEN), len(steps)
        finally:
            del model._decoder_step

    @pytest.mark.parametrize("width", [1, 4])
    def test_batched_equals_per_column(self, width):
        model = self._model(0.2)
        obs = random_observations(model.config.bits, 32, seed=0)
        alone = [self._decode_alone(model, obs[:, i], width) for i in range(32)]
        steps = [n for _, n in alone]
        # the batch mixes searches that stop at step 1 with longer ones
        assert min(steps) == 1 and max(steps) >= 5
        by_steps = sorted(range(32), key=lambda i: steps[i])
        for cols in ([by_steps[-1]], [by_steps[0]], by_steps[::15], list(range(32))):
            assert model._beam_search(obs[:, cols], width, self.MAX_LEN) == \
                [alone[i][0] for i in cols], cols

    @pytest.mark.parametrize("width", [1, 4])
    def test_searches_cut_off_at_max_len(self, width):
        model = self._model(0.0)
        obs = random_observations(model.config.bits, 32, seed=0)
        alone = [self._decode_alone(model, obs[:, i], width) for i in range(32)]
        assert any(len(t) == self.MAX_LEN for t, _ in alone)
        assert model._beam_search(obs, width, self.MAX_LEN) == [t for t, _ in alone]

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_greedy_matches_the_argmax_loop(self, precision):
        for seed, eos_bias in itertools.product(range(6), (-0.2, 0.0, 0.2, 1.0)):
            model = self._model(eos_bias, precision, seed)
            obs = random_observations(model.config.bits, 16, seed)
            assert model.greedy_decode_batch(obs, self.MAX_LEN) == \
                reference_greedy_decode(model, obs, self.MAX_LEN), (seed, eos_bias)

    def test_max_len_below_one_is_domain_error(self):
        model = self._model(0.2)
        obs = random_observations(model.config.bits, 3, seed=0)
        for decode in (lambda: model.beam_search_decode(obs[:, 0], 4, 0),
                       lambda: model.greedy_decode_batch(obs, 0),
                       lambda: model._beam_search(obs, 2, -1)):
            with pytest.raises(DomainError, match="^max_decode_len must be >= 1, got -?[01]$"):
                decode()

    def test_greedy_matches_the_argmax_loop_on_tied_logits(self):
        model = self._model(0.0)
        model.W_out.value[...] = 0.0
        model.b_out.value[...] = 0.0
        obs = random_observations(model.config.bits, 5, seed=1)
        assert model.greedy_decode_batch(obs) == \
            reference_greedy_decode(model, obs, model.config.max_decode_len)

    def test_entry_points_do_not_call_each_other(self, monkeypatch):
        """The benchmark wraps both public methods and records every
        beam_search_decode result; neither may run through the other."""
        calls = []

        def counting(name):
            method = getattr(JsccModel, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper

        model = self._model(0.2)
        obs = random_observations(model.config.bits, 3, seed=2)
        monkeypatch.setattr(JsccModel, "beam_search_decode", counting("beam_search_decode"))
        model.greedy_decode_batch(obs)
        assert calls == []
        monkeypatch.undo()
        monkeypatch.setattr(JsccModel, "greedy_decode_batch", counting("greedy_decode_batch"))
        model.beam_search_decode(obs[:, 0], beam_width=1)
        assert calls == []


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
        _, dec_cache = model.decode_teacher_forced(obs, targets, 1.0)
        d_obs = model.decode_backward(dec_cache)
        survive = (obs != 0).astype(d_obs.dtype)
        masked = d_obs * survive
        assert masked[2, 0] == 0.0
        model.encode_backward(enc_cache, masked)  # must run cleanly
        assert any(np.any(p.grad != 0) for p in model.parameters())


class TestGradientMemory:
    def test_inference_allocates_no_gradients(self):
        """A model that only encodes and decodes holds no gradient buffers."""
        config = tiny_config(vocab_size=40, embed_dim=24, encoder_hidden=32,
                             decoder_hidden=48, bits=16)
        sents = [TokenizedSentence([4 + i, 5, 6 + i % 3][: 2 + i % 2], "") for i in range(6)]

        def infer():
            model = JsccModel(config, seed=0)
            codewords = model.encode_sentences(sents)
            model.beam_search_decode(codewords[0].astype(np.float64))
            return model

        infer()  # lazy imports and caches are not the model's memory
        tracemalloc.start()
        try:
            model = infer()
            inference, _ = tracemalloc.get_traced_memory()
            for p in model.parameters():
                p.grad  # first access allocates the accumulator
            training, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.value.nbytes for p in model.parameters())
        assert inference < 1.5 * param_bytes, (inference, param_bytes)
        assert training - inference >= param_bytes  # the measure sees gradient buffers
