"""The joint source-channel codec.

Encoder: embeddings -> stacked BLSTMs -> last-step output/cell concatenation
-> two tanh dense maps of width bits/2 -> stochastic binarizer.  The decoder
splits the channel observation in half, maps the halves into per-stack
initial states (the cell-state map is affine, deliberately without tanh), and
runs stacked LSTMs with a dense vocabulary projection.

Gradients pass through the binarizer unchanged (straight-through: the
derivative of its expectation, which is the identity), and through the
channel only at surviving positions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .corpus import EOS_ID, SOS_ID, Vocabulary
from .errors import DomainError, IoError, ShapeError
from .nn import (
    LstmCellParams,
    Parameter,
    blstm_layer_backward,
    blstm_layer_forward,
    dense_backward,
    dense_forward,
    glorot,
    lstm_cell_backward,
    lstm_cell_forward,
    softmax_cross_entropy,
)

CLAMP_TOL = 1e-6


@dataclass
class JsccConfig:
    vocab_size: int
    embed_dim: int = 200
    encoder_stacks: int = 2
    encoder_hidden: int = 256
    decoder_stacks: int = 2
    decoder_hidden: int = 512
    bits: int = 400
    beam_width: int = 4
    max_decode_len: int = 32
    precision: str = "f32"

    def __post_init__(self):
        if self.bits < 2 or self.bits % 2 != 0:
            raise DomainError(f"bit budget must be even and >= 2, got {self.bits}")
        dims = (self.vocab_size, self.embed_dim, self.encoder_stacks, self.encoder_hidden,
                self.decoder_stacks, self.decoder_hidden, self.beam_width)
        if any(d < 1 for d in dims):
            raise DomainError("all model dimensions must be >= 1")
        if self.max_decode_len < 1:
            raise DomainError("max_decode_len must be >= 1")
        if self.precision not in ("f32", "f64"):
            raise DomainError(f"precision must be f32 or f64, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)


def binarize_stochastic(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Map x in [-1,1] to +1 with probability (1+x)/2, else -1; E[out] = x."""
    x = np.asarray(x)
    if np.any(np.abs(x) > 1.0 + CLAMP_TOL):
        raise DomainError("binarizer input outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    draws = rng.random(x.shape)
    return np.where(draws < (1.0 + x) / 2.0, 1, -1).astype(np.int8)


def binarize_deterministic(x: np.ndarray) -> np.ndarray:
    """Test-time rule 2*u(x) - 1 with u(0) pinned to 1, so 0 -> +1."""
    return np.where(np.asarray(x) >= 0.0, 1, -1).astype(np.int8)


@dataclass
class BeamHypothesis:
    tokens: list[int]
    logp: float
    states: list[tuple[np.ndarray, np.ndarray]]
    last_token: int
    finished: bool = False


class JsccModel:
    """Trainable encoder/decoder pair with a shared embedding table."""

    def __init__(self, config: JsccConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        dtype = config.dtype
        half = config.bits // 2
        enc_h, dec_h = config.encoder_hidden, config.decoder_hidden

        self.embed = Parameter(
            glorot((config.vocab_size, config.embed_dim), rng, dtype), "embed")

        self.encoder: list[tuple[LstmCellParams, LstmCellParams]] = []
        in_dim = config.embed_dim
        for j in range(config.encoder_stacks):
            fwd = LstmCellParams(in_dim, enc_h, rng, dtype, f"enc{j}.fwd")
            bwd = LstmCellParams(in_dim, enc_h, rng, dtype, f"enc{j}.bwd")
            self.encoder.append((fwd, bwd))
            in_dim = 2 * enc_h

        concat_dim = config.encoder_stacks * 2 * enc_h
        self.W_h = Parameter(glorot((half, concat_dim), rng, dtype), "bottleneck.W_h")
        self.a_h = Parameter(np.zeros((half, 1), dtype=dtype), "bottleneck.a_h")
        self.W_c = Parameter(glorot((half, concat_dim), rng, dtype), "bottleneck.W_c")
        self.a_c = Parameter(np.zeros((half, 1), dtype=dtype), "bottleneck.a_c")

        self.init_maps: list[tuple[Parameter, Parameter, Parameter, Parameter]] = []
        for j in range(config.decoder_stacks):
            Wh = Parameter(glorot((dec_h, half), rng, dtype), f"dec{j}.init.W_h")
            ah = Parameter(np.zeros((dec_h, 1), dtype=dtype), f"dec{j}.init.a_h")
            Wc = Parameter(glorot((dec_h, half), rng, dtype), f"dec{j}.init.W_c")
            ac = Parameter(np.zeros((dec_h, 1), dtype=dtype), f"dec{j}.init.a_c")
            self.init_maps.append((Wh, ah, Wc, ac))

        self.decoder: list[LstmCellParams] = []
        in_dim = config.embed_dim
        for j in range(config.decoder_stacks):
            self.decoder.append(LstmCellParams(in_dim, dec_h, rng, dtype, f"dec{j}"))
            in_dim = dec_h

        self.W_out = Parameter(glorot((config.vocab_size, dec_h), rng, dtype), "out.W")
        self.b_out = Parameter(np.zeros((config.vocab_size, 1), dtype=dtype), "out.b")

        self._params: list[Parameter] = [self.embed]
        for fwd, bwd in self.encoder:
            self._params += fwd.parameters() + bwd.parameters()
        self._params += [self.W_h, self.a_h, self.W_c, self.a_c]
        for maps in self.init_maps:
            self._params += list(maps)
        for cell in self.decoder:
            self._params += cell.parameters()
        self._params += [self.W_out, self.b_out]

    def parameters(self) -> list[Parameter]:
        """Declaration-order parameter list (checkpoint blob order)."""
        return self._params

    # ---------------- encoder ----------------

    def _embed_steps(self, ids_batch: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Per-step (embed_dim, B) inputs for a homogeneous id batch, EOS appended."""
        ids_batch = np.asarray(ids_batch, dtype=np.int64)
        if ids_batch.ndim != 2:
            raise ShapeError("expected a (batch, length) id array")
        if np.any(ids_batch < 0) or np.any(ids_batch >= self.config.vocab_size):
            raise IndexError("token id outside vocabulary")
        b = ids_batch.shape[0]
        full = np.concatenate(
            [ids_batch, np.full((b, 1), EOS_ID, dtype=np.int64)], axis=1)
        steps = [self.embed.value[full[:, t]].T for t in range(full.shape[1])]
        return steps, full

    def _encoder_forward(self, xs: list[np.ndarray]):
        """Stacked BLSTMs then the two tanh bottleneck maps; returns
        (h_star, c_star, cache)."""
        stack_caches = []
        lasts_h, lasts_c = [], []
        seq = xs
        for fwd, bwd in self.encoder:
            hs, cs, cache = blstm_layer_forward(fwd, bwd, seq)
            stack_caches.append(cache)
            lasts_h.append(hs[-1])
            lasts_c.append(cs[-1])
            seq = hs
        h = np.concatenate(lasts_h, axis=0)
        c = np.concatenate(lasts_c, axis=0)
        h_star, cache_h = dense_forward(self.W_h, self.a_h, h, "tanh")
        c_star, cache_c = dense_forward(self.W_c, self.a_c, c, "tanh")
        return h_star, c_star, (stack_caches, cache_h, cache_c, len(xs))

    def _encoder_backward(self, cache, d_hstar, d_cstar, ids_full: np.ndarray) -> None:
        stack_caches, cache_h, cache_c, T = cache
        dh_concat = dense_backward(cache_h, d_hstar)
        dc_concat = dense_backward(cache_c, d_cstar)
        width = 2 * self.config.encoder_hidden
        dh_last = [dh_concat[j * width:(j + 1) * width] for j in range(len(self.encoder))]
        dc_last = [dc_concat[j * width:(j + 1) * width] for j in range(len(self.encoder))]

        d_from_above: list[np.ndarray] | None = None
        for j in reversed(range(len(self.encoder))):
            fwd, bwd = self.encoder[j]
            zeros_h = np.zeros_like(dh_last[j])
            dhs = [zeros_h.copy() for _ in range(T)]
            dcs = [zeros_h.copy() for _ in range(T)]
            dhs[-1] += dh_last[j]
            dcs[-1] += dc_last[j]
            if d_from_above is not None:
                for t in range(T):
                    dhs[t] += d_from_above[t]
            d_from_above = blstm_layer_backward(fwd, bwd, stack_caches[j], dhs, dcs)
        for t in range(T):
            np.add.at(self.embed.grad, ids_full[:, t], d_from_above[t].T)

    def encode_batch(self, ids_batch, mode: str = "deterministic",
                     rng: np.random.Generator | None = None):
        """Codewords for a homogeneous batch; (bits, B) over {-1,+1}, or real
        values in expectation mode."""
        xs, _ = self._embed_steps(ids_batch)
        h_star, c_star, _ = self._encoder_forward(xs)
        real = np.concatenate([h_star, c_star], axis=0)
        if mode == "expectation":
            return real
        if mode == "deterministic":
            return binarize_deterministic(real)
        if mode == "stochastic":
            if rng is None:
                raise DomainError("stochastic encoding needs an rng")
            return binarize_stochastic(real, rng)
        raise DomainError(f"unknown encode mode {mode!r}")

    def encode(self, ids, mode: str = "deterministic",
               rng: np.random.Generator | None = None) -> np.ndarray:
        """Length-bits codeword for one sentence."""
        out = self.encode_batch(np.asarray([list(ids)], dtype=np.int64), mode, rng)
        return out[:, 0]

    def encode_training(self, ids_batch, rng: np.random.Generator):
        """Stochastically binarized codewords plus the cache for backward."""
        xs, ids_full = self._embed_steps(ids_batch)
        h_star, c_star, cache = self._encoder_forward(xs)
        bits = binarize_stochastic(np.concatenate([h_star, c_star], axis=0), rng)
        return bits, (cache, ids_full)

    def encode_backward(self, enc_cache, d_bits: np.ndarray) -> None:
        """Straight-through into the bottleneck and down the encoder."""
        cache, ids_full = enc_cache
        half = self.config.bits // 2
        self._encoder_backward(cache, d_bits[:half], d_bits[half:], ids_full)

    # ---------------- decoder ----------------

    def decoder_init(self, obs: np.ndarray):
        """Initial (h0, c0) per stack from the split observation.

        h0 is tanh-squashed; c0 is a plain affine map, so its entries are not
        confined to (-1, 1).
        """
        obs = np.asarray(obs, dtype=self.config.dtype)
        if obs.ndim == 1:
            obs = obs[:, None]
        if obs.shape[0] != self.config.bits:
            raise ShapeError(f"observation has {obs.shape[0]} rows, expected {self.config.bits}")
        half = self.config.bits // 2
        h_part, c_part = obs[:half], obs[half:]
        states, caches = [], []
        for Wh, ah, Wc, ac in self.init_maps:
            h0, cache_h = dense_forward(Wh, ah, h_part, "tanh")
            c0, cache_c = dense_forward(Wc, ac, c_part, "identity")
            states.append((h0, c0))
            caches.append((cache_h, cache_c))
        return states, caches

    def _decoder_init_backward(self, caches, d_states) -> np.ndarray:
        half = self.config.bits // 2
        d_h = None
        d_c = None
        for (cache_h, cache_c), (dh0, dc0) in zip(caches, d_states):
            gh = dense_backward(cache_h, dh0)
            gc = dense_backward(cache_c, dc0)
            d_h = gh if d_h is None else d_h + gh
            d_c = gc if d_c is None else d_c + gc
        out = np.zeros((self.config.bits, d_h.shape[1]), dtype=d_h.dtype)
        out[:half] = d_h
        out[half:] = d_c
        return out

    def _decoder_step(self, x: np.ndarray, states):
        """One step through the LSTM stacks; returns (logits, new_states, caches)."""
        new_states, caches = [], []
        inp = x
        for cell, (h, c) in zip(self.decoder, states):
            h, c, cache = lstm_cell_forward(cell, inp, h, c)
            new_states.append((h, c))
            caches.append(cache)
            inp = h
        logits = self.W_out.value @ inp + self.b_out.value
        return logits, new_states, caches

    def decode_teacher_forced(self, obs, targets, tf_prob: float,
                              rng: np.random.Generator | None = None):
        """Scheduled-sampling decode of a homogeneous target batch.

        targets is (B, T) and must end in EOS.  The first input is SOS; at
        step i+1 the input is the true word w_i with probability tf_prob,
        otherwise the argmax prediction.  Returns (loss, per-step logits,
        cache); loss is the cross-entropy summed over steps (mean over batch).
        """
        if not 0.0 <= tf_prob <= 1.0:
            raise DomainError("tf_prob must lie in [0, 1]")
        targets = np.asarray(targets, dtype=np.int64)
        if targets.ndim != 2:
            raise ShapeError("targets must be (batch, steps)")
        if np.any(targets[:, -1] != EOS_ID):
            raise DomainError("target sequences must end with EOS")
        if tf_prob < 1.0 and rng is None:
            raise DomainError("scheduled sampling below 1.0 needs an rng")
        b, T = targets.shape

        states, init_caches = self.decoder_init(obs)
        input_ids = np.full(b, SOS_ID, dtype=np.int64)
        loss = 0.0
        logits_steps, dlogits_steps, step_caches, inputs_used, tops = [], [], [], [], []
        for t in range(T):
            x = self.embed.value[input_ids].T
            logits, states, caches = self._decoder_step(x, states)
            step_loss, dlogits = softmax_cross_entropy(logits, targets[:, t])
            loss += step_loss
            logits_steps.append(logits)
            dlogits_steps.append(dlogits)
            step_caches.append(caches)
            inputs_used.append(input_ids)
            tops.append(states[-1][0])
            if t + 1 < T:
                predicted = logits.argmax(axis=0)
                if tf_prob >= 1.0:
                    input_ids = targets[:, t].copy()
                else:
                    coin = rng.random(b) < tf_prob
                    input_ids = np.where(coin, targets[:, t], predicted)
        cache = (init_caches, step_caches, dlogits_steps, inputs_used, tops)
        return loss, logits_steps, cache

    def decode_backward(self, cache) -> np.ndarray:
        """Backward through the decoder; returns dLoss/dObservation."""
        init_caches, step_caches, dlogits_steps, inputs_used, tops = cache
        n_stacks = len(self.decoder)
        rec_h = [None] * n_stacks
        rec_c = [None] * n_stacks
        for t in reversed(range(len(step_caches))):
            dlogits = dlogits_steps[t]
            caches = step_caches[t]
            self.W_out.grad += dlogits @ tops[t].T
            self.b_out.grad += dlogits.sum(axis=1, keepdims=True)
            d_from_above = self.W_out.value.T @ dlogits
            for j in reversed(range(n_stacks)):
                dh = d_from_above if rec_h[j] is None else d_from_above + rec_h[j]
                dc = np.zeros_like(dh) if rec_c[j] is None else rec_c[j]
                dx, dh_prev, dc_prev = lstm_cell_backward(self.decoder[j], caches[j], dh, dc)
                rec_h[j], rec_c[j] = dh_prev, dc_prev
                d_from_above = dx
            np.add.at(self.embed.grad, inputs_used[t], d_from_above.T)
        d_states = [(rec_h[j], rec_c[j]) for j in range(n_stacks)]
        return self._decoder_init_backward(init_caches, d_states)

    # ---------------- inference ----------------

    def greedy_decode_batch(self, obs: np.ndarray, max_len: int | None = None) -> list[list[int]]:
        """Argmax decoding of a (bits, B) observation batch; EOS-terminated."""
        if max_len is None:
            max_len = self.config.max_decode_len
        states, _ = self.decoder_init(obs)
        b = states[0][0].shape[1]
        input_ids = np.full(b, SOS_ID, dtype=np.int64)
        rows = [[] for _ in range(b)]
        done = np.zeros(b, dtype=bool)
        for _ in range(max_len):
            x = self.embed.value[input_ids].T
            logits, states, _ = self._decoder_step(x, states)
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

    def beam_search_decode(self, obs: np.ndarray, beam_width: int | None = None,
                           max_len: int | None = None) -> list[int]:
        """Length-bounded beam search; returns the finished hypothesis with
        the highest total log probability (no length normalization)."""
        if beam_width is None:
            beam_width = self.config.beam_width
        if max_len is None:
            max_len = self.config.max_decode_len
        if beam_width < 1:
            raise DomainError("beam width must be >= 1")
        obs = np.asarray(obs)
        if obs.ndim == 1:
            obs = obs[:, None]
        states, _ = self.decoder_init(obs)
        alive = [BeamHypothesis([], 0.0, states, SOS_ID)]
        finished: list[BeamHypothesis] = []
        for _ in range(max_len):
            candidates = []
            for hyp in alive:
                x = self.embed.value[[hyp.last_token]].T
                logits, new_states, _ = self._decoder_step(x, hyp.states)
                # log-softmax without the softmax, so underflow stays finite
                z = logits[:, 0] - logits.max()
                logprobs = z - np.log(np.exp(z).sum())
                for v in range(self.config.vocab_size):
                    candidates.append((hyp.logp + float(logprobs[v]), v, hyp, new_states))
            candidates.sort(key=lambda c: (-c[0], c[1], c[2].tokens))
            alive = []
            for logp, v, hyp, new_states in candidates[:beam_width]:
                if v == EOS_ID:
                    finished.append(BeamHypothesis(hyp.tokens, logp, [], v, True))
                else:
                    alive.append(BeamHypothesis(hyp.tokens + [v], logp, new_states, v))
            if not alive:
                break
            if finished and max(h.logp for h in finished) >= alive[0].logp:
                break
        finished.extend(alive)  # hypotheses cut off at max_len count as finished
        best = max(finished, key=lambda h: (h.logp, -len(h.tokens)))
        return best.tokens


def load_pretrained_embeddings(model: JsccModel, vocab: Vocabulary, path: str) -> int:
    """Overwrite embedding rows from a Glove-format text file.

    Each line is `token v1 ... v_d`.  Tokens absent from the file keep their
    random initialization.  Returns the number of rows loaded.
    """
    loaded = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read embedding file {path}: {exc}") from exc
    with fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if token not in vocab:
                continue
            if len(values) != model.config.embed_dim:
                raise DomainError(
                    f"embedding for {token!r} has {len(values)} dims, "
                    f"expected {model.config.embed_dim}")
            row = np.array([float(v) for v in values], dtype=model.config.dtype)
            model.embed.value[vocab.id_of(token)] = row
            loaded += 1
    return loaded
