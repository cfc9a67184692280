"""The joint source-channel codec.

Encoder: embeddings -> stacked BLSTMs -> last-step output/cell concatenation
-> two tanh dense maps of width bits/2 -> a binarizer, stochastic in
training (encode_training) and deterministic at inference (encode).  The
decoder splits the channel observation in half, maps the halves into
per-stack initial states (the cell-state map is affine, deliberately without
tanh), and runs stacked LSTMs with a dense vocabulary projection.

The bottleneck reads only the last position, where the top layer's backward
direction has seen a single input: that position's.  So that direction runs
one cell step, on the last position from a zero state, and the rest of its
run (whose gradients would be exactly zero) is never computed.  Reading its
whole-sentence final state instead, as a `bidirectional_dynamic_rnn` final
state would, is a different model: it would change every trained result.

Gradients pass through the binarizer unchanged (straight-through: the
derivative of its expectation, which is the identity), and through the
channel only at surviving positions.

Inference has one search, `JsccModel._beam_search`, over the columns of a
(bits, S) observation matrix.  It has two entry points: `greedy_decode_batch`
(the per-epoch train WER) is its width-1 case over a batch, and
`beam_search_decode` (transmit and the sweeps) its one-sentence case.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .corpus import EOS_ID, SOS_ID, TokenizedSentence, Vocabulary, batch_by_length
from .errors import DomainError, IoError, ShapeError
from .nn import (
    LstmCellParams,
    Parameter,
    add_product,
    add_row_sums,
    blstm_layer_backward,
    blstm_layer_forward,
    dense_backward,
    dense_forward,
    glorot_fill,
    log_softmax,
    lstm_cell_backward,
    lstm_cell_forward,
    lstm_run,
    lstm_run_backward,
    matmul,
    softmax_cross_entropy,
)

CLAMP_TOL = 1e-6
# Sentences per encode_batch call at inference: the paper's training batch,
# which bounds the per-step activations one encoder pass holds.
ENCODE_BATCH = 128


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
        for name in ("vocab_size", "embed_dim", "encoder_stacks", "encoder_hidden",
                     "decoder_stacks", "decoder_hidden", "beam_width", "max_decode_len"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.precision not in ("f32", "f64"):
            raise DomainError(f"precision must be f32 or f64, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32

    def to_dict(self) -> dict:
        return asdict(self)

    def parameter_count(self) -> int:
        """The entries of JsccModel(self).parameters(), counted without building it."""
        e, he, hd, half = self.embed_dim, self.encoder_hidden, self.decoder_hidden, self.bits // 2
        # an LSTM cell from d inputs to h units holds h * (4d + 4h + 7) entries
        encoder = 2 * he * (4 * e + 4 * he + 7 + (self.encoder_stacks - 1) * (12 * he + 7))
        decoder = hd * (4 * e + 4 * hd + 7 + (self.decoder_stacks - 1) * (8 * hd + 7))
        bottleneck = 2 * half * (2 * self.encoder_stacks * he + 1)
        init_maps = 2 * self.decoder_stacks * hd * (half + 1)
        return self.vocab_size * (e + hd + 1) + encoder + bottleneck + init_maps + decoder


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


class JsccModel:
    """Trainable encoder/decoder pair with a shared embedding table."""

    def __init__(self, config: JsccConfig, seed: int | None = 0):
        """Glorot weights from one `glorot_fill` call over every weight block
        in a fixed order, drawn from seed; seed None leaves them unset, for a
        checkpoint reader that fills every parameter."""
        self.config = config
        dtype = config.dtype
        half = config.bits // 2
        enc_h, dec_h = config.encoder_hidden, config.decoder_hidden

        self.embed = Parameter(np.empty((config.vocab_size, config.embed_dim), dtype), "embed")

        self.encoder: list[tuple[LstmCellParams, LstmCellParams]] = []
        in_dim = config.embed_dim
        for j in range(config.encoder_stacks):
            fwd = LstmCellParams(in_dim, enc_h, None, dtype, f"enc{j}.fwd")
            bwd = LstmCellParams(in_dim, enc_h, None, dtype, f"enc{j}.bwd")
            self.encoder.append((fwd, bwd))
            in_dim = 2 * enc_h

        concat_dim = config.encoder_stacks * 2 * enc_h
        self.W_h = Parameter(np.empty((half, concat_dim), dtype), "bottleneck.W_h")
        self.a_h = Parameter(np.zeros((half, 1), dtype=dtype), "bottleneck.a_h")
        self.W_c = Parameter(np.empty((half, concat_dim), dtype), "bottleneck.W_c")
        self.a_c = Parameter(np.zeros((half, 1), dtype=dtype), "bottleneck.a_c")

        self.init_maps: list[tuple[Parameter, Parameter, Parameter, Parameter]] = []
        for j in range(config.decoder_stacks):
            Wh = Parameter(np.empty((dec_h, half), dtype), f"dec{j}.init.W_h")
            ah = Parameter(np.zeros((dec_h, 1), dtype=dtype), f"dec{j}.init.a_h")
            Wc = Parameter(np.empty((dec_h, half), dtype), f"dec{j}.init.W_c")
            ac = Parameter(np.zeros((dec_h, 1), dtype=dtype), f"dec{j}.init.a_c")
            self.init_maps.append((Wh, ah, Wc, ac))

        self.decoder: list[LstmCellParams] = []
        in_dim = config.embed_dim
        for j in range(config.decoder_stacks):
            self.decoder.append(LstmCellParams(in_dim, dec_h, None, dtype, f"dec{j}"))
            in_dim = dec_h

        self.W_out = Parameter(np.empty((config.vocab_size, dec_h), dtype), "out.W")
        self.b_out = Parameter(np.zeros((config.vocab_size, 1), dtype=dtype), "out.b")

        if seed is not None:
            blocks = [self.embed.value]
            for fwd, bwd in self.encoder:
                blocks += fwd.glorot_blocks() + bwd.glorot_blocks()
            blocks += [self.W_h.value, self.W_c.value]
            for Wh, _, Wc, _ in self.init_maps:
                blocks += [Wh.value, Wc.value]
            for cell in self.decoder:
                blocks += cell.glorot_blocks()
            blocks.append(self.W_out.value)
            glorot_fill(blocks, np.random.default_rng(seed))

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
        (h_star, c_star, cache).  The top layer's backward direction is one
        cell step on the last position (see the module docstring)."""
        *lower, (top_fwd, top_bwd) = self.encoder
        layer_caches = []
        lasts_h, lasts_c = [], []
        seq = xs
        for fwd, bwd in lower:
            hs, cs, cache = blstm_layer_forward(fwd, bwd, seq)
            layer_caches.append(cache)
            lasts_h.append(hs[-1])
            lasts_c.append(cs[-1])
            seq = hs
        hs_f, cs_f, caches_f = lstm_run(top_fwd, seq)
        zero = np.zeros((top_bwd.hidden_dim, seq[-1].shape[1]), dtype=top_bwd.Wx.value.dtype)
        h_b, c_b, cache_b = lstm_cell_forward(top_bwd, seq[-1], zero, zero)
        h = np.concatenate(lasts_h + [hs_f[-1], h_b], axis=0)
        c = np.concatenate(lasts_c + [cs_f[-1], c_b], axis=0)
        h_star, cache_h = dense_forward(self.W_h, self.a_h, h, "tanh")
        c_star, cache_c = dense_forward(self.W_c, self.a_c, c, "tanh")
        return h_star, c_star, (layer_caches, caches_f, cache_b, cache_h, cache_c)

    def _encoder_backward(self, cache, d_hstar, d_cstar, ids_full: np.ndarray) -> None:
        layer_caches, caches_f, cache_b, cache_h, cache_c = cache
        dh = dense_backward(cache_h, d_hstar)
        dc = dense_backward(cache_c, d_cstar)
        n = self.config.encoder_hidden
        T = len(caches_f)
        # rows of the top layer's last step: n forward, then n backward
        top = 2 * n * len(layer_caches)
        top_fwd, top_bwd = self.encoder[-1]
        zero = np.zeros_like(dh[:2 * n])
        dxs = lstm_run_backward(top_fwd, caches_f, [zero[:n]] * (T - 1) + [dh[top:top + n]],
                                [zero[:n]] * (T - 1) + [dc[top:top + n]])
        dx_b, _, _ = lstm_cell_backward(top_bwd, cache_b, dh[top + n:], dc[top + n:])
        dxs[-1] = dxs[-1] + dx_b
        for j in reversed(range(len(layer_caches))):
            fwd, bwd = self.encoder[j]
            rows = slice(2 * n * j, 2 * n * (j + 1))
            dhs = dxs[:-1] + [dxs[-1] + dh[rows]]
            dcs = [zero] * (T - 1) + [dc[rows]]
            dxs = blstm_layer_backward(fwd, bwd, layer_caches[j], dhs, dcs)
        for t in range(T):
            self.embed.accumulate(np.add.at, ids_full[:, t], dxs[t].T)

    def encode_batch(self, ids_batch) -> np.ndarray:
        """Deterministic codewords for a homogeneous batch, (bits, B) over
        {-1,+1}; training binarizes stochastically in encode_training."""
        xs, _ = self._embed_steps(ids_batch)
        h_star, c_star, _ = self._encoder_forward(xs)
        return binarize_deterministic(np.concatenate([h_star, c_star], axis=0))

    def encode(self, ids) -> np.ndarray:
        """Length-bits codeword for one sentence."""
        return self.encode_batch(np.asarray([list(ids)], dtype=np.int64))[:, 0]

    def encode_sentences(self, sents: Sequence[TokenizedSentence]) -> np.ndarray:
        """Deterministic codewords, one (bits,) row per sentence in input
        order, from one encode_batch call per group of equal-length sentences."""
        out = np.empty((len(sents), self.config.bits), dtype=np.int8)
        for rows in batch_by_length(sents, ENCODE_BATCH).batches:
            out[rows] = self.encode_batch(
                np.asarray([sents[i].ids for i in rows], dtype=np.int64)).T
        return out

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
        """dLoss/dObservation: every stack's init-map input gradient, summed."""
        grads = [np.concatenate([dense_backward(cache_h, dh0), dense_backward(cache_c, dc0)])
                 for (cache_h, cache_c), (dh0, dc0) in zip(caches, d_states)]
        return sum(grads[1:], grads[0])

    def _decoder_step(self, x: np.ndarray, states):
        """One step through the LSTM stacks; returns (logits, new_states, caches)."""
        new_states, caches = [], []
        inp = x
        for cell, (h, c) in zip(self.decoder, states):
            h, c, cache = lstm_cell_forward(cell, inp, h, c)
            new_states.append((h, c))
            caches.append(cache)
            inp = h
        logits = matmul(self.W_out.value, inp) + self.b_out.value
        return logits, new_states, caches

    def decode_teacher_forced(self, obs, targets, tf_prob: float,
                              rng: np.random.Generator | None = None):
        """Scheduled-sampling decode of a homogeneous target batch.

        targets is (B, T) and must end in EOS.  The first input is SOS; at
        step i+1 the input is the true word w_i with probability tf_prob,
        otherwise the argmax prediction.  Returns (loss, cache); loss is the
        cross-entropy summed over steps (mean over batch).
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
        dlogits_steps, step_caches, inputs_used, tops = [], [], [], []
        for t in range(T):
            x = self.embed.value[input_ids].T
            logits, states, caches = self._decoder_step(x, states)
            step_loss, dlogits = softmax_cross_entropy(logits, targets[:, t])
            loss += step_loss
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
        return loss, cache

    def decode_backward(self, cache) -> np.ndarray:
        """Backward through the decoder; returns dLoss/dObservation."""
        init_caches, step_caches, dlogits_steps, inputs_used, tops = cache
        n_stacks = len(self.decoder)
        rec_h = [None] * n_stacks
        rec_c = [None] * n_stacks
        for t in reversed(range(len(step_caches))):
            dlogits = dlogits_steps[t]
            caches = step_caches[t]
            self.W_out.accumulate(add_product, dlogits, tops[t])
            self.b_out.accumulate(add_row_sums, dlogits)
            d_from_above = self.W_out.value.T @ dlogits
            for j in reversed(range(n_stacks)):
                dh = d_from_above if rec_h[j] is None else d_from_above + rec_h[j]
                dc = np.zeros_like(dh) if rec_c[j] is None else rec_c[j]
                dx, dh_prev, dc_prev = lstm_cell_backward(self.decoder[j], caches[j], dh, dc)
                rec_h[j], rec_c[j] = dh_prev, dc_prev
                d_from_above = dx
            self.embed.accumulate(np.add.at, inputs_used[t], d_from_above.T)
        d_states = [(rec_h[j], rec_c[j]) for j in range(n_stacks)]
        return self._decoder_init_backward(init_caches, d_states)

    # ---------------- inference ----------------

    def greedy_decode_batch(self, obs: np.ndarray, max_len: int | None = None) -> list[list[int]]:
        """Argmax decoding of a (bits, B) observation batch; EOS-terminated.
        The width-1 case of the beam search."""
        if max_len is None:
            max_len = self.config.max_decode_len
        return self._beam_search(obs, 1, max_len)

    def beam_search_decode(self, obs: np.ndarray, beam_width: int | None = None,
                           max_len: int | None = None) -> list[int]:
        """Length-bounded beam search over one observation, (bits,) or
        (bits, 1); returns the finished hypothesis with the highest total log
        probability.  The one-sentence case of `_beam_search`."""
        if beam_width is None:
            beam_width = self.config.beam_width
        if max_len is None:
            max_len = self.config.max_decode_len
        if beam_width < 1:
            raise DomainError("beam width must be >= 1")
        obs = np.asarray(obs)
        if obs.ndim == 1:
            obs = obs[:, None]
        if obs.ndim != 2 or obs.shape[1] != 1:
            raise ShapeError(f"beam search decodes one observation, got shape {obs.shape}")
        return self._beam_search(obs, beam_width, max_len)[0]

    def _beam_search(self, obs: np.ndarray, beam_width: int, max_len: int) -> list[list[int]]:
        """Beam search over each column of a (bits, S) observation matrix.

        Each step runs one decoder step whose columns are the live hypotheses
        of every sentence still searching.  Each sentence ranks its own
        candidates by (-logp, token, prefix): equal totals go to the smaller
        token, then to the lexicographically smaller prefix.  A sentence stops,
        and leaves the columns, when it has no live hypothesis or its best
        finished total reaches its best live one.  Its result is the finished
        hypothesis with the highest total log probability (no length
        normalization), shorter first on a tie; hypotheses cut off at max_len
        count as finished.
        """
        if max_len < 1:
            raise DomainError(f"max_decode_len must be >= 1, got {max_len}")
        vocab = self.config.vocab_size
        states, _ = self.decoder_init(obs)
        n = states[0][0].shape[1]
        prefixes: list[list[list[int]]] = [[[]] for _ in range(n)]
        logps: list[list[float]] = [[0.0] for _ in range(n)]
        finished: list[list[tuple[list[int], float]]] = [[] for _ in range(n)]
        searching = list(range(n))
        last = [SOS_ID] * n
        live = np.zeros(n)  # each column's running total, float64 in f32 models too
        for _ in range(max_len):
            logits, new_states, _ = self._decoder_step(self.embed.value[last].T, states)
            # one contiguous row per hypothesis
            scores = live[:, None] + log_softmax(np.ascontiguousarray(logits.T), axis=1)
            # One partition finds each sentence's beam_width-th best total over
            # its rows, or each row's own when sentences hold unequal numbers
            # of hypotheses (a superset); only candidates at or above it go to
            # the exact key.
            if beam_width == 1:
                flat = scores.argmax(axis=1) + np.arange(0, scores.size, vocab)
            else:
                k = len(prefixes[searching[0]])
                blocks = scores
                if all(len(prefixes[s]) == k for s in searching):
                    blocks = scores.reshape(len(searching), k * vocab)
                kth = max(blocks.shape[1] - beam_width, 0)
                flat = np.flatnonzero(blocks >= np.partition(blocks, kth, axis=1)[:, kth, None])
            found = scores.ravel()[flat].tolist()
            rows, tokens = (a.tolist() for a in np.divmod(flat, vocab))
            keep, last, still, totals, row, start = [], [], [], [], 0, 0
            for s in searching:
                prefix = prefixes[s]
                end = bisect_left(rows, row + len(prefix), start)
                ranked = sorted(zip(found[start:end], tokens[start:end], rows[start:end]),
                                key=lambda c: (-c[0], c[1], prefix[c[2] - row]))[:beam_width]
                cols, alive, kept = [], [], []
                for total, v, r in ranked:
                    if v == EOS_ID:
                        finished[s].append((prefix[r - row], total))
                    else:
                        cols.append(r)
                        alive.append(prefix[r - row] + [v])
                        kept.append(total)
                row, start = row + len(prefix), end
                prefixes[s], logps[s] = alive, kept
                if alive and not (finished[s] and max(t for _, t in finished[s]) >= kept[0]):
                    still.append(s)
                    keep += cols
                    last += [p[-1] for p in alive]
                    totals += kept
            searching = still
            if not searching:
                break
            states = [(h[:, keep], c[:, keep]) for h, c in new_states]
            live = np.array(totals)
        results = []
        for done, prefix, logp in zip(finished, prefixes, logps):
            done.extend(zip(prefix, logp))
            results.append(max(done, key=lambda f: (f[1], -len(f[0])))[0])
        return results


def load_pretrained_embeddings(model: JsccModel, vocab: Vocabulary, path: str) -> int:
    """Overwrite embedding rows from a Glove-format UTF-8 text file.

    Each line is `token v1 ... v_d`.  Tokens absent from the file keep their
    random initialization.  Returns the number of rows loaded.  A line that
    is not UTF-8 raises IoError; a vocabulary token whose values are not d
    finite numbers in the model's precision raises DomainError.
    """
    loaded = 0
    dim = model.config.embed_dim
    try:
        fh = open(path, "rb")  # decoded line by line, to name the bad line
    except OSError as exc:
        raise IoError(f"cannot read embedding file {path}: {exc}") from exc
    with fh:
        for n, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                token = raw.split(b" ", 1)[0]
                raise IoError(f"embedding file {path} line {n}: {token!r} "
                              f"is not UTF-8: {exc}") from exc
            parts = line.rstrip("\r\n").split(" ")
            if len(parts) < 2:
                continue
            token, values = parts[0], parts[1:]
            if token not in vocab:
                continue
            where = f"embedding file {path} line {n}: {token!r}"
            if len(values) != dim:
                raise DomainError(f"{where} has {len(values)} dims, expected {dim}")
            try:
                floats = [float(v) for v in values]
            except ValueError as exc:
                raise DomainError(f"{where} has a non-numeric value: {exc}") from exc
            with np.errstate(over="ignore"):  # f32 overflow shows as inf below
                row = np.array(floats, dtype=model.config.dtype)
            if not np.all(np.isfinite(row)):
                raise DomainError(f"{where} has a value that is not finite in "
                                  f"{model.config.precision}")
            model.embed.value[vocab.id_of(token)] = row
            loaded += 1
    return loaded
