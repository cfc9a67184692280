"""End-to-end training loop with scheduled sampling.

All randomness in epoch e flows from channel.stream(seed, e), so a
run resumed from a checkpoint continues bit-identically to the unbroken run
(provided the checkpoint carried the optimizer moments).  Runs are
bit-reproducible from (config, seed) on one numpy and BLAS build at one BLAS
thread count: BLAS splits some sums by thread count, so weight gradients
differ in their last bits between, e.g., OPENBLAS_NUM_THREADS=1 and 2.  The
package pins one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is
set, so every run that leaves both unset trains the same weights.  The
products also depend on how many columns a step has: a one-sentence encode
takes each encoder layer's input products as one product (see "Narrow runs"
in nn), where a batch takes one per step, so a sentence's encoder outputs
alone and in a batch agree within round-off, and are each reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import erase, stream
from .corpus import BatchPlan, EOS_ID, TokenizedSentence
from .errors import EmptyCorpus, NumericalError
from .metrics import wer
from .model import JsccModel
from .optim import AdamState, adam_step


def tf_schedule(epoch: int, start_epochs: int = 5, decay_epochs: int = 10,
                tf_min: float = 0.5) -> float:
    """Teacher-forcing probability: 1.0 for the first start_epochs, linear
    decay to tf_min over decay_epochs, then constant."""
    if epoch <= start_epochs:
        return 1.0
    if epoch <= start_epochs + decay_epochs:
        return 1.0 - (1.0 - tf_min) * (epoch - start_epochs) / decay_epochs
    return tf_min


@dataclass
class TrainSettings:
    lr: float = 1e-3
    clip: float = 5.0
    erasure_prob: float = 0.0
    tf_start_epochs: int = 5
    tf_decay_epochs: int = 10
    tf_min: float = 0.5
    wer_sample: int = 32
    seed: int = 0


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    train_wer: float
    tf_prob: float
    grad_norm: float  # mean pre-clip global gradient norm over the steps
    clip_rate: float  # share of steps whose norm exceeded the clip
    sentences_per_s: float  # over the epoch's wall time, WER estimate included


class Trainer:
    """Owns the optimizer state and the epoch counter."""

    def __init__(self, model: JsccModel, settings: TrainSettings,
                 adam: AdamState | None = None, start_epoch: int = 0):
        self.model = model
        self.settings = settings
        self.adam = adam if adam is not None else AdamState(
            model.parameters(), lr=settings.lr, clip=settings.clip)
        self.epoch = start_epoch
        self.last_grad_norm: float | None = None  # the latest step's pre-clip norm

    def _step(self, ids: np.ndarray, targets: np.ndarray, tf_prob: float,
              rng: np.random.Generator, epoch: int, batch_idx: int) -> float:
        """One training step; returns its loss and sets last_grad_norm."""
        model = self.model
        bits, enc_cache = model.encode_training(ids, rng)
        obs = erase(bits, self.settings.erasure_prob, rng)
        loss, dec_cache = model.decode_teacher_forced(obs, targets, tf_prob, rng)
        if not math.isfinite(loss):
            norm = "none" if self.last_grad_norm is None else f"{self.last_grad_norm:.3e}"
            raise NumericalError(
                f"non-finite loss {loss} at epoch {epoch}, batch {batch_idx}, "
                f"previous step's grad norm {norm}")
        d_obs = model.decode_backward(dec_cache)
        del dec_cache  # the decoder's activations would otherwise outlive encode_backward
        # erased bits had no effect on the loss; survivors pass the gradient
        survive = (obs != 0).astype(d_obs.dtype)
        model.encode_backward(enc_cache, d_obs * survive)
        del enc_cache  # adam_step reads only gradients, never the encoder's activations
        self.last_grad_norm = adam_step(self.adam)
        return loss

    def estimate_train_wer(self, sentences: list[TokenizedSentence], plan: BatchPlan,
                           rng: np.random.Generator) -> float:
        """Greedy-decode a deterministic sample through the channel.  The
        sample is spaced evenly over the plan's sentence order, so it spans
        every sentence length, not only the first batches' length."""
        order = [i for batch in plan.batches for i in batch]
        n = min(self.settings.wer_sample, len(order))
        if n <= 0:
            return float("nan")
        sample = [sentences[order[k * len(order) // n]] for k in range(n)]
        bits = self.model.encode_sentences(sample)
        obs = erase(bits.T, self.settings.erasure_prob, rng)
        decoded = self.model.greedy_decode_batch(obs)
        return sum(wer(s.ids, row) for s, row in zip(sample, decoded)) / n

    def run(self, sentences: list[TokenizedSentence], plan: BatchPlan, epochs: int,
            on_epoch=None) -> list[EpochLog]:
        """Train for `epochs` further epochs; returns one log row per epoch."""
        if epochs > 0 and not plan.batches:
            raise EmptyCorpus("no training sentences to train on")
        logs: list[EpochLog] = []
        s = self.settings
        for _ in range(epochs):
            start = time.perf_counter()
            self.epoch += 1
            rng = stream(self.settings.seed, self.epoch)
            tf_prob = tf_schedule(self.epoch, s.tf_start_epochs, s.tf_decay_epochs, s.tf_min)
            losses, norms = [], []
            for batch_idx, batch in enumerate(plan.batches):
                ids = np.array([sentences[i].ids for i in batch], dtype=np.int64)
                targets = np.concatenate(
                    [ids, np.full((ids.shape[0], 1), EOS_ID, dtype=np.int64)], axis=1)
                losses.append(self._step(ids, targets, tf_prob, rng, self.epoch, batch_idx))
                norms.append(self.last_grad_norm)
            train_wer = self.estimate_train_wer(sentences, plan, rng)
            clipped = sum(n > self.adam.clip > 0.0 for n in norms)
            log = EpochLog(self.epoch, sum(losses) / len(losses), train_wer, tf_prob,
                           sum(norms) / len(norms), clipped / len(norms),
                           sum(map(len, plan.batches)) / (time.perf_counter() - start))
            logs.append(log)
            if on_epoch is not None:
                on_epoch(log)
        return logs

