"""The three workloads, each driving textjscc's public API in one process.

A workload sets up from a seed, then runs rounds until its time is used.  A
round takes one timed sample of every stage: one training epoch for `train`,
one `run_sweep` cell per system for the sweeps.  Output checks run after the
timed region and count failed operations; an operation is one training step
or one sentence transmission.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from speed import Probe
from synth import SyntheticCorpus, length_histogram, stratified_lengths
from textjscc import fec
from textjscc.budget import encode_with_budget
from textjscc.config import DEFAULTS, RunConfig
from textjscc.corpus import (EOS_ID, BatchPlan, batch_by_length, build_vocabulary,
                             char_frequencies, filter_sentences)
from textjscc.fixed5 import fixed5_encode
from textjscc.huffman import codebook_for_pipeline, huffman_encode
from textjscc.model import JsccModel
from textjscc.sweeps import run_sweep
from textjscc.training import Trainer

SWEEP_SYSTEMS = {
    "sweep-idealized": ("deep", "gzip-batch", "huffman", "fixed5"),
    "sweep-concrete": ("gzip-batch", "huffman", "fixed5"),
}
# WER and train loss are reported over a fixed prefix of the rounds, which
# every run completes, so they repeat exactly for a seed.
MIN_ROUNDS = 2
WER_TOL = 1e-12


@dataclass
class Scale:
    """Sizes of one benchmark instance; PAPER is what the benchmark runs."""

    overrides: dict = field(default_factory=dict)
    train_lengths: tuple[int, ...] = (10, 20, 30)
    test_sentences: int = 1024
    # (sentences per cell, cells per round) for each system, sized so that
    # every system takes about the same time in a round and yields enough
    # samples for a tail percentile; gzip-batch takes one batch of
    # baseline.lz_batch sentences per round.
    cells: dict = field(default_factory=lambda: {
        "sweep-idealized": {"deep": (1, 4), "huffman": (128, 8), "fixed5": (128, 8)},
        "sweep-concrete": {"huffman": (32, 4), "fixed5": (32, 4)}})
    setup_repeats: int = 5

    def config(self, seed: int) -> RunConfig:
        values = dict(DEFAULTS)
        values.update(self.overrides)
        values["seed"] = seed
        cfg = RunConfig(values)
        cfg.validate()
        return cfg


PAPER = Scale()
TINY = Scale(
    overrides={"corpus.vocab_size": 40, "model.embed_dim": 8, "model.encoder_hidden": 8,
               "model.decoder_hidden": 16, "model.max_decode_len": 8,
               "train.batch_size": 8, "train.wer_sample": 8, "baseline.lz_batch": 4},
    train_lengths=(4, 7), test_sentences=64,
    cells={"sweep-idealized": {"deep": (1, 2), "huffman": (8, 2), "fixed5": (8, 2)},
           "sweep-concrete": {"huffman": (8, 2), "fixed5": (8, 2)}},
    setup_repeats=2)


@dataclass
class Sample:
    stage: str
    seconds: float
    sentences: int
    traced: bool
    start: float
    end: float


@dataclass
class Outcome:
    """What the rounds produced, for the checks and the metrics."""

    probe: Probe
    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # outputs recorded since the last take(), for the checks
    hypotheses: list[list[int]] = field(default_factory=list)
    transmissions: list[tuple[np.ndarray, np.ndarray | None]] = field(default_factory=list)
    # inside an untraced sample the FEC wrappers probe too; the probe's time
    # since the sample began is taken out of it
    probing_inside: bool = False
    probe_spent_at_begin: float = 0.0

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.errors.append(message)

    def begin(self, traced: bool) -> float:
        self.probe.tick()
        self.probing_inside = not traced
        self.probe_spent_at_begin = self.probe.spent
        return time.perf_counter()

    def end(self, stage: str, start: float, sentences: int, traced: bool) -> None:
        end = time.perf_counter()
        self.probing_inside = False
        seconds = end - start - (self.probe.spent - self.probe_spent_at_begin)
        self.samples.append(Sample(stage, seconds, sentences, traced, start, end))
        self.probe.tick()

    def take(self) -> tuple[list, list]:
        taken = self.hypotheses, self.transmissions
        self.hypotheses, self.transmissions = [], []
        return taken


@dataclass
class Cell:
    """One run_sweep call and the outputs it produced."""

    start: int  # index of its first test sentence
    sents: list
    wer: float
    hypotheses: list
    transmissions: list


def install_capture(patcher, out: Outcome) -> None:
    """Record beam hypotheses and FEC transmissions into `out`, and probe
    the host's speed before FEC calls inside untraced samples.

    Installed on both the untraced and the traced run, so both pay its small
    cost; the checks themselves run after the timed region."""

    def probe_inside():
        if out.probing_inside:
            out.probe.tick()

    def plan(fn):
        def plan_budget(*args, **kwargs):
            probe_inside()
            return fn(*args, **kwargs)
        return plan_budget

    def beam(fn):
        def beam_search_decode(*args, **kwargs):
            hyp = fn(*args, **kwargs)
            out.hypotheses.append(hyp)
            return hyp
        return beam_search_decode

    def transmit(fn):
        def transmit_baseline(bits, *args, **kwargs):
            probe_inside()
            try:
                got = fn(bits, *args, **kwargs)
            except fec.DecodeFailure:
                out.transmissions.append((bits, None))
                raise
            out.transmissions.append((bits, got))
            return got
        return transmit_baseline

    patcher.replace("model", "JsccModel.beam_search_decode", beam)
    patcher.replace("fec", "transmit_baseline", transmit)
    patcher.replace("fec", "plan_budget", plan)


def _corpus(cfg: RunConfig, scale: Scale, seed: int):
    corpus = SyntheticCorpus.generate(cfg["corpus.vocab_size"] - 4, seed)
    lengths = [n for n in scale.train_lengths for _ in range(cfg["train.batch_size"])]
    train_text = corpus.sentences(lengths)
    test_text = corpus.sentences(stratified_lengths(
        scale.test_sentences, cfg["corpus.min_len"], cfg["corpus.max_len"],
        cfg["baseline.lz_batch"], corpus.rng))
    vocab = build_vocabulary(train_text + [corpus.vocabulary_text()], cfg["corpus.vocab_size"])
    keep = dict(min_len=cfg["corpus.min_len"], max_len=cfg["corpus.max_len"],
                max_unk_frac=cfg["corpus.max_unk_frac"])
    return (vocab, train_text, filter_sentences(train_text, vocab, **keep),
            test_text, filter_sentences(test_text, vocab, **keep))


class TrainWorkload:
    probe_kind = "blas"

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.stages = ("train",)

    def setup(self) -> None:
        cfg = self.scale.config(self.seed)
        vocab, train_text, sentences, _, _ = _corpus(cfg, self.scale, self.seed)
        plan = batch_by_length(sentences, cfg["train.batch_size"])
        if len(plan.batches) != len(self.scale.train_lengths) or any(
                len(b) != cfg["train.batch_size"] for b in plan.batches):
            raise RuntimeError("synthetic training set does not fill its batches")
        # The model comes from the config's fixed seed; the workload seed
        # drives the corpus and the training streams.
        model = JsccModel(cfg.jscc_config(len(vocab)), seed=DEFAULTS["seed"])
        settings = cfg.train_settings()
        # Start past the teacher-forcing decay, where most of a real run is.
        start = settings.tf_start_epochs + settings.tf_decay_epochs
        self.trainer = Trainer(model, settings, start_epoch=start)
        self.sentences, self.plan = sentences, plan
        self.histogram = length_histogram(train_text)
        self.losses: list[float] = []

    def warmup(self) -> None:
        """An epoch of the longest batch alone allocates the largest buffers
        before timing starts."""
        longest = BatchPlan([self.plan.batches[-1]], self.plan.batch_size)
        self.trainer.run(self.sentences, longest, 1)

    def round(self, out: Outcome, traced: bool) -> None:
        steps = len(self.plan.batches)
        out.attempted += steps
        start = out.begin(traced)
        try:
            log = self.trainer.run(self.sentences, self.plan, 1)[0]
        except Exception:  # a failed step is counted, the run goes on
            out.fail(steps, traceback.format_exc())
            return
        out.end("train", start, len(self.sentences), traced)
        self.losses.append(log.mean_loss)

    def check(self, out: Outcome) -> None:
        losses = self.losses
        if not all(math.isfinite(x) for x in losses):
            out.fail(len(self.plan.batches), f"non-finite epoch loss in {losses}")
        elif len(losses) >= 2 and not losses[-1] < losses[0]:
            out.fail(len(self.plan.batches),
                     f"loss did not fall: first {losses[0]}, last {losses[-1]}")

    def report(self) -> dict:
        loss = self.losses[MIN_ROUNDS - 1] if len(self.losses) >= MIN_ROUNDS else float("nan")
        return {"train_loss": (loss, "nats")}

    def decoder_stacks(self) -> int:
        return self.trainer.model.config.decoder_stacks


class SweepWorkload:
    probe_kind = "python"

    def __init__(self, name: str, scale: Scale, seed: int):
        self.name, self.scale, self.seed = name, scale, seed
        self.stages = SWEEP_SYSTEMS[name]
        self.fec_mode = name.split("-")[1]

    def setup(self) -> None:
        cfg = self.scale.config(self.seed)
        vocab, train_text, _, test_text, tests = _corpus(cfg, self.scale, self.seed)
        self.cfg, self.vocab, self.tests = cfg, vocab, tests
        self.codebook = codebook_for_pipeline(char_frequencies(train_text))
        self.models = {}
        if "deep" in self.stages:
            model = JsccModel(cfg.jscc_config(len(vocab)), seed=DEFAULTS["seed"])
            self.models[cfg["model.bits"]] = model
        self.cell_shape = dict(self.scale.cells[self.name],
                               **{"gzip-batch": (cfg["baseline.lz_batch"], 1)})
        self.cursor = {s: 0 for s in self.stages}
        self.cells: dict[str, list[Cell]] = {s: [] for s in self.stages}
        self.histogram = length_histogram(test_text)

    def _spec(self, system: str, cell_no: int):
        spec = self.cfg.sweep_spec()
        spec.values = [self.cfg["model.bits"]]
        spec.systems = [system]
        spec.trials = 1
        spec.fec_mode = self.fec_mode
        # every cell draws its own channel streams
        spec.seed = int(np.random.SeedSequence(
            [self.seed, self.stages.index(system), cell_no]).generate_state(1)[0])
        return spec

    def _next_chunk(self, system: str) -> tuple[int, list]:
        n, start = self.cell_shape[system][0], self.cursor[system]
        if start + n > len(self.tests):
            start = 0
        self.cursor[system] = start + n
        return start, self.tests[start:start + n]

    def _cell(self, system: str, sents: list):
        spec = self._spec(system, len(self.cells[system]))
        return run_sweep(spec, sents, models=self.models, codebook=self.codebook)[0]

    def warmup(self) -> None:
        for system in self.stages:
            self._cell(system, self.tests[:2])

    def round(self, out: Outcome, traced: bool) -> None:
        for system in self.stages:
            for _ in range(self.cell_shape[system][1]):
                start_idx, sents = self._next_chunk(system)
                out.attempted += len(sents)
                start = out.begin(traced)
                try:
                    result = self._cell(system, sents)
                except Exception:
                    out.take()
                    out.fail(len(sents), f"{system}: {traceback.format_exc()}")
                    continue
                out.end(system, start, len(sents), traced)
                self.cells[system].append(Cell(start_idx, sents, result.mean_wer, *out.take()))

    def check(self, out: Outcome) -> None:
        """A cell fails when any of its outputs fails a check; its sentences
        then count as failed operations, once."""
        laws: dict[tuple[str, int], float] = {}  # cells repeat as the test set wraps
        for system, cells in self.cells.items():
            for cell in cells:
                problem = self._problem(system, cell, laws)
                if problem:
                    out.fail(len(cell.sents), f"{system}: {problem}")

    def _problem(self, system: str, cell: Cell, laws: dict) -> str | None:
        max_len = self.cfg["model.max_decode_len"]
        for hyp in cell.hypotheses:
            if (len(hyp) > max_len or EOS_ID in hyp
                    or any(not 0 <= t < len(self.vocab) for t in hyp)):
                return f"invalid beam hypothesis {hyp}"
        for sent, got in cell.transmissions:
            # a DecodeFailure (got is None) is a modeled channel outcome
            if got is not None and not np.array_equal(np.asarray(sent, dtype=np.uint8), got):
                return "a transmission did not return its payload bit for bit"
        if self.fec_mode == "idealized" and system in ("huffman", "fixed5"):
            key = (system, cell.start)
            if key not in laws:
                laws[key] = self._truncation_law(system, cell.sents)
            if abs(cell.wer - laws[key]) > WER_TOL:
                return f"WER {cell.wer} != truncation law {laws[key]}"
        return None

    def _truncation_law(self, system: str, sents: list) -> float:
        """Under idealized FEC a per-sentence baseline's WER is words dropped
        over sentence length, computed here straight from the budget rule."""
        bits, p_d = self.cfg["model.bits"], self.cfg["channel.erasure_prob"]
        source_bits = fec.plan_budget(bits, p_d, "idealized").source_bits
        if system == "huffman":
            encode = lambda text: huffman_encode(text, self.codebook)
        else:
            encode = fixed5_encode
        laws = []
        for s in sents:
            words = s.words()
            be = encode_with_budget(words, encode, source_bits)
            laws.append(be.words_dropped / len(words) if be.fits else 1.0)
        return sum(laws) / len(laws)

    def report(self) -> dict:
        rows = {}
        for system in self.stages:
            if system == "deep":
                continue  # untrained weights: its WER says nothing
            cells = self.cells[system][:MIN_ROUNDS * self.cell_shape[system][1]]
            n = sum(len(c.sents) for c in cells)
            wer = sum(c.wer * len(c.sents) for c in cells) / n if n else float("nan")
            rows["wer_" + system.replace("-", "_")] = (wer, "ratio")
        return rows

    def decoder_stacks(self) -> int:
        return self.cfg["model.decoder_stacks"]


def make(name: str, scale: Scale, seed: int):
    if name == "train":
        return TrainWorkload(scale, seed)
    return SweepWorkload(name, scale, seed)

