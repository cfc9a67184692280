"""Experiment sweeps: WER versus bit budget, erasure rate, or sentence length.

Systems under test: the trained deep codec and three separate
source/channel-coding baselines (batched LZSS, character Huffman, fixed
5-bit), all sharing the same erasure channel and per-sentence bit budget.
The deep codec is erased at the cell's p_d; a baseline crosses the channel
at the p_d its FecPlan carries, the one plan_budget sized its parity for.
plan_group, encode_group and transmit_group are the one place that says how a
baseline plans, encodes, spends its budget and decodes; run_sweep and the
`transmit` command both go through them.  A group of n sentences is one frame
under the plan for n times the budget; it is encoded within n times the
one-sentence plan's source bits, but never past the frame plan's.  Results
are deterministic functions of (spec, seed): every trial and every
transmission draws from its own channel.stream.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from typing import Sequence

import numpy as np

from .budget import BudgetedEncoding, encode_batch_with_budget, encode_with_budget
from .channel import erase, stream
from .corpus import TokenizedSentence
from .errors import ConfigError, DecodeFailure, DomainError
from .fec import FecPlan, plan_budget, transmit_baseline
from .fileio import write_csv, write_lines
from .fixed5 import fixed5_decode, fixed5_encode
from .huffman import HuffmanCodebook, huffman_decode, huffman_encode
from .lzss import lz_decompress
from .metrics import wer
from .model import JsccModel

AXES = ("bits_per_sentence", "erasure_rate", "sentence_length")
SYSTEMS = ("deep", "gzip-batch", "huffman", "fixed5")


@dataclass
class SweepSpec:
    axis: str
    values: list
    systems: list[str]
    trials: int
    seed: int
    bits_per_sentence: int = 400
    erasure_rate: float = 0.05
    fec_mode: str = "idealized"
    lz_batch: int = 32
    beam_width: int = 4
    max_decode_len: int = 32

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ConfigError("axis values must be nonempty")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in self.values):
            raise ConfigError(f"axis values must be numbers, got {self.values!r}")
        if self.axis == "erasure_rate":
            if not all(0 <= v < 1 for v in self.values):
                raise ConfigError(f"erasure_rate values must lie in [0, 1), got {self.values!r}")
        elif not all(isinstance(v, numbers.Integral) and v >= 1 for v in self.values):
            raise ConfigError(f"{self.axis} values must be integers >= 1, got {self.values!r}")
        if any(b >= a for a, b in zip(self.values[1:], self.values)):
            raise ConfigError("axis values must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.fec_mode not in ("idealized", "concrete"):
            raise ConfigError(f"baseline.fec_mode must be idealized or concrete, "
                              f"got {self.fec_mode!r}")
        if self.lz_batch < 1:
            raise ConfigError(f"lz_batch must be >= 1, got {self.lz_batch}")
        unknown = [s for s in self.systems if s not in SYSTEMS]
        if unknown:
            raise ConfigError(f"unknown systems: {unknown}")


@dataclass
class SweepResult:
    axis_value: float
    system: str
    mean_wer: float
    stderr: float
    trials: int
    seed: int


def _eval_deep(model: JsccModel, sents: Sequence[TokenizedSentence], p_d: float,
               spec: SweepSpec, axis_idx: int, sys_idx: int) -> list[float]:
    codewords = model.encode_sentences(sents)
    trial_means = []
    for trial in range(spec.trials):
        wers = []
        for si, (sent, cw) in enumerate(zip(sents, codewords)):
            obs = erase(cw, p_d, stream(spec.seed, axis_idx, sys_idx, trial, si))
            hyp = model.beam_search_decode(obs, spec.beam_width, spec.max_decode_len)
            wers.append(wer(sent.ids, hyp))
        trial_means.append(sum(wers) / len(wers))
    return trial_means


def encode_group(system: str, codebook: HuffmanCodebook | None,
                 group: Sequence[Sequence[str]], source_bits: int) -> BudgetedEncoding:
    """Source-encode a group of sentences under a per-sentence bit budget.

    huffman and fixed5 take one sentence per group and drop its trailing
    words until it fits; gzip-batch compresses the group as one LZSS stream
    and truncates its longest members until the stream fits source_bits per
    sentence.  words_dropped is the total over the group.
    """
    if system == "gzip-batch":
        bbe = encode_batch_with_budget(group, source_bits)
        return BudgetedEncoding(bbe.bits, sum(bbe.words_dropped), bbe.fits)
    if system == "huffman":
        return encode_with_budget(group[0], lambda text: huffman_encode(text, codebook),
                                  source_bits)
    if system == "fixed5":
        return encode_with_budget(group[0], fixed5_encode, source_bits)
    raise ConfigError(f"unknown baseline system {system!r}")


def transmit_group(system: str, codebook: HuffmanCodebook | None, bits: np.ndarray,
                   plan: FecPlan, rng: np.random.Generator) -> list[list[str]]:
    """Carry an encoded group across the channel at plan.p_d under `plan` and
    decode it into one word list per sentence; DecodeFailure propagates."""
    out_bits = transmit_baseline(bits, plan, rng)
    if system == "gzip-batch":
        return [t.split() for t in lz_decompress(out_bits)]
    if system == "huffman":
        return [huffman_decode(out_bits, codebook).split()]
    return [fixed5_decode(out_bits).split()]


def plan_group(bits: int, p_d: float, fec_mode: str, size: int = 1) -> tuple[FecPlan, int]:
    """The FecPlan that carries `size` sentences as one frame, and the
    per-sentence source limit they are encoded under: concrete parity is not
    proportional to the budget, so 32 * 224 source bits at 600 bits and
    p_d=0.1 would overrun the 7152 of a 32 * 600-bit frame."""
    one = plan_budget(bits, p_d, fec_mode)
    frame = one if size == 1 else plan_budget(bits * size, p_d, fec_mode)
    return frame, min(one.source_bits, frame.source_bits // size)


def _eval_baseline(system: str, codebook: HuffmanCodebook | None,
                   groups: list[list[list[str]]], plans: dict[int, tuple[FecPlan, int]],
                   spec: SweepSpec, axis_idx: int, sys_idx: int) -> list[float]:
    encoded = [encode_group(system, codebook, refs, plans[len(refs)][1]) for refs in groups]
    trial_means = []
    for trial in range(spec.trials):
        wers = []
        for gi, (refs, enc) in enumerate(zip(groups, encoded)):
            hyps = []
            if enc.fits:
                rng = stream(spec.seed, axis_idx, sys_idx, trial, gi)
                try:
                    hyps = transmit_group(system, codebook, enc.bits, plans[len(refs)][0], rng)
                except DecodeFailure:
                    pass
            if len(hyps) != len(refs):
                hyps = [[] for _ in refs]  # lost or corrupted frame: every member errored
            wers.extend(wer(ref, hyp) for ref, hyp in zip(refs, hyps))
        trial_means.append(sum(wers) / len(wers))
    return trial_means


def run_sweep(spec: SweepSpec, sentences: Sequence[TokenizedSentence],
              models: dict[int, JsccModel] | None = None,
              codebook: HuffmanCodebook | None = None) -> list[SweepResult]:
    """Transmit the test set at every axis value for every system.

    For the deep system, `models` maps each bit budget to a trained model.
    A missing budget, huffman without a codebook, or a baseline plan that
    cannot host an RS block is a ConfigError raised before any cell runs; a
    plan's names the system and axis value.  Every transmission draws
    from its own RNG stream, derived from (seed, axis index, system index,
    trial, sentence or LZ batch index).
    """
    if not sentences:
        raise ConfigError("sweep needs a nonempty test set")

    cells = []
    for axis_idx, value in enumerate(spec.values):
        bits = spec.bits_per_sentence
        p_d = spec.erasure_rate
        sents = list(sentences)
        if spec.axis == "bits_per_sentence":
            bits = int(value)
        elif spec.axis == "erasure_rate":
            p_d = float(value)
        else:
            sents = [s for s in sentences if len(s) == int(value)]
            if not sents:
                raise ConfigError(f"no test sentences of length {value}")
        for sys_idx, system in enumerate(spec.systems):
            if system == "deep":
                if models is None or bits not in models:
                    raise ConfigError(f"no trained checkpoint for bit budget {bits}")
                evaluate = partial(_eval_deep, models[bits], sents, p_d)
            elif system == "huffman" and codebook is None:
                raise ConfigError("huffman baseline needs a codebook")
            else:
                size = spec.lz_batch if system == "gzip-batch" else 1
                groups = [[s.words() for s in sents[i:i + size]]
                          for i in range(0, len(sents), size)]
                try:
                    plans = {n: plan_group(bits, p_d, spec.fec_mode, n)
                             for n in {len(g) for g in groups}}
                except DomainError as exc:
                    raise ConfigError(f"{system} at {spec.axis} {value}: {exc}") from exc
                evaluate = partial(_eval_baseline, system, codebook, groups, plans)
            cells.append((value, system, partial(evaluate, spec, axis_idx, sys_idx)))

    table = []
    for value, system, evaluate in cells:
        means = np.asarray(evaluate(), dtype=np.float64)
        stderr = float(means.std(ddof=1) / math.sqrt(means.size)) if means.size > 1 else 0.0
        table.append(SweepResult(float(value), system, float(means.mean()), stderr,
                                 spec.trials, spec.seed))
    return table


def emit_results(table: list[SweepResult], path: str, format: str = "csv") -> None:
    """Write the results table, one column or key per SweepResult field in
    declaration order (atomic rename)."""
    if format == "csv":
        write_csv(path, [f.name for f in fields(SweepResult)], map(astuple, table))
    elif format == "json":
        write_lines(path, [json.dumps([asdict(row) for row in table], indent=2)])
    else:
        raise DomainError(f"unknown results format {format!r}")

