"""Spans around the public functions of each textjscc layer.

The tracer replaces a function in every textjscc module that holds it, so a
call is seen whichever module made it (`textjscc.nn.lstm_cell_forward` and
`textjscc.model.lstm_cell_forward` are one function under two names).  Spans
stay in memory as (function, parent span, start, end) and are written out
once the run ends.  Per-symbol helpers such as `fec.gf_mul` or the LZSS bit
emitters are deliberately not wrapped: a concrete sweep calls them millions
of times and the wrappers would dominate what they measure.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np
from textjscc.errors import DecodeFailure

# Layer -> public functions wrapped in a traced run; "Class.method" patches
# the class.  layer_map.json says which end-to-end metric each one should move.
WRAPPED: dict[str, tuple[str, ...]] = {
    "nn": ("lstm_cell_forward", "lstm_cell_backward", "blstm_layer_forward",
           "blstm_layer_backward", "dense_forward", "dense_backward",
           "softmax_cross_entropy", "softmax"),
    "model": ("JsccModel.encode_training", "JsccModel.decode_teacher_forced",
              "JsccModel.decode_backward", "JsccModel.encode_backward",
              "JsccModel.greedy_decode_batch", "binarize_stochastic",
              "JsccModel.encode", "JsccModel.beam_search_decode"),
    "optim": ("adam_step",),
    "channel": ("erase", "erase_bitstream"),
    "budget": ("encode_with_budget", "encode_batch_with_budget"),
    "huffman": ("huffman_encode", "huffman_decode"),
    "fixed5": ("fixed5_encode", "fixed5_decode"),
    "lzss": ("lz_compress", "lz_decompress"),
    "fec": ("plan_budget", "transmit_baseline", "rs_encode", "rs_decode_erasures"),
    "metrics": ("wer",),
}

SOURCE_ENCODERS = ("huffman.huffman_encode", "fixed5.fixed5_encode", "lzss.lz_compress")
BUDGET_FUNCS = ("budget.encode_with_budget", "budget.encode_batch_with_budget")


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def traced_names() -> list[str]:
    return [metric_name(m, q) for m, funcs in WRAPPED.items() for q in funcs]


class Patcher:
    """Swaps a function for a replacement in every textjscc module holding it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, qualname: str, make_replacement) -> None:
        owner = sys.modules[f"textjscc.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            holders = [owner]
        else:
            attr = qualname
            original = getattr(owner, attr)
            holders = [mod for name, mod in list(sys.modules.items())
                       if name.startswith("textjscc") and mod is not None
                       and getattr(mod, attr, None) is original]
        replacement = make_replacement(original)
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


class Tracer:
    """In-memory spans for every function in WRAPPED, plus argument and
    result observations for the ratio metrics."""

    def __init__(self):
        self.names = traced_names()
        self.spans: list[list] = []  # [name index, parent span or -1, start, end]
        self._stack: list[int] = []
        self.plan_args: list[tuple] = []
        self.budget_sentences = 0
        self.words_dropped = 0
        self.concrete_transmissions = 0
        self.decode_failures = 0
        self.erased = 0
        self.channel_symbols = 0
        self._patcher = Patcher()

    # ----- installation -----

    def install(self) -> None:
        for module, funcs in WRAPPED.items():
            for qualname in funcs:
                index = self.names.index(metric_name(module, qualname))
                self._patcher.replace(module, qualname,
                                      lambda fn, i=index: self._wrap(i, fn))

    def uninstall(self) -> None:
        self._patcher.restore()

    def _wrap(self, index: int, fn):
        name = self.names[index]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[3] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            span[3] = time.perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return wrapper

    # ----- observations (outside the span's interval) -----

    def _observe_fec_plan_budget(self, args, result, exc):
        self.plan_args.append(tuple(args[:3]))

    def _observe_fec_transmit_baseline(self, args, result, exc):
        if args[1].mode == "concrete":
            self.concrete_transmissions += 1
            self.decode_failures += isinstance(exc, DecodeFailure)

    def _observe_budget_encode_with_budget(self, args, result, exc):
        if result is not None:
            self.budget_sentences += 1
            self.words_dropped += result.words_dropped

    def _observe_budget_encode_batch_with_budget(self, args, result, exc):
        if result is not None:
            self.budget_sentences += len(result.words_dropped)
            self.words_dropped += sum(result.words_dropped)

    def _observe_channel_erase(self, args, result, exc):
        if result is not None:
            self.erased += int(np.count_nonzero(result == 0))
            self.channel_symbols += result.size

    def _observe_channel_erase_bitstream(self, args, result, exc):
        if result is not None:
            self.erased += int(np.count_nonzero(result < 0))
            self.channel_symbols += result.size

    # ----- summaries -----

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per wrapped function; self time is the
        span's duration minus the time its direct child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for (index, _, start, end), covered in zip(self.spans, child_time):
            row = stats[self.names[index]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered
        return stats

    def _count_children(self, parents: tuple[str, ...],
                        children: tuple[str, ...]) -> tuple[int, int]:
        """(child spans directly under a parent span, parent spans)."""
        parent_ids = {self.names.index(n) for n in parents}
        child_ids = {self.names.index(n) for n in children}
        under = sum(1 for index, parent, _, _ in self.spans
                    if index in child_ids and parent >= 0
                    and self.spans[parent][0] in parent_ids)
        calls = sum(1 for index, _, _, _ in self.spans if index in parent_ids)
        return under, calls

    def ratios(self, decoder_stacks: int) -> dict[str, float]:
        cells, beams = self._count_children(("model.beam_search_decode",),
                                            ("nn.lstm_cell_forward",))
        attempts, budget_calls = self._count_children(BUDGET_FUNCS, SOURCE_ENCODERS)
        plans = len(self.plan_args)
        return {
            "model.decoder_steps_per_sentence": cells / (beams * decoder_stacks) if beams else 0.0,
            "budget.encode_attempts_per_call": attempts / budget_calls if budget_calls else 0.0,
            "budget.words_dropped_per_sentence":
                self.words_dropped / self.budget_sentences if self.budget_sentences else 0.0,
            "fec.plan_budget.distinct_ratio": len(set(self.plan_args)) / plans if plans else 0.0,
            "fec.decode_failure_rate":
                self.decode_failures / self.concrete_transmissions
                if self.concrete_transmissions else 0.0,
            "channel.erased_fraction":
                self.erased / self.channel_symbols if self.channel_symbols else 0.0,
        }

    def self_time(self) -> float:
        return sum(row["self_s"] for row in self.layer_stats().values())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "start", "end"],
                       "spans": self.spans}, fh)
