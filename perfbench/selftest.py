"""Self-test of the benchmark at tiny model dimensions.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and fails unless each
result carries every metric BENCHMARK.json declares, with its unit, the
report names the workload's end-to-end metrics, and no operation failed.
"""

from __future__ import annotations

import json
import sys

import run

REPORTED = {
    "train": ("train_sentences_per_s", "train_ms_per_sentence", "train_loss"),
    "sweep-idealized": ("deep_ms_per_sentence", "gzip_batch_ms_per_sentence",
                        "huffman_ms_per_sentence", "fixed5_ms_per_sentence",
                        "wer_gzip_batch", "wer_huffman", "wer_fixed5"),
    "sweep-concrete": ("gzip_batch_ms_per_sentence", "huffman_ms_per_sentence",
                       "fixed5_ms_per_sentence", "wer_gzip_batch", "wer_huffman",
                       "wer_fixed5"),
}
COMMON = ("error_rate", "setup_s", "peak_rss_mb")


def main() -> int:
    run._limit_blas_threads()
    run._import_program()
    import workloads

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.WORKLOADS")
    problems = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            out = run.run(name, seed=7, seconds=0.5, trace=bool(trace), scale=workloads.TINY)
            result, report = out["result"], out["report"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                odd = sorted(set(got.items()) ^ set(declared[trace].items()))
                problems.append(f"{name} trace={trace}: {odd} differ from BENCHMARK.json")
            missing = [k for k in REPORTED[name] + COMMON if k not in report]
            if missing:
                problems.append(f"{name} trace={trace}: report lacks {missing}")
            if result["failed"] or not result["correct"] or report["error_rate"][0] != 0:
                problems.append(f"{name} trace={trace}: {result['failed']} failed: {out['errors']}")
            print(f"{name} trace={trace}: {result['attempted']} operations, "
                  f"{result['failed']} failed", flush=True)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
