"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 it measures untraced and prints the end-to-end metrics; with
--trace 1 it alternates untraced rounds with rounds that record spans around
every layer, and prints the per-layer metrics.  A human-readable report
precedes the result, whose last line is one JSON object.  Details, machine
info and spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOADS = ("train", "sweep-idealized", "sweep-concrete")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> str:
    """BLAS runs one thread unless the environment says otherwise; returns
    the setting as found.  With a thread per vCPU every matrix product waits
    for the other vCPU, which a shared host can hold back for milliseconds at
    each wait: a product then runs up to 25x slower than on one thread."""
    found = [f"{k}={os.environ[k]}" for k in BLAS_ENV if k in os.environ]
    if found:
        return ", ".join(found)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return "unset (benchmark set OPENBLAS_NUM_THREADS=1)"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "textjscc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'textjscc'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import textjscc
    if Path(textjscc.__file__).resolve().parent != (src / "textjscc").resolve():
        sys.exit(f"perfbench: imported textjscc from {textjscc.__file__}, not {src}")


def _machine(blas_threads: str) -> dict:
    import platform
    import numpy as np

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": _nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads}


def _tail(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


def _stage_ms(samples, stages, traced: bool, probe=None) -> dict[str, list[float]]:
    """ms/sentence of each sample by stage, scaled by the probe if given."""
    per = {s: [] for s in stages}
    for sm in samples:
        if sm.traced == traced:
            seconds = sm.seconds / probe.slowdown(sm.start, sm.end) if probe else sm.seconds
            per[sm.stage].append(1000.0 * seconds / sm.sentences)
    return per


def _total(per: dict[str, list[float]]) -> float:
    """Sum over the stages of their median ms/sentence."""
    return sum(statistics.median(v) for v in per.values())


def _timed(workload, out, seconds: float, tracer, between_rounds) -> float:
    """Run rounds for about `seconds`, calling `between_rounds` after each.
    With a tracer every second round is traced, so traced and untraced rounds
    see the same machine; returns the wall time of the traced rounds."""
    from workloads import MIN_ROUNDS

    min_rounds = 2 * MIN_ROUNDS if tracer else MIN_ROUNDS
    start = time.perf_counter()
    rounds, traced_wall = 0, 0.0
    while True:
        elapsed = time.perf_counter() - start
        # stop before a round that would, at the mean pace so far, end late
        if rounds >= min_rounds and elapsed * (rounds + 0.5) / rounds > seconds:
            return traced_wall
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        round_start = time.perf_counter()
        try:
            workload.round(out, traced)
        finally:
            if traced:
                tracer.uninstall()
                traced_wall += time.perf_counter() - round_start
        rounds += 1
        between_rounds()


def run(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Run one workload and return the result object plus the report."""
    import workloads
    from speed import Probe
    from tracer import Patcher, Tracer

    scale = scale or workloads.PAPER
    workload = workloads.make(name, scale, seed)
    out = workloads.Outcome(Probe(workload.probe_kind))
    setups = []  # (start, end) of each set-up

    def timed_setup(workload):
        out.probe.tick()
        start = time.perf_counter()
        workload.setup()
        setups.append((start, time.perf_counter()))
        out.probe.tick()
        return workload

    for _ in range(scale.setup_repeats):
        timed_setup(workload)

    patcher = Patcher()
    workloads.install_capture(patcher, out)
    try:
        workload.warmup()
        out.take()
        tracer = Tracer() if trace else None
        # a fresh set-up after every round spreads its samples over the run
        traced_wall = _timed(workload, out, seconds, tracer,
                             lambda: timed_setup(workloads.make(name, scale, seed)))
    finally:
        patcher.restore()
    workload.check(out)

    untraced = _stage_ms(out.samples, workload.stages, traced=False, probe=out.probe)
    raw = _stage_ms(out.samples, workload.stages, traced=False)
    report = {}
    for stage, values in untraced.items():
        key = stage.replace("-", "_") + "_ms_per_sentence"
        report[key] = (statistics.median(values), "ms")
        tail = _tail(values)
        if tail:
            report[key + "_" + tail[0]] = (tail[1], "ms")
        report[key + "_samples"] = (len(values), "count")
        report[key + "_wall"] = (statistics.median(raw[stage]), "ms")
    if name == "train":
        report["train_sentences_per_s"] = (1000.0 / report["train_ms_per_sentence"][0],
                                           "sentences/s")
    report.update(workload.report())
    report["error_rate"] = (out.failed / max(out.attempted, 1), "ratio")
    setup_s = statistics.median((end - start) / out.probe.slowdown(start, end)
                                for start, end in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["setup_s"] = (setup_s, "s")
    report["setup_s_wall"] = (statistics.median(end - start for start, end in setups), "s")
    report["peak_rss_mb"] = (peak_rss_mb, "MB")

    total = _total(untraced)
    if trace:
        metrics = {}
        for fn, row in tracer.layer_stats().items():
            metrics[fn + ".calls"] = (row["calls"], "count")
            metrics[fn + ".total_s"] = (row["total_s"], "s")
            metrics[fn + ".self_s"] = (row["self_s"], "s")
        for key, value in tracer.ratios(workload.decoder_stacks()).items():
            metrics[key] = (value, "ratio")
        traced_total = _total(_stage_ms(out.samples, workload.stages, traced=True,
                                        probe=out.probe))
        metrics["trace.overhead_ratio"] = (traced_total / total, "ratio")
        metrics["trace.self_share"] = (tracer.self_time() / traced_wall, "ratio")
    else:
        metrics = {"ms_per_sentence": (total, "ms"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"result": result, "report": report, "errors": out.errors,
            "workload": workload, "tracer": tracer, "samples": out.samples,
            "probe": out.probe, "setups": setups}


def _write_details(args, machine: dict, run_out: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload, probe = run_out["workload"], run_out["probe"]
    with open(ROOT / "perfbench" / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    details = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "machine": machine, "layer_map": layer_map,
        "length_histogram": workload.histogram,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in run_out["report"].items()},
        "samples": [vars(s) for s in run_out["samples"]],
        "setups": run_out["setups"],
        "probes": {"kind": probe.kind, "end": probe.times, "seconds": probe.seconds},
        "errors": run_out["errors"], "result": run_out["result"],
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    if run_out["tracer"] is not None:
        run_out["tracer"].write(str(OUT_DIR / f"{stem}-spans.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    blas_threads = _limit_blas_threads()
    _import_program()
    machine = _machine(blas_threads)
    run_out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _write_details(args, machine, run_out)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# length histogram: {run_out['workload'].histogram}")
    for key, (value, unit) in run_out["report"].items():
        print(f"{key}: {value:.6g} {unit}")
    for err in run_out["errors"][:5]:
        print("# error: " + err.strip().splitlines()[-1])
    print(json.dumps(run_out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
