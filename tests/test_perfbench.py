"""The benchmark under perfbench/ still runs against this program, and its
tracer still sees the layer functions the sweeps call.

The tracer swaps each function in every textjscc module that holds it, so a
caller that captured a function object at import time would run untraced
and the benchmark would silently report zero calls.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_SWEEPS = """
import json, sys
sys.path.insert(0, "perfbench")
import run
run._limit_blas_threads()
run._import_program()
import workloads
out = {}
for name in ("sweep-concrete", "sweep-idealized"):
    got = run.run(name, seed=7, seconds=0.5, trace=True, scale=workloads.TINY)
    metrics = got["result"]["metrics"]
    out[name] = {"failed": got["result"]["failed"],
                 "calls": {k[:-len(".calls")]: v["value"] for k, v in metrics.items()
                           if k.endswith(".calls")}}
print(json.dumps(out))
"""

# the batch budget search must reach lz_compress through the traced
# budget function, or its parses would show under no budget span
BASELINE_LAYERS = ("huffman.huffman_encode", "fixed5.fixed5_encode", "lzss.lz_compress",
                   "budget.encode_batch_with_budget", "fec.plan_budget",
                   "fec.transmit_baseline")
# idealized FEC passes the bits through; only concrete FEC runs the RS kernels, and a
# transmit_baseline that stopped calling them would zero these layers
CONCRETE_LAYERS = ("fec.rs_encode", "fec.rs_decode_erasures")


def _run(args):
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_selftest_passes():
    _run(["perfbench/selftest.py"])


def test_traced_sweeps_see_every_layer():
    runs = json.loads(_run(["-c", TRACED_SWEEPS]).splitlines()[-1])
    for name, got in runs.items():
        assert got["failed"] == 0, name
        for layer in BASELINE_LAYERS:
            assert got["calls"][layer] > 0, (name, layer)
    for layer in CONCRETE_LAYERS:
        assert runs["sweep-concrete"]["calls"][layer] > 0, layer
    assert runs["sweep-idealized"]["calls"]["model.beam_search_decode"] > 0
