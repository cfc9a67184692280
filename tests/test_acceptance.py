"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
report lines.  Criterion 11 is a non-blocking qualitative trend report.
"""

import itertools
import math
import time

import numpy as np
import pytest

from measures import entropy_bits, expected_length, pairwise_distances
from toy_corpus import make_eval_corpus, make_toy_corpus

from textjscc.analysis import classical_mds
from textjscc.budget import encode_with_budget
from textjscc.channel import erase, stream
from textjscc.corpus import batch_by_length, build_vocabulary, char_frequencies, tokenize
from textjscc.errors import DecodeFailure
from textjscc.fec import RsCode, plan_budget, rs_decode_erasures, rs_encode
from textjscc.fixed5 import fixed5_decode, fixed5_encode
from textjscc.gradcheck import run_verification_suite
from textjscc.huffman import build_huffman, codebook_for_pipeline, huffman_encode
from textjscc.lzss import lz_compress
from textjscc.metrics import levenshtein, wer
from textjscc.model import JsccConfig, JsccModel, binarize_stochastic
from textjscc.sweeps import SweepSpec, run_sweep
from textjscc.training import Trainer, TrainSettings

GRADCHECK_TOL = 1e-4
TRAIN_SEED = 13


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def train_toy_model(sentences, vocab, bits, max_epochs=500, stop_wer=0.0):
    """Train the small configuration used by criteria 9 and 11."""
    toks = [tokenize(s, vocab) for s in sentences]
    plan = batch_by_length(toks, 16)
    config = JsccConfig(vocab_size=len(vocab), embed_dim=32, encoder_stacks=2,
                        encoder_hidden=32, decoder_stacks=2, decoder_hidden=64,
                        bits=bits, beam_width=1, max_decode_len=12)
    model = JsccModel(config, seed=1)
    trainer = Trainer(model, TrainSettings(erasure_prob=0.0, wer_sample=len(toks),
                                           seed=TRAIN_SEED))
    epochs_used = 0
    while epochs_used < max_epochs:
        chunk = min(50, max_epochs - epochs_used)
        logs = trainer.run(toks, plan, chunk)
        epochs_used += chunk
        if logs[-1].train_wer <= stop_wer:
            break
    return model, toks, epochs_used


def greedy_wer(model, toks, p_d, seed=99):
    wers = []
    for i, tk in enumerate(toks):
        cw = model.encode(tk.ids)
        obs = erase(cw, p_d, stream(seed, i))
        hyp = model.greedy_decode_batch(obs[:, None])[0]
        wers.append(wer(tk.ids, hyp))
    return float(np.mean(wers))


@pytest.fixture(scope="module")
def eval_corpus():
    sentences = make_eval_corpus(100)
    vocab = build_vocabulary(sentences, 200)
    toks = [tokenize(s, vocab) for s in sentences]
    book = codebook_for_pipeline(char_frequencies(sentences))
    return sentences, vocab, toks, book


@pytest.fixture(scope="module")
def toy_model():
    sentences = make_toy_corpus(32)
    vocab = build_vocabulary(sentences, 120)
    model, toks, epochs = train_toy_model(sentences, vocab, bits=100)
    return sentences, vocab, model, toks, epochs


def test_criterion_1_gradient_integrity():
    start = time.monotonic()
    results = run_verification_suite(seed=0)
    elapsed = time.monotonic() - start
    worst = max(results.values())
    ok = worst < GRADCHECK_TOL and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in results.items())
    report(1, ok, f"max rel err {worst:.2e} < 1e-4 ({detail}); {elapsed:.1f}s")


def test_criterion_2_binarizer_unbiasedness():
    start = time.monotonic()
    n = 10**5
    rng = np.random.default_rng(7)
    failures = []
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
        draws = binarize_stochastic(np.full(n, x), rng)
        mean = float(draws.mean())
        bound = 3.0 * math.sqrt((1.0 - x * x) / n)
        if abs(mean - x) > bound:
            failures.append((x, mean, bound))
        if abs(x) == 1.0 and not np.all(draws == int(x)):
            failures.append((x, mean, 0.0))
    elapsed = time.monotonic() - start
    report(2, not failures and elapsed < 5.0,
           f"sample means within 3-sigma at all grid points, endpoints exact; "
           f"{elapsed:.2f}s" + (f"; failures {failures}" if failures else ""))


def test_criterion_3_channel_statistics():
    start = time.monotonic()
    n = 10**6
    rng = np.random.default_rng(11)
    obs = erase(np.ones(n, dtype=np.int8), 0.05, rng)
    e = (obs == 0).astype(np.float64)
    frac = float(e.mean())
    sigma = math.sqrt(0.05 * 0.95 / n)
    corr = float(np.corrcoef(e[:-1], e[1:])[0, 1])
    corr_bound = 3.0 / math.sqrt(n - 1)
    elapsed = time.monotonic() - start
    ok = abs(frac - 0.05) <= 3 * sigma and abs(corr) <= corr_bound and elapsed < 10.0
    report(3, ok, f"erasure fraction {frac:.5f} (target 0.05 +/- {3*sigma:.5f}), "
                  f"adjacent correlation {corr:+.5f} (bound {corr_bound:.5f}); {elapsed:.1f}s")


def _optimal_expected_length(freqs):
    def best(items):
        if len(items) == 1:
            return items[0][1]
        out = float("inf")
        for i, j in itertools.combinations(range(len(items)), 2):
            wi, ci = items[i]
            wj, cj = items[j]
            rest = [items[k] for k in range(len(items)) if k not in (i, j)]
            out = min(out, best(rest + [(wi + wj, ci + cj + wi + wj)]))
        return out

    return best([(w, 0.0) for w in freqs.values()]) / sum(freqs.values())


def test_criterion_4_huffman_optimality(eval_corpus):
    start = time.monotonic()
    sentences, _, _, _ = eval_corpus
    rng = np.random.default_rng(17)
    mismatches = 0
    for _ in range(100):
        size = int(rng.integers(2, 6))
        freqs = {chr(ord("a") + i): int(rng.integers(1, 60)) for i in range(size)}
        book = build_huffman(freqs)
        if not math.isclose(expected_length(book, freqs), _optimal_expected_length(freqs)):
            mismatches += 1
    table = char_frequencies(sentences)
    book = build_huffman(table)
    avg = expected_length(book, table.counts)
    h = entropy_bits(table)
    sandwich = h <= avg < h + 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and sandwich and elapsed < 60.0
    report(4, ok, f"100/100 alphabets optimal, corpus avg {avg:.3f} in "
                  f"[H={h:.3f}, H+1); {elapsed:.1f}s")


def test_criterion_5_rs_erasure_correction():
    start = time.monotonic()
    code = RsCode(8, 4)
    data = [17, 42, 99, 250]
    cw = rs_encode(data, code)
    patterns = list(itertools.combinations(range(8), 4))
    ok = len(patterns) == 70
    for pattern in patterns:
        received = [0 if i in pattern else cw[i] for i in range(8)]
        ok = ok and rs_decode_erasures(received, pattern, code) == data
    try:
        rs_decode_erasures([0, 0, 0, 0, 0] + cw[5:], [0, 1, 2, 3, 4], code)
        ok = False
    except DecodeFailure:
        pass
    big = RsCode(64, 48)
    rng = np.random.default_rng(23)
    for _ in range(1000):
        payload = [int(v) for v in rng.integers(0, 256, size=48)]
        codeword = rs_encode(payload, big)
        k = int(rng.integers(0, 17))
        pattern = set(rng.choice(64, size=k, replace=False).tolist())
        received = [0 if i in pattern else codeword[i] for i in range(64)]
        ok = ok and rs_decode_erasures(received, sorted(pattern), big) == payload
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(5, ok, f"all 70 maximal patterns + 1000 random (64,48) trials decode "
                  f"exactly, 5 erasures fail; {elapsed:.1f}s")


def _naive_levenshtein(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(_naive_levenshtein(a[1:], b) + 1,
               _naive_levenshtein(a, b[1:]) + 1,
               _naive_levenshtein(a[1:], b[1:]) + cost)


def test_criterion_6_levenshtein_oracle():
    start = time.monotonic()
    seqs = [s for n in range(5) for s in itertools.product(range(3), repeat=n)]
    ok = all(levenshtein(a, b) == _naive_levenshtein(a, b)
             for a in seqs for b in seqs)
    elapsed = time.monotonic() - start
    report(6, ok and elapsed < 30.0,
           f"exhaustive agreement on {len(seqs)}^2 pairs; {elapsed:.1f}s")


def test_criterion_7_baseline_zero_error(eval_corpus):
    start = time.monotonic()
    sentences, _, toks, book = eval_corpus
    p_d = 0.05
    need = 0
    for s in toks:
        text = " ".join(s.words())
        need = max(need, fixed5_encode(text).size, huffman_encode(text, book).size)
    for i in range(0, len(toks), 32):
        batch = [" ".join(s.words()) for s in toks[i:i + 32]]
        need = max(need, int(np.ceil(lz_compress(batch).size / len(batch))))
    bits = int(np.ceil(need / (1 - p_d))) + 40
    bits += bits % 2
    assert plan_budget(bits, p_d, "idealized").source_bits >= need

    spec = SweepSpec(axis="bits_per_sentence", values=[bits],
                     systems=["gzip-batch", "huffman", "fixed5"],
                     trials=2, seed=31, erasure_rate=p_d)
    table = run_sweep(spec, toks, codebook=book)
    elapsed = time.monotonic() - start
    ok = all(r.mean_wer == 0.0 for r in table) and elapsed < 30.0
    detail = ", ".join(f"{r.system}={r.mean_wer}" for r in table)
    report(7, ok, f"budget {bits} >= need {need}: WER exactly 0 for {detail}; "
                  f"{elapsed:.1f}s")


def test_criterion_8_budget_truncation_law(eval_corpus):
    start = time.monotonic()
    _, _, toks, _ = eval_corpus
    budgets = list(range(50, 801, 50))
    ok = True
    for sent in toks:
        words = sent.words()
        previous = None
        for budget in budgets:
            be = encode_with_budget(words, fixed5_encode, budget)
            hyp = fixed5_decode(be.bits).split()
            ok = ok and wer(words, hyp) == be.words_dropped / len(words)
            if previous is not None:
                ok = ok and be.words_dropped <= previous
            previous = be.words_dropped
    elapsed = time.monotonic() - start
    report(8, ok and elapsed < 30.0,
           f"WER == drops/m and non-increasing over budgets 50..800 for "
           f"{len(toks)} sentences; {elapsed:.1f}s")


def test_criterion_9_end_to_end_memorization(toy_model):
    start = time.monotonic()
    sentences, vocab, model, toks, epochs = toy_model
    assert len(sentences) == 32 and len(vocab) <= 120
    clean = greedy_wer(model, toks, p_d=0.0)
    noisy = greedy_wer(model, toks, p_d=0.05)
    elapsed = time.monotonic() - start
    ok = epochs <= 500 and clean < 0.05 and noisy < 0.30 and elapsed < 1800.0
    report(9, ok, f"after {epochs} epochs: train WER {clean:.4f} < 0.05 at p_d=0, "
                  f"{noisy:.4f} < 0.30 at p_d=0.05; {elapsed:.0f}s")


def test_criterion_10_mds_exactness():
    start = time.monotonic()
    ok = True
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    configs = [square]
    rng = np.random.default_rng(37)
    for _ in range(10):
        configs.append(rng.normal(size=(int(rng.integers(4, 10)), 2)) * 2.0)
    worst = 0.0
    for pts in configs:
        D = pairwise_distances(pts)
        recon = pairwise_distances(classical_mds(D, dim=2))
        worst = max(worst, float(np.abs(recon - D).max()))
        ok = ok and worst <= 1e-8
    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 5.0,
           f"max distance reconstruction error {worst:.2e} <= 1e-8 over "
           f"unit square + 10 random planar sets; {elapsed:.1f}s")


def test_criterion_11_qualitative_trend():
    """Non-blocking: reports whether the deep system wins at the lower budget."""
    sentences = make_toy_corpus(32)
    vocab = build_vocabulary(sentences, 120)
    lines = []
    wins_low = None
    for bits in (40, 80):
        model, toks, epochs = train_toy_model(sentences, vocab, bits=bits,
                                              max_epochs=400, stop_wer=0.02)
        deep = greedy_wer(model, toks, p_d=0.05)
        budget = plan_budget(bits, 0.05, "idealized").source_bits
        base = float(np.mean([
            encode_with_budget(s.words(), fixed5_encode, budget).words_dropped
            / len(s.words()) for s in toks]))
        lines.append(f"bits={bits}: deep WER {deep:.3f} ({epochs} epochs) vs "
                     f"fixed5+idealized-FEC WER {base:.3f}")
        if bits == 40:
            wins_low = deep < base
    verdict = ("deep system wins at the lower budget"
               if wins_low else "deep system does NOT win at the lower budget")
    print(f"ACCEPTANCE 11 REPORT: {verdict}; " + "; ".join(lines))
