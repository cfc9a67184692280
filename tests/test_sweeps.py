import csv
import json

import numpy as np
import pytest

from textjscc.budget import encode_batch_with_budget, encode_with_budget
from textjscc.corpus import build_vocabulary, char_frequencies, tokenize
from textjscc.errors import ConfigError, DomainError
from textjscc.fec import plan_budget
from textjscc.fixed5 import fixed5_encode
from textjscc.huffman import codebook_for_pipeline, huffman_encode
from textjscc.lzss import lz_compress
from textjscc.model import JsccConfig, JsccModel
from textjscc import sweeps
from textjscc.sweeps import SweepResult, SweepSpec, emit_results, plan_group, run_sweep

SENTENCES = [
    "the cat sat on the mat .",
    "a dog ran across the street .",
    "the bird sang in the garden all day .",
    "children play near the old house .",
    "the train arrived at the station early .",
    "a quiet river flows past the town .",
    "the teacher reads a new book today .",
    "people walk along the bright street .",
]


@pytest.fixture(scope="module")
def corpus():
    vocab = build_vocabulary(SENTENCES, 64)
    sents = [tokenize(s, vocab) for s in SENTENCES]
    freqs = char_frequencies(SENTENCES)
    book = codebook_for_pipeline(freqs)
    return vocab, sents, book


def ample_budget(sents, book):
    """A per-sentence budget that covers every codec at p_d = 0.05."""
    need = 0
    for s in sents:
        text = " ".join(s.words())
        need = max(need, fixed5_encode(text).size, huffman_encode(text, book).size)
    need = max(need, lz_compress([" ".join(s.words()) for s in sents]).size // len(sents) + 1)
    total = int(np.ceil(need / 0.95)) + 8
    return total + total % 2


class TestRunSweep:
    def test_zero_error_with_ample_budget(self, corpus):
        _, sents, book = corpus
        bits = ample_budget(sents, book)
        spec = SweepSpec(axis="bits_per_sentence", values=[bits],
                         systems=["gzip-batch", "huffman", "fixed5"],
                         trials=2, seed=5, erasure_rate=0.05, lz_batch=8)
        for row in run_sweep(spec, sents, codebook=book):
            assert row.mean_wer == 0.0
            assert row.stderr == 0.0

    def test_zero_erasure_axis(self, corpus):
        _, sents, book = corpus
        bits = ample_budget(sents, book)
        spec = SweepSpec(axis="erasure_rate", values=[0.0],
                         systems=["huffman", "fixed5"], trials=1, seed=1,
                         bits_per_sentence=bits)
        assert all(r.mean_wer == 0.0 for r in run_sweep(spec, sents, codebook=book))

    def test_wer_monotone_in_budget(self, corpus):
        _, sents, book = corpus
        spec = SweepSpec(axis="bits_per_sentence", values=[50, 100, 200, 400, 800],
                         systems=["fixed5"], trials=1, seed=2, erasure_rate=0.0)
        table = run_sweep(spec, sents, codebook=book)
        wers = [r.mean_wer for r in table]
        assert all(b <= a for a, b in zip(wers, wers[1:]))

    def test_idealized_wer_equals_truncation_law(self, corpus):
        """Sweep WER matches words_dropped/m computed by the codec alone."""
        _, sents, book = corpus
        bits, p_d = 150, 0.05
        spec = SweepSpec(axis="bits_per_sentence", values=[bits], systems=["fixed5"],
                         trials=1, seed=3, erasure_rate=p_d)
        (row,) = run_sweep(spec, sents, codebook=book)
        budget = plan_budget(bits, p_d, "idealized").source_bits
        expected = np.mean([
            encode_with_budget(s.words(), fixed5_encode, budget).words_dropped / len(s.words())
            for s in sents])
        assert row.mean_wer == pytest.approx(float(expected))

    def test_gzip_batch_wer_equals_truncation_law(self, corpus):
        """Batches of 3 over 8 sentences leave a partial last batch of 2."""
        _, sents, book = corpus
        bits, p_d = 60, 0.05
        spec = SweepSpec(axis="bits_per_sentence", values=[bits], systems=["gzip-batch"],
                         trials=2, seed=3, erasure_rate=p_d, lz_batch=3)
        (row,) = run_sweep(spec, sents, codebook=book)
        budget = plan_budget(bits, p_d, "idealized").source_bits
        laws = []
        for i in range(0, len(sents), 3):
            words = [s.words() for s in sents[i:i + 3]]
            enc = encode_batch_with_budget(words, budget)
            laws += [d / len(w) if enc.fits else 1.0 for d, w in zip(enc.words_dropped, words)]
        assert 0.0 < row.mean_wer < 1.0
        assert row.mean_wer == pytest.approx(float(np.mean(laws)))

    def test_deterministic(self, corpus):
        _, sents, book = corpus
        spec = SweepSpec(axis="erasure_rate", values=[0.0, 0.1], systems=["fixed5"],
                         trials=3, seed=9, bits_per_sentence=120, fec_mode="concrete")
        a = run_sweep(spec, sents, codebook=book)
        b = run_sweep(spec, sents, codebook=book)
        assert a == b

    def test_deep_system_missing_model(self, corpus):
        _, sents, _ = corpus
        spec = SweepSpec(axis="bits_per_sentence", values=[40], systems=["deep"],
                         trials=1, seed=0)
        with pytest.raises(ConfigError):
            run_sweep(spec, sents, models={})

    def test_deep_system_untrained_runs(self, corpus):
        vocab, sents, _ = corpus
        config = JsccConfig(vocab_size=len(vocab), embed_dim=8, encoder_stacks=1,
                            encoder_hidden=6, decoder_stacks=1, decoder_hidden=8,
                            bits=16, beam_width=2, max_decode_len=12)
        model = JsccModel(config, seed=0)
        spec = SweepSpec(axis="erasure_rate", values=[0.0, 0.5], systems=["deep"],
                         trials=2, seed=6, bits_per_sentence=16)
        table = run_sweep(spec, sents, models={16: model})
        assert len(table) == 2
        assert all(np.isfinite(r.mean_wer) for r in table)
        assert table == run_sweep(spec, sents, models={16: model})

    def test_deep_sweep_rejects_max_decode_len_zero(self, corpus):
        vocab, sents, _ = corpus
        config = JsccConfig(vocab_size=len(vocab), embed_dim=8, encoder_stacks=1,
                            encoder_hidden=6, decoder_stacks=1, decoder_hidden=8, bits=16)
        spec = SweepSpec(axis="erasure_rate", values=[0.0], systems=["deep"], trials=1,
                         seed=6, bits_per_sentence=16, max_decode_len=0)
        with pytest.raises(DomainError, match="max_decode_len must be >= 1, got 0"):
            run_sweep(spec, sents, models={16: JsccModel(config, seed=0)})

    def test_unknown_fec_mode_is_rejected_by_the_spec(self):
        with pytest.raises(ConfigError, match="^baseline.fec_mode must be idealized or "
                                              "concrete, got 'ideal'$"):
            SweepSpec(axis="bits_per_sentence", values=[200], systems=["fixed5"],
                      trials=1, seed=0, fec_mode="ideal")

    def test_grouped_codewords_equal_per_sentence(self, corpus):
        vocab, sents, _ = corpus
        config = JsccConfig(vocab_size=len(vocab), embed_dim=8, encoder_stacks=2,
                            encoder_hidden=6, decoder_stacks=1, decoder_hidden=8, bits=16)
        model = JsccModel(config, seed=0)
        assert len({len(s) for s in sents}) < len(sents)  # some groups hold several
        grouped = model.encode_sentences(sents)
        assert len(grouped) == len(sents)
        for row, sent in zip(grouped, sents):
            assert np.array_equal(row, model.encode(sent.ids))

    def test_sentence_length_axis(self, corpus):
        _, sents, book = corpus
        lengths = sorted({len(s) for s in sents})
        spec = SweepSpec(axis="sentence_length", values=lengths, systems=["fixed5"],
                         trials=1, seed=7, bits_per_sentence=400, erasure_rate=0.0)
        table = run_sweep(spec, sents, codebook=book)
        assert len(table) == len(lengths)
        assert all(r.mean_wer == 0.0 for r in table)

    def test_sentence_length_axis_missing_length(self, corpus):
        _, sents, book = corpus
        spec = SweepSpec(axis="sentence_length", values=[29], systems=["fixed5"],
                         trials=1, seed=7)
        with pytest.raises(ConfigError):
            run_sweep(spec, sents, codebook=book)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(axis="bogus", values=[1], systems=["fixed5"], trials=1, seed=0)
        with pytest.raises(ConfigError):
            SweepSpec(axis="erasure_rate", values=[0.2, 0.1], systems=["fixed5"],
                      trials=1, seed=0)
        with pytest.raises(ConfigError):
            SweepSpec(axis="erasure_rate", values=[0.1], systems=["morse"],
                      trials=1, seed=0)

    @pytest.mark.parametrize("axis, values", [
        ("bits_per_sentence", ["a", "b"]),
        ("bits_per_sentence", [[1], [2]]),
        ("bits_per_sentence", [200, 300.7]),
        ("bits_per_sentence", [0, 200]),
        ("bits_per_sentence", [True]),
        ("sentence_length", [4.5]),
        ("sentence_length", [0]),
        ("erasure_rate", [0.1, 1.0]),
        ("erasure_rate", [-0.1]),
        ("erasure_rate", [float("nan")]),
        ("erasure_rate", ["0.1"]),
    ])
    def test_bad_axis_values_are_config_errors(self, axis, values):
        with pytest.raises(ConfigError, match="values must "):
            SweepSpec(axis=axis, values=values, systems=["fixed5"], trials=1, seed=0)

    @pytest.mark.parametrize("axis, values", [
        ("bits_per_sentence", [1, np.int64(200)]),
        ("sentence_length", [4, 30]),
        ("erasure_rate", [0, 0.5, np.float64(0.99)]),
    ])
    def test_typed_axis_values_accepted(self, axis, values):
        assert SweepSpec(axis=axis, values=values, systems=["fixed5"], trials=1,
                         seed=0).values == values

    @pytest.mark.parametrize("lz_batch", [0, -1])
    def test_lz_batch_below_one_is_config_error(self, lz_batch):
        with pytest.raises(ConfigError, match="lz_batch"):
            SweepSpec(axis="bits_per_sentence", values=[200], systems=["gzip-batch"],
                      trials=1, seed=0, lz_batch=lz_batch)


def short_frame_texts():
    """32 sentences over the words of SENTENCES whose LZSS stream, budgeted
    at 224 bits a sentence, lands between the 7152 source bits of a concrete
    32 * 600-bit frame at p_d = 0.1 and the 32 * 224 of 32 one-sentence plans."""
    pool = sorted({w for s in SENTENCES for w in s.split()})
    rows = np.random.RandomState(26).randint(len(pool), size=(32, 13))
    return [" ".join(pool[i] for i in row) for row in rows]


class TestBaselinePlans:
    def test_group_limit_never_exceeds_its_frame_plan(self):
        """Where n one-sentence budgets overrun the frame's plan, which no
        idealized plan and some concrete ones do, the limit falls to the
        frame's share; everywhere else it is the one-sentence budget."""
        short = {"idealized": 0, "concrete": 0}
        for mode in short:
            for p_d in (0.001, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3):
                for bits in range(16, 1200, 8):
                    try:
                        one, one_limit = plan_group(bits, p_d, mode)
                    except DomainError:
                        continue
                    assert one == plan_budget(bits, p_d, mode)
                    assert one_limit == one.source_bits
                    for n in (2, 3, 4, 8, 16, 31, 32):
                        frame, limit = plan_group(bits, p_d, mode, n)
                        assert frame.total_bits == bits * n
                        assert n * limit <= frame.source_bits
                        if n * one.source_bits <= frame.source_bits:
                            assert limit == one.source_bits
                        else:
                            short[mode] += 1
                            assert limit == frame.source_bits // n
        assert short == {"idealized": 0, "concrete": 456}

    def test_short_frame_plan_runs_within_it(self, monkeypatch):
        texts = short_frame_texts()
        vocab = build_vocabulary(texts, 64)
        sents = [tokenize(t, vocab) for t in texts]
        words = [s.words() for s in sents]
        frame = plan_budget(32 * 600, 0.1, "concrete").source_bits
        assert (plan_budget(600, 0.1, "concrete").source_bits, frame) == (224, 7152)
        assert frame < encode_batch_with_budget(words, 224).bits.size  # 7164
        sent = []

        def transmit(bits, plan, rng):
            sent.append((bits.size, plan.source_bits))
            return real(bits, plan, rng)

        real = sweeps.transmit_baseline
        monkeypatch.setattr(sweeps, "transmit_baseline", transmit)
        spec = SweepSpec(axis="bits_per_sentence", values=[600], systems=["gzip-batch"],
                         trials=2, seed=4, erasure_rate=0.1, fec_mode="concrete")
        (row,) = run_sweep(spec, sents)
        size = encode_batch_with_budget(words, frame // 32).bits.size
        assert sent == [(size, frame)] * 2
        assert 0.0 <= row.mean_wer <= 1.0

    def test_unhostable_plan_fails_before_any_cell(self, corpus, monkeypatch):
        _, sents, book = corpus
        evaluated = []
        monkeypatch.setattr(sweeps, "encode_group", lambda *a: evaluated.append(a))
        spec = SweepSpec(axis="erasure_rate", values=[0.01, 0.05, 0.3],
                         systems=["huffman", "fixed5"], trials=1, seed=0,
                         bits_per_sentence=400, fec_mode="concrete")
        with pytest.raises(ConfigError, match="^huffman at erasure_rate 0.3: budget of 400 "
                                              "bits cannot host any RS block at p_d=0.3$"):
            run_sweep(spec, sents, codebook=book)
        assert evaluated == []

    def test_missing_codebook_fails_before_any_cell(self, corpus, monkeypatch):
        _, sents, _ = corpus
        evaluated = []
        monkeypatch.setattr(sweeps, "_eval_deep", lambda *a: evaluated.append(a))
        monkeypatch.setattr(sweeps, "encode_group", lambda *a: evaluated.append(a))
        spec = SweepSpec(axis="bits_per_sentence", values=[32], systems=["deep", "huffman"],
                         trials=1, seed=0)
        with pytest.raises(ConfigError, match="^huffman baseline needs a codebook$"):
            run_sweep(spec, sents, models={32: None})
        assert evaluated == []


class TestEmitResults:
    def _table(self):
        return [SweepResult(100.0, "fixed5", 0.25, 0.01, 3, 7),
                SweepResult(200.0, "huffman", 0.125, 0.0, 3, 7)]

    def test_header_only_csv(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_results([], path, "csv")
        with open(path) as fh:
            assert fh.read().strip() == "axis_value,system,mean_wer,stderr,trials,seed"

    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "r.csv")
        emit_results(self._table(), path, "csv")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["axis_value", "system", "mean_wer", "stderr",
                                    "trials", "seed"]
            rows = [SweepResult(float(r[0]), r[1], float(r[2]), float(r[3]),
                                int(r[4]), int(r[5])) for r in reader]
        assert rows == self._table()

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        emit_results(self._table(), path, "json")
        with open(path) as fh:
            assert [SweepResult(**row) for row in json.load(fh)] == self._table()

    def test_json_matches_schema(self, tmp_path):
        import importlib.resources

        import jsonschema

        path = str(tmp_path / "r.json")
        emit_results(self._table(), path, "json")
        schema = json.loads(importlib.resources.files("textjscc.schemas")
                            .joinpath("results.schema.json").read_text())
        with open(path) as fh:
            jsonschema.validate(json.load(fh), schema)

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_results([SweepResult(0.05, "gzip-batch", 1 / 3, float("nan"), 1, 7)], str(path))
        assert path.read_bytes() == (b"axis_value,system,mean_wer,stderr,trials,seed\r\n"
                                     b"0.05,gzip-batch,0.3333333333333333,nan,1,7\r\n")

    def test_byte_identical_rewrites(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_results(self._table(), a, "csv")
        emit_results(self._table(), b, "csv")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
