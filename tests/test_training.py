import json
import logging
import os
import re
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from textjscc import checkpoint, nn, training
from textjscc import model as model_module
from textjscc.checkpoint import load_for_resume, load_model, save_checkpoint
from textjscc.config import load_config
from textjscc.corpus import EOS_ID, batch_by_length, build_vocabulary, tokenize
from textjscc.errors import EmptyCorpus, IoError, NumericalError, ShapeError
from textjscc.gradcheck import run_verification_suite
from textjscc.model import JsccConfig, JsccModel
from textjscc.optim import AdamState, adam_step
from textjscc.training import Trainer, TrainSettings, tf_schedule

EVERY_SUM_INLINE = 2**62
NO_HANDOFF = 2**62
REAL_INLINE_ELEMENTS = nn.INLINE_GRAD_ELEMENTS


def toy_corpus(n=8, seed=7):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    sents = [" ".join(rng.choice(words, size=int(rng.integers(4, 8))))
             for _ in range(n)]
    vocab = build_vocabulary(sents, 64)
    toks = [tokenize(s, vocab) for s in sents]
    return vocab, toks


def small_model(vocab_size, bits=32, seed=1, precision="f32"):
    config = JsccConfig(vocab_size=vocab_size, embed_dim=16, encoder_stacks=2,
                        encoder_hidden=12, decoder_stacks=2, decoder_hidden=24,
                        bits=bits, beam_width=2, max_decode_len=10, precision=precision)
    return JsccModel(config, seed=seed)


class TestSchedule:
    def test_first_epochs_full_forcing(self):
        for epoch in range(1, 6):
            assert tf_schedule(epoch, 5, 10, 0.5) == 1.0

    def test_linear_decay(self):
        assert tf_schedule(10, 5, 10, 0.5) == pytest.approx(0.75)
        assert tf_schedule(15, 5, 10, 0.5) == pytest.approx(0.5)

    def test_constant_tail(self):
        assert tf_schedule(100, 5, 10, 0.5) == 0.5


class TestTrainer:
    def test_zero_epochs_no_change(self):
        vocab, toks = toy_corpus()
        model = small_model(len(vocab))
        before = [p.value.copy() for p in model.parameters()]
        plan = batch_by_length(toks, 8)
        logs = Trainer(model, TrainSettings()).run(toks, plan, 0)
        assert logs == []
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.value, b)

    def test_loss_decreases_on_repeated_sentence(self):
        vocab, _ = toy_corpus()
        sent = tokenize("w1 w2 w3 w4 w5", vocab)
        toks = [sent] * 4
        model = small_model(len(vocab), seed=3)
        plan = batch_by_length(toks, 4)
        trainer = Trainer(model, TrainSettings(erasure_prob=0.0, seed=11, wer_sample=4))
        logs = trainer.run(toks, plan, 300)
        assert logs[-1].mean_loss < logs[0].mean_loss / 10
        decoded = model.greedy_decode_batch(
            model.encode_batch(np.array([sent.ids])))
        assert decoded[0] == sent.ids

    def test_deterministic_given_seed(self):
        vocab, toks = toy_corpus()
        plan = batch_by_length(toks, 8)
        runs = []
        for _ in range(2):
            model = small_model(len(vocab), seed=5)
            trainer = Trainer(model, TrainSettings(erasure_prob=0.05, seed=9, wer_sample=4))
            logs = trainer.run(toks, plan, 3)
            runs.append((logs, [p.value.copy() for p in model.parameters()]))
        assert [l.mean_loss for l in runs[0][0]] == [l.mean_loss for l in runs[1][0]]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)


class TestEmptyTrainingSet:
    def test_run_without_batches_is_empty_corpus(self):
        vocab, _ = toy_corpus()
        trainer = Trainer(small_model(len(vocab)), TrainSettings(seed=3))
        plan = batch_by_length([], batch_size=4)
        with pytest.raises(EmptyCorpus):
            trainer.run([], plan, epochs=1)
        assert trainer.epoch == 0

    def test_zero_epochs_need_no_batches(self):
        vocab, _ = toy_corpus()
        trainer = Trainer(small_model(len(vocab)), TrainSettings(seed=3))
        assert trainer.run([], batch_by_length([], batch_size=4), epochs=0) == []


class TestTrainWerSample:
    def test_sample_spans_every_length(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(30)]
        sents = [" ".join(rng.choice(words, size=length))
                 for length in (10, 20, 30) for _ in range(128)]
        vocab = build_vocabulary(sents, 64)
        toks = [tokenize(s, vocab) for s in sents]
        plan = batch_by_length(toks, 128)
        model = small_model(len(vocab))
        sampled = []
        encode = model.encode_sentences

        def recording(sample):
            sampled.extend(sample)
            return encode(sample)
        model.encode_sentences = recording
        trainer = Trainer(model, TrainSettings(wer_sample=32))
        train_wer = trainer.estimate_train_wer(toks, plan, np.random.default_rng(0))
        assert len(sampled) == 32
        assert {len(s.ids) for s in sampled} == {10, 20, 30}
        assert np.isfinite(train_wer)


def blob_names(path):
    """The blob names of a checkpoint, read by walking its layout."""
    data = open(path, "rb").read()
    itemsize, json_len = struct.unpack_from("<BI", data, 6)
    pos = 11 + json_len
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    names = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        names.append(data[pos + 2:pos + 2 + name_len].decode("utf-8"))
        rows, cols = struct.unpack_from("<II", data, pos + 2 + name_len)
        pos += 2 + name_len + 8 + rows * cols * itemsize
    assert pos == len(data)
    return names


def rewrite_header(path, edit):
    """Pass a checkpoint's header through edit(meta) and write it back."""
    data = path.read_bytes()
    (json_len,) = struct.unpack_from("<I", data, 7)
    meta = json.loads(data[11:11 + json_len])
    edit(meta)
    header = json.dumps(meta).encode("utf-8")
    path.write_bytes(data[:7] + struct.pack("<I", len(header)) + header + data[11 + json_len:])


TINY = JsccConfig(vocab_size=6, embed_dim=2, encoder_stacks=1, encoder_hidden=2,
                  decoder_stacks=1, decoder_hidden=2, bits=4, beam_width=1, max_decode_len=3)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        vocab, toks = toy_corpus()
        model = small_model(len(vocab), seed=2)
        path = str(tmp_path / "model.tjscc")
        save_checkpoint(path, model, extra={"epoch": 0})
        again, extra = load_model(path)
        assert again.config == model.config
        for p, q in zip(model.parameters(), again.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.value, q.value)

    def test_magic_and_blob_order(self, tmp_path):
        vocab, _ = toy_corpus()
        model = small_model(len(vocab))
        path = str(tmp_path / "model.tjscc")
        save_checkpoint(path, model)
        with open(path, "rb") as fh:
            assert fh.read(6) == b"TJSCC2"
        assert blob_names(path) == [p.name for p in model.parameters()]

    def test_moments_follow_the_parameters(self, tmp_path):
        model = JsccModel(TINY)
        path = str(tmp_path / "model.tjscc")
        save_checkpoint(path, model, AdamState(model.parameters()))
        names = [p.name for p in model.parameters()]
        assert blob_names(path) == (names + [f"adam.m.{n}" for n in names]
                                    + [f"adam.v.{n}" for n in names])

    def test_every_truncation_is_io_error(self, tmp_path):
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), JsccModel(TINY))
        blob = path.read_bytes()
        cut = tmp_path / "cut.tjscc"
        loaders = (load_model, lambda p: load_for_resume(p, 1e-3, 5.0))
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            for load in loaders:
                with pytest.raises(IoError):
                    load(str(cut))
        cut.write_bytes(blob + b"\0")
        for load in loaders:
            with pytest.raises(IoError, match="trailing"):
                load(str(cut))

    def test_skipped_moments_are_still_bounded(self, tmp_path):
        """load_model seeks past the moments, but a cut or padded moment
        section is still an IoError."""
        model = JsccModel(TINY)
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), model, AdamState(model.parameters()))
        blob = path.read_bytes()
        moments = 2 * sum(p.value.nbytes for p in model.parameters())
        for n in (len(blob) - moments // 2, len(blob) - 1):
            path.write_bytes(blob[:n])
            with pytest.raises(IoError, match="truncated"):
                load_model(str(path))
        path.write_bytes(blob + b"\0")
        with pytest.raises(IoError, match="trailing"):
            load_model(str(path))

    def test_parameter_count_matches_the_model(self):
        paper = load_config().jscc_config(1000)
        assert paper.parameter_count() == 7_611_064
        configs = [paper, TINY, small_model(40).config, small_model(9, bits=2).config,
                   JsccConfig(vocab_size=7, embed_dim=5, encoder_stacks=3, encoder_hidden=4,
                              decoder_stacks=1, decoder_hidden=6, bits=10)]
        for config in configs:
            built = sum(p.value.size for p in JsccModel(config).parameters())
            assert config.parameter_count() == built, config

    @pytest.mark.parametrize("section,key,value", [
        ("config", "vocab_size", 10**9),
        ("config", "precision", "f16"),
        ("config", "bits", 3),
        ("config", "embed_dim", 2.0),
        ("extra", "epoch", "x"),
        ("extra", "epoch", None),
        ("extra", "epoch", [1]),
        ("extra", "epoch", -1),
        ("extra", "adam_t", "x"),
        ("extra", "adam_t", None),
        ("extra", "adam_t", [1]),
        ("extra", "adam_t", True),
    ])
    def test_bad_header_is_io_error_before_the_model(self, tmp_path, monkeypatch,
                                                     section, key, value):
        model = JsccModel(TINY)
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), model, AdamState(model.parameters()), {"epoch": 1})
        rewrite_header(path, lambda meta: meta[section].__setitem__(key, value))

        def build(*args, **kwargs):
            pytest.fail("the model was built from a bad header")
        monkeypatch.setattr(checkpoint, "JsccModel", build)
        for load in (load_model, lambda p: load_for_resume(p, 1e-3, 5.0)):
            with pytest.raises(IoError, match=re.escape(str(path))):
                load(str(path))

    def test_loading_holds_no_second_copy(self, tmp_path):
        """Each blob is read straight into its array: no whole-file buffer
        and no blob copies on the way."""
        config = JsccConfig(vocab_size=40, embed_dim=32, encoder_stacks=2, encoder_hidden=48,
                            decoder_stacks=2, decoder_hidden=64, bits=64, beam_width=1,
                            max_decode_len=4)
        model = JsccModel(config, seed=1)
        path = str(tmp_path / "model.tjscc")
        save_checkpoint(path, model, AdamState(model.parameters()), {"epoch": 1})
        del model
        for load, ratio in ((lambda: load_model(path)[0], 1.5),
                            (lambda: load_for_resume(path, 1e-3, 5.0), 1.25)):
            tracemalloc.start()
            try:
                loaded = load()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            model, state = (loaded, None) if isinstance(loaded, JsccModel) else loaded[:2]
            held = sum(p.value.nbytes for p in model.parameters())
            if state is not None:
                held += sum(m.nbytes + v.nbytes for m, v in zip(state.m, state.v))
            assert peak <= ratio * held, (peak / held, ratio)
            del loaded, model, state

    def test_loading_draws_no_initialization(self, tmp_path, monkeypatch):
        """The reader fills every array from the file, so it draws no
        Glorot weights for the blobs to overwrite."""
        model = small_model(40, seed=3)
        state = AdamState(model.parameters())
        rng = np.random.default_rng(0)
        for m, v in zip(state.m, state.v):
            m[...] = rng.standard_normal(m.shape)
            v[...] = rng.random(v.shape)
        state.t = 7
        path = str(tmp_path / "model.tjscc")
        save_checkpoint(path, model, state, {"epoch": 2})

        def draw(*args, **kwargs):
            pytest.fail("loading drew an initialization")
        monkeypatch.setattr(nn, "glorot", draw)
        monkeypatch.setattr(nn, "glorot_into", draw)
        monkeypatch.setattr(nn, "glorot_fill", draw)
        monkeypatch.setattr(model_module, "glorot_fill", draw)
        loaded, _ = load_model(path)
        resumed, adam, epoch = load_for_resume(path, 1e-3, 5.0)
        assert epoch == 2 and adam.t == 7
        for got in (loaded, resumed):
            for p, q in zip(model.parameters(), got.parameters(), strict=True):
                assert p.name == q.name and np.array_equal(p.value, q.value), q.name
        for want, got in ((state.m, adam.m), (state.v, adam.v)):
            for a, b in zip(want, got, strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("offset,value", [(6, 5), (6, 0), (11, ord("]"))])
    def test_bad_precision_byte_or_header_is_io_error(self, tmp_path, offset, value):
        vocab, _ = toy_corpus()
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), small_model(len(vocab)))
        blob = bytearray(path.read_bytes())
        blob[offset] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(IoError):
            load_model(str(path))

    def test_retired_layout_is_io_error(self, tmp_path):
        vocab, _ = toy_corpus()
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), small_model(len(vocab)))
        path.write_bytes(b"TJSCC1" + path.read_bytes()[6:])
        with pytest.raises(IoError, match="retired TJSCC1 layout"):
            load_model(str(path))

    def test_missing_optimizer_state_is_io_error(self, tmp_path):
        vocab, _ = toy_corpus()
        path = str(tmp_path / "model.tjscc")
        # says it holds optimizer state, but holds no moments
        save_checkpoint(path, small_model(len(vocab)), AdamState([]))
        with pytest.raises(IoError, match="adam.m"):
            load_for_resume(path, 1e-3, 5.0)

    def test_resume_matches_unbroken_run(self, tmp_path):
        """6 epochs straight == 3 epochs + checkpoint + 3 resumed epochs."""
        vocab, toks = toy_corpus()
        plan = batch_by_length(toks, 8)
        settings = TrainSettings(erasure_prob=0.05, seed=21, wer_sample=4)

        straight = small_model(len(vocab), seed=6)
        Trainer(straight, settings).run(toks, plan, 6)

        broken = small_model(len(vocab), seed=6)
        trainer = Trainer(broken, settings)
        trainer.run(toks, plan, 3)
        path = str(tmp_path / "mid.tjscc")
        save_checkpoint(path, broken, trainer.adam, {"epoch": trainer.epoch})

        resumed, adam, epoch = load_for_resume(path, settings.lr, settings.clip)
        Trainer(resumed, settings, adam, start_epoch=epoch).run(toks, plan, 3)

        for p, q in zip(straight.parameters(), resumed.parameters()):
            assert np.array_equal(p.value, q.value), p.name

    def test_f64_precision_flag(self, tmp_path):
        vocab, _ = toy_corpus()
        model = small_model(len(vocab), precision="f64")
        path = str(tmp_path / "model64.tjscc")
        save_checkpoint(path, model)
        again, _ = load_model(path)
        assert again.config.precision == "f64"
        assert again.parameters()[0].value.dtype == np.float64


def read_header(path):
    data = path.read_bytes()
    (json_len,) = struct.unpack_from("<I", data, 7)
    return json.loads(data[11:11 + json_len])


class TestBuildRecord:
    """The header records the numerical build; resuming under another one,
    or from a file that records none, logs one warning line."""

    @staticmethod
    def _saved(tmp_path):
        model = small_model(40, seed=3)
        state = AdamState(model.parameters())
        rng = np.random.default_rng(1)
        for m, v in zip(state.m, state.v):
            m[...] = rng.standard_normal(m.shape)
            v[...] = rng.random(v.shape)
        state.t = 4
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), model, state, {"epoch": 2})
        return model, state, path

    @staticmethod
    def _resume(path, caplog):
        caplog.clear()
        with caplog.at_level(logging.INFO):
            resumed = load_for_resume(str(path), 1e-3, 5.0)
        return resumed, [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]

    def test_header_records_the_running_build(self, tmp_path):
        _, _, path = self._saved(tmp_path)
        build = read_header(path)["build"]
        assert build == checkpoint.numerical_build()
        assert build["numpy"] == np.__version__
        assert build["blas"] and build["blas_version"]
        assert build["blas_threads"] == os.environ.get(
            "OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))

    def test_equal_record_logs_nothing(self, tmp_path, caplog):
        _, _, path = self._saved(tmp_path)
        _, warnings = self._resume(path, caplog)
        assert warnings == []

    @pytest.mark.parametrize("key,value", [("numpy", "1.0.0"), ("blas", "reference"),
                                           ("blas_version", "0.0.1")])
    def test_differing_record_logs_one_line(self, tmp_path, caplog, key, value):
        _, _, path = self._saved(tmp_path)
        rewrite_header(path, lambda meta: meta["build"].__setitem__(key, value))
        _, warnings = self._resume(path, caplog)
        assert len(warnings) == 1 and len(warnings[0].splitlines()) == 1
        assert str(path) in warnings[0] and repr(value) in warnings[0]

    def test_differing_thread_count_logs_one_line(self, tmp_path, caplog, monkeypatch):
        """The record reads the thread count from the environment, as
        OpenBLAS did when it loaded."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        _, _, path = self._saved(tmp_path)
        assert read_header(path)["build"]["blas_threads"] == "1"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        _, warnings = self._resume(path, caplog)
        assert len(warnings) == 1
        assert "'blas_threads': '1'" in warnings[0] and "'blas_threads': '2'" in warnings[0]

    def test_file_without_a_record_loads_and_logs_one_line(self, tmp_path, caplog):
        """A file written before the record existed loads the same arrays;
        resuming from it says once that its build is unrecorded."""
        model, state, path = self._saved(tmp_path)
        rewrite_header(path, lambda meta: meta.pop("build"))
        assert set(read_header(path)) == {"config", "extra", "has_adam"}
        (resumed, adam, epoch), warnings = self._resume(path, caplog)
        assert len(warnings) == 1 and "an unrecorded build" in warnings[0]
        assert str(path) in warnings[0]
        caplog.clear()
        loaded, _ = load_model(str(path))
        assert not caplog.records
        assert epoch == 2 and adam.t == 4
        for got in (loaded, resumed):
            for p, q in zip(model.parameters(), got.parameters(), strict=True):
                assert p.name == q.name and np.array_equal(p.value, q.value), q.name
        for want, got in ((state.m, adam.m), (state.v, adam.v)):
            for a, b in zip(want, got, strict=True):
                assert np.array_equal(a, b)


class TestNumericalGuard:
    def test_non_finite_loss_raises(self):
        vocab, toks = toy_corpus()
        model = small_model(len(vocab))
        model.W_out.value[...] = np.inf
        plan = batch_by_length(toks, 8)
        trainer = Trainer(model, TrainSettings(seed=1))
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
            trainer.run(toks, plan, 1)
        assert str(info.value).endswith("at epoch 1, batch 0, previous step's grad norm none")

    def test_message_reports_previous_step_norm(self):
        vocab, toks = toy_corpus()
        model = small_model(len(vocab))
        plan = batch_by_length(toks, 8)
        trainer = Trainer(model, TrainSettings(seed=1))
        trainer.run(toks, plan, 1)
        norm = trainer.last_grad_norm
        assert norm > 0.0
        model.W_out.value[...] = np.inf
        expected = f"at epoch 2, batch 0, previous step's grad norm {norm:.3e}"
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=re.escape(expected)):
            trainer.run(toks, plan, 1)


class TestEpochLog:
    def test_norm_clip_rate_and_throughput(self, monkeypatch):
        vocab, toks = toy_corpus()
        plan = batch_by_length(toks, 8)
        steps = len(plan.batches)
        assert steps >= 2
        norms = iter([6.0] + [1.0] * (steps - 1))  # only the first exceeds the clip
        monkeypatch.setattr(training, "adam_step", lambda state: next(norms))
        trainer = Trainer(small_model(len(vocab)), TrainSettings(clip=5.0, wer_sample=4))
        log = trainer.run(toks, plan, 1)[0]
        assert log.grad_norm == pytest.approx((6.0 + steps - 1) / steps)
        assert log.clip_rate == pytest.approx(1 / steps)
        assert 0.0 < log.sentences_per_s < float("inf")

    def test_norm_is_the_optimizer_pre_clip_norm(self, monkeypatch):
        vocab, toks = toy_corpus()
        plan = batch_by_length(toks, 8)
        seen = []
        adam_step = training.adam_step

        def recording(state):
            seen.append(adam_step(state))
            return seen[-1]
        monkeypatch.setattr(training, "adam_step", recording)
        trainer = Trainer(small_model(len(vocab)), TrainSettings(clip=1e-3, wer_sample=4))
        log = trainer.run(toks, plan, 1)[0]
        assert len(seen) == len(plan.batches) and min(seen) > 1e-3
        assert log.grad_norm == pytest.approx(sum(seen) / len(seen))
        assert log.clip_rate == 1.0


def one_queued_parameter_model(vocab_size):
    """A model whose only parameter at or above the real inline threshold
    is the decoder's recurrent weight (4 * 128 x 128 = 2**16 entries)."""
    config = JsccConfig(vocab_size=vocab_size, embed_dim=16, encoder_stacks=1,
                        encoder_hidden=8, decoder_stacks=1, decoder_hidden=128,
                        bits=32, beam_width=2, max_decode_len=10)
    model = JsccModel(config, seed=4)
    queued = [p.name for p in model.parameters() if p.value.size >= REAL_INLINE_ELEMENTS]
    assert queued == ["dec0.Wh"]
    return model


class TestGradientWorker:
    """Sums queued on the gradient worker equal the sums made inline."""

    @staticmethod
    def _step_gradients(monkeypatch, inline_elements):
        """The gradients of every step of one f64 epoch, as the optimizer
        would read them, and how many jobs each step left queued."""
        monkeypatch.setattr(nn, "INLINE_GRAD_ELEMENTS", inline_elements)
        steps = []

        def capture(state):
            queued = len(nn._pending)
            steps.append(([p.grad.copy() for p in state.params], queued))
            nn.zero_grads(state.params)
            return 1.0
        monkeypatch.setattr(training, "adam_step", capture)
        vocab, toks = toy_corpus()
        settings = TrainSettings(erasure_prob=0.2, tf_start_epochs=0, seed=3, wer_sample=4)
        Trainer(small_model(len(vocab), precision="f64"), settings).run(
            toks, batch_by_length(toks, 8), 1)
        return steps

    def test_queued_step_is_bit_identical(self, monkeypatch):
        inline = self._step_gradients(monkeypatch, EVERY_SUM_INLINE)
        queued = self._step_gradients(monkeypatch, 0)
        assert len(inline) == len(queued) >= 2
        for (a, none_queued), (b, some_queued) in zip(inline, queued):
            assert none_queued == 0 and some_queued > 0
            for x, y in zip(a, b):
                assert x.dtype == np.float64 and np.array_equal(x, y)

    def test_verification_suite_passes_with_sums_queued(self, monkeypatch):
        """Every analytic gradient is summed on the worker.  The
        finite-difference probes run the forward pass only and make no sums."""
        monkeypatch.setattr(nn, "INLINE_GRAD_ELEMENTS", 0)
        handoffs = record_handoffs(monkeypatch)
        results = run_verification_suite(seed=0)
        assert max(results.values()) < 1e-4, results
        assert handoffs

    def test_training_with_one_queued_parameter_is_bit_identical(self, monkeypatch):
        vocab, toks = toy_corpus()
        plan = batch_by_length(toks, 8)
        settings = TrainSettings(erasure_prob=0.1, tf_start_epochs=1, seed=2, wer_sample=4)
        runs = []
        for inline_elements in (EVERY_SUM_INLINE, REAL_INLINE_ELEMENTS):
            with monkeypatch.context() as patch:
                patch.setattr(nn, "INLINE_GRAD_ELEMENTS", inline_elements)
                handoffs = record_handoffs(patch)
                model = one_queued_parameter_model(len(vocab))
                logs = Trainer(model, settings).run(toks, plan, 3)
            runs.append(([log.mean_loss for log in logs], model.parameters(),
                         {fn for fn, _ in handoffs}))
        (inline_losses, inline_params, no_jobs), (losses, params, jobs) = runs
        # toy forward steps hand nothing off; only dec0.Wh's sums are queued
        assert no_jobs == set() and jobs == {nn.add_product}
        assert losses == inline_losses
        for p, q in zip(inline_params, params):
            assert np.array_equal(p.value, q.value), p.name

    def test_failing_job_raises_at_next_read(self, monkeypatch):
        monkeypatch.setattr(nn, "INLINE_GRAD_ELEMENTS", 0)
        p = nn.Parameter(np.zeros((2, 2)), "p")
        error = ValueError("job failed")

        def failing(grad):
            raise error
        p.accumulate(failing)
        p.accumulate(nn.add_row_sums, np.ones((2, 3)))  # queued behind it, still runs
        with pytest.raises(ValueError) as info:
            p.grad
        assert info.value is error
        assert not nn._pending
        assert p.grad.tolist() == [[3.0, 3.0], [3.0, 3.0]]

    def test_reads_see_every_queued_sum(self, monkeypatch):
        """Under a short switch interval, each read sees every job queued
        before it; a lost update or a read before its sums would break it."""
        monkeypatch.setattr(nn, "INLINE_GRAD_ELEMENTS", 0)
        params = [nn.Parameter(np.zeros((4, 1)), f"p{i}") for i in range(3)]
        ones = np.ones((4, 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for burst in range(1, 301):
                for p in params:
                    p.accumulate(nn.add_row_sums, ones)
                assert np.all(params[burst % 3].grad == burst)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.all(p.grad == 300) for p in params)

    def test_inference_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("inference started the gradient worker")
        monkeypatch.setattr(nn, "INLINE_GRAD_ELEMENTS", 0)
        monkeypatch.setattr(nn, "_worker", None)
        monkeypatch.setattr(nn, "Worker", no_thread)
        vocab, toks = toy_corpus()
        model = one_queued_parameter_model(len(vocab))
        codewords = model.encode_sentences(toks)
        model.beam_search_decode(codewords[0].astype(np.float32))
        assert nn._worker is None and not nn._pending


# Frozen copies of the cell and layer as they were when every step cached
# tanh(c) and each BLSTM step concatenated freshly allocated direction outputs.
def cached_tanh_cell_forward(p, x, h_prev, c_prev):
    n = p.hidden_dim
    peep = p.p.value
    z = nn.matmul(p.Wx.value, x)
    z += nn.matmul(p.Wh.value, h_prev)
    z += p.b.value
    z[:n] += peep[:n] * c_prev
    z[n:2 * n] += peep[n:2 * n] * c_prev
    i = nn.sigmoid(z[:n])
    f = nn.sigmoid(z[n:2 * n])
    g = np.tanh(z[2 * n:3 * n])
    c = f * c_prev + i * g
    z[3 * n:] += peep[2 * n:] * c
    o = nn.sigmoid(z[3 * n:])
    tc = np.tanh(c)
    h = o * tc
    return h, c, (x, h_prev, c_prev, i, f, g, o, c, tc)


def cached_tanh_cell_backward(p, cache, dh, dc_in):
    x, h_prev, c_prev, i, f, g, o, c, tc = cache
    n = p.hidden_dim
    peep = p.p.value
    dzo = dh * tc * o * (1.0 - o)
    dc = dc_in + dh * o * (1.0 - tc * tc) + dzo * peep[2 * n:]
    dz = np.concatenate([dc * g * i * (1.0 - i),
                         dc * c_prev * f * (1.0 - f),
                         dc * i * (1.0 - g * g),
                         dzo])
    dzi, dzf = dz[:n], dz[n:2 * n]
    p.Wx.accumulate(nn.add_product, dz, x)
    p.Wh.accumulate(nn.add_product, dz, h_prev)
    p.b.accumulate(nn.add_row_sums, dz)
    p.p.accumulate(nn._add_peephole_grads, dz, c_prev, c)
    dx = p.Wx.value.T @ dz
    dh_prev = p.Wh.value.T @ dz
    dc_prev = dc * f + dzi * peep[:n] + dzf * peep[n:2 * n]
    return dx, dh_prev, dc_prev


def cached_tanh_run(p, xs):
    h = np.zeros((p.hidden_dim, xs[0].shape[1]), dtype=p.Wx.value.dtype)
    c = np.zeros_like(h)
    hs, cs, caches = [], [], []
    for x in xs:
        h, c, cache = cached_tanh_cell_forward(p, x, h, c)
        hs.append(h)
        cs.append(c)
        caches.append(cache)
    return hs, cs, caches


def concatenating_blstm_forward(fwd, bwd, xs):
    hs_f, cs_f, caches_f = cached_tanh_run(fwd, xs)
    hs_br, cs_br, caches_b = cached_tanh_run(bwd, xs[::-1])
    hs_b, cs_b = hs_br[::-1], cs_br[::-1]
    hs = [np.concatenate([hf, hb], axis=0) for hf, hb in zip(hs_f, hs_b)]
    cs = [np.concatenate([cf, cb], axis=0) for cf, cb in zip(cs_f, cs_b)]
    return hs, cs, (caches_f, caches_b, fwd.hidden_dim)


def equal_length_batch(vocab, length=6, rows=5):
    """A (rows, length) id batch and its EOS-terminated targets."""
    ids = np.array([tokenize(" ".join(f"w{(7 * r + k) % 30}" for k in range(length)), vocab).ids
                    for r in range(rows)], dtype=np.int64)
    return ids, np.concatenate([ids, np.full((rows, 1), EOS_ID, dtype=np.int64)], axis=1)


class TestStepMemory:
    @staticmethod
    def _one_step(monkeypatch):
        """Loss, gradients, moments and weights after one f32 step with
        scheduled sampling and erasures, as the optimizer saw them."""
        vocab, _ = toy_corpus()
        model = small_model(len(vocab), seed=6)
        trainer = Trainer(model, TrainSettings(erasure_prob=0.2, seed=5))
        grads = []

        def capture(state):
            grads.extend(p.grad.copy() for p in state.params)
            return adam_step(state)
        monkeypatch.setattr(training, "adam_step", capture)
        ids, targets = equal_length_batch(vocab)
        loss = trainer._step(ids, targets, 0.5, np.random.default_rng(3), 1, 0)
        state = trainer.adam
        return (loss, grads, [m.copy() for m in state.m], [v.copy() for v in state.v],
                [p.value.copy() for p in model.parameters()])

    def test_step_is_bit_identical_to_the_caching_cell(self, monkeypatch):
        """Recomputing tanh(c) and writing the BLSTM directions in place
        change no bit of a step: loss, gradients, moments and weights."""
        new = self._one_step(monkeypatch)
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper
        frozen = {"lstm_cell_forward": counted(cached_tanh_cell_forward),
                  "lstm_cell_backward": counted(cached_tanh_cell_backward),
                  "lstm_run": cached_tanh_run,
                  "blstm_layer_forward": counted(concatenating_blstm_forward)}
        for module in (nn, model_module):
            for name, fn in frozen.items():
                monkeypatch.setattr(module, name, fn)
        old = self._one_step(monkeypatch)
        assert calls.count("concatenating_blstm_forward") == 1  # the lower encoder layer
        assert {"cached_tanh_cell_forward", "cached_tanh_cell_backward"} <= set(calls)
        assert new[0] == old[0]
        for new_arrays, old_arrays in zip(new[1:], old[1:], strict=True):
            assert len(new_arrays) == len(old_arrays) > 0
            for a, b in zip(new_arrays, old_arrays, strict=True):
                assert a.dtype == np.float32 and np.array_equal(a, b)

    @staticmethod
    def _traced_step(monkeypatch):
        """Memory traced over one step at the entry and exit of its parts.  A
        large vocabulary makes the decoder's per-step logit gradients
        outweigh the encoder's caches."""
        # a queued gradient job holds its arrays until it runs
        monkeypatch.setattr(nn, "INLINE_GRAD_ELEMENTS", EVERY_SUM_INLINE)
        vocab, _ = toy_corpus()
        config = JsccConfig(vocab_size=2000, embed_dim=16, encoder_stacks=2, encoder_hidden=24,
                            decoder_stacks=2, decoder_hidden=24, bits=32, max_decode_len=10)
        trainer = Trainer(JsccModel(config, seed=2), TrainSettings(erasure_prob=0.1, seed=1))
        ids, targets = equal_length_batch(vocab, length=8, rows=32)
        rng = np.random.default_rng(0)
        trainer._step(ids, targets, 1.0, rng, 1, 0)  # allocates the gradients
        traced = {}

        def recorded(name, fn):
            def wrapper(*args):
                traced[name, "entry"] = tracemalloc.get_traced_memory()[0]
                out = fn(*args)
                traced[name, "exit"] = tracemalloc.get_traced_memory()[0]
                return out
            return wrapper
        for name in ("encode_training", "decode_teacher_forced", "encode_backward"):
            monkeypatch.setattr(JsccModel, name, recorded(name, getattr(JsccModel, name)))
        monkeypatch.setattr(training, "adam_step", recorded("adam_step", training.adam_step))
        tracemalloc.start()
        try:
            trainer._step(ids, targets, 1.0, rng, 1, 1)
        finally:
            tracemalloc.stop()
        encoder = traced["encode_training", "exit"] - traced["encode_training", "entry"]
        decoder = (traced["decode_teacher_forced", "exit"]
                   - traced["decode_teacher_forced", "entry"])
        assert decoder > encoder > 0
        return traced, encoder, decoder

    def test_decoder_caches_are_freed_before_encode_backward(self, monkeypatch):
        traced, _, decoder = self._traced_step(monkeypatch)
        assert traced["encode_backward", "entry"] < decoder, (traced, decoder)

    def test_encoder_caches_are_freed_before_adam_step(self, monkeypatch):
        traced, encoder, _ = self._traced_step(monkeypatch)
        assert traced["adam_step", "entry"] < encoder, (traced, encoder)


def paper_size_step(d, h, columns, dtype, seed):
    """A cell and step inputs at sizes whose input product runs on the worker."""
    rng = np.random.default_rng(seed)
    cell = nn.LstmCellParams(d, h, rng, dtype)
    x, h_prev, c_prev = (rng.uniform(-1, 1, (rows, columns)).astype(dtype) for rows in (d, h, h))
    return cell, x, h_prev, c_prev


def record_products(monkeypatch):
    """(thread name, weight) of each `nn.matmul` from now on."""
    products = []
    matmul = nn.matmul

    def recording(W, x):
        products.append((threading.current_thread().name, W))
        return matmul(W, x)
    monkeypatch.setattr(nn, "matmul", recording)
    return products


def record_handoffs(monkeypatch):
    """(fn, args) of each job handed to the worker from now on."""
    jobs = []
    submit = nn.Worker.submit

    def recording(worker, fn, *args):
        jobs.append((fn, args))
        return submit(worker, fn, *args)
    monkeypatch.setattr(nn.Worker, "submit", recording)
    return jobs


def drain_worker():
    """Return once the worker has taken every job handed to it before."""
    assert nn._executor().submit(int).result() == 0


def blocked_worker():
    """An Event whose set() frees the worker, which waits on it from now on."""
    release = threading.Event()
    nn._executor().submit(release.wait, 60)
    return release


WORKER = "textjscc-worker"


class TestConcurrentStep:
    """A large step hands its input product to the worker, which runs it
    unless the caller reclaims it first; either way it runs exactly once and
    the step equals the frozen serial cell bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d,h,columns", [(200, 512, 4), (512, 512, 1), (200, 256, 128)])
    def test_step_equals_the_serial_cell(self, monkeypatch, d, h, columns, dtype):
        cell, x, h_prev, c_prev = paper_size_step(d, h, columns, dtype, seed=d + columns)
        want = cached_tanh_cell_forward(cell, x, h_prev, c_prev)
        products = record_products(monkeypatch)
        handoffs = record_handoffs(monkeypatch)
        got = nn.lstm_cell_forward(cell, x, h_prev, c_prev)
        assert [args[0] is cell.Wx.value for _, args in handoffs] == [True]
        (wx_thread,) = [name for name, W in products if W is cell.Wx.value]
        assert wx_thread in ("MainThread", WORKER)
        assert [name for name, W in products if W is cell.Wh.value] == ["MainThread"]
        assert len(products) == 2
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for a, b in zip(got[2], want[2][:8], strict=True):
            assert a.dtype == dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_blocked_worker_leaves_the_product_to_its_caller(self, monkeypatch, dtype):
        """The worker waits on an Event while a step runs: the caller
        reclaims its product, and the worker never runs it afterwards."""
        step = paper_size_step(200, 512, 4, dtype, seed=3)
        want = cached_tanh_cell_forward(*step)
        release = blocked_worker()
        try:
            products = record_products(monkeypatch)
            handoffs = record_handoffs(monkeypatch)
            h, c, _ = nn.lstm_cell_forward(*step)
            assert len(handoffs) == 1
        finally:
            release.set()
        drain_worker()
        assert [name for name, _ in products] == ["MainThread", "MainThread"]
        assert {id(W) for _, W in products} == {id(step[0].Wx.value), id(step[0].Wh.value)}
        assert np.array_equal(h, want[0]) and np.array_equal(c, want[1])

    def test_a_raising_caller_withdraws_its_unstarted_product(self, monkeypatch):
        """On the error path the caller withdraws the product it handed off
        and does not compute it either."""
        step = paper_size_step(200, 512, 4, np.float32, seed=4)
        products = []

        def failing(W, x):
            products.append(threading.current_thread().name)
            raise ValueError("caller's product failed")
        release = blocked_worker()
        try:
            monkeypatch.setattr(nn, "matmul", failing)
            with pytest.raises(ValueError, match="caller's product failed"):
                nn.lstm_cell_forward(*step)
        finally:
            release.set()
        drain_worker()
        assert products == ["MainThread"]

    def test_threads_stepping_at_once_get_their_serial_results(self):
        """Four threads share the one worker under a short switch interval;
        a product handed to the wrong caller would break an equality."""
        steps = [paper_size_step(200, 512, 4, np.float32, seed=k) for k in range(8)]
        want = [cached_tanh_cell_forward(*step)[:2] for step in steps]
        errors, done = [], []

        def run(k):
            try:
                for rep in range(3):
                    for j in range(k, len(steps), 2):
                        h, c, _ = nn.lstm_cell_forward(*steps[j])
                        if not (np.array_equal(h, want[j][0]) and np.array_equal(c, want[j][1])):
                            errors.append((k, rep, j))
                done.append(k)
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k % 2,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(done) == 4

    def test_failing_product_raises_in_the_caller_and_the_next_step_works(self, monkeypatch):
        step = paper_size_step(200, 512, 4, np.float32, seed=1)
        want = cached_tanh_cell_forward(*step)
        error = ValueError("product failed")
        started = threading.Event()
        matmul = nn.matmul

        def failing_on_worker(W, x):
            if threading.current_thread().name == WORKER:
                started.set()
                raise error
            # the caller's product ends after the worker has taken its job
            assert started.wait(timeout=60)
            return matmul(W, x)
        with monkeypatch.context() as patch:
            patch.setattr(nn, "matmul", failing_on_worker)
            with pytest.raises(ValueError) as info:
                nn.lstm_cell_forward(*step)
            assert info.value is error
        h, c, _ = nn.lstm_cell_forward(*step)
        assert np.array_equal(h, want[0]) and np.array_equal(c, want[1])

    def test_caller_waits_for_the_worker_product_when_its_own_raises(self, monkeypatch):
        step = paper_size_step(200, 512, 4, np.float32, seed=2)
        finished = []
        started = threading.Event()
        matmul = nn.matmul

        def slow_worker_failing_caller(W, x):
            if threading.current_thread().name == WORKER:
                started.set()
                time.sleep(0.05)
                out = matmul(W, x)
                finished.append(True)
                return out
            assert started.wait(timeout=60)  # the worker has taken its job
            raise ValueError("caller's product failed")
        monkeypatch.setattr(nn, "matmul", slow_worker_failing_caller)
        with pytest.raises(ValueError, match="caller's product failed"):
            nn.lstm_cell_forward(*step)
        assert finished == [True]

    def test_paper_size_beam_search_uses_the_worker_and_keeps_its_tokens(self, monkeypatch):
        """Every product handed off runs exactly once, so a search makes as
        many products as a serial one, and returns its tokens."""
        model = JsccModel(load_config().jscc_config(1000), seed=5)
        obs = np.random.default_rng(4).choice([-1.0, 0.0, 1.0], size=model.config.bits)
        with monkeypatch.context() as patch:
            patch.setattr(nn, "CONCURRENT_MNK", NO_HANDOFF)
            handoffs = record_handoffs(patch)
            products = record_products(patch)
            serial = model.beam_search_decode(obs, max_len=6)
            serial_products = len(products)
        assert handoffs == []
        handoffs = record_handoffs(monkeypatch)
        products = record_products(monkeypatch)
        assert model.beam_search_decode(obs, max_len=6) == serial
        drain_worker()
        assert handoffs and len(products) == serial_products


def sequential_glorot(shapes, rng, dtype):
    """The reference for glorot_fill: one glorot_into call per block, in order."""
    return [nn.glorot_into(np.empty(shape, dtype), rng) for shape in shapes]


def sequential_model_weights(config, seed):
    """Every parameter value of JsccModel(config, seed) by name, from one
    glorot_into call per block in the model's draw order: embed, each
    encoder cell (fwd, bwd), W_h, W_c, the init maps, the decoder cells,
    W_out; within a cell, per gate i, f, g, o: Wx rows, Wh rows, peephole."""
    rng = np.random.default_rng(seed)
    dtype, half = config.dtype, config.bits // 2
    want = {}

    def draw(name, shape):
        want[name] = nn.glorot_into(np.empty(shape, dtype), rng)

    def cell(prefix, d, h):
        Wx, Wh, p = np.empty((4 * h, d), dtype), np.empty((4 * h, h), dtype), np.empty((3 * h, 1), dtype)
        for k, gate in enumerate("ifgo"):
            nn.glorot_into(Wx[k * h:(k + 1) * h], rng)
            nn.glorot_into(Wh[k * h:(k + 1) * h], rng)
            if gate != "g":
                j = "ifo".index(gate)
                nn.glorot_into(p[j * h:(j + 1) * h], rng)
        b = np.zeros((4 * h, 1), dtype)
        b[h:2 * h] = 1.0
        want.update({f"{prefix}.Wx": Wx, f"{prefix}.Wh": Wh, f"{prefix}.b": b, f"{prefix}.p": p})

    draw("embed", (config.vocab_size, config.embed_dim))
    d, he = config.embed_dim, config.encoder_hidden
    for j in range(config.encoder_stacks):
        cell(f"enc{j}.fwd", d, he)
        cell(f"enc{j}.bwd", d, he)
        d = 2 * he
    draw("bottleneck.W_h", (half, 2 * config.encoder_stacks * he))
    draw("bottleneck.W_c", (half, 2 * config.encoder_stacks * he))
    for j in range(config.decoder_stacks):
        draw(f"dec{j}.init.W_h", (config.decoder_hidden, half))
        draw(f"dec{j}.init.W_c", (config.decoder_hidden, half))
    d = config.embed_dim
    for j in range(config.decoder_stacks):
        cell(f"dec{j}", d, config.decoder_hidden)
        d = config.decoder_hidden
    draw("out.W", (config.vocab_size, config.decoder_hidden))
    return want


def assert_model_weights(model, want):
    for p in model.parameters():
        expected = want.get(p.name, np.zeros_like(p.value))  # biases not listed start at 0
        assert p.value.dtype == model.config.dtype and np.array_equal(p.value, expected), p.name


# Both sides of the split threshold; the cut falls after the third block.
SPLIT_SHAPES = [(300, 200), (7, 1), (512, 256), (1, 1), (256, 300), (40, 3)]
SERIAL_SHAPES = [(300, 200), (7, 1), (1, 1), (40, 3)]
PAPER = JsccConfig(vocab_size=1000)


def fill_jobs(handoffs):
    return [args for fn, args in handoffs if fn is nn._glorot_each]


class TestGlorotFill:
    """glorot_fill equals one glorot_into call per block, in order, and
    leaves the rng in the same state, whether or not the worker draws the
    back part."""

    def test_the_shapes_straddle_the_threshold(self):
        assert sum(a * b for a, b in SERIAL_SHAPES) < nn.SPLIT_DRAWS
        assert sum(a * b for a, b in SPLIT_SHAPES) >= nn.SPLIT_DRAWS

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes,jobs", [(SERIAL_SHAPES, 0), (SPLIT_SHAPES, 1)])
    @pytest.mark.parametrize("primed", [False, True])
    def test_equals_sequential_draws(self, monkeypatch, shapes, jobs, dtype, primed):
        """primed: one float32 draw first leaves half a 64-bit output
        buffered, which `advance` would drop."""
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        if primed:
            rng.random(dtype=np.float32)
            ref_rng.random(dtype=np.float32)
        want = sequential_glorot(shapes, ref_rng, dtype)
        blocks = [np.empty(shape, dtype) for shape in shapes]
        handoffs = record_handoffs(monkeypatch)
        nn.glorot_fill(blocks, rng)
        assert len(fill_jobs(handoffs)) == jobs
        for got, ref in zip(blocks, want, strict=True):
            assert np.array_equal(got, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random(dtype=np.float32) == ref_rng.random(dtype=np.float32)

    def test_a_stream_that_advances_in_other_units_draws_serially(self, monkeypatch):
        """Philox's `advance` steps whole counter blocks of four outputs, so
        an advanced copy would not continue where the front part ends."""
        rng, ref_rng = (np.random.Generator(np.random.Philox(5)) for _ in range(2))
        want = sequential_glorot(SPLIT_SHAPES, ref_rng, np.float32)
        blocks = [np.empty(shape, np.float32) for shape in SPLIT_SHAPES]
        handoffs = record_handoffs(monkeypatch)
        nn.glorot_fill(blocks, rng)
        assert not fill_jobs(handoffs)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, want, strict=True))
        assert rng.random() == ref_rng.random()

    def test_the_worker_draws_the_back_part_from_the_cut(self, monkeypatch):
        blocks = [np.empty(shape, np.float32) for shape in SPLIT_SHAPES]
        handoffs = record_handoffs(monkeypatch)
        nn.glorot_fill(blocks, np.random.default_rng(1))
        ((back, _),) = fill_jobs(handoffs)
        assert [b.shape for b in back] == SPLIT_SHAPES[3:]
        assert all(a is b for a, b in zip(back, blocks[3:], strict=True))

    def test_a_blocked_worker_leaves_the_back_part_to_its_caller(self, monkeypatch):
        """The caller reclaims the back part and draws it on from where its
        front part ended; the worker never runs it afterwards."""
        ref_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
        want = sequential_glorot(SPLIT_SHAPES, ref_rng, np.float32)
        blocks = [np.empty(shape, np.float32) for shape in SPLIT_SHAPES]
        threads = []
        glorot_into = nn.glorot_into

        def recording(block, rng):
            threads.append(threading.current_thread().name)
            return glorot_into(block, rng)
        release = blocked_worker()
        try:
            handoffs = record_handoffs(monkeypatch)
            monkeypatch.setattr(nn, "glorot_into", recording)
            nn.glorot_fill(blocks, rng)
            assert len(fill_jobs(handoffs)) == 1
        finally:
            release.set()
        drain_worker()
        assert threads == ["MainThread"] * len(SPLIT_SHAPES)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, want, strict=True))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_an_error_in_the_back_part_is_raised_after_the_front_part(self):
        blocks = [np.empty(shape, np.float32) for shape in SPLIT_SHAPES]
        blocks[4] = np.empty((256, 600), np.float32)[:, ::2]  # a strided view: glorot_into raises
        want = sequential_glorot(SPLIT_SHAPES[:3], np.random.default_rng(4), np.float32)
        with pytest.raises(ShapeError, match="C-contiguous"):
            nn.glorot_fill(blocks, np.random.default_rng(4))
        assert all(np.array_equal(a, b) for a, b in zip(blocks[:3], want, strict=True))

    def test_an_error_in_the_front_part_waits_for_the_started_back_part(self, monkeypatch):
        """The caller's part fails once the worker has started the back part,
        which then waits for that failure: the error reaches the caller only
        after the worker has drawn every back block."""
        blocks = [np.empty(shape, np.float32) for shape in SPLIT_SHAPES]
        blocks[0] = np.empty((300, 400), np.float32)[:, ::2]
        started, failed, events = threading.Event(), threading.Event(), []
        glorot_into = nn.glorot_into

        def gated(block, rng):
            if threading.current_thread().name == WORKER:
                started.set()
                failed.wait(10)
                glorot_into(block, rng)
                events.append("worker")
                return block
            started.wait(10)
            try:
                return glorot_into(block, rng)
            finally:
                events.append("caller")
                failed.set()
        monkeypatch.setattr(nn, "glorot_into", gated)
        with pytest.raises(ShapeError, match="C-contiguous"):
            nn.glorot_fill(blocks, np.random.default_rng(4))
        assert events == ["caller"] + ["worker"] * (len(SPLIT_SHAPES) - 3)

    def test_a_large_cell_equals_its_per_gate_draws(self, monkeypatch):
        d, h = 512, 512
        handoffs = record_handoffs(monkeypatch)
        rng = np.random.default_rng(6)
        cell = nn.LstmCellParams(d, h, rng, np.float32, "c")
        assert len(fill_jobs(handoffs)) == 1
        ref_rng = np.random.default_rng(6)
        shapes = [s for g in "ifgo" for s in [(h, d), (h, h)] + ([(h, 1)] if g != "g" else [])]
        want = iter(sequential_glorot(shapes, ref_rng, np.float32))
        for k, gate in enumerate("ifgo"):
            rows = slice(k * h, (k + 1) * h)
            assert np.array_equal(cell.Wx.value[rows], next(want))
            assert np.array_equal(cell.Wh.value[rows], next(want))
            if gate != "g":
                j = "ifo".index(gate)
                assert np.array_equal(cell.p.value[j * h:(j + 1) * h], next(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestModelInitialization:
    """JsccModel(config, seed) equals one glorot_into call per weight block
    in the model's draw order."""

    @pytest.mark.parametrize("seed", [0, 1234])
    def test_paper_model_splits_its_draws(self, monkeypatch, seed):
        handoffs = record_handoffs(monkeypatch)
        model = JsccModel(PAPER, seed)
        assert len(fill_jobs(handoffs)) == 1
        assert_model_weights(model, sequential_model_weights(PAPER, seed))

    def test_toy_model_draws_serially(self, monkeypatch):
        config = JsccConfig(vocab_size=40, embed_dim=16, encoder_stacks=2, encoder_hidden=12,
                            decoder_stacks=2, decoder_hidden=24, bits=32, precision="f64")
        handoffs = record_handoffs(monkeypatch)
        model = JsccModel(config, 3)
        assert not handoffs
        assert_model_weights(model, sequential_model_weights(config, 3))

    def test_a_blocked_worker_leaves_the_paper_model_identical(self, monkeypatch):
        release = blocked_worker()
        try:
            handoffs = record_handoffs(monkeypatch)
            model = JsccModel(PAPER, 1)
            assert len(fill_jobs(handoffs)) == 1
        finally:
            release.set()
        drain_worker()
        assert_model_weights(model, sequential_model_weights(PAPER, 1))


class TestNarrowRun:
    """A one-column run below the handoff size takes its input products in
    one product; runs of more columns keep one product per step."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d,h,columns,steps", [(16, 12, 2, 6), (48, 20, 5, 7), (24, 24, 16, 5),
                                                   (200, 256, 2, 6), (200, 256, 11, 4),
                                                   (512, 256, 16, 3), (48, 12, 24, 9)])
    def test_wider_runs_equal_the_per_step_cell(self, d, h, columns, steps, dtype):
        rng = np.random.default_rng(d + h + columns)
        fwd, bwd = (nn.LstmCellParams(d, h, rng, dtype) for _ in range(2))
        assert not nn._hands_off(fwd.Wx.value, h, columns)
        xs = [rng.uniform(-1, 1, (d, columns)).astype(dtype) for _ in range(steps)]
        got, want = nn.lstm_run(fwd, xs), cached_tanh_run(fwd, xs)
        for a, b in zip(got[0] + got[1], want[0] + want[1], strict=True):
            assert a.dtype == dtype and np.array_equal(a, b)
        for a, b in zip(got[2], want[2], strict=True):
            assert all(np.array_equal(u, v) for u, v in zip(a, b[:8], strict=True))
        got, want = nn.blstm_layer_forward(fwd, bwd, xs), concatenating_blstm_forward(fwd, bwd, xs)
        for a, b in zip(got[0] + got[1], want[0] + want[1], strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d,h,steps", [(9, 5, 7), (200, 256, 15), (512, 256, 31)])
    def test_one_column_agrees_within_roundoff(self, d, h, steps, dtype):
        rng = np.random.default_rng(d + h)
        fwd, bwd = (nn.LstmCellParams(d, h, rng, dtype) for _ in range(2))
        xs = [rng.uniform(-1, 1, (d, 1)).astype(dtype) for _ in range(steps)]
        for got, want in ((nn.lstm_run(fwd, xs), cached_tanh_run(fwd, xs)),
                          (nn.blstm_layer_forward(fwd, bwd, xs),
                           concatenating_blstm_forward(fwd, bwd, xs))):
            for a, b in zip(got[0] + got[1], want[0] + want[1], strict=True):
                assert a.dtype == dtype and np.max(np.abs(a - b)) <= 1e-6

    def test_one_column_encode_keeps_the_codewords(self, monkeypatch):
        vocab, toks = toy_corpus(n=32)
        model = JsccModel(load_config().jscc_config(len(vocab)), seed=3)
        alone = [model.encode(t.ids) for t in toks]
        grouped = model.encode_sentences(toks)
        for module in (nn, model_module):
            monkeypatch.setattr(module, "lstm_run", cached_tanh_run)
            monkeypatch.setattr(module, "blstm_layer_forward", concatenating_blstm_forward)
        for t, codeword, row in zip(toks, alone, grouped, strict=True):
            assert np.array_equal(codeword, model.encode(t.ids))
            assert np.array_equal(codeword, row)

    @pytest.mark.parametrize("stacks", [1, 2, 3])
    def test_one_column_encode_reads_each_input_weight_once(self, monkeypatch, stacks):
        model = JsccModel(JsccConfig(vocab_size=30, embed_dim=9, encoder_stacks=stacks,
                                     encoder_hidden=5, bits=12), seed=0)
        products = record_products(monkeypatch)
        model.encode([4, 5, 6, 7, 8])
        for fwd, bwd in model.encoder:
            for cell in (fwd, bwd):
                assert sum(W is cell.Wx.value for _, W in products) == 1, cell.Wx.name
