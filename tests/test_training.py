import numpy as np
import pytest

from textjscc.checkpoint import load_model, read_checkpoint, restore_adam, save_checkpoint
from textjscc.corpus import batch_by_length, build_vocabulary, tokenize
from textjscc.errors import IoError
from textjscc.model import JsccConfig, JsccModel
from textjscc.training import Trainer, TrainSettings, tf_schedule


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
            model.encode_batch(np.array([sent.ids]), "deterministic"))
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
        _, _, blobs = read_checkpoint(path)
        assert list(blobs)[: len(model.parameters())] == [p.name for p in model.parameters()]

    def test_every_truncation_is_io_error(self, tmp_path):
        config = JsccConfig(vocab_size=6, embed_dim=2, encoder_stacks=1, encoder_hidden=2,
                            decoder_stacks=1, decoder_hidden=2, bits=4, beam_width=1,
                            max_decode_len=3)
        path = tmp_path / "model.tjscc"
        save_checkpoint(str(path), JsccModel(config))
        blob = path.read_bytes()
        cut = tmp_path / "cut.tjscc"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(IoError):
                read_checkpoint(str(cut))
        cut.write_bytes(blob + b"\0")
        with pytest.raises(IoError, match="trailing"):
            read_checkpoint(str(cut))

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
        model = small_model(len(vocab))
        path = str(tmp_path / "model.tjscc")
        save_checkpoint(path, model)
        again, extra = load_model(path)
        extra["has_adam"] = True
        with pytest.raises(IoError, match="adam.m"):
            restore_adam(again, extra, 1e-3, 5.0)

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

        resumed, extra = load_model(path)
        adam = restore_adam(resumed, extra, settings.lr, settings.clip)
        Trainer(resumed, settings, adam, start_epoch=int(extra["epoch"])).run(toks, plan, 3)

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


class TestNumericalGuard:
    def test_non_finite_loss_raises(self):
        from textjscc.errors import NumericalError

        vocab, toks = toy_corpus()
        model = small_model(len(vocab))
        model.W_out.value[...] = np.inf
        plan = batch_by_length(toks, 8)
        trainer = Trainer(model, TrainSettings(seed=1))
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            trainer.run(toks, plan, 1)
