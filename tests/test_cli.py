import json
import logging
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textjscc import cli, training
from textjscc.analysis import classical_mds
from textjscc.checkpoint import load_for_resume, load_model, save_checkpoint
from textjscc.config import DEFAULTS, load_config
from textjscc.corpus import SPECIALS, Vocabulary, tokenize
from textjscc.errors import ConfigError
from textjscc.model import JsccConfig, JsccModel

CORPUS = [
    "the cat sat on the mat .",
    "a dog ran across the street .",
    "the bird sang in the garden all day .",
    "children play near the old house .",
    "the train arrived at the station early .",
    "a quiet river flows past the town .",
    "the teacher reads a new book today .",
    "people walk along the bright street .",
    "the cat naps in the garden .",
    "a child waves at the slow train .",
]

TRAINLOG_LINE = "epoch,loss,train_wer,tf_prob,grad_norm,clip_rate,sentences_per_s"


@pytest.fixture
def workdir(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("\n".join(CORPUS) + "\n")
    out = tmp_path / "runs"
    base = ["--out", str(out), "--set", f"corpus.train={corpus_path}",
            "--set", "corpus.vocab_size=64"]
    return tmp_path, out, base


def run(args):
    return cli.main(args)


class TestPrepare:
    def test_writes_artifacts_with_hand_counts(self, workdir, capsys):
        tmp, out, base = workdir
        assert run(["prepare"] + base) == 0
        text = capsys.readouterr().out
        vocab = Vocabulary.load(str(out / "vocab.txt"))
        distinct = {w for line in CORPUS for w in line.split()}
        assert len(vocab) == len(distinct) + 4
        assert vocab.id_to_token[:4] == list(SPECIALS)
        kept = (out / "train_filtered.txt").read_text().splitlines()
        assert len(kept) == len(CORPUS)  # all lengths in 4..30, no unknowns
        assert f"train sentences kept: {len(CORPUS)} of {len(CORPUS)}" in text
        assert (out / "charfreq.tsv").exists()

    def test_idempotent(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        first = {name: (out / name).read_bytes()
                 for name in ("vocab.txt", "train_filtered.txt", "charfreq.tsv")}
        run(["prepare"] + base)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

    def test_missing_corpus_is_io_error(self, workdir, capsys):
        tmp, out, base = workdir
        code = run(["prepare", "--out", str(out),
                    "--set", f"corpus.train={tmp}/nope.txt"])
        assert code == 3
        assert "nope.txt" in capsys.readouterr().err

    def test_missing_test_corpus_writes_nothing(self, workdir, capsys):
        tmp, out, base = workdir
        code = run(["prepare", "--set", f"corpus.test={tmp}/nope.txt"] + base)
        assert code == 3
        assert "nope.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_unconfigured_corpus_is_config_error(self, workdir):
        tmp, out, _ = workdir
        assert run(["prepare", "--out", str(out)]) == 2

    def test_non_utf8_corpus_is_io_error(self, workdir, capsys):
        tmp, out, base = workdir
        (tmp / "corpus.txt").write_bytes("the café is open .\n".encode("latin-1"))
        assert run(["prepare"] + base) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "corpus.txt" in err and "Traceback" not in err


class TestFlags:
    def test_unknown_flag_exits_2(self, workdir, capsys):
        tmp, out, base = workdir
        assert run(["prepare", "--bogus"] + base) == 2

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        tmp, out, base = workdir
        assert run(["prepare", "--set", "no.such.key=1"] + base) == 2
        assert "no.such.key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [k for k, v in DEFAULTS.items()
                                     if isinstance(v, (int, float))])
    def test_non_number_exits_2(self, workdir, capsys, key):
        tmp, out, base = workdir
        assert run(["prepare"] + base + ["--set", f"{key}=abc"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["3", "[a]", "true"])
    def test_path_key_takes_string_or_null(self, workdir, value):
        tmp, out, base = workdir
        assert run(["prepare"] + base + ["--set", f"model.glove={value}"]) == 2
        assert run(["prepare"] + base + ["--set", "model.glove=null"]) == 0

    def test_jobs_is_unknown_flag(self, workdir):
        tmp, out, base = workdir
        assert run(["sweep", "--jobs", "2"] + base) == 2

    def test_bad_model_bits_exits_2(self, workdir):
        tmp, out, base = workdir
        assert run(["prepare", "--set", "model.bits=401"] + base) == 2

    @pytest.mark.parametrize("key,value,choices", [
        ("train.precision", "f16", "f32 or f64"),
        ("baseline.fec_mode", "ideal", "idealized or concrete"),
    ])
    def test_bad_choice_names_the_value(self, workdir, capsys, key, value, choices):
        tmp, out, base = workdir
        assert run(["prepare", "--set", f"{key}={value}"] + base) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {key} must be {choices}, got {value!r}\n", err

    def test_set_overrides_config_file(self, tmp_path, capsys):
        corpus_path = tmp_path / "c.txt"
        corpus_path.write_text("\n".join(CORPUS) + "\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"corpus.train: {corpus_path}\ncorpus.vocab_size: 10\n")
        out = tmp_path / "o"
        assert run(["prepare", "--config", str(cfg), "--out", str(out),
                    "--set", "corpus.vocab_size=64"]) == 0
        vocab = Vocabulary.load(str(out / "vocab.txt"))
        assert len(vocab) > 10

    @pytest.mark.parametrize("form", ["set", "file"])
    def test_exponent_float_is_a_number(self, workdir, form):
        tmp, out, base = workdir
        if form == "set":
            args = ["--set", "train.lr=1e-9"]
            cfg = load_config(overrides=["train.lr=1e-9"])
        else:
            (tmp / "run.yaml").write_text("train.lr: 1e-9\n")
            args = ["--config", str(tmp / "run.yaml")]
            cfg = load_config(str(tmp / "run.yaml"))
        assert cfg["train.lr"] == 1e-9
        assert run(["prepare"] + base + args) == 0

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-9"])
    def test_non_rate_exits_2(self, workdir, capsys, value):
        tmp, out, base = workdir
        assert run(["prepare"] + base + ["--set", f"train.lr={value}"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: train.lr "), err

    def test_help_on_subcommands(self, capsys):
        for name in ("prepare", "train", "transmit", "sweep", "embed", "gradcheck"):
            assert run([name, "--help"]) == 0
            text = capsys.readouterr().out
            assert "--config" in text and "--set" in text and "--seed" in text

    @pytest.mark.parametrize("kind", ["missing", "not_utf8", "directory"])
    def test_unreadable_config_exits_2(self, workdir, capsys, kind):
        tmp, out, base = workdir
        path = tmp / "run.yaml"
        if kind == "not_utf8":
            path.write_bytes(b"seed: 7 # \xff\n")
        elif kind == "directory":
            path.mkdir()
        assert run(["prepare", "--config", str(path)] + base) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: "), err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_no_partial_writes_on_validation_failure(self, workdir):
        tmp, out, base = workdir
        assert run(["prepare", "--set", "model.bits=-3"] + base) == 2
        assert not out.exists()

    def test_log_level_env(self, workdir, monkeypatch):
        tmp, out, base = workdir
        monkeypatch.setenv("TEXTJSCC_LOG", "debug")
        assert run(["prepare"] + base) == 0


SMALL_MODEL = [
    "--set", "model.embed_dim=12", "--set", "model.encoder_hidden=8",
    "--set", "model.decoder_hidden=12", "--set", "model.bits=24",
    "--set", "train.batch_size=8", "--set", "channel.erasure_prob=0.0",
]


class TestRangeTable:
    """An out-of-range numeric setting is a config error before any work
    starts; the nearest valid setting still runs."""

    COMMANDS = {
        "prepare": ["prepare"],
        "train": ["train", "--set", "train.epochs=1"],
        "sweep": ["sweep", "--set", "sweep.values=[200]", "--set", "sweep.systems=[fixed5]",
                  "--set", "sweep.trials=1"],
    }
    OUTPUTS = {"prepare": "vocab.txt", "train": "model.tjscc",
               "sweep": "sweep_bits_per_sentence.json"}
    CASES = [  # key, out of range, valid neighbour, a command that reads the key
        ("seed", -1, 0, "train"),
        ("corpus.vocab_size", 4, 5, "prepare"),
        ("corpus.max_unk_frac", 1.5, 1, "prepare"),
        ("corpus.min_len", 0, 1, "prepare"),
        ("corpus.max_len", 0, 4, "prepare"),  # 4 is the default min_len
        ("model.embed_dim", 0, 1, "train"),
        ("model.encoder_stacks", 0, 1, "train"),
        ("model.encoder_hidden", 0, 1, "train"),
        ("model.decoder_stacks", 0, 1, "train"),
        ("model.decoder_hidden", 0, 1, "train"),
        ("model.beam_width", 0, 1, "train"),
        ("model.max_decode_len", 0, 1, "train"),
        ("train.batch_size", 0, 1, "train"),
        ("train.epochs", -1, 0, "train"),
        ("train.lr", 0, 0.0001, "train"),
        ("train.clip", -1, 0, "train"),
        ("train.tf_start_epochs", -1, 0, "train"),
        ("train.tf_decay_epochs", -1, 0, "train"),
        ("train.tf_min", -0.1, 0, "train"),
        ("train.tf_min", 1.5, 1, "train"),
        ("train.checkpoint_every", 0, 1, "train"),
        ("train.wer_sample", -1, 0, "train"),
        ("channel.erasure_prob", -0.1, 0.0, "sweep"),
        ("channel.erasure_prob", 1.0, 0.9, "sweep"),
        ("sweep.trials", 0, 1, "sweep"),
    ]

    @pytest.mark.parametrize("key, bad, good, command", CASES)
    def test_out_of_range_exits_2(self, workdir, capsys, key, bad, good, command):
        tmp, out, base = workdir
        code = run(self.COMMANDS[command] + SMALL_MODEL + base + ["--set", f"{key}={bad}"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: {key} "), err
        assert not out.exists()

    @pytest.mark.parametrize("key, bad, good, command", CASES)
    def test_valid_neighbour_runs(self, workdir, key, bad, good, command):
        tmp, out, base = workdir
        neighbour = ["--set", f"{key}={good}"]
        assert run(["prepare"] + base + neighbour) == 0
        assert run(self.COMMANDS[command] + SMALL_MODEL + base + neighbour) == 0
        assert (out / self.OUTPUTS[command]).exists()

    def test_min_len_above_max_len_exits_2(self, workdir, capsys):
        tmp, out, base = workdir
        bounds = ["--set", "corpus.min_len=20", "--set", "corpus.max_len=3"]
        assert run(["prepare"] + base + bounds) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("config error: corpus.min_len must not exceed"), err
        assert not out.exists()

    def test_equal_length_bounds_run(self, workdir, capsys):
        tmp, out, base = workdir
        bounds = ["--set", "corpus.min_len=7", "--set", "corpus.max_len=7"]
        assert run(["prepare"] + base + bounds) == 0
        kept = sum(len(line.split()) == 7 for line in CORPUS)
        assert f"train sentences kept: {kept} of {len(CORPUS)}" in capsys.readouterr().out

    SWEEP_VALUES = [("bits_per_sentence", "[a, b]"), ("bits_per_sentence", "[[1], [2]]"),
                    ("bits_per_sentence", "[200, 300.7]"), ("bits_per_sentence", "[0]"),
                    ("sentence_length", "[true]"), ("erasure_rate", "[0.1, 1.0]")]

    @pytest.mark.parametrize("axis, values", SWEEP_VALUES)
    def test_bad_sweep_values_exit_2(self, workdir, capsys, axis, values):
        tmp, out, base = workdir
        assert run(["prepare"] + base) == 0
        capsys.readouterr()
        code = run(self.COMMANDS["sweep"] + base + ["--set", f"sweep.axis={axis}",
                                                    "--set", f"sweep.values={values}"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        assert "values must " in err

    @pytest.mark.parametrize("bad", [
        ["--set", "sweep.axis=bogus"],
        ["--set", "sweep.systems=[bogus]"],
        ["--set", "sweep.systems=[[fixed5]]"],
        ["--set", "sweep.axis=erasure_rate", "--set", "sweep.values=[0.5, 1.0]"],
    ], ids=["axis", "systems", "nested-systems", "erasure-rate-values"])
    def test_bad_sweep_key_exits_2_before_any_file(self, workdir, capsys, bad):
        """A bad sweep.* value is a config error in a fresh directory, not a
        complaint about the missing vocabulary."""
        tmp, out, base = workdir
        code = run(["sweep"] + base + bad)
        err = capsys.readouterr().err
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        assert not out.exists()


NUMERIC_KEYS = sorted(key for key, value in DEFAULTS.items() if type(value) in (int, float))
YAML_SPELLINGS = ["1e-9", "1e400", "-1e400", ".nan", ".inf", "-.inf", "0x10", "1_000",
                  "true", "[]", "~", "-0", "0.5", "1.5e3", "07"]


class TestNumericOverrides:
    """Any numeric --set override either configures a run or is a config
    error: no raw exception from loading it or building from it."""

    def test_every_numeric_key_is_drawn(self):
        assert len(NUMERIC_KEYS) == 25

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(NUMERIC_KEYS),
                              st.one_of(st.integers(-2**70, 2**70), st.floats(),
                                        st.sampled_from(YAML_SPELLINGS))),
                    min_size=1, max_size=3))
    def test_ends_configured_or_config_error(self, overrides):
        try:
            cfg = load_config(None, [f"{key}={value}" for key, value in overrides])
            cfg.jscc_config(cfg["corpus.vocab_size"])
            cfg.train_settings()
            cfg.sweep_spec()
        except ConfigError:
            pass


class TestTrain:
    def test_empty_training_set_exits_3(self, workdir, capsys):
        tmp, out, base = workdir
        assert run(["prepare"] + base + ["--set", "corpus.min_len=20"]) == 0
        assert f"train sentences kept: 0 of {len(CORPUS)}" in capsys.readouterr().out
        code = run(["train", "--set", "train.epochs=1"] + SMALL_MODEL + base
                   + ["--set", "corpus.min_len=20"])
        err = capsys.readouterr().err
        assert code == 3, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err

    def test_zero_epochs_checkpoint_is_initialization(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3", "--set", "train.epochs=0"] + SMALL_MODEL + base
        assert run(args) == 0
        model, extra = load_model(str(out / "model.tjscc"))
        fresh = JsccModel(model.config, seed=3)
        for p, q in zip(model.parameters(), fresh.parameters()):
            assert np.array_equal(p.value, q.value), p.name

    def test_short_training_writes_log(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3", "--set", "train.epochs=2"] + SMALL_MODEL + base
        assert run(args) == 0
        rows = (out / "trainlog.csv").read_text().splitlines()
        assert rows[0] == TRAINLOG_LINE
        assert len(rows) == 3

    def test_trainlog_row_bytes(self, tmp_path):
        # each value is written as its shortest round-trip form, a numpy
        # scalar included, and the lines end in CRLF
        path = str(tmp_path / "trainlog.csv")
        cli._write_trainlog(path, [training.EpochLog(2, 1 / 3, float("nan"), 0.5,
                                                     np.float64(2.5), 0.0, 1e-05)])
        assert (tmp_path / "trainlog.csv").read_bytes() == (
            b"epoch,loss,train_wer,tf_prob,grad_norm,clip_rate,sentences_per_s\r\n"
            b"2,0.3333333333333333,nan,0.5,2.5,0.0,1e-05\r\n")

    def test_resume_reproduces_unbroken_run(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base
        assert run(args + ["--set", "train.epochs=4"]) == 0
        straight, _ = load_model(str(out / "model.tjscc"))

        assert run(args + ["--set", "train.epochs=2"]) == 0
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        assert run(args + ["--set", "train.epochs=2", "--resume", mid]) == 0
        resumed, _ = load_model(str(out / "model.tjscc"))
        for p, q in zip(straight.parameters(), resumed.parameters()):
            assert np.array_equal(p.value, q.value), p.name

    @staticmethod
    def _log(out, drop_rate=False):
        """trainlog.csv's lines, without the wall-clock sentences_per_s column
        when drop_rate is set."""
        lines = (out / "trainlog.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines] if drop_rate else lines

    def test_resumed_log_matches_unbroken_run(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base
        assert run(args + ["--set", "train.epochs=3"]) == 0
        straight = self._log(out, drop_rate=True)

        assert run(args + ["--set", "train.epochs=2"]) == 0
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        assert run(args + ["--set", "train.epochs=1", "--resume", mid]) == 0
        assert len(straight) == 4
        assert self._log(out, drop_rate=True) == straight

    def test_zero_epoch_resume_keeps_the_log(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base
        assert run(args + ["--set", "train.epochs=2"]) == 0
        before = (out / "trainlog.csv").read_bytes()
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        assert run(args + ["--set", "train.epochs=0", "--resume", mid]) == 0
        assert (out / "trainlog.csv").read_bytes() == before

    def test_resume_drops_epochs_past_the_checkpoint(self, workdir):
        """A log written past the checkpoint it resumes from, as by a run
        interrupted between checkpoints, loses those epochs' rows."""
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base
        assert run(args + ["--set", "train.epochs=2"]) == 0
        two = (out / "trainlog.csv").read_bytes()
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        assert run(args + ["--set", "train.epochs=1", "--resume", mid]) == 0
        assert len(self._log(out)) == 4
        assert run(args + ["--set", "train.epochs=0", "--resume", mid]) == 0
        assert (out / "trainlog.csv").read_bytes() == two

    def test_resume_without_a_log_starts_one(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base
        assert run(args + ["--set", "train.epochs=2"]) == 0
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        os.remove(out / "trainlog.csv")
        assert run(args + ["--set", "train.epochs=1", "--resume", mid]) == 0
        assert [line.split(",")[0] for line in self._log(out)] == ["epoch", "3"]

    @pytest.mark.parametrize("log", ["epoch,loss\r\n", "", "not,a,log\r\n",
                                     TRAINLOG_LINE + "\r\nx,1,1,1,1,1,1\r\n"],
                             ids=["short-header", "empty", "foreign", "bad-epoch"])
    def test_unreadable_log_exits_3_and_keeps_it(self, workdir, capsys, log):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base
        assert run(args + ["--set", "train.epochs=1"]) == 0
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        (out / "trainlog.csv").write_bytes(log.encode())
        capsys.readouterr()
        assert run(args + ["--set", "train.epochs=1", "--resume", mid]) == 3
        assert "does not hold one row per epoch" in capsys.readouterr().err
        assert (out / "trainlog.csv").read_bytes() == log.encode()
        assert not (out / "model.tjscc").exists()

    def test_resume_warns_once_when_the_build_differs(self, workdir, caplog):
        """`train --resume` says nothing under the build that wrote the
        checkpoint, and logs one warning line under another."""
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3", "--set", "train.epochs=1"] + SMALL_MODEL + base
        assert run(args) == 0
        mid = out / "mid.tjscc"
        os.replace(str(out / "model.tjscc"), mid)
        caplog.set_level(logging.INFO)
        assert run(args + ["--resume", str(mid)]) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        data = mid.read_bytes()
        (json_len,) = struct.unpack_from("<I", data, 7)
        meta = json.loads(data[11:11 + json_len])
        meta["build"]["numpy"] = "1.0.0"
        header = json.dumps(meta).encode("utf-8")
        mid.write_bytes(data[:7] + struct.pack("<I", len(header)) + header
                        + data[11 + json_len:])
        caplog.clear()
        assert run(args + ["--resume", str(mid)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and str(mid) in warnings[0] and "'1.0.0'" in warnings[0]

    @pytest.mark.parametrize("epochs, every, saves", [(4, 2, 2), (3, 2, 2), (0, 1, 1)])
    def test_final_checkpoint_written_once(self, workdir, monkeypatch, epochs, every, saves):
        tmp, out, base = workdir
        run(["prepare"] + base)
        written = []

        def counting(path, model, adam=None, extra=None):
            written.append(extra["epoch"])
            save_checkpoint(path, model, adam, extra)
        monkeypatch.setattr(cli, "save_checkpoint", counting)
        assert run(["train", "--set", f"train.epochs={epochs}",
                    "--set", f"train.checkpoint_every={every}"] + SMALL_MODEL + base) == 0
        assert len(written) == saves and written[-1] == epochs, written
        assert load_for_resume(str(out / "model.tjscc"), 1e-3, 5.0)[2] == epochs
        assert len((out / "trainlog.csv").read_text().splitlines()) == 1 + epochs

    def test_resumed_run_holds_one_copy_of_the_state(self, workdir, monkeypatch):
        """While a resumed run trains, the parameters and both Adam moments
        are in memory once, not again as the checkpoint's blobs."""
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["train", "--seed", "3"] + SMALL_MODEL + base + [
            "--set", "model.decoder_hidden=96", "--set", "model.embed_dim=32"]
        assert run(args + ["--set", "train.epochs=1"]) == 0
        mid = str(out / "mid.tjscc")
        os.replace(str(out / "model.tjscc"), mid)
        model, _ = load_model(mid)
        state_bytes = 3 * sum(p.value.nbytes for p in model.parameters())
        del model
        held = []

        def measure(trainer, *rest, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return []
        monkeypatch.setattr(training.Trainer, "run", measure)
        tracemalloc.start()
        try:
            assert run(args + ["--set", "train.epochs=1", "--resume", mid]) == 0
        finally:
            tracemalloc.stop()
        assert state_bytes <= held[0] < 1.5 * state_bytes, (held, state_bytes)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="one core: BLAS runs one thread whether or not the "
                               "environment sets a count, so the pin cannot show")
    def test_unset_thread_count_trains_the_one_thread_weights(self, tmp_path):
        """`textjscc train` with no BLAS thread count in the environment
        writes the weights of a one-thread run.  The model is the smallest
        found whose products OpenBLAS splits differently on two threads: the
        product of the output-layer gradient (1024 x 504) with the output
        weights differs in its last bits, and the second of two Adam steps
        carries that into the weights."""
        words = [f"w{i}" for i in range(500)]
        lines = [" ".join(words[(8 * s + k) % 500] for k in range(8)) for s in range(2048)]
        (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
        base = ["--out", str(tmp_path / "runs"), "--set", f"corpus.train={tmp_path}/corpus.txt",
                "--set", "corpus.vocab_size=504"]
        assert run(["prepare"] + base) == 0
        args = ["train", "--set", "train.epochs=1", "--set", "train.wer_sample=0",
                "--set", "train.batch_size=1024", "--set", "model.embed_dim=4",
                "--set", "model.encoder_stacks=1", "--set", "model.encoder_hidden=4",
                "--set", "model.decoder_stacks=1", "--set", "model.decoder_hidden=2",
                "--set", "model.bits=8"] + base
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        weights = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            proc = subprocess.run([sys.executable, "-m", "textjscc.cli"] + args,
                                  env=dict(env, **threads), capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            model, _ = load_model(str(tmp_path / "runs" / "model.tjscc"))
            weights.append(b"".join(p.value.tobytes() for p in model.parameters()))
        assert weights[0] == weights[1]


class TestTransmit:
    def test_fixed5_lossless_round_trip(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .",
                    "--system", "fixed5"] + base)
        assert code == 0
        text = capsys.readouterr().out
        assert "decoded: the cat sat on the mat ." in text
        assert "wer: 0.0000" in text

    def test_tight_budget_reports_drops(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .",
                    "--system", "fixed5", "--set", "model.bits=20"] + base)
        assert code == 0
        text = capsys.readouterr().out
        drops = int(text.split("words dropped to fit:")[1].split()[0])
        assert drops > 0
        wer_val = float(text.split("wer:")[1].split()[0])
        assert wer_val == pytest.approx(drops / 7, abs=5e-5)  # printed at 4 decimals

    def test_huffman_and_lz_systems(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        for system in ("huffman", "gzip-batch"):
            capsys.readouterr()
            code = run(["transmit", "--sentence", "the cat sat on the mat .",
                        "--system", system] + base)
            assert code == 0
            assert "wer: 0.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("system", ["huffman", "fixed5", "gzip-batch"])
    def test_concrete_decode_failure_is_a_lost_frame(self, workdir, capsys, system):
        tmp, out, base = workdir
        run(["prepare"] + base)
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .",
                    "--system", system, "--set", "baseline.fec_mode=concrete",
                    "--set", "channel.erasure_prob=0.1"] + base)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == ["decode failure: 32 erasures exceed capability 31",
                              "decoded: ", "wer: 1.0000"]

    def test_unhostable_plan_exits_2(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .", "--system", "fixed5",
                    "--set", "baseline.fec_mode=concrete", "--set", "channel.erasure_prob=0.1",
                    "--set", "model.bits=20"] + base)
        assert code == 2
        assert capsys.readouterr().err == ("config error: fixed5: budget of 20 bits cannot "
                                           "host any RS block at p_d=0.1\n")

    def test_corrupt_frequency_table_exits_3(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        (out / "charfreq.tsv").write_text("e\tmany\n", encoding="utf-8")
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .",
                    "--system", "huffman"] + base)
        assert code == 3
        assert "charfreq.tsv" in capsys.readouterr().err

    def test_oversized_checkpoint_header_exits_3(self, workdir, capsys):
        """A header whose config implies far more parameters than the file
        holds is an IoError before any array is allocated."""
        tmp, out, base = workdir
        run(["prepare"] + base)
        config = JsccConfig(vocab_size=6, embed_dim=2, encoder_stacks=1, encoder_hidden=2,
                            decoder_stacks=1, decoder_hidden=2, bits=4)
        meta = {"config": dict(config.to_dict(), vocab_size=10**9), "extra": {},
                "has_adam": False}
        header = json.dumps(meta).encode("utf-8")
        ckpt = tmp / "huge.tjscc"
        ckpt.write_bytes(b"TJSCC2" + struct.pack("<BI", 4, len(header)) + header
                         + struct.pack("<I", 0))
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .", "--system", "deep",
                    "--checkpoint", str(ckpt)] + base)
        err = capsys.readouterr().err
        assert code == 3, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert str(ckpt) in err and "Traceback" not in err

    def test_deep_system_runs(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        run(["train", "--seed", "3", "--set", "train.epochs=1"] + SMALL_MODEL + base)
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .",
                    "--system", "deep"] + SMALL_MODEL + base)
        assert code == 0
        text = capsys.readouterr().out
        assert "codeword bits: 24" in text
        assert "erasures injected: 0" in text


class TestSweepCommand:
    def test_baseline_sweep_files_deterministic(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        args = ["sweep", "--seed", "5",
                "--set", "sweep.values=[100, 200]",
                "--set", "sweep.systems=[huffman, fixed5]",
                "--set", "sweep.trials=2"] + base
        assert run(args) == 0
        csv_blob = (out / "sweep_bits_per_sentence.csv").read_bytes()
        json_blob = (out / "sweep_bits_per_sentence.json").read_bytes()
        assert run(args) == 0
        assert (out / "sweep_bits_per_sentence.csv").read_bytes() == csv_blob
        assert (out / "sweep_bits_per_sentence.json").read_bytes() == json_blob
        rows = json.loads(json_blob)
        assert {r["system"] for r in rows} == {"huffman", "fixed5"}

    @pytest.mark.parametrize("lz_batch", [0, -1])
    def test_lz_batch_below_one_exits_2(self, workdir, capsys, lz_batch):
        tmp, out, base = workdir
        assert run(["sweep", "--set", f"baseline.lz_batch={lz_batch}"] + base) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "baseline.lz_batch" in err

    def test_lz_batch_one_runs(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        assert run(["sweep", "--set", "baseline.lz_batch=1", "--set", "sweep.values=[200]",
                    "--set", "sweep.systems=[gzip-batch]", "--set", "sweep.trials=1"]
                   + base) == 0
        rows = json.loads((out / "sweep_bits_per_sentence.json").read_text())
        assert [r["system"] for r in rows] == ["gzip-batch"]

    def test_unhostable_plan_exits_2_before_any_output(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        before = sorted(os.listdir(out))
        capsys.readouterr()
        code = run(["sweep", "--set", "sweep.axis=erasure_rate",
                    "--set", "sweep.values=[0.01, 0.05, 0.3]",
                    "--set", "sweep.systems=[fixed5]", "--set", "sweep.trials=1",
                    "--set", "baseline.fec_mode=concrete"] + base)
        assert code == 2
        assert capsys.readouterr().err == ("config error: fixed5 at erasure_rate 0.3: budget of "
                                           "400 bits cannot host any RS block at p_d=0.3\n")
        assert sorted(os.listdir(out)) == before

    def test_deep_sweep_needs_checkpoint(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        code = run(["sweep", "--set", "sweep.systems=[deep]",
                    "--set", "sweep.values=[24]"] + base)
        assert code == 2

    def test_deep_sweep_with_checkpoint(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        run(["train", "--seed", "3", "--set", "train.epochs=1"] + SMALL_MODEL + base)
        ckpt = str(out / "model.tjscc")
        code = run(["sweep", "--set", "sweep.systems=[deep]",
                    "--set", "sweep.values=[24]",
                    "--set", f"sweep.checkpoints=[{ckpt}]",
                    "--set", "sweep.trials=1"] + SMALL_MODEL + base)
        assert code == 0
        assert (out / "sweep_bits_per_sentence.csv").exists()

    def _checkpoints(self, out, base, bits):
        """An initialization checkpoint for each bit budget, in its own file."""
        paths = []
        for i, b in enumerate(bits):
            assert run(["train", "--set", "train.epochs=0"] + SMALL_MODEL + base
                       + ["--set", f"model.bits={b}"]) == 0
            paths.append(str(out / f"ckpt{i}.tjscc"))
            os.replace(str(out / "model.tjscc"), paths[-1])
        return paths

    def test_two_checkpoints_with_one_bit_budget_exit_2(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        first, second = self._checkpoints(out, base, [24, 24])
        capsys.readouterr()
        code = run(["sweep", "--set", "sweep.systems=[deep]", "--set", "sweep.values=[24]",
                    "--set", f"sweep.checkpoints=[{first}, {second}]"] + SMALL_MODEL + base)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (f"config error: sweep checkpoints {first} and {second} both have "
                       "a 24-bit budget\n")
        assert not (out / "sweep_bits_per_sentence.csv").exists()

    def test_checkpoints_with_two_bit_budgets_run(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        first, second = self._checkpoints(out, base, [24, 32])
        assert run(["sweep", "--set", "sweep.systems=[deep]", "--set", "sweep.values=[24, 32]",
                    "--set", f"sweep.checkpoints=[{first}, {second}]",
                    "--set", "sweep.trials=1"] + SMALL_MODEL + base) == 0
        rows = json.loads((out / "sweep_bits_per_sentence.json").read_text())
        assert [(r["axis_value"], r["system"]) for r in rows] == [(24, "deep"), (32, "deep")]


class TestMaxDecodeLen:
    """model.max_decode_len from the run config bounds the decoded length in
    transmit and sweep, over the length saved in the checkpoint."""

    COMMANDS = {
        "transmit": ["transmit", "--sentence", "the cat sat on the mat .", "--system", "deep"],
        "sweep": ["sweep", "--set", "sweep.systems=[deep]", "--set", "sweep.values=[24]",
                  "--set", "sweep.trials=1"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_run_config_length_wins(self, workdir, monkeypatch, command):
        tmp, out, base = workdir
        run(["prepare"] + base)
        assert run(["train", "--set", "train.epochs=0"] + SMALL_MODEL + base) == 0
        assert load_model(str(out / "model.tjscc"))[0].config.max_decode_len == 32
        hyps = []
        decode = JsccModel.beam_search_decode

        def recording(self, *args, **kwargs):
            hyps.append(decode(self, *args, **kwargs))
            return hyps[-1]

        monkeypatch.setattr(JsccModel, "beam_search_decode", recording)
        args = self.COMMANDS[command] + SMALL_MODEL + base
        if command == "sweep":
            args += ["--set", f"sweep.checkpoints=[{out / 'model.tjscc'}]"]
        assert run(args) == 0
        assert hyps and max(map(len, hyps)) > 1  # the saved length decodes longer
        hyps.clear()
        assert run(args + ["--set", "model.max_decode_len=1"]) == 0
        assert hyps and max(map(len, hyps)) == 1


class TestEmbedCommand:
    def _prepare_model(self, workdir):
        tmp, out, base = workdir
        run(["prepare"] + base)
        run(["train", "--seed", "3", "--set", "train.epochs=0"] + SMALL_MODEL + base)
        return tmp, out, base

    def test_duplicate_sentences_coincide(self, workdir):
        tmp, out, base = self._prepare_model(workdir)
        sentences = tmp / "sents.txt"
        sentences.write_text("the cat sat on the mat .\n"
                             "the cat sat on the mat .\n"
                             "a dog ran across the street .\n")
        assert run(["embed", "--sentences", str(sentences)] + SMALL_MODEL + base) == 0
        ham = (out / "hamming.csv").read_text().splitlines()
        assert len(ham) == 4
        first_row = ham[1].rsplit(",", 3)
        assert int(first_row[2]) == 0  # duplicates at hamming distance 0
        mds = (out / "mds.csv").read_text().splitlines()
        assert mds[0] == "label,x,y"
        _, x1, y1 = mds[1].rsplit(",", 2)
        _, x2, y2 = mds[2].rsplit(",", 2)
        assert abs(float(x1) - float(x2)) < 1e-8
        assert abs(float(y1) - float(y2)) < 1e-8

    def test_grouped_codewords_equal_per_sentence(self, workdir):
        tmp, out, base = self._prepare_model(workdir)
        vocab = Vocabulary.load(str(out / "vocab.txt"))
        model, _ = load_model(str(out / "model.tjscc"))
        sents = [tokenize(line, vocab) for line in CORPUS]
        grouped = model.encode_sentences(sents)
        assert len(grouped) == len(sents)
        for row, sent in zip(grouped, sents):
            assert np.array_equal(row, model.encode(sent.ids))

    def test_mds_rows_are_the_coordinates_of_the_hamming_matrix(self, workdir):
        tmp, out, base = self._prepare_model(workdir)
        lines = ["the cat , sat on the mat .", "a dog ran across the street .",
                 "the bird sang in the garden all day ."]
        (tmp / "sents.txt").write_text("\n".join(lines) + "\n")
        assert run(["embed", "--sentences", str(tmp / "sents.txt")] + SMALL_MODEL + base) == 0
        ham = (out / "hamming.csv").read_bytes().decode().split("\r\n")
        assert ham[0] == 'label,"the cat , sat on the mat .",' + ",".join(lines[1:])
        D = np.array([[int(v) for v in row.rsplit(",", 3)[1:]] for row in ham[1:4]])
        x, y = classical_mds(D, dim=2)[0]
        mds = (out / "mds.csv").read_bytes().split(b"\r\n")
        assert mds[1] == f'"the cat , sat on the mat .",{float(x)!r},{float(y)!r}'.encode()

    @pytest.mark.parametrize("count", [1, 2])
    def test_fewer_than_three_sentences_exit_2_without_output(self, workdir, capsys, count):
        tmp, out, base = self._prepare_model(workdir)
        before = sorted(os.listdir(out))
        sentences = tmp / "few.txt"
        sentences.write_text("".join(line + "\n" for line in CORPUS[:count]))
        capsys.readouterr()
        code = run(["embed", "--sentences", str(sentences)] + SMALL_MODEL + base)
        assert code == 2
        assert capsys.readouterr().err == (f"config error: embed needs at least 3 sentences, "
                                           f"got {count} in {sentences}\n")
        assert sorted(os.listdir(out)) == before


class TestVocabularyMismatch:
    """A checkpoint trained with another vocabulary size is a config error
    in every command that loads one, in either direction."""

    COMMANDS = {
        "train": lambda tmp, ckpt: ["train", "--set", "train.epochs=1", "--resume", ckpt],
        "transmit": lambda tmp, ckpt: ["transmit", "--sentence", "the cat sat on the mat .",
                                       "--system", "deep", "--checkpoint", ckpt],
        "sweep": lambda tmp, ckpt: ["sweep", "--set", "sweep.systems=[deep]",
                                    "--set", "sweep.values=[24]", "--set", "sweep.trials=1",
                                    "--set", f"sweep.checkpoints=[{ckpt}]"],
        "embed": lambda tmp, ckpt: ["embed", "--sentences", str(tmp / "sents.txt"),
                                    "--checkpoint", ckpt],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("direction", ["smaller", "larger"])
    def test_exits_2_without_traceback(self, workdir, capsys, command, direction):
        tmp, out, base = workdir
        run(["prepare"] + base)
        (tmp / "sents.txt").write_text("the cat sat on the mat .\na dog ran across the street .\n"
                                       "the bird sang in the garden all day .\n")
        vocab = Vocabulary.load(str(out / "vocab.txt"))
        # a smaller checkpoint meets word ids past its embedding table; a
        # larger one would decode ids the vocabulary does not hold
        vocab_size = 8 if direction == "smaller" else len(vocab) + 5
        model = JsccModel(JsccConfig(vocab_size=vocab_size, embed_dim=12, encoder_hidden=8,
                                     decoder_hidden=12, bits=24), seed=0)
        ckpt = str(tmp / "other.tjscc")
        save_checkpoint(ckpt, model)
        capsys.readouterr()
        code = run(self.COMMANDS[command](tmp, ckpt) + SMALL_MODEL + base)
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"trained with {vocab_size} vocabulary tokens" in err
        assert "Traceback" not in err


class TestUnwritableOutput:
    """An output path that cannot be written is an IoError: exit 3 with one
    error line and no traceback."""

    COMMANDS = {
        "prepare": lambda tmp: ["prepare"],
        "train": lambda tmp: ["train", "--set", "train.epochs=1"],
        "sweep": lambda tmp: ["sweep", "--set", "sweep.values=[100]",
                              "--set", "sweep.systems=[fixed5]", "--set", "sweep.trials=1"],
        "embed": lambda tmp: ["embed", "--sentences", str(tmp / "sents.txt")],
    }

    @staticmethod
    def _assert_one_error_line(code, err):
        assert code == 3, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_out_names_a_file(self, workdir, capsys, command):
        tmp, out, base = workdir
        out.write_text("not a directory\n")
        code = run(self.COMMANDS[command](tmp) + SMALL_MODEL + base)
        self._assert_one_error_line(code, capsys.readouterr().err)

    @pytest.mark.parametrize("command, blocked", [("train", "trainlog.csv"),
                                                  ("sweep", "sweep_bits_per_sentence.csv"),
                                                  ("embed", "hamming.csv")])
    def test_output_file_is_a_directory(self, workdir, capsys, command, blocked):
        tmp, out, base = workdir
        run(["prepare"] + base)
        if command == "embed":
            run(["train", "--set", "train.epochs=0"] + SMALL_MODEL + base)
        (tmp / "sents.txt").write_text("the cat sat on the mat .\na dog ran across the street .\n"
                                       "the bird sang in the garden all day .\n")
        (out / blocked).mkdir()
        capsys.readouterr()
        code = run(self.COMMANDS[command](tmp) + SMALL_MODEL + base)
        self._assert_one_error_line(code, capsys.readouterr().err)


class TestGradcheckCommand:
    def test_reports_and_passes(self, workdir, capsys, monkeypatch):
        from textjscc import cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_verification_suite",
                            lambda seed: {"dense": 1e-8, "full_graph": 2e-5})
        tmp, out, base = workdir
        assert run(["gradcheck"] + base) == 0
        text = capsys.readouterr().out
        assert text.count("PASS") == 2

    def test_failure_exits_3(self, workdir, capsys, monkeypatch):
        from textjscc import cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_verification_suite",
                            lambda seed: {"dense": 1e-2})
        tmp, out, base = workdir
        assert run(["gradcheck"] + base) == 3
        assert "FAIL" in capsys.readouterr().out
