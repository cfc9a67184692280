import json
import os

import numpy as np
import pytest

from textjscc import cli
from textjscc.checkpoint import load_model
from textjscc.config import DEFAULTS
from textjscc.corpus import SPECIALS, Vocabulary
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

    def test_unconfigured_corpus_is_config_error(self, workdir):
        tmp, out, _ = workdir
        assert run(["prepare", "--out", str(out)]) == 2


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

    def test_help_on_subcommands(self, capsys):
        for name in ("prepare", "train", "transmit", "sweep", "embed", "gradcheck"):
            assert run([name, "--help"]) == 0
            text = capsys.readouterr().out
            assert "--config" in text and "--set" in text and "--seed" in text

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


class TestTrain:
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
        assert rows[0] == "epoch,loss,train_wer,tf_prob"
        assert len(rows) == 3

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

    def test_corrupt_frequency_table_exits_3(self, workdir, capsys):
        tmp, out, base = workdir
        run(["prepare"] + base)
        (out / "charfreq.tsv").write_text("e\tmany\n", encoding="utf-8")
        capsys.readouterr()
        code = run(["transmit", "--sentence", "the cat sat on the mat .",
                    "--system", "huffman"] + base)
        assert code == 3
        assert "charfreq.tsv" in capsys.readouterr().err

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

    def test_single_sentence_domain_error(self, workdir, capsys):
        tmp, out, base = self._prepare_model(workdir)
        sentences = tmp / "one.txt"
        sentences.write_text("the cat sat on the mat .\n")
        code = run(["embed", "--sentences", str(sentences)] + SMALL_MODEL + base)
        assert code == 3
        assert "point" in capsys.readouterr().err


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
