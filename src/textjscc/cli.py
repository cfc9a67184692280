"""Command line entry point.

Subcommands: prepare, train, transmit, sweep, embed, gradcheck.  Every
command validates its configuration before touching the filesystem, all
output files are written atomically through fileio.write_atomic, and all
randomness flows from the single config seed: results are bit-reproducible
from (config, seed) on one numpy and BLAS build at one BLAS thread count,
which is one unless the environment sets OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS (see training).  `transmit` and `sweep` send the baselines
through the same dispatch (sweeps.encode_group and sweeps.transmit_group),
and the system names come from sweeps.SYSTEMS.
channel.erasure_prob is the channel's p_d: the deep codec is erased at it,
and a baseline's FecPlan, planned for it, carries it across the channel.

Exit codes: 0 success, 2 config/validation error, 3 runtime error.
Set TEXTJSCC_LOG to error, info, or debug to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

from . import corpus as corpus_mod
from .analysis import classical_mds, hamming_matrix
from .channel import erase, stream
from .checkpoint import load_for_resume, load_model, save_checkpoint
from .config import RunConfig, load_config
from .corpus import (
    CharFrequencyTable,
    Vocabulary,
    batch_by_length,
    build_vocabulary,
    char_frequencies,
    detokenize,
    filter_sentences,
    tokenize,
)
from .errors import ConfigError, DecodeFailure, IoError, TextJsccError
from .fec import plan_budget
from .fileio import write_atomic
from .gradcheck import TOLERANCE, run_verification_suite
from .huffman import HuffmanCodebook, codebook_for_pipeline
from .metrics import wer
from .model import JsccModel, load_pretrained_embeddings
from .sweeps import SYSTEMS, emit_results, encode_group, run_sweep, transmit_group
from .training import Trainer

log = logging.getLogger("textjscc")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("TEXTJSCC_LOG", "info"), logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _require_file(path: str | None, what: str) -> str:
    if path is None:
        raise ConfigError(f"{what} is not configured")
    if not os.path.exists(path):
        raise IoError(f"{what} {path} does not exist")
    return path


def _check_vocabulary(model: JsccModel, path: str, what: str, vocab: Vocabulary) -> JsccModel:
    """The model loaded from `path`, which must have been trained with this vocabulary."""
    if model.config.vocab_size != len(vocab):
        raise ConfigError(f"{what} {path} was trained with {model.config.vocab_size} "
                          f"vocabulary tokens, but the vocabulary has {len(vocab)}")
    return model


def _load_model_for(path: str, what: str, vocab: Vocabulary) -> JsccModel:
    return _check_vocabulary(load_model(_require_file(path, what))[0], path, what, vocab)


def _out_path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg["out"], name)


def cmd_prepare(cfg: RunConfig, args) -> int:
    train_path = _require_file(cfg["corpus.train"], "corpus.train")
    lines = corpus_mod.read_lines(train_path)
    vocab = build_vocabulary(lines, cfg["corpus.vocab_size"])
    kept = filter_sentences(lines, vocab, cfg["corpus.min_len"],
                            cfg["corpus.max_len"], cfg["corpus.max_unk_frac"])
    freqs = char_frequencies(lines)

    vocab.save(_out_path(cfg, "vocab.txt"))
    corpus_mod.write_lines(_out_path(cfg, "train_filtered.txt"), (s.raw for s in kept))
    freqs.save(_out_path(cfg, "charfreq.tsv"))
    print(f"vocabulary: {len(vocab)} tokens")
    print(f"train sentences kept: {len(kept)} of {len(lines)}")
    if cfg["corpus.test"]:
        test_lines = corpus_mod.read_lines(_require_file(cfg["corpus.test"], "corpus.test"))
        test_kept = filter_sentences(test_lines, vocab, cfg["corpus.min_len"],
                                     cfg["corpus.max_len"], cfg["corpus.max_unk_frac"])
        corpus_mod.write_lines(_out_path(cfg, "test_filtered.txt"),
                               (s.raw for s in test_kept))
        print(f"test sentences kept: {len(test_kept)} of {len(test_lines)}")
    print(f"character alphabet: {len(freqs.counts)} symbols, {freqs.total} chars")
    return 0


def _load_prepared(cfg: RunConfig):
    vocab = Vocabulary.load(_require_file(_out_path(cfg, "vocab.txt"), "vocabulary"))
    lines = corpus_mod.read_lines(
        _require_file(_out_path(cfg, "train_filtered.txt"), "filtered corpus"))
    sentences = [tokenize(line, vocab) for line in lines]
    return vocab, sentences


def _write_trainlog(path: str, rows: list) -> None:
    with write_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "train_wer", "tf_prob", "grad_norm", "clip_rate",
                         "sentences_per_s"])
        for row in rows:
            writer.writerow([row.epoch, repr(row.mean_loss), repr(row.train_wer),
                             repr(row.tf_prob), repr(row.grad_norm), repr(row.clip_rate),
                             repr(row.sentences_per_s)])


def cmd_train(cfg: RunConfig, args) -> int:
    vocab, sentences = _load_prepared(cfg)
    plan = batch_by_length(sentences, cfg["train.batch_size"])
    settings = cfg.train_settings()

    if args.resume:
        model, adam, epoch = load_for_resume(_require_file(args.resume, "checkpoint"),
                                             settings.lr, settings.clip)
        _check_vocabulary(model, args.resume, "checkpoint", vocab)
        trainer = Trainer(model, settings, adam, start_epoch=epoch)
        log.info("resumed from %s at epoch %d", args.resume, trainer.epoch)
    else:
        model = JsccModel(cfg.jscc_config(len(vocab)), seed=cfg["seed"])
        if cfg["model.glove"]:
            n = load_pretrained_embeddings(model, vocab,
                                           _require_file(cfg["model.glove"], "embedding file"))
            log.info("loaded %d pretrained embedding rows", n)
        trainer = Trainer(model, settings)

    ckpt_path = _out_path(cfg, "model.tjscc")
    log_path = _out_path(cfg, "trainlog.csv")
    every = cfg["train.checkpoint_every"]
    rows = []

    def on_epoch(entry):
        rows.append(entry)
        _write_trainlog(log_path, rows)
        if entry.epoch % every == 0:
            save_checkpoint(ckpt_path, model, trainer.adam, {"epoch": entry.epoch})
        log.info("epoch %d loss %.4f wer %.3f tf %.2f grad norm %.3g clip rate %.2f "
                 "%.1f sentences/s", entry.epoch, entry.mean_loss, entry.train_wer,
                 entry.tf_prob, entry.grad_norm, entry.clip_rate, entry.sentences_per_s)

    trainer.run(sentences, plan, cfg["train.epochs"], on_epoch=on_epoch)
    if not rows or rows[-1].epoch % every != 0:  # else on_epoch has just saved both
        save_checkpoint(ckpt_path, model, trainer.adam, {"epoch": trainer.epoch})
        _write_trainlog(log_path, rows)
    print(f"checkpoint written to {ckpt_path}")
    if rows:
        print(f"final epoch {rows[-1].epoch}: loss {rows[-1].mean_loss:.4f} "
              f"train WER {rows[-1].train_wer:.3f}")
    return 0


def _codebook(cfg: RunConfig) -> HuffmanCodebook:
    freqs = CharFrequencyTable.load(
        _require_file(_out_path(cfg, "charfreq.tsv"), "frequency table"))
    return codebook_for_pipeline(freqs)


def cmd_transmit(cfg: RunConfig, args) -> int:
    vocab = Vocabulary.load(_require_file(_out_path(cfg, "vocab.txt"), "vocabulary"))
    sent = tokenize(args.sentence, vocab)
    if len(sent) == 0:
        raise ConfigError("input sentence is empty")
    p_d = cfg["channel.erasure_prob"]

    if args.system == "deep":
        model = _load_model_for(args.checkpoint or _out_path(cfg, "model.tjscc"),
                                "checkpoint", vocab)
        codeword = model.encode(sent.ids)
        obs = erase(codeword, p_d, stream(cfg["seed"], 0))
        hyp = model.beam_search_decode(obs, cfg["model.beam_width"],
                                       cfg["model.max_decode_len"])
        print(f"codeword bits: {codeword.size}")
        print(f"erasures injected: {int((obs == 0).sum())}")
        print(f"decoded: {detokenize(hyp, vocab)}")
        print(f"wer: {wer(sent.ids, hyp):.4f}")
        return 0

    plan = plan_budget(cfg["model.bits"], p_d, cfg["baseline.fec_mode"])
    words = sent.words()
    codebook = _codebook(cfg) if args.system == "huffman" else None
    enc = encode_group(args.system, codebook, [words], plan.source_bits)
    print(f"payload bits: {enc.bits.size} (source budget {plan.source_bits}, "
          f"parity reserve {plan.parity_bits})")
    print(f"words dropped to fit: {enc.words_dropped}")
    try:
        (hyp,) = transmit_group(args.system, codebook, enc.bits, plan, stream(cfg["seed"], 0))
    except DecodeFailure as exc:  # a channel outcome: the frame is lost
        print(f"decode failure: {exc}")
        hyp = []
    print(f"decoded: {' '.join(hyp)}")
    print(f"wer: {wer(words, hyp):.4f}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    vocab = Vocabulary.load(_require_file(_out_path(cfg, "vocab.txt"), "vocabulary"))
    test_path = _out_path(cfg, "test_filtered.txt")
    if not os.path.exists(test_path):
        test_path = _require_file(_out_path(cfg, "train_filtered.txt"), "filtered corpus")
    sentences = [tokenize(line, vocab) for line in corpus_mod.read_lines(test_path)]

    spec = cfg.sweep_spec()
    models, paths = {}, {}
    for path in cfg["sweep.checkpoints"]:
        model = _load_model_for(path, "sweep checkpoint", vocab)
        bits = model.config.bits
        if bits in models:
            raise ConfigError(f"sweep checkpoints {paths[bits]} and {path} both have "
                              f"a {bits}-bit budget")
        models[bits], paths[bits] = model, path
    codebook = _codebook(cfg) if "huffman" in spec.systems else None
    table = run_sweep(spec, sentences, models=models, codebook=codebook)
    csv_path = _out_path(cfg, f"sweep_{spec.axis}.csv")
    json_path = _out_path(cfg, f"sweep_{spec.axis}.json")
    emit_results(table, csv_path, "csv")
    emit_results(table, json_path, "json")
    for row in table:
        print(f"{spec.axis}={row.axis_value:g} {row.system}: "
              f"WER {row.mean_wer:.4f} +/- {row.stderr:.4f}")
    print(f"results written to {csv_path} and {json_path}")
    return 0


def cmd_embed(cfg: RunConfig, args) -> int:
    vocab = Vocabulary.load(_require_file(_out_path(cfg, "vocab.txt"), "vocabulary"))
    model = _load_model_for(args.checkpoint or _out_path(cfg, "model.tjscc"),
                            "checkpoint", vocab)
    lines = corpus_mod.read_lines(_require_file(args.sentences, "sentences file"))
    if not lines:
        raise ConfigError(f"no sentences in {args.sentences}")
    codewords = model.encode_sentences([tokenize(line, vocab) for line in lines])
    D = hamming_matrix(codewords)

    ham_path = _out_path(cfg, "hamming.csv")
    with write_atomic(ham_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + lines)
        for label, row in zip(lines, D):
            writer.writerow([label] + [int(v) for v in row])

    coords = classical_mds(D, dim=2)
    mds_path = _out_path(cfg, "mds.csv")
    with write_atomic(mds_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "x", "y"])
        for label, (x, y) in zip(lines, coords):
            writer.writerow([label, repr(float(x)), repr(float(y))])
    print(f"hamming matrix written to {ham_path}")
    print(f"mds coordinates written to {mds_path}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    results = run_verification_suite(seed=cfg["seed"])
    ok = True
    for name, err in results.items():
        passed = err < TOLERANCE
        ok = ok and passed
        print(f"{name}: max relative error {err:.3e} "
              f"{'PASS' if passed else 'FAIL'} (tolerance {TOLERANCE:g})")
    if not ok:
        raise TextJsccError("gradient check failed")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textjscc",
        description="Joint source-channel coding of text over erasure channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="flat-key YAML config file")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")

    p = sub.add_parser("prepare", help="build vocabulary, filtered corpus, char stats")
    common(p)
    p = sub.add_parser("train", help="train the deep codec")
    common(p)
    p.add_argument("--resume", metavar="PATH", help="continue from a checkpoint")
    p = sub.add_parser("transmit", help="send one sentence through a system")
    common(p)
    p.add_argument("--sentence", required=True, help="input sentence text")
    p.add_argument("--system", default="deep", choices=SYSTEMS)
    p.add_argument("--checkpoint", metavar="PATH", help="deep model checkpoint")
    p = sub.add_parser("sweep", help="run the configured WER sweep")
    common(p)
    p = sub.add_parser("embed", help="hamming + MDS analysis of sentence codewords")
    common(p)
    p.add_argument("--sentences", required=True, metavar="PATH",
                   help="file with one sentence per line")
    p.add_argument("--checkpoint", metavar="PATH", help="deep model checkpoint")
    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    common(p)
    return parser


_COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "transmit": cmd_transmit,
    "sweep": cmd_sweep,
    "embed": cmd_embed,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.out)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TextJsccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
