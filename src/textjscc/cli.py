"""Command line entry point.

Subcommands: prepare, train, transmit, sweep, embed, gradcheck.  Every
command reads and checks its configuration and its inputs before its first
write.  Files are written under `out` by fileio's writers: prepare writes
vocab.txt, train_filtered.txt, test_filtered.txt and charfreq.tsv, train
model.tjscc and trainlog.csv (train --resume keeps the log's rows up to the
checkpoint's epoch, then appends), sweep sweep_<axis>.csv and .json, and
embed hamming.csv and mds.csv.  All randomness flows from the single config
seed: results are bit-reproducible from (config, seed) on one numpy and BLAS build
at one BLAS thread count, which is one unless the environment sets
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, for the same grouping of sentences
into encoder batches (see training).  `transmit` and `sweep` plan and send
the baselines through the same functions (sweeps.plan_group, encode_group
and transmit_group), and the system names come from sweeps.SYSTEMS.
channel.erasure_prob is the channel's p_d: the deep codec is erased at it,
and a baseline's FecPlan, planned for it, carries it across the channel.

Exit codes: 0 success, 2 config/validation error, 3 runtime error.
Set TEXTJSCC_LOG to error, info, or debug to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import astuple, fields

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
from .errors import ConfigError, DecodeFailure, DomainError, IoError, TextJsccError
from .fileio import read_csv, write_csv, write_lines
from .gradcheck import TOLERANCE, run_verification_suite
from .huffman import HuffmanCodebook, codebook_for_pipeline
from .metrics import wer
from .model import JsccModel, load_pretrained_embeddings
from .sweeps import SYSTEMS, emit_results, encode_group, plan_group, run_sweep, transmit_group
from .training import EpochLog, Trainer

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
    lines = corpus_mod.read_lines(_require_file(cfg["corpus.train"], "corpus.train"))
    test_lines = (corpus_mod.read_lines(_require_file(cfg["corpus.test"], "corpus.test"))
                  if cfg["corpus.test"] else None)
    vocab = build_vocabulary(lines, cfg["corpus.vocab_size"])
    limits = (cfg["corpus.min_len"], cfg["corpus.max_len"], cfg["corpus.max_unk_frac"])
    kept = filter_sentences(lines, vocab, *limits)
    test_kept = None if test_lines is None else filter_sentences(test_lines, vocab, *limits)
    freqs = char_frequencies(lines)

    vocab.save(_out_path(cfg, "vocab.txt"))
    write_lines(_out_path(cfg, "train_filtered.txt"), (s.raw for s in kept))
    freqs.save(_out_path(cfg, "charfreq.tsv"))
    print(f"vocabulary: {len(vocab)} tokens")
    print(f"train sentences kept: {len(kept)} of {len(lines)}")
    if test_kept is not None:
        write_lines(_out_path(cfg, "test_filtered.txt"), (s.raw for s in test_kept))
        print(f"test sentences kept: {len(test_kept)} of {len(test_lines)}")
    print(f"character alphabet: {len(freqs.counts)} symbols, {freqs.total} chars")
    return 0


def _load_prepared(cfg: RunConfig):
    vocab = Vocabulary.load(_require_file(_out_path(cfg, "vocab.txt"), "vocabulary"))
    lines = corpus_mod.read_lines(
        _require_file(_out_path(cfg, "train_filtered.txt"), "filtered corpus"))
    sentences = [tokenize(line, vocab) for line in lines]
    return vocab, sentences


_TRAINLOG_HEADER = ["loss" if f.name == "mean_loss" else f.name for f in fields(EpochLog)]


def _write_trainlog(path: str, rows: list[EpochLog], earlier=()) -> None:
    write_csv(path, _TRAINLOG_HEADER, [*earlier, *map(astuple, rows)])


def _read_trainlog(path: str, epoch: int) -> list[list[str]]:
    """The log's rows for epochs up to `epoch`, the resumed checkpoint's: later
    rows belong to epochs the resumed run trains again.  No log reads as none."""
    rows = read_csv(path, "training log") if os.path.exists(path) else [_TRAINLOG_HEADER]
    if rows[:1] != [_TRAINLOG_HEADER] or not all(r[:1] and r[0].isdecimal() for r in rows[1:]):
        raise IoError(f"training log {path} does not hold one row per epoch")
    return [r for r in rows[1:] if int(r[0]) <= epoch]


def cmd_train(cfg: RunConfig, args) -> int:
    vocab, sentences = _load_prepared(cfg)
    plan = batch_by_length(sentences, cfg["train.batch_size"])
    settings = cfg.train_settings()
    log_path = _out_path(cfg, "trainlog.csv")

    if args.resume:
        model, adam, epoch = load_for_resume(_require_file(args.resume, "checkpoint"),
                                             settings.lr, settings.clip)
        _check_vocabulary(model, args.resume, "checkpoint", vocab)
        earlier = _read_trainlog(log_path, epoch)
        trainer = Trainer(model, settings, adam, start_epoch=epoch)
        log.info("resumed from %s at epoch %d", args.resume, trainer.epoch)
    else:
        model = JsccModel(cfg.jscc_config(len(vocab)), seed=cfg["seed"])
        if cfg["model.glove"]:
            n = load_pretrained_embeddings(model, vocab,
                                           _require_file(cfg["model.glove"], "embedding file"))
            log.info("loaded %d pretrained embedding rows", n)
        earlier = []
        trainer = Trainer(model, settings)

    ckpt_path = _out_path(cfg, "model.tjscc")
    every = cfg["train.checkpoint_every"]
    rows = []

    def on_epoch(entry):
        rows.append(entry)
        _write_trainlog(log_path, rows, earlier)
        if entry.epoch % every == 0:
            save_checkpoint(ckpt_path, model, trainer.adam, {"epoch": entry.epoch})
        log.info("epoch %d loss %.4f wer %.3f tf %.2f grad norm %.3g clip rate %.2f "
                 "%.1f sentences/s", entry.epoch, entry.mean_loss, entry.train_wer,
                 entry.tf_prob, entry.grad_norm, entry.clip_rate, entry.sentences_per_s)

    trainer.run(sentences, plan, cfg["train.epochs"], on_epoch=on_epoch)
    if not rows or rows[-1].epoch % every != 0:  # else on_epoch has just saved both
        save_checkpoint(ckpt_path, model, trainer.adam, {"epoch": trainer.epoch})
        _write_trainlog(log_path, rows, earlier)
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

    try:
        plan, source_bits = plan_group(cfg["model.bits"], p_d, cfg["baseline.fec_mode"])
    except DomainError as exc:  # a concrete plan that cannot host an RS block
        raise ConfigError(f"{args.system}: {exc}") from exc
    words = sent.words()
    codebook = _codebook(cfg) if args.system == "huffman" else None
    enc = encode_group(args.system, codebook, [words], source_bits)
    print(f"payload bits: {enc.bits.size} (source budget {source_bits}, "
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
    lines = corpus_mod.read_lines(_require_file(args.sentences, "sentences file"))
    if len(lines) < 3:  # a 2-d MDS needs more than two points
        raise ConfigError(f"embed needs at least 3 sentences, got {len(lines)} in {args.sentences}")
    model = _load_model_for(args.checkpoint or _out_path(cfg, "model.tjscc"),
                            "checkpoint", vocab)
    D = hamming_matrix(model.encode_sentences([tokenize(line, vocab) for line in lines]))
    coords = classical_mds(D, dim=2)

    ham_path, mds_path = _out_path(cfg, "hamming.csv"), _out_path(cfg, "mds.csv")
    write_csv(ham_path, ["label"] + lines, ([s, *row] for s, row in zip(lines, D.tolist())))
    write_csv(mds_path, ["label", "x", "y"], ([s, *xy] for s, xy in zip(lines, coords.tolist())))
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

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", metavar="PATH", help="flat-key YAML config file")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")
        return p

    command("prepare", cmd_prepare, "build vocabulary, filtered corpus, char stats")
    p = command("train", cmd_train, "train the deep codec")
    p.add_argument("--resume", metavar="PATH", help="continue from a checkpoint")
    p = command("transmit", cmd_transmit, "send one sentence through a system")
    p.add_argument("--sentence", required=True, help="input sentence text")
    p.add_argument("--system", default="deep", choices=SYSTEMS)
    p.add_argument("--checkpoint", metavar="PATH", help="deep model checkpoint")
    command("sweep", cmd_sweep, "run the configured WER sweep")
    p = command("embed", cmd_embed, "hamming + MDS analysis of sentence codewords")
    p.add_argument("--sentences", required=True, metavar="PATH",
                   help="file with one sentence per line")
    p.add_argument("--checkpoint", metavar="PATH", help="deep model checkpoint")
    command("gradcheck", cmd_gradcheck, "finite-difference verification suite")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.out)
        return args.handler(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TextJsccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
