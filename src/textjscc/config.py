"""Declarative run configuration: one flat-key YAML document.

Keys are dotted paths (plain strings), values are scalars or arrays, e.g.

    corpus.train: data/train.txt
    model.bits: 400
    sweep.values: [200, 400, 600]

CLI --set key=value overrides take precedence over the file.  Defaults mirror
the reference setup: 200-d embeddings, 2x256 BLSTM encoder, 2x512 LSTM
decoder, batch 128, erasure probability 0.05, 400-bit budget.
"""

from __future__ import annotations

import copy

import yaml

from .errors import ConfigError, IoError
from .fileio import read_text
from .model import JsccConfig
from .sweeps import SweepSpec
from .training import TrainSettings

DEFAULTS: dict = {
    "seed": 1234,
    "out": "runs",
    "corpus.train": None,
    "corpus.test": None,
    "corpus.vocab_size": 1000,
    "corpus.min_len": 4,
    "corpus.max_len": 30,
    "corpus.max_unk_frac": 0.2,
    "model.embed_dim": 200,
    "model.encoder_stacks": 2,
    "model.encoder_hidden": 256,
    "model.decoder_stacks": 2,
    "model.decoder_hidden": 512,
    "model.bits": 400,
    "model.beam_width": 4,
    "model.max_decode_len": 32,
    "model.glove": None,
    "train.batch_size": 128,
    "train.epochs": 100,
    "train.lr": 1e-3,
    "train.clip": 5.0,
    "train.tf_start_epochs": 5,
    "train.tf_decay_epochs": 10,
    "train.tf_min": 0.5,
    "train.checkpoint_every": 50,
    "train.wer_sample": 32,
    "train.precision": "f32",
    "channel.erasure_prob": 0.05,
    "baseline.fec_mode": "idealized",
    "baseline.lz_batch": 32,
    "sweep.axis": "bits_per_sentence",
    "sweep.values": [200, 400, 600],
    "sweep.systems": ["gzip-batch", "huffman", "fixed5"],
    "sweep.trials": 3,
    "sweep.checkpoints": [],
}

# Accepted value types, and their name, by the type of a key's default.
_ACCEPTS = {
    type(None): ((str, type(None)), "a string or null"),
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    list: (list, "an array"),
}

# The allowed range of each numeric key, in interval notation: a square
# bracket includes its bound, a round one excludes it.
RANGES = {
    "seed": "[0, inf)",
    "corpus.vocab_size": "[5, inf)",  # the four special tokens and one word
    "corpus.min_len": "[1, inf)",
    "corpus.max_len": "[1, inf)",
    "corpus.max_unk_frac": "[0, 1]",
    "model.embed_dim": "[1, inf)",
    "model.encoder_stacks": "[1, inf)",
    "model.encoder_hidden": "[1, inf)",
    "model.decoder_stacks": "[1, inf)",
    "model.decoder_hidden": "[1, inf)",
    "model.beam_width": "[1, inf)",
    "model.max_decode_len": "[1, inf)",
    "train.batch_size": "[1, inf)",
    "train.epochs": "[0, inf)",
    "train.lr": "(0, inf)",
    "train.clip": "[0, inf)",  # 0 turns clipping off
    "train.tf_start_epochs": "[0, inf)",
    "train.tf_decay_epochs": "[0, inf)",  # 0 drops straight to tf_min
    "train.tf_min": "[0, 1]",
    "train.checkpoint_every": "[1, inf)",
    "train.wer_sample": "[0, inf)",  # 0 turns the WER estimate off
    "channel.erasure_prob": "[0, 1)",
    "baseline.lz_batch": "[1, inf)",
    "sweep.trials": "[1, inf)",
}


def _within(value, interval: str) -> bool:
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    return above and below


class RunConfig:
    """Validated flat-key configuration."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        v = self.values
        for key, value in v.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            accepted, want = _ACCEPTS[type(DEFAULTS[key])]
            if not isinstance(value, accepted) or isinstance(value, bool):
                raise ConfigError(f"{key} must be {want}, got {value!r}")
        for key, interval in RANGES.items():
            if not _within(v[key], interval):
                raise ConfigError(f"{key} must lie in {interval}, got {v[key]!r}")
        if v["corpus.min_len"] > v["corpus.max_len"]:
            raise ConfigError(f"corpus.min_len must not exceed corpus.max_len, got "
                              f"{v['corpus.min_len']} > {v['corpus.max_len']}")
        if v["model.bits"] % 2 != 0 or v["model.bits"] < 2:
            raise ConfigError(f"model.bits must be even and >= 2, got {v['model.bits']}")
        if v["train.precision"] not in ("f32", "f64"):
            raise ConfigError(f"train.precision must be f32 or f64, got {v['train.precision']!r}")
        if not all(isinstance(path, str) for path in v["sweep.checkpoints"]):
            raise ConfigError(f"sweep.checkpoints must hold only strings, "
                              f"got {v['sweep.checkpoints']!r}")
        self.sweep_spec()  # SweepSpec checks the sweep.* keys and baseline.fec_mode

    # ----- derived objects -----

    def jscc_config(self, vocab_size: int) -> JsccConfig:
        v = self.values
        return JsccConfig(
            vocab_size=vocab_size,
            embed_dim=v["model.embed_dim"],
            encoder_stacks=v["model.encoder_stacks"],
            encoder_hidden=v["model.encoder_hidden"],
            decoder_stacks=v["model.decoder_stacks"],
            decoder_hidden=v["model.decoder_hidden"],
            bits=v["model.bits"],
            beam_width=v["model.beam_width"],
            max_decode_len=v["model.max_decode_len"],
            precision=v["train.precision"],
        )

    def train_settings(self) -> TrainSettings:
        v = self.values
        return TrainSettings(
            lr=v["train.lr"], clip=v["train.clip"],
            erasure_prob=v["channel.erasure_prob"],
            tf_start_epochs=v["train.tf_start_epochs"],
            tf_decay_epochs=v["train.tf_decay_epochs"],
            tf_min=v["train.tf_min"], wer_sample=v["train.wer_sample"],
            seed=v["seed"],
        )

    def sweep_spec(self) -> SweepSpec:
        v = self.values
        return SweepSpec(
            axis=v["sweep.axis"], values=list(v["sweep.values"]),
            systems=list(v["sweep.systems"]), trials=v["sweep.trials"],
            seed=v["seed"], bits_per_sentence=v["model.bits"],
            erasure_rate=v["channel.erasure_prob"],
            fec_mode=v["baseline.fec_mode"], lz_batch=v["baseline.lz_batch"],
            beam_width=v["model.beam_width"], max_decode_len=v["model.max_decode_len"],
        )


def _as_number(key: str, value):
    """PyYAML reads exponent notation without a dot (1e-9) as a string; a key
    that takes a float gets the number, and the range table judges it."""
    if isinstance(DEFAULTS[key], float) and isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    return value


def load_config(path: str | None = None, overrides: list[str] | None = None,
                seed: int | None = None, out: str | None = None) -> RunConfig:
    """Merge defaults, the config file, --set overrides, and flag overrides."""
    values = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            doc = yaml.safe_load(read_text(path, "config file"))
        except IoError as exc:
            raise ConfigError(str(exc)) from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if doc is None:
            doc = {}
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a flat key mapping")
        for key, val in doc.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            values[key] = _as_number(key, val)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} in --set")
        try:
            values[key] = _as_number(key, yaml.safe_load(raw))
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse --set value {raw!r}: {exc}") from exc
    if seed is not None:
        values["seed"] = seed
    if out is not None:
        values["out"] = out
    cfg = RunConfig(values)
    cfg.validate()
    return cfg
