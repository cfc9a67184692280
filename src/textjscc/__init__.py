"""Joint source-channel coding of text over bit-erasure channels.

A trainable encoder/decoder with a binary bottleneck, classical separate
source/channel coding baselines (character Huffman, fixed 5-bit, batched
LZSS behind Reed-Solomon erasure coding), a channel simulator, and a WER
evaluation harness.
"""

from .analysis import classical_mds, hamming_matrix
from .budget import BudgetedEncoding, encode_batch_with_budget, encode_with_budget
from .channel import ERASED, erase, erase_bitstream, stream
from .corpus import (
    CharFrequencyTable,
    TokenizedSentence,
    Vocabulary,
    batch_by_length,
    build_vocabulary,
    char_frequencies,
    detokenize,
    filter_sentences,
    tokenize,
)
from .fec import FecPlan, RsCode, plan_budget, rs_decode_erasures, rs_encode, transmit_baseline
from .fixed5 import fixed5_decode, fixed5_encode
from .huffman import HuffmanCodebook, build_huffman, huffman_decode, huffman_encode
from .lzss import lz_compress, lz_decompress
from .metrics import levenshtein, wer
from .model import (
    JsccConfig,
    JsccModel,
    binarize_deterministic,
    binarize_stochastic,
    load_pretrained_embeddings,
)
from .sweeps import SweepResult, SweepSpec, emit_results, run_sweep
from .training import EpochLog, Trainer, TrainSettings, tf_schedule

__version__ = "0.1.0"

__all__ = [
    "ERASED", "erase", "erase_bitstream", "stream",
    "Vocabulary", "TokenizedSentence", "CharFrequencyTable",
    "build_vocabulary", "filter_sentences", "tokenize", "detokenize",
    "batch_by_length", "char_frequencies",
    "HuffmanCodebook", "build_huffman", "huffman_encode", "huffman_decode",
    "fixed5_encode", "fixed5_decode", "lz_compress", "lz_decompress",
    "BudgetedEncoding", "encode_with_budget", "encode_batch_with_budget",
    "RsCode", "FecPlan", "rs_encode", "rs_decode_erasures", "plan_budget",
    "transmit_baseline",
    "levenshtein", "wer",
    "hamming_matrix", "classical_mds",
    "JsccConfig", "JsccModel", "binarize_stochastic", "binarize_deterministic",
    "load_pretrained_embeddings",
    "Trainer", "TrainSettings", "EpochLog", "tf_schedule",
    "SweepSpec", "SweepResult", "run_sweep", "emit_results",
]
