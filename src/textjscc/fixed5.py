"""Fixed 5-bit character code over a 32-symbol alphabet: a `huffman.CharCode`.

Alphabet: 'a'-'z' (codes 0-25), space (26), '.' (27), ',' (28), apostrophe
(29), '?' (30) and the catch-all '#' (31).  Each character becomes one
symbol (itself, else its lowercase, else '#'), so n characters take 5n bits.
Framing survives corruption: any 5-bit group is a valid symbol, so a damaged
symbol misdecodes without desynchronizing the rest of the stream.
"""

from __future__ import annotations

import numpy as np

from .errors import FramingError
from .huffman import CharCode

ALPHABET = "abcdefghijklmnopqrstuvwxyz .,'?#"
_CODE = CharCode({ch: (i, 5) for i, ch in enumerate(ALPHABET)})

assert len(ALPHABET) == 32


def fixed5_encode(text: str) -> np.ndarray:
    return _CODE.encode(text)


def fixed5_decode(bits: np.ndarray) -> str:
    if np.size(bits) % 5 != 0:
        raise FramingError(f"{np.size(bits)} bits is not a multiple of 5")
    return _CODE.decode(bits)
