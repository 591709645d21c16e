"""Leetspeak / homoglyph normalisation.

Scammers spell brands as ``N3tfl!x`` or ``Amaz0n`` to slip past keyword
filters; off-the-shelf NER misses these (§3.3.6). Normalisation maps
look-alike digits/symbols back to letters and strips combining marks so
the brand lexicon can match. The mapping is deliberately conservative —
it only rewrites characters *inside* alphabetic tokens, so genuine codes
("OTP 123456") survive untouched.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Dict

#: Look-alike characters and the letters they stand in for.
LEET_MAP: Dict[str, str] = {
    "0": "o", "1": "l", "3": "e", "4": "a", "5": "s", "7": "t", "8": "b",
    "9": "g", "!": "i", "@": "a", "$": "s", "€": "e", "|": "l",
}

#: Homoglyphs from other scripts used in squatting domains.
HOMOGLYPH_MAP: Dict[str, str] = {
    "а": "a", "е": "e", "о": "o", "р": "p", "с": "c", "х": "x", "у": "y",
    "і": "i", "ѕ": "s", "ɑ": "a", "ı": "i", "ℓ": "l",
}

_TOKEN_RE = re.compile(r"\S+")

#: Pathological-input budget: normalisation inspects at most this many
#: characters per text. Real SMS bodies are under a kilobyte; anything a
#: megabyte long is hostile, and the quarantine layer has usually
#: diverted it already — this cap is the backstop that keeps the regex
#: walk bounded even for inputs that reach the hot path directly.
MAX_NORMALIZE_CHARS = 65_536


def strip_accents(text: str) -> str:
    """Remove combining marks: ``café`` → ``cafe``."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def has_letters(token: str) -> bool:
    return any(ch.isalpha() for ch in token)


def _is_code_like(token: str) -> bool:
    """Pure digits / short digit groups are codes, not disguised words."""
    stripped = token.strip(".,:;!?")
    return stripped.isdigit()


def normalize_token(token: str) -> str:
    """Undo leet/homoglyph substitutions inside one token."""
    if _is_code_like(token) or not has_letters(token):
        return token.lower()
    return undisguise(token)


def undisguise(token: str) -> str:
    """The letter branch of :func:`normalize_token`, applied even when
    ``token`` has no letter: map look-alikes back, strip accents."""
    chars = []
    for ch in token:
        lower = ch.lower()
        if lower in HOMOGLYPH_MAP:
            chars.append(HOMOGLYPH_MAP[lower])
        elif ch in LEET_MAP:
            chars.append(LEET_MAP[ch])
        else:
            chars.append(lower)
    return strip_accents("".join(chars))


def normalize_text(text: str) -> str:
    """Normalise every token of a text, preserving whitespace shape.

    Inputs beyond ``MAX_NORMALIZE_CHARS`` are truncated first — a
    bounded-cost guarantee for adversarial megabyte bodies.
    """
    if len(text) > MAX_NORMALIZE_CHARS:
        text = text[:MAX_NORMALIZE_CHARS]
    return _TOKEN_RE.sub(lambda m: normalize_token(m.group(0)), text)


def squash(text: str) -> str:
    """Lowercase and drop every non-alphanumeric character.

    ``"N3tfl!x"`` → ``"netflix"``; used as the last-resort comparison key
    in brand matching.
    """
    return "".join(ch for ch in normalize_text(text) if ch.isalnum())

