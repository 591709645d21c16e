"""Unicode-aware tokenisation for smishing texts.

SMS text is messy: URLs, currency symbols, emoji, leetspeak, and a mix of
scripts. The tokenizer keeps URLs intact as single tokens (they matter
for downstream extraction), lowercases Latin-script words, and exposes a
simple interface every classifier in the package shares.
"""

from __future__ import annotations

import re
import unicodedata
from typing import List

_URL_TOKEN_RE = re.compile(
    r"(?:https?://)?(?:[a-zA-Z0-9-]+\.)+[a-zA-Z]{2,24}(?:/[^\s]*)?"
)
# ``\w`` excludes combining marks (category Mn), which would shatter
# Brahmic-script words (Devanagari matras, Tamil vowel signs...) into
# fragments. Include the relevant script blocks wholesale.
_WORD_RE = re.compile(
    r"[\w"
    r"֑-ׇ"  # Hebrew points
    r"ً-ْ"  # Arabic harakat
    r"ऀ-෿"  # Devanagari..Sinhala blocks (letters + signs)
    r"฀-๿"  # Thai
    r"'@€£₹¥!]+",
    re.UNICODE,
)
_ASCII_LETTER_RE = re.compile(r"[A-Za-z]")


def tokenize(text: str) -> List[str]:
    """Split text into lowercase tokens, preserving URLs whole."""
    tokens: List[str] = []
    cursor = 0
    for match in _URL_TOKEN_RE.finditer(text):
        before = text[cursor:match.start()]
        tokens.extend(w.lower() for w in _WORD_RE.findall(before))
        tokens.append(match.group(0).lower())
        cursor = match.end()
    tokens.extend(w.lower() for w in _WORD_RE.findall(text[cursor:]))
    return tokens


def words_only(text: str) -> List[str]:
    """Tokens excluding URLs and pure numbers (for language detection)."""
    result: List[str] = []
    for token in tokenize(text):
        if "." in token and "/" not in token:
            continue
        if "/" in token or token.startswith("http"):
            continue
        if token.replace(",", "").replace("'", "").isdigit():
            continue
        result.append(token)
    return result


def dominant_script(text: str) -> str:
    """Rough script classification by codepoint ranges.

    Returns one of: latin, han, kana, hangul, cyrillic, arabic, hebrew,
    devanagari, bengali, tamil, telugu, thai, greek, sinhala, gujarati,
    kannada, malayalam, unknown.
    """
    if text.isascii():
        # Every ASCII letter is Latin (below 0x250).
        return "latin" if _ASCII_LETTER_RE.search(text) else "unknown"
    counts: dict = {}
    for char in text:
        if not char.isalpha():
            continue
        code = ord(char)
        script = _script_of(code)
        counts[script] = counts.get(script, 0) + 1
    if not counts:
        return "unknown"
    return max(counts.items(), key=lambda kv: kv[1])[0]


def _script_of(code: int) -> str:
    if code < 0x250:
        return "latin"
    if 0x370 <= code <= 0x3FF:
        return "greek"
    if 0x400 <= code <= 0x4FF:
        return "cyrillic"
    if 0x590 <= code <= 0x5FF:
        return "hebrew"
    if 0x600 <= code <= 0x6FF or 0x750 <= code <= 0x77F:
        return "arabic"
    if 0x900 <= code <= 0x97F:
        return "devanagari"
    if 0x980 <= code <= 0x9FF:
        return "bengali"
    if 0xA80 <= code <= 0xAFF:
        return "gujarati"
    if 0xB80 <= code <= 0xBFF:
        return "tamil"
    if 0xC00 <= code <= 0xC7F:
        return "telugu"
    if 0xC80 <= code <= 0xCFF:
        return "kannada"
    if 0xD00 <= code <= 0xD7F:
        return "malayalam"
    if 0xD80 <= code <= 0xDFF:
        return "sinhala"
    if 0xE00 <= code <= 0xE7F:
        return "thai"
    if 0x3040 <= code <= 0x30FF:
        return "kana"
    if 0x4E00 <= code <= 0x9FFF:
        return "han"
    if 0xAC00 <= code <= 0xD7AF or 0x1100 <= code <= 0x11FF:
        return "hangul"
    category = unicodedata.category(chr(code))
    return "latin" if category.startswith("L") and code < 0x2000 else "unknown"
