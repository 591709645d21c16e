"""Brand named-entity recognition with evasion-robust matching.

Off-the-shelf NER misses ``N3tfl!x`` (§3.3.6); this recogniser matches the
brand alias lexicon against *normalised* text (leet/homoglyph undone),
using multi-word phrase matching with a squashed-key fallback, and ranks
candidates by match length so "State Bank of India" beats "Bank".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..world.brands import BrandRegistry, default_brands
from .normalize import (MAX_NORMALIZE_CHARS, has_letters, normalize_token,
                        squash, undisguise)
from .tokenize import tokenize

#: Pathological-input budget: the n-gram walk scans at most this many
#: tokens. Real SMS texts are tens of tokens; a megabyte of junk that
#: slipped past quarantine must not turn the O(tokens × max_ngram) walk
#: into a run-stalling loop.
_MAX_SCAN_TOKENS = 20_000

#: Memo budget: the recogniser remembers the keys of at most this many
#: distinct tokens, and the tokens of at most this many distinct words,
#: then starts that memo over. A 480-campaign run stores about 7,000 of
#: each.
_MAX_MEMO_TOKENS = 1 << 15


@dataclass(frozen=True)
class BrandMatch:
    """One recognised brand mention."""

    brand: str
    matched_alias: str
    start_token: int


class BrandRecognizer:
    """Lexicon NER over normalised token n-grams."""

    def __init__(self, registry: Optional[BrandRegistry] = None):
        self._registry = registry or default_brands()
        #: squashed alias -> (canonical name, original alias, token length)
        self._lexicon: Dict[str, Tuple[str, str, int]] = {}
        self._max_tokens = 1
        for alias, canonical in self._registry.all_alias_forms().items():
            key = squash(alias)
            if not key:
                continue
            token_count = max(1, len(alias.split()))
            self._max_tokens = max(self._max_tokens, token_count)
            existing = self._lexicon.get(key)
            # Prefer the longest original alias for a squashed key.
            if existing is None or len(alias) > len(existing[1]):
                self._lexicon[key] = (canonical, alias, token_count)
        self._derive_caches()

    def _derive_caches(self) -> None:
        #: Every prefix of every lexicon key, "" included: a window whose
        #: key is not in here cannot grow into a match.
        self._prefixes: FrozenSet[str] = frozenset(
            key[:cut] for key in self._lexicon for cut in range(len(key) + 1))
        #: token -> _token_keys(token), and word -> its tokens (_tokens).
        #: Each process-pool worker fills its own copy, and every value
        #: is pure in its key, so neither needs a lock.
        self._memo: Dict[str, Tuple[str, str, bool]] = {}
        self._words: Dict[str, Tuple[str, ...]] = {}

    def find_all(self, text: str) -> List[BrandMatch]:
        """Every brand mention, leftmost-longest, non-overlapping.

        From each start token the window grows one token at a time, its
        key the concatenation of the tokens' keys (:meth:`_token_keys`),
        until the key can no longer become a lexicon key. The longest
        window whose key is in the lexicon wins.
        """
        tokens = self._tokens(text)
        if len(tokens) > _MAX_SCAN_TOKENS:
            tokens = tokens[:_MAX_SCAN_TOKENS]
        lexicon, prefixes = self._lexicon, self._prefixes
        matches: List[BrandMatch] = []
        index = 0
        while index < len(tokens):
            found: Optional[Tuple[str, str, int]] = None
            span = 0
            plain = letters = ""
            lettered = False
            size = 0
            for offset in range(min(self._max_tokens + 2, len(tokens) - index)):
                token = tokens[index + offset]
                is_url = "/" in token or token.startswith("http")
                if is_url and offset:
                    # n-grams crossing URLs are never brand phrases; the
                    # URL itself is checked as a single token.
                    break
                size += len(token)
                if size > MAX_NORMALIZE_CHARS:
                    # squash truncates a join this long, so the tokens'
                    # keys no longer add up to its key.
                    key = squash("".join(tokens[index:index + offset + 1]))
                    grow = True
                else:
                    token_plain, token_letters, token_lettered = (
                        self._token_keys(token))
                    plain += token_plain
                    letters += token_letters
                    lettered = lettered or token_lettered
                    key = letters if lettered else plain
                    grow = letters in prefixes or (
                        not lettered and plain in prefixes)
                entry = lexicon.get(key)
                if entry is None and offset == 0 and "." in token:
                    # Try the URL's host labels ("netflix.com-billing.xyz").
                    for label in token.replace("/", ".").split("."):
                        entry = lexicon.get(self._token_keys(label)[0])
                        if entry:
                            break
                if entry is not None:
                    found, span = entry, offset + 1
                if is_url or not grow:
                    break
            if found is None:
                index += 1
                continue
            matches.append(BrandMatch(
                brand=found[0], matched_alias=found[1], start_token=index))
            index += span
        return matches

    def _tokens(self, text: str) -> List[str]:
        """``tokenize(normalize_text(text))``, built one word at a time.

        ``normalize_text`` cuts the text to ``MAX_NORMALIZE_CHARS``, then
        rewrites each ``\\S+`` run on its own and keeps the whitespace
        between runs, and no token ``tokenize`` yields spans whitespace.
        So after the same cut, the tokens are those of
        ``normalize_token(word)`` concatenated over ``text.split()``,
        whose pieces are exactly those runs. Each distinct word is
        normalised and tokenised once.
        """
        text = text[:MAX_NORMALIZE_CHARS]
        words = self._words
        tokens: List[str] = []
        for word in text.split():
            word_tokens = words.get(word)
            if word_tokens is None:
                word_tokens = tuple(tokenize(normalize_token(word)))
                if len(words) >= _MAX_MEMO_TOKENS:
                    words.clear()
                words[word] = word_tokens
            tokens.extend(word_tokens)
        return tokens

    def _token_keys(self, token: str) -> Tuple[str, str, bool]:
        """``(plain key, letter-branch key, has a letter)`` of one token.

        A window's key is ``squash`` of its joined tokens, and
        ``normalize_token`` undoes leet only in a join that has a letter.
        So a token's plain key ``squash(token)`` is its part of a
        letter-free window's key, and its letter-branch key is its part
        of any other: ``"3"`` squashes to ``"3"``, but ``"3 e"`` to
        ``"ee"``. The two differ only for a token without a letter.
        """
        keys = self._memo.get(token)
        if keys is None:
            plain = squash(token)
            lettered = has_letters(token)
            letters = plain if lettered else "".join(
                ch for ch in undisguise(token) if ch.isalnum())
            keys = (plain, letters, lettered)
            if len(self._memo) >= _MAX_MEMO_TOKENS:
                self._memo.clear()
            self._memo[token] = keys
        return keys

    def __getstate__(self) -> Dict[str, object]:
        # Pickled annotators sent to process workers carry neither the
        # memos nor the prefix set; each worker derives its own.
        state = self.__dict__.copy()
        del state["_prefixes"], state["_memo"], state["_words"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._derive_caches()

    def find_primary(self, text: str) -> Optional[str]:
        """The impersonated brand: the first, longest-alias mention."""
        matches = self.find_all(text)
        if not matches:
            return None
        # First mention wins; ties broken by alias length (specificity).
        best = min(
            matches,
            key=lambda m: (m.start_token, -len(m.matched_alias)),
        )
        return best.brand
