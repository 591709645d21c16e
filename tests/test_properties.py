"""Property-based tests (hypothesis) on core data structures & invariants."""

import copy
import dataclasses
import datetime as dt
import functools
import json
import pickle
import random
import re
import string
import sys
import threading
import time
import types
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checkpoint.identity import (
    faults_to_dict,
    plan_from_dict,
    policy_from_dict,
    policy_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.exec import (
    EnrichmentCache,
    ExecutionPolicy,
    ProcessPool,
    shard,
)
from repro.errors import CheckpointError, ValidationError
from repro.faults import FAULT_PROFILES, CrashPoint, FaultPlan, build_fault_plan
from repro.forums.base import ForumService, Post
from repro.nlp import brands_ner
from repro.nlp.brands_ner import BrandMatch, BrandRecognizer
from repro.nlp.lures import _PHRASES, _WORD_BOUNDARY, LureDetector
from repro.nlp.normalize import (
    HOMOGLYPH_MAP,
    LEET_MAP,
    MAX_NORMALIZE_CHARS,
    normalize_text,
    normalize_token,
    squash,
)
from repro.nlp.tokenize import _script_of, dominant_script, tokenize
from repro.imaging.screenshot import word_wrap
from repro.net.ipaddr import IPv4
from repro.net.tld import TldRegistry
from repro.net.url import Url, defang, parse_url, refang
from repro.sms.gsm import (
    is_gsm_text,
    pack_septets,
    segment_count,
    septet_length,
    split_segments,
    unpack_septets,
)
from repro.sms.senderid import normalize_phone, try_classify_sender_id
from repro.core.anonymize import scrub_text
from repro.core.collection import CollectionResult, RawReport
from repro.core.quarantine import (
    _ALLOWED_CONTROLS,
    _HOSTILE_CATEGORIES,
    _HOSTILE_CHARS,
    _hostile_char_count,
)
from repro.services.crtsh import CrtShService
from repro.core.dataset import SmishingRecord, normalise_message_key
from repro.stream import (
    DedupLedger,
    EpochWindow,
    WatermarkStore,
    content_hash,
)
from repro.types import Forum, ScamType
from repro.world.adversarial import HOSTILE_PROFILES
from repro.world.brands import Brand, BrandRegistry
from repro.world.infrastructure import TlsCertificate
from repro.world.scenario import ScenarioConfig
from repro.utils.rng import WeightedSampler, partition_count, stable_hash
from repro.utils.stats import cohens_kappa, ks_two_sample, median

GSM_SAFE = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!?@£$-:/()'",
    min_size=0, max_size=400,
)


class TestGsmProperties:
    @given(GSM_SAFE)
    def test_split_segments_reassembles(self, text):
        assert "".join(split_segments(text)) == text

    @given(GSM_SAFE)
    def test_segment_count_matches_split(self, text):
        assert segment_count(text) == max(1, len(split_segments(text)))

    @given(GSM_SAFE.filter(lambda t: t != ""))
    def test_septet_pack_round_trip(self, text):
        if is_gsm_text(text):
            packed = pack_septets(text)
            assert unpack_septets(packed, septet_length(text)) == text

    @given(GSM_SAFE)
    def test_packed_size_bound(self, text):
        if is_gsm_text(text):
            septets = septet_length(text)
            assert len(pack_septets(text)) == (septets * 7 + 7) // 8


class TestUrlProperties:
    hosts = st.from_regex(r"[a-z][a-z0-9]{0,10}(\.[a-z][a-z0-9]{0,10}){0,2}"
                          r"\.(com|net|org|info|ly|in|xyz)", fullmatch=True)
    paths = st.from_regex(r"(/[a-zA-Z0-9._-]{0,12}){0,3}", fullmatch=True)

    @given(hosts, paths)
    def test_parse_str_round_trip(self, host, path):
        url = parse_url(f"https://{host}{path}")
        assert parse_url(str(url)) == url

    @given(hosts, paths)
    def test_defang_refang_inverse(self, host, path):
        original = f"https://{host}{path}"
        assert refang(defang(parse_url(original))) == original

    @given(hosts)
    def test_host_always_lowercase(self, host):
        url = parse_url("HTTPS://" + host.upper())
        assert url.host == url.host.lower()


class TestIPv4Properties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_parse_str_round_trip(self, value):
        address = IPv4(value)
        assert IPv4.parse(str(address)) == address

    @given(st.integers(min_value=0, max_value=2**32 - 2))
    def test_ordering_consistent(self, value):
        assert IPv4(value) < IPv4(value + 1)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=10_000),
           st.dictionaries(st.text(min_size=1, max_size=5),
                           st.floats(min_value=0.01, max_value=100),
                           min_size=1, max_size=8),
           st.integers(min_value=0, max_value=2**31))
    def test_partition_count_sums(self, total, weights, seed):
        counts = partition_count(random.Random(seed), total, weights)
        assert sum(counts.values()) == total
        assert all(v >= 0 for v in counts.values())

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(min_value=0.01, max_value=10),
                           min_size=1, max_size=6),
           st.integers(min_value=0, max_value=2**31))
    def test_sampler_only_returns_known_outcomes(self, weights, seed):
        sampler = WeightedSampler(weights)
        rng = random.Random(seed)
        for _ in range(20):
            assert sampler.sample(rng) in weights

    @given(st.text(max_size=50))
    def test_stable_hash_in_range(self, text):
        assert 0 <= stable_hash(text) < 2**32


class TestStatsProperties:
    labels = st.lists(st.sampled_from("abcd"), min_size=1, max_size=200)

    @given(labels)
    def test_kappa_self_agreement_is_one(self, seq):
        assert cohens_kappa(seq, seq) == pytest.approx(1.0)

    @given(labels, st.integers(min_value=0, max_value=2**31))
    def test_kappa_bounded(self, seq, seed):
        rng = random.Random(seed)
        other = [rng.choice("abcd") for _ in seq]
        kappa = cohens_kappa(seq, other)
        assert -1.0001 <= kappa <= 1.0001

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100))
    def test_median_between_min_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=5, max_size=100),
           st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=5, max_size=100))
    def test_ks_statistic_bounded(self, a, b):
        result = ks_two_sample(a, b)
        assert 0.0 <= result.statistic <= 1.0
        assert 0.0 <= result.pvalue <= 1.0

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                    min_size=5, max_size=60))
    def test_ks_symmetric(self, a):
        shifted = [x + 0.1 for x in a]
        assert ks_two_sample(a, shifted).statistic == pytest.approx(
            ks_two_sample(shifted, a).statistic
        )


class TestWordWrapProperties:
    @given(st.text(alphabet=string.ascii_letters + " ", max_size=300),
           st.integers(min_value=8, max_value=60))
    def test_rows_respect_width(self, text, width):
        for row, _ in word_wrap(text, width):
            assert len(row) <= width

    @given(st.text(alphabet=string.ascii_letters + " ", max_size=300),
           st.integers(min_value=8, max_value=60))
    def test_content_preserved(self, text, width):
        rows = word_wrap(text, width)
        rebuilt = ""
        for row, continuation in rows:
            rebuilt += row if continuation else (" " + row)
        original_words = text.split()
        assert rebuilt.split() == [w for w in original_words if w]


class TestSenderIdProperties:
    @given(st.from_regex(r"\+?[0-9]{7,15}", fullmatch=True))
    def test_digit_strings_classify_as_phone(self, raw):
        sender = try_classify_sender_id(raw)
        assert sender is not None
        assert sender.digits == raw.lstrip("+")

    @given(st.from_regex(r"[A-Z]{3,11}", fullmatch=True))
    def test_letter_strings_classify_as_alnum(self, raw):
        sender = try_classify_sender_id(raw)
        assert sender is not None
        assert sender.normalized == raw.lower()

    @given(st.text(max_size=30))
    def test_classification_never_crashes(self, raw):
        try_classify_sender_id(raw)  # must not raise

    @given(st.from_regex(r"\+?[0-9() .-]{7,20}", fullmatch=True))
    def test_normalize_phone_idempotent(self, raw):
        once = normalize_phone(raw)
        assert normalize_phone(once) == once


class TestAnonymizationProperties:
    @given(st.text(alphabet=string.printable, max_size=200))
    def test_scrub_idempotent(self, text):
        once = scrub_text(text)
        assert scrub_text(once) == once

    @given(st.text(alphabet=string.ascii_lowercase + " ", max_size=100))
    def test_scrub_preserves_plain_words(self, text):
        assert scrub_text(text) == text


def _finish_after(item):
    """Process-pool task (module-level, so it pickles): sleep ``delay``
    seconds, then return ``index``."""
    index, delay = item
    time.sleep(delay)
    return index


def _fail_if_flagged(item):
    index, flagged = item
    if flagged:
        raise ValueError(f"task-{index}")
    return index


@pytest.fixture(scope="module")
def six_workers():
    """One process pool for every example, as one run reuses its pool."""
    with ProcessPool(6) as pool:
        yield pool


class TestExecutionEngineProperties:
    """The engine's invariants: stable cache keys, canonical merges,
    and idempotent (zero-recompute) second passes."""

    subjects = st.lists(st.text(min_size=1, max_size=20), min_size=1,
                        max_size=30, unique=True)
    services = st.sampled_from(["openai", "virustotal", "whois", "hlr"])

    @given(subjects, services)
    def test_cache_key_stability_and_isolation(self, subjects, service):
        # Same (service, subject) always lands on the same entry;
        # distinct subjects never collide — each gets its own value back.
        cache = EnrichmentCache()
        for index, subject in enumerate(subjects):
            cache.store(service, subject, index)
        for index, subject in enumerate(subjects):
            assert cache.get(service, subject) == index
            assert cache.peek(service, subject) == index

    @given(subjects)
    def test_cache_keys_do_not_collide_across_services(self, subjects):
        cache = EnrichmentCache()
        for subject in subjects:
            cache.store("whois", subject, "w:" + subject)
            cache.store("hlr", subject, "h:" + subject)
        for subject in subjects:
            assert cache.get("whois", subject) == "w:" + subject
            assert cache.get("hlr", subject) == "h:" + subject

    @given(st.permutations(list(range(6))))
    @example(order=[5, 4, 3, 2, 1, 0])  # later-submitted items finish first
    @settings(max_examples=12, deadline=None)
    def test_merge_order_canonical_under_shuffled_completion(
            self, six_workers, order):
        # Item order[k] sleeps k steps, so the items complete in the
        # permutation's order, yet the merged result must always be in
        # submission order: a gather in completion order fails this.
        items = [(index, order.index(index) * 0.01)
                 for index in range(len(order))]
        merged = six_workers.map(_finish_after, items)
        assert merged == list(range(len(order)))

    @given(st.lists(st.integers(), max_size=60),
           st.integers(min_value=1, max_value=9))
    def test_shard_round_robin_order_preserving_and_loss_free(self, items,
                                                              shards):
        # Tag every item with its submission index so duplicates stay
        # distinguishable, then check the partition/merge contract the
        # process pool's precompute path relies on.
        indexed = list(enumerate(items))
        chunks = shard(indexed, shards)
        assert len(chunks) == min(shards, len(indexed))
        sizes = [len(chunk) for chunk in chunks]
        if sizes:
            assert max(sizes) - min(sizes) <= 1  # balanced within one
        for chunk in chunks:
            indices = [index for index, _ in chunk]
            assert indices == sorted(indices)  # each shard a subsequence
        merged = [item for chunk in chunks for item in chunk]
        assert sorted(merged) == sorted(indexed)  # loss-free permutation
        assert shard(indexed, shards) == chunks  # deterministic repartition

    @given(st.sets(st.integers(min_value=0, max_value=11), min_size=1),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_pool_merge_reraises_lowest_indexed_failure(self, failures,
                                                        workers):
        with ProcessPool(workers) as pool:
            with pytest.raises(ValueError) as excinfo:
                pool.map(_fail_if_flagged,
                         [(i, i in failures) for i in range(12)])
        assert str(excinfo.value) == f"task-{min(failures)}"

    @given(st.lists(st.tuples(services, st.text(min_size=1, max_size=12)),
                    min_size=1, max_size=40))
    def test_cache_idempotence_second_pass_computes_nothing(self, batch):
        cache = EnrichmentCache()
        computes = []

        def run_batch():
            # The precompute's pattern: compute and store only a miss.
            for service, subject in batch:
                if cache.get(service, subject) is None:
                    computes.append((service, subject))
                    cache.store(service, subject, len(computes))

        run_batch()
        first_pass = len(computes)
        assert first_pass == len(set(batch))  # one compute per unique key
        run_batch()
        assert len(computes) == first_pass  # second pass: zero computes


class TestHostileUnicodeProperties:
    """Quarantine-era guarantees on the NLP hot paths: the length
    budgets keep even megabyte single-token inputs bounded, and the
    sanitizer never raises on *adversarial* unicode (zero-width splices,
    RTL overrides, replacement-char mojibake)."""

    _HOSTILE_ALPHABET = (string.ascii_letters + " .!?"
                         + "​‌‍⁠"   # zero-width
                         + "‪‫‭‮"   # bidi overrides
                         + "⁦⁧⁩"         # bidi isolates
                         + "�﻿")              # mojibake, BOM

    @given(st.integers(min_value=MAX_NORMALIZE_CHARS - 2,
                       max_value=MAX_NORMALIZE_CHARS + 2))
    def test_normalize_truncates_exactly_at_the_budget(self, length):
        text = "a" * length
        expected = normalize_text(text[:MAX_NORMALIZE_CHARS])
        assert normalize_text(text) == expected

    def test_megabyte_single_token_is_bounded_and_consistent(self):
        """A 1MB whitespace-free token — the classic regex-budget bomb —
        must terminate under the truncation cap."""
        bomb = "x" * 1_000_000
        assert len(normalize_text(bomb)) <= MAX_NORMALIZE_CHARS

    def test_brand_scan_token_budget_is_enforced(self):
        """`find_all` scans at most its token cap: a brand mention
        buried beyond the budget is (deliberately) not found, and the
        scan completes instead of blowing up combinatorially."""
        recognizer = BrandRecognizer()
        in_budget = "junk " * 100 + " your PayPal account is locked"
        assert any(m.brand.lower() == "paypal"
                   for m in recognizer.find_all(in_budget))
        flood = "junk " * 25_000 + " your PayPal account is locked"
        assert recognizer.find_all(flood) == []

    @given(st.text(alphabet=_HOSTILE_ALPHABET, max_size=300))
    def test_sanitizer_screen_never_raises(self, body):
        from repro.core.quarantine import QUARANTINE_REASONS, Sanitizer

        report = RawReport(forum=Forum.REDDIT, post_id="p1", author="u",
                           posted_at=dt.datetime(2022, 9, 1), body=body)
        verdict = Sanitizer().screen(report)
        assert verdict is None or verdict.reason in QUARANTINE_REASONS


def _reference_find_all(recognizer, text):
    """The n-gram walk as it stood before per-token keys: every window
    squashed from its joined tokens, longest window first."""
    normalised = normalize_text(text)
    tokens = tokenize(normalised)
    if len(tokens) > brands_ner._MAX_SCAN_TOKENS:
        tokens = tokens[:brands_ner._MAX_SCAN_TOKENS]
    matches = []
    index = 0
    while index < len(tokens):
        matched = None
        for span in range(min(recognizer._max_tokens + 2,
                              len(tokens) - index), 0, -1):
            window = tokens[index:index + span]
            if any("/" in t or t.startswith("http") for t in window):
                # n-grams crossing URLs are never brand phrases; the
                # URL itself is checked as a single token below.
                if span > 1:
                    continue
            key = squash("".join(window))
            entry = recognizer._lexicon.get(key)
            if entry is None and span == 1 and "." in window[0]:
                # Try the URL's host labels ("netflix.com-billing.xyz").
                for label in window[0].replace("/", ".").split("."):
                    entry = recognizer._lexicon.get(squash(label))
                    if entry:
                        break
            if entry is None:
                continue
            canonical, alias, _ = entry
            if len(key) < 4 and span == 1:
                # Short aliases must match the token exactly.
                if squash(window[0]) != key:
                    continue
            matched = BrandMatch(
                brand=canonical, matched_alias=alias, start_token=index
            )
            index += span
            break
        if matched is not None:
            matches.append(matched)
        else:
            index += 1
    return matches


class TestBrandWalkProperties:
    """The per-token-key walk in `BrandRecognizer.find_all` returns
    exactly the matches of the window-by-window reference above, on the
    inputs where the two could part: leet digits and symbols that only
    map inside a window with a letter, homoglyphs, combining marks, URL
    pieces, Unicode whitespace, characters NFKD expands, and brand
    aliases spliced among them."""

    recognizer = BrandRecognizer()
    _ALIASES = sorted(recognizer._registry.all_alias_forms())
    _PIECES = (sorted(LEET_MAP) + sorted(HOMOGLYPH_MAP)
               + ["\u0301", "\u0308", "\u0327",   # combining marks
                  "/", ".", "http", "https://", ".com", "-", "_",
                  " ", "  ", "\n", "\t", "e", "o", "x", "bank"])
    texts = st.lists(st.one_of(st.sampled_from(_PIECES),
                               st.sampled_from(_ALIASES)),
                     max_size=40).map("".join)

    #: Pieces where a word's normalised form and its tokens could part:
    #: whitespace that ``str.split`` and ``\S+`` must agree on (no-break
    #: and em spaces, the \x1c-\x1f separators), ``¨``, which NFKD
    #: turns into a space, characters NFKD expands ("ﬁ", "①", "㎒",
    #: "½"), leet, and URL pieces.
    _WORD_PIECES = _PIECES + [
        "\u00a8", "\u00a0", "\u2003", "\u3000", "\x1c", "\x1d", "\x1e",
        "\x1f", "\x85", "\u200b", "\ufb01", "\u2460", "\u3392", "\u00bd",
        "\u0130", "\u00df", "'", "@", "\u20ac", "ama\u00a8zon", "pay",
        "www.", "a-b.co", "/x?y=1"]
    word_texts = st.one_of(
        st.lists(st.one_of(st.sampled_from(_WORD_PIECES),
                           st.sampled_from(_ALIASES)),
                 max_size=40).map("".join),
        st.text(max_size=80))

    @settings(max_examples=300)
    @given(word_texts)
    def test_walk_matches_reference(self, text):
        assert self.recognizer.find_all(text) == _reference_find_all(
            self.recognizer, text)

    #: A lexicon with letter-free keys ("11", "0202"), which only the
    #: tokens' plain keys can reach.
    digit_recognizer = BrandRecognizer(BrandRegistry([
        Brand("1&1", ScamType.TELECOM, ("DEU",), ("de",),
              aliases=("0 2 0 2",)),
        Brand("O2", ScamType.TELECOM, ("GBR",), ("en",)),
    ]))

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(["0", "1", "2", "3", "o", "e", "!", "&",
                                     "/", ".", " ", " ", " "]),
                    max_size=30).map("".join))
    def test_letter_free_keys_match_reference(self, text):
        assert self.digit_recognizer.find_all(text) == _reference_find_all(
            self.digit_recognizer, text)

    @pytest.mark.parametrize("text, brands", [
        ("3 e", ["EE"]),          # "3" maps to "e" only next to a letter
        ("0 2", []),              # "02" stays a code
        ("o 2", ["O2"]),
        ("N3tfl!x", ["Netflix"]),
        ("T-Mobile bill", ["T-Mobile"]),
        ("pay at netflix.secure-billing.xyz/x", ["Netflix"]),
        ("ama z.on/", []),        # no window runs into a URL...
        ("n.et/ flix", []),       # ...or on from one
        ("S-tate Bank of In-dia", ["State Bank of India"]),  # 6 tokens
    ])
    def test_fixed_cases_match_reference(self, text, brands):
        found = self.recognizer.find_all(text)
        assert found == _reference_find_all(self.recognizer, text)
        assert [m.brand for m in found] == brands

    @settings(max_examples=300)
    @given(texts)
    def test_concatenated_keys_equal_joined_squash(self, text):
        """Every window the walk can build: the concatenated per-token
        keys equal ``squash`` of the joined window."""
        tokens = tokenize(normalize_text(text))
        max_span = self.recognizer._max_tokens + 2
        for index in range(len(tokens)):
            plain = letters = ""
            lettered = False
            for end in range(index + 1, min(index + max_span, len(tokens)) + 1):
                token_plain, token_letters, token_lettered = (
                    self.recognizer._token_keys(tokens[end - 1]))
                plain += token_plain
                letters += token_letters
                lettered = lettered or token_lettered
                key = letters if lettered else plain
                assert key == squash("".join(tokens[index:end]))

    def test_window_longer_than_normalize_budget(self):
        """A window past MAX_NORMALIZE_CHARS keys on its truncated join.
        Bengali vowel sign O decomposes into two signs that are not
        alphanumeric, so "net" plus 32,766 of them normalises to one
        65,535-character token that squashes to "net". Joined with
        "flix", the window passes the budget and squashes to "netf":
        the tokens' keys would add up to "netflix" instead."""
        text = "net" + "\u09cb" * 32_766 + " flix"
        tokens = tokenize(normalize_text(text))
        assert len("".join(tokens)) > MAX_NORMALIZE_CHARS
        assert squash("".join(tokens)) == "netf"
        assert self.recognizer.find_all(text) == []
        assert _reference_find_all(self.recognizer, text) == []

    @settings(max_examples=300)
    @given(word_texts)
    # A code next to a word only stays a code when split from it.
    @example("3\ne")
    @example("0\u00a0amaz0n\u20032\x1fo")
    def test_tokens_concatenate_over_words(self, text):
        """Within the normalise budget, the tokens of the normalised text
        are the tokens of each normalised word, concatenated."""
        expected = tokenize(normalize_text(text))
        assert [token for word in text.split()
                for token in tokenize(normalize_token(word))] == expected
        assert self.recognizer._tokens(text) == expected

    def test_tokens_past_the_normalize_budget_are_truncated(self):
        text = "ab " * 30_000
        assert self.recognizer._tokens(text) == tokenize(normalize_text(text))
        assert len(self.recognizer._tokens(text)) < 30_000

    def test_memo_shared_by_threads(self, monkeypatch):
        """Thread-pool workers share one recogniser. With memos small
        enough to be emptied mid-fill and a short switch interval, every
        worker still gets the reference matches."""
        monkeypatch.setattr(brands_ner, "_MAX_MEMO_TOKENS", 8)
        recognizer = BrandRecognizer()
        texts = ["Your N3tfl!x payment failed", "3 e bill", "o 2 top-up",
                 "pay at netflix.secure-billing.xyz/x",
                 "S-tate Bank of In-dia", "Amazon and Netflix emailed",
                 "Ama\u00a8zon\u00a0pay\u2003n\u00a8etflix.com/x \ufb01x"] * 20
        expected = [_reference_find_all(recognizer, t) for t in texts]
        results = {}

        def work(worker):
            results[worker] = [recognizer.find_all(t) for t in texts]

        workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == {i: expected for i in range(8)}
        assert len(recognizer._words) <= 8

    def test_warm_recognizer_pickles_without_its_memo(self):
        cold = pickle.dumps(BrandRecognizer())
        warm = BrandRecognizer()
        before = warm.find_all("N3tfl!x: pay at 0 2 amazon.co/x")
        assert warm._memo and warm._words
        clone = pickle.loads(pickle.dumps(warm))
        assert clone._memo == {} and clone._words == {}
        assert len(pickle.dumps(warm)) == len(cold)
        assert clone.find_all("N3tfl!x: pay at 0 2 amazon.co/x") == before


class TestDatasetKeyProperties:
    @given(st.text(max_size=100))
    def test_key_idempotent(self, text):
        key = normalise_message_key(text)
        assert normalise_message_key(key) == key

    @given(st.text(alphabet=string.ascii_letters + string.digits +
                   " .,!?@#éüñàößç", max_size=100))
    def test_key_case_insensitive(self, text):
        # Restricted to alphabets with two-way case mappings; one-way
        # mappings (Turkish dotless i) are out of scope for dedup keys.
        assert normalise_message_key(text.upper()) == \
            normalise_message_key(text.lower())


class TestStreamWatermarkProperties:
    """Re-presenting already-ingested material must be a no-op."""

    reports = st.lists(
        st.tuples(
            st.sampled_from(list(Forum)),
            st.from_regex(r"p[0-9]{1,4}", fullmatch=True),
            st.integers(min_value=0, max_value=120),  # days into window
        ),
        min_size=1, max_size=40,
    )

    @staticmethod
    def _collection(entries):
        # A post id names one post: re-sightings of the same (forum, id)
        # must carry the same timestamp, as real collectors guarantee.
        base = dt.datetime(2020, 1, 1)
        canonical_days = {}
        for forum, pid, days in entries:
            canonical_days.setdefault((forum, pid), days)
        result = CollectionResult()
        result.reports = [
            RawReport(forum=forum, post_id=pid, author="u",
                      posted_at=base + dt.timedelta(
                          days=canonical_days[(forum, pid)]),
                      body=f"report {pid}")
            for forum, pid, _ in entries
        ]
        return result

    @given(reports)
    @settings(max_examples=40, deadline=None)
    def test_unchanged_watermark_reingest_is_noop(self, entries):
        epoch = EpochWindow(index=0, start=dt.datetime(2020, 1, 1),
                            end=dt.datetime(2020, 3, 1))
        store = WatermarkStore()
        collection = self._collection(entries)
        first = store.filter_epoch(collection, epoch)
        store.commit(first, epoch)
        before = copy.deepcopy(vars(store))

        again = store.filter_epoch(collection, epoch)
        assert again.result.reports == []
        # Every previously-kept report now reads as seen, and so do the
        # within-collection duplicates that were dropped the first time.
        assert again.seen_dropped == (len(first.result.reports)
                                      + first.seen_dropped)
        assert again.deferred == first.deferred
        # And committing the empty re-ingest changes nothing durable.
        store.commit(again, epoch)
        assert vars(store) == before

    @given(reports)
    @settings(max_examples=40, deadline=None)
    def test_filter_never_duplicates_a_post_id(self, entries):
        epoch = EpochWindow(index=0, start=dt.datetime(2020, 1, 1),
                            end=dt.datetime(2020, 3, 1))
        store = WatermarkStore()
        filtered = store.filter_epoch(self._collection(entries), epoch)
        keyed = [(r.forum, r.post_id) for r in filtered.result.reports]
        assert len(keyed) == len(set(keyed))


class TestStreamLedgerProperties:
    """The dedup division's *content* is order-insensitive: however the
    forums interleave their records, the same delta contents come out."""

    texts = st.lists(
        st.sampled_from(["msg alpha", "msg beta", "msg gamma",
                         "msg ALPHA", "msg  beta", "msg delta"]),
        min_size=1, max_size=25,
    )

    @staticmethod
    def _records(texts):
        forums = list(Forum)
        return [
            SmishingRecord(record_id=f"r{i:07d}",
                           forum=forums[i % len(forums)],
                           source_post_id=f"p{i}", text=text)
            for i, text in enumerate(texts)
        ]

    @given(texts, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_division_content_is_permutation_invariant(self, texts, rng):
        records = self._records(texts)
        shuffled = list(records)
        rng.shuffle(shuffled)

        base = DedupLedger().divide(records)
        other = DedupLedger().divide(shuffled)

        hashes = lambda division: {content_hash(r) for r in division.delta}
        assert hashes(base) == hashes(other)
        assert len(base.delta) == len(other.delta)
        assert len(base.duplicate_of) == len(other.duplicate_of)
        # Every duplicate points at a record carrying the same content.
        by_id = {r.record_id: r for r in records}
        for division in (base, other):
            for dup_id, canon_id in division.duplicate_of.items():
                assert content_hash(by_id[dup_id]) \
                    == content_hash(by_id[canon_id])

    @given(texts)
    @settings(max_examples=40, deadline=None)
    def test_commit_then_divide_finds_every_prior_sighting(self, texts):
        records = self._records(texts)
        ledger = DedupLedger()
        ledger.commit(ledger.divide(records).new_hashes)
        replay = ledger.divide(records)
        assert replay.delta == []
        assert set(replay.duplicate_of) == {r.record_id for r in records}


class TestPercentileDigestProperties:
    samples = st.lists(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    )

    @given(samples, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_quantiles_are_permutation_invariant(self, values, rng):
        from repro.obs.profile import PercentileDigest

        shuffled = list(values)
        rng.shuffle(shuffled)
        base, other = PercentileDigest(values), PercentileDigest(shuffled)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert base.quantile(q) == other.quantile(q)

    @given(samples)
    @settings(max_examples=60, deadline=None)
    def test_quantiles_are_monotone_and_bounded(self, values):
        from repro.obs.profile import PercentileDigest

        digest = PercentileDigest(values)
        qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
        answers = [digest.quantile(q) for q in qs]
        for lower, upper in zip(answers, answers[1:]):
            assert lower <= upper
        assert answers[0] == min(values)
        assert answers[-1] == max(values)
        assert all(digest.min <= a <= digest.max for a in answers)

    @given(samples, samples)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_concatenation(self, left_values, right_values):
        from repro.obs.profile import PercentileDigest

        merged = PercentileDigest(left_values)
        merged.merge(PercentileDigest(right_values))
        combined = PercentileDigest(left_values + right_values)
        assert merged.count == combined.count
        for q in (0.0, 0.5, 0.9, 1.0):
            assert merged.quantile(q) == combined.quantile(q)


class TestServeProperties:
    """Serve-layer invariants: the bounded queue really is bounded, the
    admission front door is a pure function of (seed, arrival order),
    and shed + accepted always partitions submitted."""

    _ops = st.lists(
        st.one_of(
            st.tuples(st.just("offer"), st.integers(0, 10_000)),
            st.tuples(st.just("take"), st.integers(1, 8)),
        ),
        min_size=1, max_size=120,
    )

    @staticmethod
    def _queue_item(index):
        from repro.serve import QueueItem

        return QueueItem(index=index, request_id=f"q{index:07d}",
                         reporter=f"rep-{index % 7:05d}",
                         post_index=index, enqueued_at=float(index),
                         deadline=None)

    @given(capacity=st.integers(min_value=1, max_value=16), ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_queue_never_exceeds_capacity(self, capacity, ops):
        from repro.serve import BoundedQueue

        queue = BoundedQueue(capacity)
        offered = accepted = 0
        for op, value in ops:
            if op == "offer":
                offered += 1
                if queue.offer(self._queue_item(value)):
                    accepted += 1
            else:
                queue.take(value)
            assert 0 <= queue.depth <= capacity
        assert queue.max_depth <= capacity
        assert queue.offered == offered
        assert queue.refused == offered - accepted

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           profile=st.sampled_from(("steady", "burst", "spike")))
    @settings(max_examples=25, deadline=None)
    def test_admission_is_deterministic_in_seed_and_order(self, seed,
                                                          profile):
        from repro.serve import (
            AdmissionController,
            AdmissionPolicy,
            LoadSpec,
            generate_schedule,
        )
        from repro.services.base import SimClock

        spec = LoadSpec(profile=profile, requests=80, reporters=12,
                        seed=seed)
        schedule = generate_schedule(spec, n_posts=30)

        def _decide():
            clock = SimClock()
            control = AdmissionController(
                AdmissionPolicy(reporter_rate=0.1, reporter_burst=2.0),
                clock)
            decisions = []
            for arrival in schedule:
                clock.advance(max(0.0, arrival.at - clock.now))
                hint = control.admit_reporter(arrival.reporter)
                if hint is None:
                    control.record_accept()
                decisions.append(hint)
            return decisions, control.state_dict()

        first, first_state = _decide()
        again, again_state = _decide()
        assert first == again
        assert first_state == again_state

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           capacity=st.integers(min_value=1, max_value=12),
           batch=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_shed_plus_accepted_equals_submitted(self, seed, capacity,
                                                 batch):
        """A pure front-door replay: every arrival is either accepted
        into the bounded queue or shed with a structured rejection —
        no third outcome, at any capacity or drain cadence."""
        from repro.serve import (
            AdmissionController,
            AdmissionPolicy,
            BoundedQueue,
            LoadSpec,
            generate_schedule,
        )
        from repro.services.base import SimClock

        spec = LoadSpec(profile="burst", requests=100, reporters=10,
                        seed=seed)
        clock = SimClock()
        control = AdmissionController(
            AdmissionPolicy(reporter_rate=0.05, reporter_burst=1.0), clock)
        queue = BoundedQueue(capacity)
        for arrival in generate_schedule(spec, n_posts=30):
            clock.advance(max(0.0, arrival.at - clock.now))
            if arrival.index % (batch + 1) == batch:
                queue.take(batch)
            hint = control.admit_reporter(arrival.reporter)
            if hint is not None:
                control.reject(arrival.request_id, arrival.reporter,
                               "rate_limited", "over budget",
                               mode="healthy", retry_after=hint)
                continue
            if not queue.offer(self._queue_item(arrival.index)):
                control.reject(arrival.request_id, arrival.reporter,
                               "queue_full", "bounded queue at capacity",
                               mode="healthy")
                continue
            control.record_accept()
        assert control.accepted + control.rejected == spec.requests
        assert len(control.rejections) == control.rejected
        assert (sum(control.rejected_by_reason.values())
                == control.rejected)


def _reference_pressure(breakers, meters, quarantine_pressure):
    """The reference pressure check: sort the breaker and meter names
    on every call and return the first reason found."""
    from repro.resilience.breaker import BreakerState
    from repro.serve.degrade import QUOTA_FLOOR

    for name in sorted(breakers):
        breaker = breakers[name]
        state = breaker.state
        if state is not BreakerState.CLOSED:
            return (f"breaker {name} {state.value} "
                    f"({breaker.half_open_probes} probes, "
                    f"{breaker.half_open_successes} ok)")
    for name in sorted(meters):
        meter = meters[name]
        if meter.quota is None:
            continue
        remaining = meter.remaining_quota
        if remaining / meter.quota < QUOTA_FLOOR:
            return (f"{name} quota nearly exhausted "
                    f"({remaining}/{meter.quota} left)")
    if quarantine_pressure is not None:
        reason = quarantine_pressure()
        if reason is not None:
            return reason
    return None


class TestPressureFastPathProperties:
    """``DegradationController._pressure`` scans breakers in dict order
    and lists the quota meters once; it must return exactly the string
    the sorted scan returns, on every call, while the live breaker dict
    changes and gains entries between calls."""

    _SERVICES = ("virustotal", "gsb-transparency", "whois", "openai", "hlr",
                 "crtsh", "gsb", "ipinfo", "spamhaus-pdns")
    _states = st.tuples(
        st.sampled_from(("closed", "open", "half_open")),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    )

    @staticmethod
    def _set_breaker(breaker, drawn):
        state, probes, successes = drawn
        breaker.restore_state({
            "state": state, "consecutive_failures": 0,
            "opened_at": None if state == "closed" else 0.0, "opens": 0,
            "fast_fails": 0, "half_open_probes": probes,
            "half_open_successes": min(successes, probes),
        })

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_pressure_equals_the_sorted_scan(self, data):
        from repro.resilience import CircuitBreaker
        from repro.serve.degrade import DegradationController
        from repro.services.base import ServiceMeter, SimClock

        clock = SimClock()
        names = data.draw(st.lists(st.sampled_from(self._SERVICES),
                                   min_size=2, max_size=9, unique=True))
        breakers = {}
        for name in names[:-1]:
            breakers[name] = CircuitBreaker(name, clock)
            self._set_breaker(breakers[name], data.draw(self._states))
        meters = {}
        for name in data.draw(st.lists(st.sampled_from(self._SERVICES),
                                       max_size=9, unique=True)):
            quota = data.draw(st.none() | st.integers(1, 50))
            meters[name] = ServiceMeter(service=name, clock=clock,
                                        quota=quota)
            used = data.draw(st.integers(0, quota or 0))
            meters[name].restore_state({**meters[name].state_dict(),
                                        "used": used})
        signal = data.draw(st.sampled_from(("absent", "calm", "alarm")))
        quarantine = {"absent": None, "calm": lambda: None,
                      "alarm": lambda: "sanitizer quarantined 60% of the "
                                       "last batch"}[signal]
        controller = DegradationController(
            clock, high_watermark=8, low_watermark=4, breakers=breakers,
            meters=meters, quarantine_pressure=quarantine)
        assert controller._pressure() == _reference_pressure(
            breakers, meters, quarantine)
        # Between calls a breaker changes state and the live dict gains
        # the lazily created last one; nothing may be remembered.
        for name in names[:-1]:
            self._set_breaker(breakers[name], data.draw(self._states))
        breakers[names[-1]] = CircuitBreaker(names[-1], clock)
        self._set_breaker(breakers[names[-1]], data.draw(self._states))
        assert controller._pressure() == _reference_pressure(
            breakers, meters, quarantine)


@functools.lru_cache(maxsize=None)
def _vision_screenshots():
    """Every image a small world's reporters attach, SMS or not."""
    from repro.world.scenario import build_world

    world = build_world(ScenarioConfig(seed=7, n_campaigns=3))
    return tuple(shot for post in world.reporter_output.all_posts()
                 for shot in post.attachments)


class TestVisionMemoProperties:
    """A stable extractor extracts each screenshot once per session; a
    positional one keeps no memo, so a repeat consumes fresh draws."""

    @staticmethod
    def _pool():
        from repro.imaging.screenshot import ImageKind

        shots = _vision_screenshots()
        other = [s for s in shots if s.kind is not ImageKind.SMS_SCREENSHOT]
        sms = [s for s in shots if s.kind is ImageKind.SMS_SCREENSHOT]
        return other[:6] + sms[:18]

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31),
           miss_rate=st.sampled_from((0.015, 0.5)))
    @settings(max_examples=60, deadline=None)
    def test_stable_repeats_equal_fresh_extractions(self, data, seed,
                                                    miss_rate):
        from repro.imaging.screenshot import ImageKind
        from repro.imaging.vision_openai import OpenAiVisionExtractor

        sequence = data.draw(st.lists(st.sampled_from(self._pool()),
                                      max_size=40))
        memo = OpenAiVisionExtractor(random.Random(0), miss_rate=miss_rate,
                                     stable_seed=seed)
        for shot in sequence:
            fresh = OpenAiVisionExtractor(random.Random(1),
                                          miss_rate=miss_rate,
                                          stable_seed=seed)
            assert (dataclasses.asdict(memo.extract(shot))
                    == dataclasses.asdict(fresh.extract(shot)))
        assert memo.processed == len(sequence)
        assert memo.dismissed == sum(
            shot.kind is not ImageKind.SMS_SCREENSHOT for shot in sequence)

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_positional_repeat_consumes_fresh_draws(self, data, seed):
        from repro.imaging.vision_openai import OpenAiVisionExtractor

        drawing = [shot for shot in self._pool()
                   if shot.timestamp_line is not None]
        shot = data.draw(st.sampled_from(drawing))
        states = []
        for second in (shot, dataclasses.replace(shot)):
            rng = random.Random(seed)
            vision = OpenAiVisionExtractor(rng, miss_rate=0.5)
            vision.extract(shot)
            vision.extract(second)
            states.append(rng.getstate())
        assert states[0] == states[1]


class TestStreamSessionNoopProperty:
    def test_rerun_of_caught_up_session_charges_nothing(self):
        """`run()` on a session with no pending epochs is a no-op:
        identical fingerprint, zero new charged calls on any service."""
        from repro.stream import StreamSession
        from repro.world.scenario import ScenarioConfig

        session = StreamSession.create(
            ScenarioConfig(seed=13, n_campaigns=4), epochs=2)
        first = session.run().fingerprint()
        charged = {name: meter.snapshot()["used"]
                   for name, meter in session.services.meters().items()}

        second = session.run().fingerprint()
        recharged = {name: meter.snapshot()["used"]
                     for name, meter in session.services.meters().items()}
        assert second == first
        assert recharged == charged


# -- replaced scans: each fast path against the scan it replaced ------------


def _reference_search(service, keyword, *, since=None, until=None,
                      cursor=None, include_deleted=False):
    """``ForumService.search`` as a walk of every post from index 0."""
    service.meter.charge()
    service._ensure_sorted()
    start_index = int(cursor) if cursor else 0
    matches = []
    next_cursor = None
    for index, post in enumerate(service._posts):
        if index < start_index:
            continue
        if since is not None and post.created_at < since:
            continue
        if until is not None and post.created_at >= until:
            continue
        if post.deleted and not include_deleted:
            continue
        if not post.matches_keyword(keyword):
            continue
        matches.append(post)
        if len(matches) >= service.page_size:
            next_cursor = str(index + 1)
            break
    return matches, next_cursor


class TestForumSearchProperties:
    """Bisecting the ``[since, until)`` window returns the pages, cursors
    and meter charges of the full-timeline walk, on timelines with equal
    timestamps, deleted posts and mixed-case keywords."""

    _BASE = dt.datetime(2022, 9, 1)
    _BODIES = ("SMS scam", "sms SCAM alert", "Smishing!", "phishing sms",
               "nothing here", "smishing and sms fraud", "")
    posts = st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                               st.sampled_from(_BODIES), st.booleans()),
                     max_size=40)
    bounds = st.one_of(st.none(), st.integers(min_value=-1, max_value=8))

    def _service(self, entries, page_size):
        service = ForumService()
        service.page_size = page_size
        for number, (minutes, body, deleted) in enumerate(entries):
            service.add_post(Post(
                post_id=f"p{(number * 7) % 41:02d}-{number}",
                forum=service.forum, author="u",
                created_at=self._BASE + dt.timedelta(minutes=minutes),
                body=body, deleted=deleted))
        return service

    @settings(max_examples=200)
    @given(posts, st.sampled_from(["sms scam", "SMISHING", "Phishing SMS",
                                   "sms fraud", "zzz"]),
           bounds, bounds, st.integers(min_value=1, max_value=5),
           st.booleans(), st.one_of(st.none(), st.integers(-2, 45)))
    def test_pages_match_full_scan(self, entries, keyword, since, until,
                                   page_size, include_deleted, first):
        fast = self._service(entries, page_size)
        slow = self._service(entries, page_size)
        window = {
            "since": None if since is None
            else self._BASE + dt.timedelta(minutes=since),
            "until": None if until is None
            else self._BASE + dt.timedelta(minutes=until),
        }
        cursor = None if first is None else str(first)
        for _ in range(len(entries) + 2):
            page = fast.search(keyword, cursor=cursor,
                               include_deleted=include_deleted, **window)
            posts, next_cursor = _reference_search(
                slow, keyword, cursor=cursor,
                include_deleted=include_deleted, **window)
            assert [p.post_id for p in page.posts] == [
                p.post_id for p in posts]
            assert page.next_cursor == next_cursor
            assert fast.meter.used == slow.meter.used
            if next_cursor is None:
                break
            cursor = next_cursor
        else:
            pytest.fail("pagination did not terminate")

    def test_post_added_after_a_search_is_in_the_window(self):
        service = self._service([(3, "sms scam", False)], 10)
        assert len(service.search("sms scam").posts) == 1
        service.add_post(Post(post_id="late", forum=service.forum,
                              author="u", created_at=self._BASE,
                              body="sms scam"))
        page = service.search("sms scam", since=self._BASE,
                              until=self._BASE + dt.timedelta(minutes=2))
        assert [post.post_id for post in page.posts] == ["late"]


def _reference_certificates_for(service, host):
    """``CrtShService.certificates_for`` as a walk of every logged host
    (the meter charge left out)."""
    key = host.lower().strip(".")
    results = list(service._index.get(key, []))
    suffix = "." + key
    for fqdn, certs in service._index.items():
        if fqdn.endswith(suffix):
            results.extend(certs)
    return sorted(results, key=lambda c: (c.issued_at, c.serial))


class TestCrtShIndexProperties:
    """The parent-domain index returns the certificates, in the order,
    of the ``endswith`` walk over every logged host."""

    hosts = st.lists(st.sampled_from(["a", "b", "c", "xb", "B"]),
                     min_size=1, max_size=4).map(".".join)

    @staticmethod
    def _service(entries):
        assets = []
        for number, (fqdn, day) in enumerate(entries):
            issued = dt.date(2023, 1, 1) + dt.timedelta(days=day)
            assets.append(types.SimpleNamespace(fqdn=fqdn, certificates=[
                TlsCertificate(serial=f"s{number % 3}", issuer="CA",
                               issued_at=issued,
                               expires_at=issued + dt.timedelta(days=90),
                               common_name=fqdn)]))
        assets.append(types.SimpleNamespace(fqdn="bare.c", certificates=[]))
        return CrtShService(assets)

    @settings(max_examples=100)
    @given(st.lists(st.tuples(hosts, st.integers(min_value=0, max_value=2)),
                    max_size=12),
           st.lists(hosts, max_size=4))
    def test_lookup_matches_host_walk(self, entries, unknown):
        service = self._service(entries)
        queries = set(unknown) | {"", ".", "bare.c", "c.b.c", "B.C."}
        for fqdn, _ in entries:
            labels = fqdn.split(".")
            for cut in range(len(labels)):
                suffix = ".".join(labels[cut:])
                queries |= {suffix, suffix.upper(), suffix + ".",
                            "." + suffix}
        for query in sorted(queries):
            assert service.certificates_for(query) == (
                _reference_certificates_for(service, query)), query

    def test_nested_subdomains(self):
        service = self._service([("a.b.c", 0), ("b.c", 1), ("c.b.c", 2)])

        def names(host):
            return [cert.common_name
                    for cert in service.certificates_for(host)]

        assert names("c") == ["a.b.c", "b.c", "c.b.c"]
        assert names("B.C.") == ["a.b.c", "b.c", "c.b.c"]
        assert names("b.c") == ["a.b.c", "b.c", "c.b.c"]
        assert names("c.b.c") == ["c.b.c"]
        assert names("x.c") == []


def _reference_split_host(registry, host):
    """``TldRegistry.split_host`` sorting the public suffixes per call."""
    host = host.lower().strip(".")
    if not host or "." not in host:
        raise ValidationError(f"not a dotted hostname: {host!r}")
    labels = host.split(".")
    for suffix in sorted(registry.PUBLIC_SUFFIXES, key=len, reverse=True):
        suffix_labels = suffix.split(".")
        if len(labels) > len(suffix_labels) and labels[-len(suffix_labels):] == suffix_labels:
            registered = ".".join(labels[-len(suffix_labels) - 1:])
            return registered, suffix
    tld = labels[-1]
    if tld not in registry._records:
        raise ValidationError(f"unknown TLD in host: {host!r}")
    registered = ".".join(labels[-2:])
    return registered, tld


class TestSplitHostProperties:
    def test_every_public_suffix_and_nested_pairs(self):
        registry = TldRegistry()
        suffixes = registry.PUBLIC_SUFFIXES
        hosts = ["x.com", "a.b.online", "com", "", "nope.zz"]
        for suffix in suffixes:
            hosts += [suffix, "shop." + suffix, "a.b." + suffix.upper() + "."]
            hosts += [f"x.{suffix}.{other}" for other in suffixes]

        def outcome(split, host):
            try:
                return split(host)
            except ValidationError as exc:
                return str(exc)

        for host in hosts:
            assert outcome(registry.split_host, host) == outcome(
                lambda h: _reference_split_host(registry, h), host), host


class _ReferenceLureDetector:
    """``LureDetector`` as one compiled regex search per cue."""

    def __init__(self, *, min_cues: int = 1):
        self._min_cues = min_cues
        self._compiled = {}
        for lure, phrases in _PHRASES.items():
            patterns = []
            for phrase in phrases:
                if phrase in _WORD_BOUNDARY:
                    pattern = re.compile(rf"\b{re.escape(phrase)}\b")
                else:
                    pattern = re.compile(re.escape(phrase))
                patterns.append((phrase, pattern))
            self._compiled[lure] = patterns

    def evidence(self, english_text):
        lowered = english_text.lower()
        found = {}
        for lure, patterns in self._compiled.items():
            hits = tuple(
                phrase for phrase, pattern in patterns
                if pattern.search(lowered)
            )
            if len(hits) >= self._min_cues:
                found[lure] = hits
        return found


class TestLureCueProperties:
    """Whole-word cues as ``\\w+`` runs and the rest as substrings give
    the evidence of the per-cue regex searches, with word characters,
    non-ASCII letters, apostrophes and ``%`` next to each cue."""

    _CUES = sorted({phrase for phrases in _PHRASES.values()
                    for phrase in phrases})
    _NEIGHBOURS = ["", " ", "x", "_", "1", "'", "%", "\u00e9", "\u00df",
                   "\u0130", "\u03c9", "\u0301", ".", "-", "\n", "NOW", "Won"]
    texts = st.lists(st.one_of(st.sampled_from(_CUES),
                               st.sampled_from(_NEIGHBOURS)),
                     max_size=30).map("".join)

    references = {cues: _ReferenceLureDetector(min_cues=cues)
                  for cues in (1, 2, 3)}

    @settings(max_examples=250)
    @given(texts, st.integers(min_value=1, max_value=3))
    def test_evidence_matches_regex_search(self, text, min_cues):
        detection = LureDetector(min_cues=min_cues).detect(text)
        expected = self.references[min_cues].evidence(text)
        assert detection.evidence == expected
        assert detection.lures == frozenset(expected)

    @settings(max_examples=200)
    @given(st.text(max_size=120))
    def test_evidence_matches_on_arbitrary_text(self, text):
        assert LureDetector().detect(text).evidence == (
            self.references[1].evidence(text))


def _reference_hostile_char_count(text, *, limit):
    """``_hostile_char_count`` as a category test on every character."""
    count = 0
    for ch in text:
        if ch in _ALLOWED_CONTROLS:
            continue
        if (ch in _HOSTILE_CHARS or ord(ch) < 0x20
                or unicodedata.category(ch) in _HOSTILE_CATEGORIES):
            count += 1
            if count >= limit:
                return count
    return count


def _reference_dominant_script(text):
    """``dominant_script`` as a per-character vote, ASCII included."""
    counts = {}
    for char in text:
        if not char.isalpha():
            continue
        script = _script_of(ord(char))
        counts[script] = counts.get(script, 0) + 1
    if not counts:
        return "unknown"
    return max(counts.items(), key=lambda kv: kv[1])[0]


class TestAsciiFastPathProperties:
    _ASCII = "".join(map(chr, range(128)))
    ascii_texts = st.text(alphabet=_ASCII, max_size=120)
    unicode_texts = st.text(
        # Combining, Cf, Co, Cn and other non-ASCII characters.
        alphabet=_ASCII + TestHostileUnicodeProperties._HOSTILE_ALPHABET
        + "\u00a0\u0301\u0600\ue000\U000e0001\u0378\u00e9\u6f22",
        max_size=120)
    limits = st.integers(min_value=-1, max_value=12)

    @settings(max_examples=300)
    @given(st.one_of(ascii_texts, unicode_texts), limits)
    def test_hostile_count_matches_category_loop(self, text, limit):
        assert _hostile_char_count(text, limit=limit) == (
            _reference_hostile_char_count(text, limit=limit))

    def test_every_c0_control_and_the_cap(self):
        text = self._ASCII * 3
        for limit in range(-1, 100):
            assert _hostile_char_count(text, limit=limit) == (
                _reference_hostile_char_count(text, limit=limit))
        assert _hostile_char_count(text, limit=1000) == 29 * 3

    @settings(max_examples=300)
    @given(st.one_of(ascii_texts, st.text(max_size=60)))
    def test_dominant_script_matches_vote(self, text):
        assert dominant_script(text) == _reference_dominant_script(text)


class TestRunIdentityCodecProperties:
    """Every durable manifest writes and reads its run identity through
    one codec; a round trip through JSON must give back the same run."""

    scenarios = st.builds(
        ScenarioConfig,
        seed=st.integers(min_value=0, max_value=2**31),
        n_campaigns=st.integers(min_value=1, max_value=5000),
        mean_campaign_volume=st.floats(min_value=0.5, max_value=500.0,
                                       allow_nan=False),
        timeline_start=st.dates(min_value=dt.date(2000, 1, 1),
                                max_value=dt.date(2022, 12, 31)),
        timeline_end=st.dates(min_value=dt.date(2023, 1, 1),
                              max_value=dt.date(2040, 12, 31)),
        include_sbi_burst=st.booleans(),
        sbi_burst_volume=st.integers(min_value=0, max_value=10_000),
        apk_campaign_fraction=st.floats(min_value=0.0, max_value=1.0),
        androzoo_corpus_size=st.integers(min_value=0, max_value=100_000),
        hostile=st.sampled_from(HOSTILE_PROFILES),
    )

    @staticmethod
    def _json(payload):
        return json.loads(json.dumps(payload, sort_keys=True))

    @settings(max_examples=200)
    @given(scenarios)
    def test_scenario_round_trip_covers_every_field(self, scenario):
        payload = scenario_to_dict(scenario)
        assert set(payload) == {f.name for f in
                                dataclasses.fields(ScenarioConfig)}
        assert scenario_from_dict(payload) == scenario
        assert scenario_from_dict(self._json(payload)) == scenario

    @settings(max_examples=60)
    @given(st.sampled_from(FAULT_PROFILES),
           st.integers(min_value=0, max_value=2**31),
           st.booleans())
    def test_faults_round_trip_every_profile(self, profile, seed, crashed):
        plan = build_fault_plan(profile, seed=seed)
        if crashed:  # crash points are never part of the identity
            plan = plan.extended(CrashPoint("whois", 3))
        payload = self._json(faults_to_dict(plan, rules=True))
        rebuilt = plan_from_dict(payload)
        assert (rebuilt.profile, rebuilt.seed) == (profile, seed)
        assert payload["rules"] == plan.without_crash_points().describe()
        assert faults_to_dict(rebuilt, rules=True) == payload

    @given(st.integers(min_value=0, max_value=2**31))
    def test_bare_crash_only_plan_encodes_as_no_plan(self, seed):
        bare = FaultPlan(seed=seed).extended(CrashPoint("openai", 3))
        assert faults_to_dict(bare, rules=True) == faults_to_dict(
            None, rules=True)
        assert plan_from_dict(faults_to_dict(bare)) is None

    @given(st.integers(min_value=1, max_value=64), st.booleans())
    def test_policy_round_trip_every_combination(self, workers, cache):
        policy = ExecutionPolicy(workers=workers, cache=cache)
        payload = policy_to_dict(policy)
        assert set(payload) == {f.name for f in
                                dataclasses.fields(ExecutionPolicy)}
        assert policy_from_dict(self._json(payload)) == policy

    def test_readers_refuse_what_they_cannot_rebuild(self):
        payload = scenario_to_dict(ScenarioConfig())
        for broken in ({k: v for k, v in payload.items() if k != "hostile"},
                       {**payload, "seed": "seven"},
                       {**payload, "shards": 4}):
            with pytest.raises(CheckpointError):
                scenario_from_dict(broken)
        policy = policy_to_dict(ExecutionPolicy())
        for broken in ({k: v for k, v in policy.items() if k != "pool"},
                       {**policy, "pool": "thread"},
                       {**policy, "workers": 0},
                       {**policy, "cache_max_entries": None}):
            with pytest.raises(CheckpointError):
                policy_from_dict(broken)
