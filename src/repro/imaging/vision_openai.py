"""OpenAI-Vision-style extractor: prompt-driven structured extraction.

The paper's final pipeline (§3.2, prompt in Appendix D.1) sends each image
to a vision LLM with instructions to (a) dismiss images that are not SMS
screenshots, and (b) otherwise return JSON with ``timestamp``, ``text``,
``url`` and ``sender-id``. This simulator implements that contract: it
understands layout (re-joins wrapped lines, ignores UI widgets), reads the
header and timestamp rows, and returns empty fields for redacted or
missing values. A small residual error rate models imperfect extraction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ExtractionError
from ..net.url import extract_urls
from ..utils.rng import stable_hash
from .screenshot import ImageKind, Screenshot

#: The extraction prompt of Appendix D.1 (verbatim contract).
VISION_PROMPT = (
    "You will receive a json object with an 'image'. The 'image' is "
    "reported by a user as a phishing SMS. This should most likely be a "
    "screenshot of the text message received on a user's mobile phone. "
    "Based on the instructions below, process the message and return a "
    "json object. Instructions: Do not extract the details if it is not a "
    "screenshot of the SMS message and return the below parameters empty. "
    "If it is a mobile message screenshot, you need to extract the "
    "following and return a JSON response consisting of the following: "
    "'timestamp': This should be the date and time in the screenshot when "
    "the SMS message was received. If the timestamp is not there, leave it "
    "empty. 'text': This should be the text in the SMS message. If "
    "unavailable in the screenshot, leave it empty. 'url': If the SMS "
    "contains a URL, extract it; otherwise, leave it empty. 'sender-id': "
    "This should be the sender ID (mobile number, alphanumeric sender ID, "
    "or email address) that sent the SMS message. If it is not available, "
    "leave it empty."
)


@dataclass
class VisionExtraction:
    """Structured result for one image (the Appendix D.1 JSON object)."""

    timestamp: str
    text: str
    url: str
    sender_id: str
    dismissed: bool = False

    def to_json(self) -> str:
        if self.dismissed:
            payload: Dict[str, str] = {
                "timestamp": "", "text": "", "url": "", "sender-id": ""
            }
        else:
            payload = {
                "timestamp": self.timestamp,
                "text": self.text,
                "url": self.url,
                "sender-id": self.sender_id,
            }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, raw: str) -> "VisionExtraction":
        data = json.loads(raw)
        extraction = cls(
            timestamp=data.get("timestamp", ""),
            text=data.get("text", ""),
            url=data.get("url", ""),
            sender_id=data.get("sender-id", ""),
        )
        if not any((extraction.timestamp, extraction.text, extraction.url,
                    extraction.sender_id)):
            extraction.dismissed = True
        return extraction


class OpenAiVisionExtractor:
    """Prompted vision extraction with layout understanding.

    ``miss_rate`` is the residual probability of dropping an optional
    field (timestamp or sender) despite it being visible; text extraction
    itself succeeds on every SMS screenshot, matching §3.2 ("we
    successfully extract the text from all the collected SMS-resembling
    images").

    The miss draws come from the shared positional ``rng`` by default,
    so the outcome for one image depends on how many images were
    processed before it. Passing ``stable_seed`` switches to one derived
    generator per image (hashed from the seed and the image id), making
    each extraction a pure function of the image — required by the
    incremental ingester, whose epoch slicing reorders the batch.

    A stable extractor therefore extracts each SMS screenshot once: it
    memoises the result by the ``Screenshot`` object's ``id()`` and
    returns the same :class:`VisionExtraction` for a resubmitted image.
    Each entry holds its screenshot, so the id cannot be reused while
    the memo lives; nothing mutates a screenshot once rendered, and
    callers only read the result. ``processed`` and ``dismissed`` still
    count every call. The memo is never persisted, so a resumed session
    starts cold. A positional extractor keeps no memo: a repeat there
    consumes fresh draws.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        prompt: str = VISION_PROMPT,
        miss_rate: float = 0.015,
        stable_seed: Optional[int] = None,
    ):
        if "json" not in prompt.lower():
            raise ExtractionError("vision prompt must request a JSON response")
        self._rng = rng
        self._miss_rate = miss_rate
        self._stable_seed = stable_seed
        self.prompt = prompt
        self.processed = 0
        self.dismissed = 0
        #: ``id(screenshot) -> (screenshot, extraction)`` when stable;
        #: None for positional draws.
        self._memo: Optional[Dict[int, tuple]] = (
            None if stable_seed is None else {})

    def _draws_for(self, screenshot: Screenshot) -> random.Random:
        """The generator feeding one image's miss draws."""
        if self._stable_seed is None:
            return self._rng
        return random.Random(stable_hash(
            f"vision:{self._stable_seed}:{screenshot.image_id}", 2 ** 62
        ))

    def extract(self, screenshot: Screenshot) -> VisionExtraction:
        """Process one image per the Appendix D.1 contract."""
        self.processed += 1
        if screenshot.kind is not ImageKind.SMS_SCREENSHOT:
            self.dismissed += 1
            return VisionExtraction("", "", "", "", dismissed=True)
        if self._memo is None:
            return self._extract_sms(screenshot)
        entry = self._memo.get(id(screenshot))
        if entry is None:
            entry = (screenshot, self._extract_sms(screenshot))
            self._memo[id(screenshot)] = entry
        return entry[1]

    def _extract_sms(self, screenshot: Screenshot) -> VisionExtraction:
        """Read one SMS screenshot, drawing its misses afresh."""
        draws = self._draws_for(screenshot)
        text = self._reconstruct_body(screenshot)
        sender = ""
        header = screenshot.header_line
        if header is not None and not screenshot.sender_redacted:
            if draws.random() >= self._miss_rate:
                sender = header.text
        timestamp = ""
        ts_line = screenshot.timestamp_line
        if ts_line is not None and draws.random() >= self._miss_rate:
            timestamp = ts_line.text
        url = ""
        if not screenshot.url_redacted:
            urls = extract_urls(text)
            if urls:
                url = str(urls[0])
        return VisionExtraction(
            timestamp=timestamp, text=text, url=url, sender_id=sender
        )

    def _reconstruct_body(self, screenshot: Screenshot) -> str:
        """Re-join wrapped lines into flowing message text.

        Continuation rows are glued to their predecessor without a space
        (they are parts of one token, typically a URL); ordinary wraps are
        re-joined with a space.
        """
        parts: List[str] = []
        for line in screenshot.body_lines:
            if line.wrapped_continuation and parts:
                parts[-1] = parts[-1] + line.text
            else:
                parts.append(line.text)
        return " ".join(part for part in parts if part)

    @property
    def dismissal_rate(self) -> float:
        return self.dismissed / self.processed if self.processed else 0.0
