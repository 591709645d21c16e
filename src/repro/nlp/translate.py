"""Template-memory machine translation.

GPT-4o translates short smishing texts near-perfectly (§3.4 cites its
translation quality). We reproduce that competence with a translation
memory compiled from the template library: every non-English template is
turned into a pattern whose slots (brand, URL, amount...) are captured
from the input and substituted into the template's English gloss. Texts
that match no memory entry fall back to a marker-word gloss — the same
graceful degradation a statistical MT system exhibits out of domain.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Pattern, Tuple

from ..world.templates import Template, TemplateLibrary, default_templates

_SLOT_RE = re.compile(r"\{(\w+)\}")

#: Slot-specific capture patterns (non-greedy defaults elsewhere).
_SLOT_PATTERNS = {
    "url": r"(?P<url>\S+)",
    "amount": r"(?P<amount>[\d.,]+)",
    "currency": r"(?P<currency>[^\s\d]{1,3})",
    "code": r"(?P<code>\d{4,8})",
    "tracking": r"(?P<tracking>[A-Z0-9]+)",
    "brand": r"(?P<brand>.+?)",
    "name": r"(?P<name>\w+)",
    "phone": r"(?P<phone>[+\d][\d\s-]*)",
}


@functools.lru_cache(maxsize=None)
def _compile_template(template: Template) -> Optional[Pattern]:
    """Turn template text into a regex capturing its slots (memoised)."""
    pattern_parts: List[str] = []
    cursor = 0
    seen: set = set()
    for match in _SLOT_RE.finditer(template.text):
        pattern_parts.append(re.escape(template.text[cursor:match.start()]))
        slot = match.group(1)
        if slot in seen:
            pattern_parts.append(rf"(?P={slot})")
        else:
            pattern_parts.append(_SLOT_PATTERNS.get(slot, rf"(?P<{slot}>.+?)"))
            seen.add(slot)
        cursor = match.end()
    pattern_parts.append(re.escape(template.text[cursor:]))
    try:
        return re.compile("^" + "".join(pattern_parts) + "$", re.DOTALL)
    except re.error:
        return None


@dataclass(frozen=True)
class TranslationResult:
    """Output of one translation call."""

    text: str
    matched_template: bool
    source_language: str


class TemplateTranslator:
    """English translation via template memory."""

    def __init__(self, library: Optional[TemplateLibrary] = None):
        library = library or default_templates()
        self._memory: Dict[str, List[Tuple[Pattern, Template]]] = {}
        for template in library.all_templates():
            if template.language == "en" or not template.english_gloss:
                continue
            compiled = _compile_template(template)
            if compiled is not None:
                self._memory.setdefault(template.language, []).append(
                    (compiled, template)
                )

    def __getstate__(self) -> Dict[str, object]:
        # Workers get the templates, not the patterns: unpickling a
        # pattern recompiles it; _compile_template's memo does not.
        return {"templates": {lang: [template for _, template in entries]
                              for lang, entries in self._memory.items()}}

    def __setstate__(self, state: Dict[str, Dict]) -> None:
        self._memory = {lang: [(_compile_template(t), t) for t in templates]
                        for lang, templates in state["templates"].items()}

    def memory_size(self, language: Optional[str] = None) -> int:
        if language is not None:
            return len(self._memory.get(language, []))
        return sum(len(entries) for entries in self._memory.values())

    def translate(self, text: str, source_language: str) -> TranslationResult:
        """Translate ``text`` to English.

        English input passes through unchanged; matched templates render
        their gloss with the captured slot values; unmatched text returns
        as-is flagged ``matched_template=False``.
        """
        if source_language == "en":
            return TranslationResult(text, True, "en")
        for pattern, template in self._memory.get(source_language, []):
            match = pattern.match(text.strip())
            if match is None:
                continue
            slots = {k: (v or "") for k, v in match.groupdict().items()}
            gloss = template.english_gloss
            try:
                rendered = _SLOT_RE.sub(
                    lambda m: slots.get(m.group(1), ""), gloss
                )
            except Exception:
                rendered = gloss
            return TranslationResult(rendered, True, source_language)
        return TranslationResult(text, False, source_language)
