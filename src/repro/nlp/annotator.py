"""The GPT-4o-style text annotator (§3.3.6, prompt in Appendix D.2).

Pipelines one message through: language identification → translation to
English → brand NER → scam-type classification → lure detection, and
returns both a typed :class:`~repro.sms.message.AnnotationLabels` and the
JSON object the Appendix D.2 prompt specifies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..sms.message import AnnotationLabels
from ..types import LurePrinciple, ScamType
from ..world.brands import BrandRegistry, default_brands
from ..world.languages import LanguageRegistry, default_languages
from ..world.templates import TemplateLibrary, default_templates
from .brands_ner import BrandRecognizer
from .langdetect import LanguageDetector
from .lures import LureDetector
from .scamtype import ScamTypeClassifier
from .translate import TemplateTranslator

#: Scam-type names as the Appendix D.2 prompt spells them.
SCAM_TYPE_JSON_NAMES: Dict[ScamType, str] = {
    ScamType.HEY_MUM_DAD: "Hey mum/dad",
    ScamType.DELIVERY: "Delivery/Parcel",
    ScamType.BANKING: "Banking",
    ScamType.GOVERNMENT: "Government",
    ScamType.TELECOM: "Telecom",
    ScamType.WRONG_NUMBER: "Wrong number",
    ScamType.SPAM: "Spam",
    ScamType.OTHERS: "Others",
}
_SCAM_FROM_JSON = {v.lower(): k for k, v in SCAM_TYPE_JSON_NAMES.items()}

LURE_JSON_NAMES: Dict[LurePrinciple, str] = {
    LurePrinciple.DISTRACTION: "Distraction Principle",
    LurePrinciple.AUTHORITY: "Authority Principle",
    LurePrinciple.HERD: "Herd Principle",
    LurePrinciple.DISHONESTY: "Dishonesty Principle",
    LurePrinciple.KINDNESS: "Kindness Principle",
    LurePrinciple.NEED_AND_GREED: "Need and Greed Principle",
    LurePrinciple.TIME_URGENCY: "Time/Urgency Principle",
}
_LURE_FROM_JSON = {v.lower(): k for k, v in LURE_JSON_NAMES.items()}


def scam_type_from_json(name: str) -> ScamType:
    return _SCAM_FROM_JSON.get(name.strip().lower(), ScamType.OTHERS)


def lure_from_json(name: str) -> Optional[LurePrinciple]:
    return _LURE_FROM_JSON.get(name.strip().lower())


@dataclass
class Annotation:
    """Full annotator output for one message."""

    message_id: str
    labels: AnnotationLabels
    translation: Optional[str]
    english_text: str

    def to_json(self) -> str:
        """Render the Appendix D.2 response object."""
        payload: Dict[str, object] = {
            "id": self.message_id,
            "named_entity": self.labels.brand or "",
            "scam_type": SCAM_TYPE_JSON_NAMES[self.labels.scam_type],
            "lure_principles": [
                LURE_JSON_NAMES[lure] for lure in sorted(
                    self.labels.lures, key=lambda l: l.value
                )
            ],
            "language": self.labels.language,
        }
        if self.translation is not None:
            payload["translation"] = self.translation
        return json.dumps(payload)

    @classmethod
    def from_json(cls, raw: str) -> "Annotation":
        data = json.loads(raw)
        lures = frozenset(
            lure for lure in (
                lure_from_json(name) for name in data.get("lure_principles", [])
            ) if lure is not None
        )
        labels = AnnotationLabels(
            scam_type=scam_type_from_json(data.get("scam_type", "Others")),
            language=data.get("language", "en"),
            brand=data.get("named_entity") or None,
            lures=lures,
        )
        translation = data.get("translation")
        return cls(
            message_id=str(data.get("id", "")),
            labels=labels,
            translation=translation,
            english_text=translation or "",
        )


class MessageAnnotator:
    """End-to-end annotator for smishing texts."""

    def __init__(
        self,
        *,
        brands: Optional[BrandRegistry] = None,
        languages: Optional[LanguageRegistry] = None,
        templates: Optional[TemplateLibrary] = None,
    ):
        brands = brands or default_brands()
        self.language_detector = LanguageDetector(languages or default_languages())
        self.translator = TemplateTranslator(templates or default_templates())
        self.brand_recognizer = BrandRecognizer(brands)
        self.scam_classifier = ScamTypeClassifier(brands)
        self.lure_detector = LureDetector()

    def annotate(self, message_id: str, text: str) -> Annotation:
        """Annotate one message text."""
        language = self.language_detector.detect_code(text)
        translated = self.translator.translate(text, language)
        english = translated.text
        # Brand NER runs on the original text too — brand strings survive
        # translation (they are slot values) but leetspeak lives in the
        # original surface form. English texts, and texts no template
        # translated, come back unchanged and need no second pass.
        brand = self.brand_recognizer.find_primary(text)
        if not brand and english != text:
            brand = self.brand_recognizer.find_primary(english)
        scam = self.scam_classifier.classify(english, brand=brand)
        lures = self.lure_detector.detect_set(english)
        labels = AnnotationLabels(
            scam_type=scam.scam_type,
            language=language,
            brand=brand,
            lures=lures,
        )
        return Annotation(
            message_id=message_id,
            labels=labels,
            translation=None if language == "en" else english,
            english_text=english,
        )

    def annotate_batch(
        self, items: List[Dict[str, str]]
    ) -> List[Annotation]:
        """Annotate ``[{"id": ..., "message": ...}]`` payloads."""
        return [
            self.annotate(str(item["id"]), item["message"]) for item in items
        ]
