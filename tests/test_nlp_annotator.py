"""Tests for the end-to-end annotator and the OpenAI endpoint facade."""

import json

import pytest

from repro.errors import ValidationError
from repro.imaging.renderer import ScreenshotRenderer
from repro.imaging.vision_openai import OpenAiVisionExtractor, VISION_PROMPT
from repro.nlp.annotator import (
    Annotation,
    MessageAnnotator,
    SCAM_TYPE_JSON_NAMES,
    lure_from_json,
    scam_type_from_json,
)
from repro.nlp.openai_api import ANNOTATION_PROMPT, OpenAiEndpoint
from repro.types import LurePrinciple, ScamType
from repro.utils.rng import derive


@pytest.fixture(scope="module")
def annotator():
    return MessageAnnotator()


class TestAnnotator:
    def test_full_annotation(self, annotator):
        annotation = annotator.annotate(
            "m1",
            "Netflix: your subscription payment was declined. Update "
            "billing within 48h to keep watching: https://nf-billing.com/x",
        )
        assert annotation.labels.brand == "Netflix"
        assert annotation.labels.scam_type is ScamType.OTHERS
        assert annotation.labels.language == "en"
        assert LurePrinciple.TIME_URGENCY in annotation.labels.lures
        assert annotation.translation is None

    def test_non_english_gets_translation(self, annotator):
        annotation = annotator.annotate(
            "m2",
            "BBVA: su cuenta ha sido bloqueada por actividad sospechosa. "
            "Por favor verifique sus datos en https://b.com/v para evitar "
            "la suspension.",
        )
        assert annotation.labels.language == "es"
        assert annotation.translation is not None
        assert "blocked" in annotation.translation
        assert annotation.labels.scam_type is ScamType.BANKING

    def test_batch(self, annotator):
        annotations = annotator.annotate_batch([
            {"id": "a", "message": "Hi mum, my phone broke, new number"},
            {"id": "b", "message": "Your HMRC tax refund awaits: gov-hm.com/x"},
        ])
        assert [a.message_id for a in annotations] == ["a", "b"]

    def test_json_round_trip(self, annotator):
        annotation = annotator.annotate(
            "m3", "DHL: your parcel is held, pay the customs fee today: "
                  "https://dhl-fee.com/x"
        )
        parsed = Annotation.from_json(annotation.to_json())
        assert parsed.labels.scam_type == annotation.labels.scam_type
        assert parsed.labels.brand == annotation.labels.brand
        assert parsed.labels.lures == annotation.labels.lures

    @staticmethod
    def _ner_texts(annotator, monkeypatch, text):
        """The texts ``annotate`` runs brand NER on."""
        seen = []
        find_all = annotator.brand_recognizer.find_all
        monkeypatch.setattr(annotator.brand_recognizer, "find_all",
                            lambda t: seen.append(t) or find_all(t))
        annotator.annotate("m", text)
        return seen

    def test_brandless_english_runs_ner_once(self, annotator, monkeypatch):
        text = "hi, are we still on for dinner?"
        assert self._ner_texts(annotator, monkeypatch, text) == [text]

    def test_untranslated_text_runs_ner_once(self, annotator, monkeypatch):
        text = "bonjour mon ami, merci pour votre message et bonne journée"
        assert annotator.language_detector.detect_code(text) != "en"
        assert self._ner_texts(annotator, monkeypatch, text) == [text]

    def test_translation_gets_a_second_ner_pass(self, annotator,
                                                monkeypatch):
        # The leet spelling defeats the first pass; the translation differs.
        text = ("Comm!rzb4nk: Ihr Konto wurde wegen verdächtiger "
                "Aktivitäten gesperrt. Bitte bestätigen Sie Ihre Daten: "
                "https://commerzbank-team.com/refund")
        seen = self._ner_texts(annotator, monkeypatch, text)
        assert seen[0] == text
        assert len(seen) == 2 and seen[1] != text

    def test_json_names_cover_prompt(self):
        assert set(SCAM_TYPE_JSON_NAMES.values()) == {
            "Hey mum/dad", "Delivery/Parcel", "Banking", "Government",
            "Telecom", "Wrong number", "Spam", "Others",
        }

    def test_scam_type_from_json_unknown_is_others(self):
        assert scam_type_from_json("Banana") is ScamType.OTHERS

    def test_lure_from_json(self):
        assert lure_from_json("Authority Principle") is LurePrinciple.AUTHORITY
        assert lure_from_json("Nonsense") is None


class TestOpenAiEndpoint:
    @pytest.fixture()
    def endpoint(self):
        return OpenAiEndpoint(rate_per_second=10_000)

    def test_annotate_message_returns_json(self, endpoint):
        response = endpoint.annotate_message(
            ANNOTATION_PROMPT,
            {"id": "m1", "message": "SBI: your account is locked, verify: "
                                    "https://sbi-x.com/kyc"},
        )
        data = json.loads(response.content)
        assert data["id"] == "m1"
        assert data["scam_type"] == "Banking"
        assert response.completion_tokens > 0

    def test_prompt_contract_enforced(self, endpoint):
        with pytest.raises(ValidationError):
            endpoint.annotate_message("do whatever", {"id": "x", "message": "y"})

    def test_payload_contract_enforced(self, endpoint):
        with pytest.raises(ValidationError):
            endpoint.annotate_message(ANNOTATION_PROMPT, {"id": "x"})

    def test_vision_requires_extractor(self, endpoint):
        renderer = ScreenshotRenderer(derive(12, "vr"))
        with pytest.raises(ValidationError):
            endpoint.extract_image(VISION_PROMPT,
                                   renderer.render_awareness_poster())

    def test_vision_call_round_trip(self):
        vision = OpenAiVisionExtractor(derive(13, "ve"), miss_rate=0.0)
        endpoint = OpenAiEndpoint(vision=vision, rate_per_second=10_000)
        renderer = ScreenshotRenderer(derive(13, "vr2"))
        poster = renderer.render_awareness_poster()
        response = endpoint.extract_image(VISION_PROMPT, poster)
        data = json.loads(response.content)
        assert data == {"timestamp": "", "text": "", "url": "",
                        "sender-id": ""}

    def test_requests_counted(self, endpoint):
        endpoint.annotate_message(
            ANNOTATION_PROMPT, {"id": "1", "message": "hello"}
        )
        assert endpoint.requests == 1
