"""Pre-reflection transforms: debiased rewriting and devil's-advocate critique.

Debias rewrites each selected article's full text (headline and id are
never touched) and is cached per article so shared reads cost one exchange.
The devil's advocate leaves articles alone and attaches a critique that the
reflection step reads alongside the batch.
"""

from __future__ import annotations

import dataclasses
import logging
import re

from . import prompts
from .distribution import Payload
from .errors import SchemaError, ValidationError
from .gateway import GenerationRequest, MockLexicon, mock_sentiment
from .modes import validate_intervention

log = logging.getLogger(__name__)


def mock_debias_text(text: str, lexicon: MockLexicon) -> str:
    """Strip every lexicon word; the result always scores neutral."""
    stripped, hits = lexicon.debias_pattern.subn("", text)
    if not hits:
        return text
    return re.sub(r"\s+", " ", stripped).strip()


class DebiasCache:
    """One rewrite per article per run, shared across agents."""

    def __init__(self):
        self._by_id: dict[str, tuple[str, bool]] = {}

    def get(self, article_id: str):
        return self._by_id.get(article_id)

    def put(self, article_id: str, text: str, failed: bool):
        self._by_id[article_id] = (text, failed)

    def as_dict(self) -> dict[str, list]:
        return {k: [text, failed] for k, (text, failed) in self._by_id.items()}


def debias_payload(payload: Payload, gateway, lexicon: MockLexicon,
                   cache: DebiasCache) -> Payload:
    cached = cache.get(payload.article_id)
    if cached is None:
        mock = mock_debias_text(payload.full_text, lexicon)
        system, user = prompts.render_debias(payload.full_text)
        request = GenerationRequest(system, user, "debiased_text",
                                    f"debias:{payload.article_id}")
        try:
            text, failed = gateway.generate(request, mock_value=mock), False
        except SchemaError as exc:
            log.warning("debias failed for %s, keeping original text (%s)",
                        payload.article_id, exc)
            text, failed = payload.full_text, True
        cache.put(payload.article_id, text, failed)
        cached = (text, failed)
    text, failed = cached
    return dataclasses.replace(payload, full_text=text,
                               debiased=not failed, debias_failed=failed)


def _mock_critique(payloads, lexicon: MockLexicon) -> str:
    lines = ["Honestly, I read these a bit differently than the coverage wants us to."]
    for payload in payloads:
        score = mock_sentiment(payload.headline, lexicon)
        if score > 0:
            take = "the upbeat framing glosses over the real costs"
        elif score < 0:
            take = "the gloomy framing ignores the upside here"
        else:
            take = "even this neutral report deserves a second look"
        lines.append(f'- "{payload.headline}": {take}.')
    lines.append("Taken together, the picture looks more balanced than the framing suggests.")
    return "\n".join(lines)


def devils_advocate_critique(payloads, gateway, lexicon: MockLexicon,
                             tag: str) -> str:
    if not payloads:
        raise ValidationError("devil's advocate needs a non-empty batch")
    mock = _mock_critique(payloads, lexicon)
    system, user = prompts.render_critique(prompts.format_news_list(payloads))
    request = GenerationRequest(system, user, "critique_text", tag)
    try:
        return gateway.generate(request, mock_value=mock)
    except SchemaError as exc:
        log.warning("critique failed for %s, batch proceeds uncritiqued (%s)", tag, exc)
        return ""


def apply_intervention(mode: str, payloads, gateway, lexicon: MockLexicon,
                       cache: DebiasCache, tag: str):
    """Return (payloads', critique or None) for the active run mode."""
    validate_intervention(mode)
    if mode == "baseline":
        return tuple(payloads), None
    if mode == "debias":
        return tuple(
            debias_payload(p, gateway, lexicon, cache) for p in payloads
        ), None
    critique = devils_advocate_critique(payloads, gateway, lexicon, tag)
    return tuple(payloads), critique or None
