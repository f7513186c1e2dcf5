"""Pre-reflection transforms: debiased rewriting and devil's-advocate critique.

Debias rewrites each selected article's full text (headline and id are
never touched) and is cached per article so shared reads cost one exchange.
The devil's advocate leaves articles alone and attaches a critique that the
reflection step reads alongside the batch.
"""

from __future__ import annotations

import re
from functools import partial

from . import prompts
from .distribution import Payload
from .errors import ValidationError
from .gateway import WORD, GenerationRequest, MockLexicon, mock_sentiment
from .modes import validate_intervention


def mock_debias_text(text: str, lexicon: MockLexicon) -> str:
    """Strip every token that mock_sentiment scores, in any case; the result scores 0."""
    lowered = text.lower()
    spans = [m.span() for m in WORD.finditer(lowered) if m.group() in lexicon.signed]
    if not spans:
        return text
    if len(lowered) != len(text):  # a letter lower-cased to more: keep the spans aligned
        text = lowered
    starts, ends = zip(*spans)
    stripped = "".join(text[a:b] for a, b in zip((0, *ends), (*starts, len(text))))
    return re.sub(r"\s+", " ", stripped).strip()


def debias_payload(payload: Payload, gateway, lexicon: MockLexicon,
                   cache: dict[str, list]) -> Payload:
    """Rewrite one read; cache maps article id -> [text, failed], one rewrite per run."""
    cached = cache.get(payload.article_id)
    if cached is None:
        mock = partial(mock_debias_text, payload.full_text, lexicon)
        system, user = prompts.render_debias(payload.full_text)
        request = GenerationRequest(system, user, "debiased_text",
                                    f"debias:{payload.article_id}")
        text = gateway.generate(request, mock, fallback=lambda: None)
        # None is the failed rewrite: the reader gets the original text
        cached = cache[payload.article_id] = (
            [payload.full_text, True] if text is None else [text, False])
    text, failed = cached
    return Payload(payload.article_id, payload.headline, text, not failed, payload.category)


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
    mock = partial(_mock_critique, payloads, lexicon)
    system, user = prompts.render_critique(prompts.format_news_list(payloads))
    request = GenerationRequest(system, user, "critique_text", tag)
    return gateway.generate(request, mock, fallback=lambda: "")


def apply_intervention(mode: str, payloads, gateway, lexicon: MockLexicon,
                       cache: dict[str, list], tag: str):
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
