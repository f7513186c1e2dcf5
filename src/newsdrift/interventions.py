"""Pre-reflection transforms: debiased rewriting and devil's-advocate critique.

Debias rewrites each article a year reads in one exchange (headline and id
are never touched); every read of it takes its text from that exchange's call.
The devil's advocate leaves articles alone and attaches a critique that the
reflection step reads alongside the batch.
"""

from __future__ import annotations

from functools import partial

from . import prompts
from .distribution import Payload
from .errors import ValidationError
from .gateway import GenerationRequest
from .mock import MockLexicon, mock_debias_text, mock_sentiment
from .modes import Treatment


def rewrite_payload(payload: Payload, gateway, lexicon: MockLexicon,
                    rewritten: dict[str, list]) -> Payload:
    """Rewrite one read in one exchange and note [text, failed] under its id in
    rewritten; return the rewritten read, or the read unchanged if it failed."""
    mock = partial(mock_debias_text, payload.full_text, lexicon)
    system, user = prompts.render_debias(payload.full_text)
    request = GenerationRequest(system, user, "debiased_text",
                                f"debias:{payload.article_id}")
    text = gateway.generate(request, mock, fallback=lambda: None)
    # None is the failed rewrite: the reader gets the original text
    rewritten[payload.article_id] = [payload.full_text, True] if text is None else [text, False]
    return payload if text is None else Payload(payload.article_id, payload.headline, text,
                                                 True, payload.category)


def debias_payload(payload: Payload, rewrites: dict) -> Payload:
    """One read, as the call in rewrites under its article id rewrote it."""
    return rewrites[payload.article_id]()


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


def apply_intervention(treatment: Treatment, payloads, gateway, lexicon: MockLexicon,
                       rewrites: dict, tag: str):
    """Return (payloads', critique or None) for the run's intervention."""
    if treatment.rewrite:
        return tuple(debias_payload(p, rewrites) for p in payloads), None
    critique = treatment.critique and devils_advocate_critique(payloads, gateway, lexicon, tag)
    return tuple(payloads), critique or None
