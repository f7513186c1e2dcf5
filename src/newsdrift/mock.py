"""The mock lexicon: its file format, the one rule for a scored word, its score and rewrite."""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from . import inputs
from .errors import ValidationError
from .gateway import clamp_valence, is_number

# a token mock_sentiment scores: a longest run of these in the lower-cased text
WORD = re.compile(r"[a-z0-9']+")


class MockLexicon:
    """Weighted positive/negative word lists for the deterministic backend."""

    def __init__(self, positive: dict[str, float], negative: dict[str, float]):
        for word, weight in {**positive, **negative}.items():
            if not (is_number(weight) and 0.0 < weight <= 2.0):
                raise ValidationError(f"lexicon weight for {word!r} outside (0, 2]: {weight!r}")
        words = [*positive, *negative]
        spellings = Counter(word.lower() for word in words)
        if repeated := sorted({word for word in words if spellings[word.lower()] > 1}):
            raise ValidationError(f"lexicon words must be distinct in any case: {repeated}")
        if malformed := sorted(word for word in words if not WORD.fullmatch(word.lower())):
            raise ValidationError(f"lexicon words must each be one {WORD.pattern} token in "
                                  f"any case: {malformed}")
        self.signed = {**{w.lower(): float(x) for w, x in positive.items()},
                       **{w.lower(): -float(x) for w, x in negative.items()}}
        # mock_sentiment's per-run memo, keyed by the scored text
        self._scores: dict[str, float] = {}


def load_lexicon(path: str | Path | None = None) -> MockLexicon:
    """Load a lexicon file, or the packaged default when path is None."""
    doc = inputs.read_json(path, "lexicon", ValidationError)
    try:
        return MockLexicon(doc["positive"], doc["negative"])
    except (LookupError, TypeError, ValidationError) as exc:
        raise ValidationError(f"lexicon {path} is not a lexicon: "
                              f"{type(exc).__name__}: {exc}") from None


def mock_sentiment(text: str, lexicon: MockLexicon) -> float:
    """Deterministic sentiment score in [-2, 2], memoised on the lexicon.

    Signed lexicon weights of matched word occurrences are averaged and
    scaled by 2, then clamped; a text without lexicon words scores 0.
    """
    score = lexicon._scores.get(text)
    if score is not None:
        return score
    total = 0.0
    matched = 0
    for token in WORD.findall(text.lower()):
        weight = lexicon.signed.get(token)
        if weight is not None:
            total += weight
            matched += 1
    score = lexicon._scores[text] = clamp_valence(total / max(1, matched) * 2.0)
    return score


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
