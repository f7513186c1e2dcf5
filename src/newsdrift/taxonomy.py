"""The 15-topic news taxonomy and keyword-based topic matching.

The taxonomy file also declares the closed demographic vocabularies used to
validate social-media and survey records.
"""

from __future__ import annotations

import json
import re
from importlib import resources
from pathlib import Path

from .errors import ValidationError

# Topics that must be present in any taxonomy (the analysis pipeline
# references them by name); the remaining eight are configuration.
REQUIRED_TOPICS = (
    "economics",
    "politics",
    "health",
    "technology",
    "lifestyle",
    "sports",
    "entertainment",
)

TOPIC_COUNT = 15


class Topic:
    """One taxonomy topic with its mock-tagging keywords."""

    def __init__(self, name: str, keywords: list[str]):
        self.name = name
        self.keywords = tuple(keywords)
        # Word-boundary matching so short keywords never hit inside words.
        self._patterns = tuple(
            re.compile(r"\b" + re.escape(kw.lower()) + r"\b") for kw in self.keywords
        )

    def matches(self, lowered_text: str) -> bool:
        return any(p.search(lowered_text) for p in self._patterns)

    def hit_count(self, lowered_text: str) -> int:
        return sum(len(p.findall(lowered_text)) for p in self._patterns)

    def keywords_present(self, lowered_text: str) -> int:
        """Number of distinct keywords appearing at least once."""
        return sum(1 for p in self._patterns if p.search(lowered_text))


class TopicTaxonomy:
    """Ordered list of exactly 15 topics plus demographic vocabularies."""

    def __init__(self, topics: list[Topic], demographics: dict[str, list[str]]):
        if len(topics) != TOPIC_COUNT:
            raise ValidationError(
                f"taxonomy must declare exactly {TOPIC_COUNT} topics, got {len(topics)}"
            )
        names = [t.name for t in topics]
        if len(set(names)) != len(names):
            raise ValidationError("taxonomy topic names must be unique")
        missing = [n for n in REQUIRED_TOPICS if n not in names]
        if missing:
            raise ValidationError(f"taxonomy missing required topics: {missing}")
        self.topics = tuple(topics)
        self.names = tuple(names)
        self.demographics = {k: tuple(v) for k, v in demographics.items()}
        self._by_name = {t.name: t for t in self.topics}
        # Per-run memos of the mock keyword rules, keyed by the caller's text
        # (a corpus headline, or a read's headline and body), so each text is
        # matched once per run.
        self._hits: dict[str, tuple[int, ...]] = {}
        self._hit_rows: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._best: dict[str, str] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def topic(self, name: str) -> Topic:
        return self._by_name[name]

    def topics_in_text(self, text: str) -> list[str]:
        """All topics with at least one keyword present, in taxonomy order."""
        lowered = text.lower()
        return [t.name for t in self.topics if t.matches(lowered)]

    def keyword_hits(self, headline: str) -> tuple[int, ...]:
        """Distinct keywords present per topic, in taxonomy order (memoised)."""
        hits = self._hits.get(headline)
        if hits is None:
            lowered = headline.lower()
            row = tuple(t.keywords_present(lowered) for t in self.topics)
            # few distinct rows occur, so headlines share one tuple per row
            hits = self._hits[headline] = self._hit_rows.setdefault(row, row)
        return hits

    def best_topic(self, text: str) -> str:
        """Topic with the highest keyword hit count (memoised per text).

        Ties break by taxonomy order; if nothing matches, the first topic.
        """
        best = self._best.get(text)
        if best is not None:
            return best
        lowered = text.lower()
        best = self.topics[0].name
        best_count = 0
        for t in self.topics:
            count = t.hit_count(lowered)
            if count > best_count:
                best, best_count = t.name, count
        self._best[text] = best
        return best

    def tag_interests(self, text: str) -> list[str]:
        """Deterministic keyword tagging used by the mock backend.

        Every topic with a keyword present is tagged; when none match, fall
        back to the single best topic (first topic if all counts are zero).
        """
        matched = self.topics_in_text(text)
        if matched:
            return matched
        return [self.best_topic(text)]

    def categorize(self, text: str) -> str:
        """Single category for an article lacking one: best keyword match."""
        return self.best_topic(text)

    def validate_vocab(self, field: str, value: str) -> bool:
        vocab = self.demographics.get(field)
        return vocab is None or value in vocab


def load_taxonomy(path: str | Path | None = None) -> TopicTaxonomy:
    """Load a taxonomy file, or the packaged default when path is None."""
    if path is None:
        raw = resources.files("newsdrift").joinpath("data/taxonomy.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    doc = json.loads(raw)
    topics = [Topic(t["name"], t["keywords"]) for t in doc["topics"]]
    return TopicTaxonomy(topics, doc.get("demographics", {}))
