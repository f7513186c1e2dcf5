"""The 15-topic news taxonomy and keyword-based topic matching.

The taxonomy file also declares the closed demographic vocabularies used to
validate social-media and survey records.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations
from pathlib import Path

from . import inputs
from .errors import ValidationError

# Topics that must be present in any taxonomy (the analysis pipeline
# references them by name); the remaining eight are configuration.
REQUIRED_TOPICS = ("economics", "politics", "health", "technology", "lifestyle", "sports",
                   "entertainment")

TOPIC_COUNT = 15


class Topic:
    """One taxonomy topic with its mock-tagging keywords."""

    def __init__(self, name: str, keywords: list[str]):
        self.name = name
        self.keywords = tuple(keywords)

    def keywords_present(self, lowered_text: str) -> int:
        """Distinct keywords present as whole words, searched one at a time."""
        return sum(1 for kw in self.keywords
                   if re.search(r"\b" + re.escape(kw.lower()) + r"\b", lowered_text))


def _keyword_clashes(keywords: list[str]) -> list[str]:
    """Why one alternation scan could count unlike a search per lower-cased
    keyword: a keyword is empty or repeats, occurs as whole words inside
    another ("trade" in "trade war"), or can overlap one ("stock market" /
    "market share").
    """
    problems = {f"{kw!r} appears {n} times" for kw, n in Counter(keywords).items() if n > 1}
    problems.update(f"empty keyword {kw!r}" for kw in keywords if not kw.strip())
    # offsets where a whole-word match can start or end; text up to one -> keywords
    cuts = {kw: [0, *(m.end() for m in re.finditer(r"\w+|\W+", kw))] for kw in keywords}
    heads: dict[str, set[str]] = {}
    for kw, c in cuts.items():
        for j in c[1:]:
            heads.setdefault(kw[:j], set()).add(kw)
    for a, c in cuts.items():
        for i, j in combinations(c, 2):
            for b in heads.get(a[i:j], set()) - {a}:
                if b == a[i:j]:
                    problems.add(f"{b!r} occurs inside {a!r}")
                elif i > 0 and j == len(a):
                    problems.add(f"{a!r} and {b!r} can overlap")
    return sorted(problems)


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
        keywords = [kw.lower() for t in self.topics for kw in t.keywords]
        if problems := _keyword_clashes(keywords):
            raise ValidationError("taxonomy keywords clash: " + "; ".join(problems))
        # one alternation, longest keyword first, finds every keyword in one pass
        self._topic_of = {kw.lower(): i for i, t in enumerate(self.topics) for kw in t.keywords}
        self._scanner = re.compile(
            r"\b(?:" + "|".join(map(re.escape, sorted(keywords, key=len, reverse=True))) + r")\b")
        # Per-run memos of the mock keyword rules, keyed by the caller's text (a
        # corpus headline, or a read's headline and body): one scan per text.
        self._hits: dict[str, tuple[int, ...]] = {}
        self._best: dict[str, str] = {}

    def _scan(self, text: str, distinct: bool = False) -> list[int]:
        """Keyword occurrences, or distinct keywords, per topic: one pass over text."""
        found = self._scanner.findall(text.lower())
        counts = [0] * len(self.topics)
        for kw in set(found) if distinct else found:
            counts[self._topic_of[kw]] += 1
        return counts

    def topics_in_text(self, text: str) -> list[str]:
        """All topics with at least one keyword present, in taxonomy order."""
        return [name for name, n in zip(self.names, self._scan(text)) if n]

    def keyword_hits(self, headline: str) -> tuple[int, ...]:
        """Distinct keywords present per topic, in taxonomy order (memoised)."""
        hits = self._hits.get(headline)
        if hits is None:
            hits = self._hits[headline] = tuple(self._scan(headline, distinct=True))
        return hits

    def best_topic(self, text: str) -> str:
        """Topic with the most keyword occurrences (memoised per text).

        Ties break by taxonomy order; if nothing matches, the first topic.
        """
        best = self._best.get(text)
        if best is None:
            counts = self._scan(text)
            best = self._best[text] = self.names[counts.index(max(counts))]
        return best

    def tag_interests(self, text: str) -> list[str]:
        """Mock interest tags: topics_in_text, or the first topic when none match."""
        return self.topics_in_text(text) or [self.names[0]]

    def validate_vocab(self, field: str, value: str) -> bool:
        vocab = self.demographics.get(field)
        return vocab is None or value in vocab


def load_taxonomy(path: str | Path | None = None) -> TopicTaxonomy:
    """Load a taxonomy file, or the packaged default when path is None."""
    doc = inputs.read_json(path, "taxonomy", ValidationError)
    try:
        for t in doc["topics"]:
            if not (isinstance(t["name"], str) and isinstance(t["keywords"], list)
                    and all(isinstance(kw, str) for kw in t["keywords"])):
                raise ValidationError(f"taxonomy topic {t['name']!r}: the name must be a string "
                                      f"and keywords a list of strings, got {t['keywords']!r}")
        topics = [Topic(t["name"], t["keywords"]) for t in doc["topics"]]
        demographics = doc.get("demographics", {})
        if not (isinstance(demographics, dict) and all(
                isinstance(v, list) and all(isinstance(x, str) for x in v)
                for v in demographics.values())):
            raise ValidationError(f"demographics must be an object of string lists, "
                                  f"got {demographics!r}")
        return TopicTaxonomy(topics, demographics)
    except (LookupError, TypeError, ValidationError) as exc:
        raise ValidationError(f"taxonomy {path} is not a taxonomy: "
                              f"{type(exc).__name__}: {exc}") from None
