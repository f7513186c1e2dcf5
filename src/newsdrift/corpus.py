"""News corpus ingestion and per-year indexing.

Input is JSON Lines, one article per line. An article is accepted only if
its headline or subheader mentions China (or Chinese); rejected rows are
counted by reason. Per-year id lists are kept sorted so the index is
invariant to input line order.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs
from .errors import CorpusError
from .gateway import is_number

log = logging.getLogger(__name__)

_CRITERION = re.compile(r"\bchina\b|\bchinese\b", re.IGNORECASE)

REJECT_REASONS = ("criterion", "year_out_of_range", "empty_full_text", "malformed")

YEAR_MIN, YEAR_MAX = 2005, 2025  # the study window; other years are rejected
REJECT_WARN_FRACTION = 0.10
OPTIONAL_TEXTS = ("subheader", "category", "full_text")  # a string, or null for ""


@dataclass(frozen=True, slots=True)
class Article:
    article_id: str
    year: int
    source: str
    headline: str
    subheader: str = ""
    category: str = ""
    full_text: str = ""


@dataclass
class IngestReport:
    accepted: int = 0
    rejected: dict = field(default_factory=lambda: dict.fromkeys(REJECT_REASONS, 0))

    @property
    def total(self) -> int:
        return self.accepted + sum(self.rejected.values())


class CorpusIndex:
    def __init__(self, store: dict[str, Article]):
        self.store = store
        self.by_year: dict[int, list[str]] = {}
        for article in store.values():
            self.by_year.setdefault(article.year, []).append(article.article_id)
        for ids in self.by_year.values():
            ids.sort()

    def __len__(self) -> int:
        return len(self.store)

    def get(self, article_id: str) -> Article:
        try:
            return self.store[article_id]
        except KeyError:
            raise CorpusError(f"article id not in index: {article_id!r}") from None


def satisfies_criterion(headline: str, subheader: str) -> bool:
    return bool(_CRITERION.search(headline) or _CRITERION.search(subheader))


def ingest(path: str | Path) -> tuple[CorpusIndex, IngestReport]:
    report = IngestReport()
    store: dict[str, Article] = {}
    for lineno, line in inputs.read_lines(path, "corpus", CorpusError):
        try:
            doc = json.loads(line)
            year, texts = doc["year"], [doc.get(key) for key in OPTIONAL_TEXTS]
            if not (is_number(year, int)
                    and all(isinstance(doc[key], str) for key in ("article_id", "headline",
                                                                  "source"))
                    and all(text is None or isinstance(text, str) for text in texts)):
                raise TypeError("year must be an integer, article_id, headline and source "
                                f"strings, and {', '.join(OPTIONAL_TEXTS)} strings or null")
            article = Article(doc["article_id"], year, doc["source"], doc["headline"],
                              *(text or "" for text in texts))
        except (KeyError, TypeError, ValueError) as exc:
            report.rejected["malformed"] += 1
            log.warning("skipping corpus line %d (%s)", lineno, exc)
            continue
        if article.article_id in store:
            raise CorpusError(f"duplicate article_id {article.article_id!r} at line {lineno}")
        if not satisfies_criterion(article.headline, article.subheader):
            report.rejected["criterion"] += 1
            continue
        if not (YEAR_MIN <= article.year <= YEAR_MAX):
            report.rejected["year_out_of_range"] += 1
            continue
        if not article.full_text.strip():
            report.rejected["empty_full_text"] += 1
            continue
        store[article.article_id] = article
        report.accepted += 1
    if report.total and sum(report.rejected.values()) > REJECT_WARN_FRACTION * report.total:
        log.warning(
            "corpus rejects exceed %.0f%%: %s of %s rows",
            REJECT_WARN_FRACTION * 100,
            sum(report.rejected.values()),
            report.total,
        )
    return CorpusIndex(store), report


def articles_for_year(index: CorpusIndex, year: int) -> list[str]:
    return list(index.by_year.get(year, []))


def corpus_stats(index: CorpusIndex) -> dict:
    if not index.store:
        raise CorpusError("cannot compute statistics for an empty corpus")
    total = len(index.store)
    by_source: dict[str, int] = {}
    by_year: dict[int, int] = {}
    by_category: dict[str, int] = {}
    for article in index.store.values():
        by_source[article.source] = by_source.get(article.source, 0) + 1
        by_year[article.year] = by_year.get(article.year, 0) + 1
        key = article.category or "uncategorized"
        by_category[key] = by_category.get(key, 0) + 1
    source_pct = {
        source: round(100.0 * count / total, 2)
        for source, count in sorted(by_source.items())
    }
    return {
        "total": total,
        "source_pct": source_pct,
        "year_counts": {str(y): by_year[y] for y in sorted(by_year)},
        "category_counts": dict(sorted(by_category.items())),
    }
