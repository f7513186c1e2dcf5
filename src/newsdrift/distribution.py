"""Yearly news distribution: headline offers, article selection, retrieval.

Offers are independent per agent, drawn from the year pool with an RNG
seeded from (run seed, year, agent id) so draws survive any execution
order. Offers carry headline text only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import prompts
from .corpus import CorpusIndex
from .errors import SchemaError, YearEmptyError
from .gateway import GenerationRequest, MockLexicon, mock_sentiment
from .modes import AblationFlags
from .seeding import stable_rng
from .taxonomy import TopicTaxonomy

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HeadlineOffer:
    agent_id: str
    year: int
    offers: tuple[tuple[str, str], ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(article_id for article_id, _ in self.offers)


@dataclass(frozen=True)
class Payload:
    article_id: str
    headline: str
    full_text: str
    debiased: bool = False
    debias_failed: bool = False


def sample_headlines(index: CorpusIndex, year: int, agent_id: str, k: int,
                     run_seed) -> HeadlineOffer:
    pool = index.by_year.get(year, [])
    if not pool:
        raise YearEmptyError(f"no articles available for year {year}")
    rng = stable_rng(run_seed, "headlines", year, agent_id)
    ids = rng.sample(pool, min(k, len(pool)))
    offers = tuple((article_id, index.get(article_id).headline) for article_id in ids)
    return HeadlineOffer(agent_id=agent_id, year=year, offers=offers)


def mock_ranking(profile, offer: HeadlineOffer, taxonomy: TopicTaxonomy,
                 lexicon: MockLexicon) -> list[str]:
    """Rank offer ids by (interest keyword hits, sentiment magnitude, id) desc."""
    interest = [i for i, name in enumerate(taxonomy.names) if name in profile.interests]
    scored = []
    for article_id, headline in offer.offers:
        hits = taxonomy.keyword_hits(headline)
        matched = sum(hits[i] for i in interest)
        magnitude = abs(mock_sentiment(headline, lexicon))
        scored.append((matched, magnitude, article_id))
    scored.sort(reverse=True)
    return [article_id for _, _, article_id in scored]


def select_articles(profile, offer: HeadlineOffer, m: int, gateway,
                    taxonomy: TopicTaxonomy, lexicon: MockLexicon,
                    ablation: AblationFlags, tag: str) -> tuple[str, ...]:
    """Pick exactly m distinct ids from the offer.

    The no-selection path returns the head of the offer without any backend
    exchange; otherwise the choice is one logged exchange, with invalid picks
    repaired from the deterministic ranking.
    """
    if m > len(offer.offers):
        raise ValueError(f"cannot select {m} from an offer of {len(offer.offers)}")
    if ablation.no_selection:
        return offer.ids[:m]

    ranked = mock_ranking(profile, offer, taxonomy, lexicon)
    id_by_index = {n: article_id for n, article_id in enumerate(offer.ids, start=1)}
    index_by_id = {article_id: n for n, article_id in id_by_index.items()}
    mock_picks = [index_by_id[article_id] for article_id in ranked[:m]]

    system, user = prompts.render_selection(
        profile, prompts.format_numbered_headlines(offer.offers), m
    )
    request = GenerationRequest(system, user, "selection_list", tag)
    try:
        picks = gateway.generate(request, mock_value=mock_picks)
    except SchemaError as exc:
        log.warning("selection fell back to ranking for %s (%s)", tag, exc)
        return tuple(ranked[:m])

    selected: list[str] = []
    for number in picks:
        article_id = id_by_index.get(number)
        if article_id is None or article_id in selected:
            continue
        selected.append(article_id)
        if len(selected) == m:
            break
    for article_id in ranked:
        if len(selected) == m:
            break
        if article_id not in selected:
            selected.append(article_id)
    return tuple(selected)


def retrieve_full_text(index: CorpusIndex, selected_ids, ablation: AblationFlags) -> tuple[Payload, ...]:
    payloads = []
    for article_id in selected_ids:
        article = index.get(article_id)
        text = "" if ablation.title_only else article.full_text
        payloads.append(Payload(article_id=article_id, headline=article.headline,
                                full_text=text))
    return tuple(payloads)
