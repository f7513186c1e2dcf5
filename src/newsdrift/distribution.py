"""Yearly news distribution: headline offers, article selection, retrieval.

Offers are independent per agent, drawn from the year pool with an RNG
seeded from (run seed, year, agent id) so draws survive any execution
order. Offers carry headline text only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from . import prompts
from .corpus import CorpusIndex
from .errors import YearEmptyError
from .gateway import GenerationRequest, MockLexicon, mock_sentiment, run_once
from .seeding import stable_rng
from .taxonomy import TopicTaxonomy


@dataclass(frozen=True, slots=True)
class HeadlineOffer:
    agent_id: str
    year: int
    offers: tuple[tuple[str, str], ...]
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(article_id for article_id, _ in self.offers))


@dataclass(frozen=True, slots=True)
class Payload:
    article_id: str
    headline: str
    full_text: str
    debiased: bool = False
    category: str = ""  # the corpus's stored category, "" when it has none


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
    # a headline's hits on the agent's interests in one call, a tuple however many
    # there are: itemgetter returns a lone index's count bare, so that one is a slice
    pick = itemgetter(*interest) if len(interest) > 1 else itemgetter(
        slice(interest[0], interest[0] + 1) if interest else slice(0))
    scored = sorted([(sum(pick(taxonomy.keyword_hits(headline))),
                      abs(mock_sentiment(headline, lexicon)), article_id)
                     for article_id, headline in offer.offers], reverse=True)
    return [article_id for _, _, article_id in scored]


def select_articles(profile, offer: HeadlineOffer, m: int, gateway,
                    taxonomy: TopicTaxonomy, lexicon: MockLexicon,
                    ablation: str, tag: str) -> tuple[str, ...]:
    """Pick exactly m distinct ids from the offer.

    The no-selection path returns the head of the offer without any backend
    exchange; otherwise the choice is one logged exchange, with invalid picks
    repaired from the deterministic ranking.
    """
    if m > len(offer.offers):
        raise ValueError(f"cannot select {m} from an offer of {len(offer.offers)}")
    if ablation == "no_selection":
        return offer.ids[:m]

    ranked = run_once(mock_ranking, profile, offer, taxonomy, lexicon)  # once, if needed
    id_by_index = {n: article_id for n, article_id in enumerate(offer.ids, start=1)}
    index_by_id = {article_id: n for n, article_id in id_by_index.items()}
    mock_picks = lambda: [index_by_id[article_id] for article_id in ranked()[:m]]  # noqa: E731

    system, user = prompts.render_selection(
        profile, prompts.format_numbered_headlines(offer.offers), m
    )
    request = GenerationRequest(system, user, "selection_list", tag)
    picks = gateway.generate(request, mock_picks, fallback=mock_picks)
    selected: list[str] = []
    for number in picks:
        article_id = id_by_index.get(number)
        if article_id is None or article_id in selected:
            continue
        selected.append(article_id)
        if len(selected) == m:
            break
    if len(selected) < m:
        selected += [article_id for article_id in ranked() if article_id not in selected]
    return tuple(selected[:m])


def retrieve_full_text(index: CorpusIndex, selected_ids, ablation: str) -> tuple[Payload, ...]:
    payloads = []
    for article_id in selected_ids:
        article = index.get(article_id)
        text = "" if ablation == "title_only" else article.full_text
        payloads.append(Payload(article_id=article_id, headline=article.headline,
                                full_text=text, category=article.category))
    return tuple(payloads)
