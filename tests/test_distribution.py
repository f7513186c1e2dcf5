from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from newsdrift.corpus import Article, ingest
from newsdrift.distribution import (
    HeadlineOffer,
    Payload,
    mock_ranking,
    retrieve_full_text,
    sample_headlines,
    select_articles,
)
from newsdrift.errors import CorpusError, YearEmptyError
from newsdrift.gateway import BackendConfig, Gateway, GenerationRequest
from newsdrift.mock import MockLexicon, mock_sentiment
from newsdrift.modes import KEPT
from newsdrift.orchestrator import run
from newsdrift.profiles import AgentProfile
from newsdrift.taxonomy import TopicTaxonomy


@pytest.mark.parametrize("record, field", [
    (Article("a1", 2010, "src", "Headline"), "headline"),
    (Payload("a1", "Headline", "Text"), "full_text"),
    (HeadlineOffer("agent-0000", 2010, (("a1", "Headline"),)), "offers"),
    (GenerationRequest("system", "user", "survey_answer", "s:1"), "user_text"),
])
def test_per_read_records_are_frozen_and_slotted(record, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, "changed")
    assert not hasattr(record, "__dict__")


FakeProfile = AgentProfile(
    agent_id="agent-0000",
    demographics={"gender": "female", "race": "white", "party": "democrat",
                  "state": "CA", "region": "Pacific", "age_band": "30-44",
                  "education": "college", "income_band": "middle"},
    political_preferences={},
    media_preferences={},
    domestic_views={},
    interests=("technology",),
    provenance={},
)


def _corpus(tmp_path, n=6, year=2010):
    rows = []
    for i in range(n):
        rows.append({"article_id": f"a{i}", "year": year, "source": "Wire",
                     "headline": f"China report {i}", "subheader": "",
                     "category": "politics", "full_text": f"Body {i}."})
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    index, _ = ingest(path)
    return index


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_small_pool_offers_everything(tmp_path):
    index = _corpus(tmp_path, n=3)
    offer = sample_headlines(index, 2010, "agent-0000", k=50, run_seed=1)
    assert sorted(offer.ids) == ["a0", "a1", "a2"]


def test_offer_is_deterministic(tmp_path):
    index = _corpus(tmp_path, n=20)
    a = sample_headlines(index, 2010, "agent-0000", k=5, run_seed=1)
    b = sample_headlines(index, 2010, "agent-0000", k=5, run_seed=1)
    assert a.offers == b.offers


def test_agents_draw_independent_offers(tmp_path):
    index = _corpus(tmp_path, n=200)
    a = sample_headlines(index, 2010, "agent-0000", k=5, run_seed=1)
    b = sample_headlines(index, 2010, "agent-0001", k=5, run_seed=1)
    assert a.ids != b.ids


def test_empty_year_raises(tmp_path):
    index = _corpus(tmp_path, n=3)
    with pytest.raises(YearEmptyError):
        sample_headlines(index, 2011, "agent-0000", k=5, run_seed=1)


# ---------------------------------------------------------------------------
# ranking + selection
# ---------------------------------------------------------------------------

def test_ranking_prefers_interest_keywords(taxonomy, lexicon):
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China technology briefing"),
        ("a3", "China culture notes"),
    ))
    ranked = mock_ranking(FakeProfile, offer, taxonomy, lexicon)
    assert ranked[0] == "a2"


def test_ranking_ties_break_on_id_descending(taxonomy, lexicon):
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China harvest report"),
    ))
    ranked = mock_ranking(FakeProfile, offer, taxonomy, lexicon)
    assert ranked == ["a2", "a1"]


def _old_mock_ranking(profile, offer, taxonomy, lexicon):
    """mock_ranking as it was, with a generator summing each headline's hits."""
    interest = [i for i, name in enumerate(taxonomy.names) if name in profile.interests]
    scored = []
    for article_id, headline in offer.offers:
        hits = taxonomy.keyword_hits(headline)
        matched = sum(hits[i] for i in interest)
        magnitude = abs(mock_sentiment(headline, lexicon))
        scored.append((matched, magnitude, article_id))
    scored.sort(reverse=True)
    return [article_id for _, _, article_id in scored]


_RANKING_LEXICON = MockLexicon({"up": 0.75, "gain": 0.5}, {"down": 0.75, "loss": 0.25})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), interests=st.lists(st.integers(0, 15), unique=True),
       headlines=st.lists(st.lists(st.sampled_from(["up", "gain", "down", "loss", "flat"]),
                                   max_size=3).map(" ".join), min_size=1, max_size=12))
def test_ranking_orders_as_the_per_headline_loop_did(taxonomy, data, interests, headlines):
    """Index 15 names a topic outside the taxonomy; a headline may be offered twice."""
    names = (*taxonomy.names, "astrology")
    profile = SimpleNamespace(interests=tuple(names[i] for i in interests))
    hits = {headline: data.draw(st.tuples(*[st.integers(0, 3)] * len(taxonomy.names)))
            for headline in headlines}
    stub = SimpleNamespace(names=taxonomy.names, keyword_hits=hits.__getitem__)
    offer = HeadlineOffer("agent-0000", 2010, tuple(
        (f"a{data.draw(st.integers(0, 99)):02d}-{n}", headline)
        for n, headline in enumerate(headlines)))
    assert mock_ranking(profile, offer, stub, _RANKING_LEXICON) == _old_mock_ranking(
        profile, offer, stub, _RANKING_LEXICON)


def test_run_matches_each_offered_headline_once(make_config, monkeypatch):
    scans = Counter()
    scan = TopicTaxonomy._scan

    def counting(self, text, *args, **kwargs):
        scans[text] += 1
        return scan(self, text, *args, **kwargs)

    monkeypatch.setattr(TopicTaxonomy, "_scan", counting)
    # 20 agents see most of each year's 60 headlines, so every headline is
    # offered many times over
    config = make_config(n_agents=20, years=(2005, 2006))
    run(config)

    index, _ = ingest(config.corpus_path)
    offered = set()
    for path in (Path(config.out_dir) / "trace").glob("year_*.jsonl"):
        for line in path.read_text("utf-8").splitlines():
            offered.update(index.get(i).headline for i in json.loads(line)["offer_ids"])
    assert offered
    # one keyword scan per distinct offered headline, however often offered
    assert {scans[headline] for headline in offered} == {1}


def test_mock_selection_returns_top_ranked(taxonomy, lexicon, tmp_path, open_gateway):
    gw = open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China technology briefing"),
        ("a3", "China culture notes"),
    ))
    picked = select_articles(FakeProfile, offer, 1, gw, taxonomy, lexicon,
                             KEPT["none"], tag="select:t")
    assert picked == ("a2",)
    # the exchange went through the gateway and was logged
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["schema"] == "selection_list"


def test_no_selection_skips_backend(taxonomy, lexicon, tmp_path):
    log = tmp_path / "r.jsonl"
    gw = Gateway(BackendConfig(mode="mock"), log_path=log)
    offer = HeadlineOffer("agent-0000", 2010,
                          tuple((f"a{i}", f"China item {i}") for i in range(12)))
    picked = select_articles(FakeProfile, offer, 10, gw, taxonomy, lexicon,
                             KEPT["no_selection"], tag="select:t")
    assert picked == offer.ids[:10]
    assert not log.exists()


def test_select_all_of_offer(taxonomy, lexicon, tmp_path, open_gateway):
    gw = open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    offer = HeadlineOffer("agent-0000", 2010,
                          tuple((f"a{i}", f"China item {i}") for i in range(4)))
    picked = select_articles(FakeProfile, offer, 4, gw, taxonomy, lexicon,
                             KEPT["none"], tag="select:t")
    assert sorted(picked) == ["a0", "a1", "a2", "a3"]


class RepairStub:
    """Gateway returning a fixed pick list regardless of the mock answer."""

    def __init__(self, picks):
        self.picks = picks

    def generate(self, request, mock=None, *, fallback):
        return self.picks


def test_selection_repairs_invalid_picks(taxonomy, lexicon):
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China technology briefing"),
        ("a3", "China culture notes"),
    ))
    # duplicate and out-of-range entries collapse to one valid pick,
    # refilled from the deterministic ranking
    gw = RepairStub([3, 3, 99])
    picked = select_articles(FakeProfile, offer, 2, gw, taxonomy, lexicon,
                             KEPT["none"], tag="select:t")
    assert picked[0] == "a3"
    assert len(picked) == 2 and len(set(picked)) == 2


class FailStub:
    """Gateway whose every answer fails its schema."""

    def generate(self, request, mock=None, *, fallback):
        return fallback()


def test_selection_falls_back_to_ranking(taxonomy, lexicon):
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China technology briefing"),
    ))
    picked = select_articles(FakeProfile, offer, 1, FailStub(), taxonomy,
                             lexicon, KEPT["none"], tag="select:t")
    assert picked == ("a2",)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def test_retrieve_empty_selection(tmp_path):
    index = _corpus(tmp_path)
    assert retrieve_full_text(index, (), KEPT["none"]) == ()


def test_retrieve_returns_stored_texts_in_order(tmp_path):
    index = _corpus(tmp_path)
    payloads = retrieve_full_text(index, ("a2", "a0"), KEPT["none"])
    assert [p.article_id for p in payloads] == ["a2", "a0"]
    assert [p.full_text for p in payloads] == ["Body 2.", "Body 0."]
    assert payloads[0].headline == "China report 2"


def test_retrieve_title_only(tmp_path):
    index = _corpus(tmp_path)
    payloads = retrieve_full_text(index, ("a1", "a2"), KEPT["title_only"])
    assert all(p.full_text == "" for p in payloads)
    assert all(p.headline for p in payloads)


def test_retrieve_dangling_id(tmp_path):
    index = _corpus(tmp_path)
    with pytest.raises(CorpusError):
        retrieve_full_text(index, ("missing",), KEPT["none"])
