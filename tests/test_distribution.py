from __future__ import annotations

import json
from pathlib import Path

import pytest

from newsdrift.corpus import ingest
from newsdrift.distribution import (
    HeadlineOffer,
    Payload,
    mock_ranking,
    retrieve_full_text,
    sample_headlines,
    select_articles,
)
from newsdrift.errors import CorpusError, SchemaError, YearEmptyError
from newsdrift.gateway import BackendConfig, Gateway
from newsdrift.modes import AblationFlags
from newsdrift.orchestrator import run
from newsdrift.taxonomy import Topic


class FakeProfile:
    agent_id = "agent-0000"
    demographics = {"gender": "female", "race": "white", "party": "democrat",
                    "state": "CA", "region": "Pacific", "age_band": "30-44",
                    "education": "college", "income_band": "middle"}
    political_preferences = {}
    media_preferences = {}
    domestic_views = {}
    interests = ("technology",)


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


NONE = AblationFlags()


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


def test_run_matches_each_offered_headline_once(make_config, monkeypatch):
    calls = {"n": 0}
    keywords_present = Topic.keywords_present

    def counting(self, lowered_text):
        calls["n"] += 1
        return keywords_present(self, lowered_text)

    monkeypatch.setattr(Topic, "keywords_present", counting)
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
    assert calls["n"] <= 15 * len(offered)


def test_mock_selection_returns_top_ranked(taxonomy, lexicon, tmp_path):
    gw = Gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China technology briefing"),
        ("a3", "China culture notes"),
    ))
    picked = select_articles(FakeProfile, offer, 1, gw, taxonomy, lexicon,
                             NONE, tag="select:t")
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
                             AblationFlags.from_name("no_selection"), tag="select:t")
    assert picked == offer.ids[:10]
    assert not log.exists()


def test_select_all_of_offer(taxonomy, lexicon, tmp_path):
    gw = Gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    offer = HeadlineOffer("agent-0000", 2010,
                          tuple((f"a{i}", f"China item {i}") for i in range(4)))
    picked = select_articles(FakeProfile, offer, 4, gw, taxonomy, lexicon,
                             NONE, tag="select:t")
    assert sorted(picked) == ["a0", "a1", "a2", "a3"]


class RepairStub:
    """Gateway returning a fixed pick list regardless of the mock value."""

    def __init__(self, picks):
        self.picks = picks

    def generate(self, request, mock_value=None):
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
                             NONE, tag="select:t")
    assert picked[0] == "a3"
    assert len(picked) == 2 and len(set(picked)) == 2


class FailStub:
    def generate(self, request, mock_value=None):
        raise SchemaError("nope", raw="")


def test_selection_falls_back_to_ranking(taxonomy, lexicon):
    offer = HeadlineOffer("agent-0000", 2010, (
        ("a1", "China farm report"),
        ("a2", "China technology briefing"),
    ))
    picked = select_articles(FakeProfile, offer, 1, FailStub(), taxonomy,
                             lexicon, NONE, tag="select:t")
    assert picked == ("a2",)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def test_retrieve_empty_selection(tmp_path):
    index = _corpus(tmp_path)
    assert retrieve_full_text(index, (), NONE) == ()


def test_retrieve_returns_stored_texts_in_order(tmp_path):
    index = _corpus(tmp_path)
    payloads = retrieve_full_text(index, ("a2", "a0"), NONE)
    assert [p.article_id for p in payloads] == ["a2", "a0"]
    assert [p.full_text for p in payloads] == ["Body 2.", "Body 0."]
    assert payloads[0].headline == "China report 2"


def test_retrieve_title_only(tmp_path):
    index = _corpus(tmp_path)
    payloads = retrieve_full_text(index, ("a1", "a2"),
                                  AblationFlags.from_name("title_only"))
    assert all(p.full_text == "" for p in payloads)
    assert all(p.headline for p in payloads)


def test_retrieve_dangling_id(tmp_path):
    index = _corpus(tmp_path)
    with pytest.raises(CorpusError):
        retrieve_full_text(index, ("missing",), NONE)
