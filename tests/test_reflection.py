from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from newsdrift.corpus import ingest
from newsdrift.distribution import Payload, retrieve_full_text
from newsdrift.errors import SchemaError, ValidationError
from newsdrift.gateway import BackendConfig, Gateway
from newsdrift.mock import MockLexicon
from newsdrift.modes import KEPT
from newsdrift.profiles import AgentProfile
from newsdrift.reflection import (
    OpinionState,
    apply_updates,
    categorize_payload,
    format_opinions,
    reflect_batch,
)

# weights chosen so one-word texts hit exact sentiment targets after the x2 scaling
LEX = MockLexicon({"up": 0.75}, {"down": 0.75, "dip": 0.25, "blip": 0.05})


FakeProfile = AgentProfile(
    agent_id="agent-0000",
    demographics={"gender": "female", "race": "white", "party": "democrat",
                  "state": "CA", "region": "Pacific", "age_band": "30-44",
                  "education": "college", "income_band": "middle"},
    political_preferences={},
    media_preferences={},
    domestic_views={},
    interests=("economics",),
    provenance={},
)


def _econ(text, article_id="a1"):
    # "economy" pins the domain; sentiment comes only from the body text
    return Payload(article_id, "The economy today", text)


def _state(taxonomy, **valences):
    state = OpinionState.initial("agent-0000", taxonomy)
    state.valences.update(valences)
    return state


def _reflect(taxonomy, state, payloads, ablation="none", critique=None, gateway=None):
    gw = gateway or Gateway(BackendConfig(mode="mock"))
    return reflect_batch(FakeProfile, payloads, state, gw, taxonomy, LEX,
                         KEPT[ablation], batch_id="2010:agent-0000:b0", tag="reflect:t",
                         critique=critique)


# ---------------------------------------------------------------------------
# dissonance branches (worked examples)
# ---------------------------------------------------------------------------

def test_neutral_opinion_confirms_new_information(taxonomy):
    state = _state(taxonomy)
    outcome = _reflect(taxonomy, state, [_econ("markets went down")])
    entry = outcome.domains["economics"]
    assert entry["action"] == "confirm"
    assert entry["new_valence"] == -1.5


def test_stronger_contradiction_revises(taxonomy):
    state = _state(taxonomy, economics=1.0)
    outcome = _reflect(taxonomy, state, [_econ("markets went down")])
    entry = outcome.domains["economics"]
    assert entry["action"] == "revise"
    assert entry["new_valence"] == -0.5


def test_weaker_contradiction_reinforces(taxonomy):
    state = _state(taxonomy, economics=1.0)
    outcome = _reflect(taxonomy, state, [_econ("a dip in markets")])
    entry = outcome.domains["economics"]
    assert entry["action"] == "reinforce"
    assert entry["new_valence"] == pytest.approx(0.9)
    assert entry["cognitions"]


def test_weak_opinion_dismisses(taxonomy):
    state = _state(taxonomy, economics=0.2)
    outcome = _reflect(taxonomy, state, [_econ("just a blip")])
    entry = outcome.domains["economics"]
    assert entry["action"] == "dismiss"
    assert entry["new_valence"] == pytest.approx(0.1)


def test_consonant_news_confirms(taxonomy):
    state = _state(taxonomy, economics=0.3)
    outcome = _reflect(taxonomy, state, [_econ("markets going up")])
    entry = outcome.domains["economics"]
    assert entry["action"] == "confirm"
    assert entry["new_valence"] == pytest.approx(1.8)


def test_confirm_clamps_at_two(taxonomy):
    state = _state(taxonomy, economics=1.8)
    outcome = _reflect(taxonomy, state, [_econ("markets going up")])
    assert outcome.domains["economics"]["new_valence"] == 2.0


def test_saturated_domain_drops_out(taxonomy):
    # clamp(2.0 + positive) == 2.0, so nothing changed and nothing is reported
    state = _state(taxonomy, economics=2.0)
    outcome = _reflect(taxonomy, state, [_econ("markets going up")])
    assert "economics" not in outcome.domains


def test_zero_sentiment_is_consonant_noop(taxonomy):
    state = _state(taxonomy, economics=1.0)
    outcome = _reflect(taxonomy, state, [_econ("up and down day")])
    assert outcome.domains == {}


def test_batch_averages_sentiment_within_domain(taxonomy):
    state = _state(taxonomy)
    payloads = [_econ("markets went down", "a1"), _econ("going up today", "a2")]
    outcome = _reflect(taxonomy, state, payloads)
    # (-1.5 + 1.5) / 2 = 0 -> no change recorded
    assert outcome.domains == {}


def test_no_cognitive_records_plain_shift(taxonomy):
    state = _state(taxonomy, economics=1.0)
    outcome = _reflect(taxonomy, state, [_econ("a dip in markets")],
                       ablation="no_cognitive")
    entry = outcome.domains["economics"]
    assert entry["action"] == "none"
    assert entry["new_valence"] == pytest.approx(0.5)


def test_critique_halves_sentiment(taxonomy):
    state = _state(taxonomy)
    outcome = _reflect(taxonomy, state, [_econ("markets went down")],
                       critique="Consider the other side.")
    assert outcome.domains["economics"]["new_valence"] == pytest.approx(-0.75)


# ---------------------------------------------------------------------------
# frame: untouched domains and exposures
# ---------------------------------------------------------------------------

def test_untouched_domain_is_bit_identical(taxonomy):
    state = _state(taxonomy, technology=0.7)
    outcome = _reflect(taxonomy, state, [_econ("markets went down")])
    new_state, _ = apply_updates(state, outcome, 2010)
    assert new_state.valences["technology"] == 0.7
    assert new_state.exposures["technology"] == 0
    assert "technology" not in outcome.domains


def test_exposure_counter_accumulates(taxonomy):
    state = _state(taxonomy)
    state.exposures["economics"] = 2
    payloads = [_econ("markets went down", f"a{i}") for i in range(3)]
    outcome = _reflect(taxonomy, state, payloads)
    new_state, _ = apply_updates(state, outcome, 2010)
    assert new_state.exposures["economics"] == 5


def test_apply_updates_delta_and_log(taxonomy):
    state = _state(taxonomy, economics=0.5)
    outcome = _reflect(taxonomy, state, [_econ("markets going up")])
    new_state, updates = apply_updates(state, outcome, 2010)
    assert new_state.valences["economics"] == 2.0
    assert len(updates) == 1
    entry = updates[0]
    assert entry["old_valence"] == 0.5
    assert entry["delta"] == pytest.approx(1.5)
    assert entry["new_valence"] == 2.0
    assert entry["year"] == 2010
    assert entry["batch_id"] == "2010:agent-0000:b0"
    # original state untouched
    assert state.valences["economics"] == 0.5


def test_apply_updates_is_pure(taxonomy):
    state = _state(taxonomy)
    outcome = _reflect(taxonomy, state, [_econ("markets went down")])
    before = dict(state.valences)
    apply_updates(state, outcome, 2010)
    assert state.valences == before


@given(old=st.floats(min_value=-2.0, max_value=2.0),
       weight=st.sampled_from(["up", "down", "dip", "blip"]))
def test_valence_always_in_range(old, weight):
    from newsdrift.taxonomy import load_taxonomy
    taxonomy = load_taxonomy()
    state = _state(taxonomy, economics=old)
    outcome = _reflect(taxonomy, state, [_econ(f"word {weight} word")])
    new_state, _ = apply_updates(state, outcome, 2010)
    assert -2.0 <= new_state.valences["economics"] <= 2.0


# ---------------------------------------------------------------------------
# backend handling
# ---------------------------------------------------------------------------

class StubGateway:
    def __init__(self, value):
        self.value = value

    def generate(self, request, mock=None, *, fallback):
        # a SchemaError stands for an answer that fails its schema
        return fallback() if isinstance(self.value, SchemaError) else self.value


def test_schema_failure_yields_empty_outcome(taxonomy):
    state = _state(taxonomy)
    gw = StubGateway(SchemaError("bad", raw=""))
    outcome = _reflect(taxonomy, state, [_econ("markets went down")], gateway=gw)
    assert outcome.domains == {}
    assert outcome.batch_counts == {"economics": 1}


def test_unknown_domains_from_backend_dropped(taxonomy):
    state = _state(taxonomy)
    gw = StubGateway({"themes": [], "reasoning": "", "domains": {
        "astrology": {"action": "confirm", "new_valence": 1.0, "cognitions": []},
        "economics": {"action": "confirm", "new_valence": -1.0, "cognitions": []},
    }})
    outcome = _reflect(taxonomy, state, [_econ("markets went down")], gateway=gw)
    assert set(outcome.domains) == {"economics"}


def test_remote_equal_value_nudges_toward_zero(taxonomy):
    state = _state(taxonomy, economics=1.0)
    gw = StubGateway({"themes": [], "reasoning": "", "domains": {
        "economics": {"action": "confirm", "new_valence": 1.0, "cognitions": []},
    }})
    outcome = _reflect(taxonomy, state, [_econ("markets went down")], gateway=gw)
    assert outcome.domains["economics"]["new_valence"] == pytest.approx(0.99)


def test_empty_batch_rejected(taxonomy):
    state = _state(taxonomy)
    with pytest.raises(ValidationError):
        _reflect(taxonomy, state, [])


# ---------------------------------------------------------------------------
# categorization
# ---------------------------------------------------------------------------

def test_categorize_prefers_stored_category(taxonomy, tmp_path):
    row = {"article_id": "a1", "year": 2010, "source": "W",
           "headline": "China economy news", "subheader": "",
           "category": "sports", "full_text": "text"}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(row) + "\n")
    index, _ = ingest(path)
    (payload,) = retrieve_full_text(index, ["a1"], KEPT["none"])
    assert categorize_payload(payload, taxonomy) == "sports"
    uncategorized = dataclasses.replace(payload, category="")
    assert categorize_payload(uncategorized, taxonomy) == "economics"


def test_batch_domain_counts(taxonomy):
    payloads = [_econ("x", "a1"), _econ("y", "a2"),
                Payload("a3", "new software ships", "")]
    outcome = _reflect(taxonomy, _state(taxonomy), payloads)
    assert outcome.batch_counts == {"economics": 2, "technology": 1}


def test_format_opinions_lists_all_domains(taxonomy):
    state = _state(taxonomy, economics=-1.25)
    text = format_opinions(state, taxonomy)
    lines = text.splitlines()
    assert len(lines) == 15
    assert any("economics" in l and "-1.250" in l for l in lines)
