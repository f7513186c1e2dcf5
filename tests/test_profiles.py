from __future__ import annotations

import json

import pytest

from newsdrift.errors import SchemaError, ConfigError, MatchingError
from newsdrift.gateway import BackendConfig
from newsdrift.profiles import (
    MatchedPair,
    SocialMediaRecord,
    SurveyRespondentRecord,
    assign_interests,
    build_profile,
    build_profiles,
    load_profiles,
    load_social_records,
    load_survey_records,
    match_records,
    sample_agents,
    validate_profile,
)

FIXDIR = None  # set via fixtures_dir fixture where needed


def _soc(record_id="soc-000", state="TX", gender="female", race="white",
         party="republican", posts=()):
    return SocialMediaRecord(record_id=record_id, state=state, gender=gender,
                             race=race, party=party, posts=tuple(posts))


def _gss(record_id="gss-000", region="West South Central", gender="female",
         race="white", party="republican"):
    return SurveyRespondentRecord(record_id=record_id, region=region,
                                  gender=gender, race=race, party=party)


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_exact_match():
    pairs, unmatched = match_records([_soc()], [_gss()])
    assert len(pairs) == 1 and not unmatched
    assert pairs[0].compromised_feature is None


def test_single_compromise_allowed():
    pairs, unmatched = match_records([_soc(party="democrat")], [_gss()])
    assert len(pairs) == 1
    assert pairs[0].compromised_feature == "party"


def test_region_never_compromised():
    # CA is Pacific; a New England respondent finds no candidate there
    pairs, unmatched = match_records([_soc(state="CA")],
                                     [_gss(region="New England")])
    assert not pairs
    assert unmatched == ["gss-000"]


def test_two_mismatches_do_not_match():
    pairs, unmatched = match_records(
        [_soc(gender="male", party="democrat")], [_gss()])
    assert not pairs and unmatched == ["gss-000"]


def test_exact_beats_compromised_candidate():
    exact = _soc(record_id="soc-001")
    near = _soc(record_id="soc-000", party="democrat")
    pairs, _ = match_records([near, exact], [_gss()])
    assert pairs[0].social.record_id == "soc-001"
    assert pairs[0].compromised_feature is None


def test_rank_tie_breaks_on_social_id():
    a = _soc(record_id="soc-002")
    b = _soc(record_id="soc-001")
    pairs, _ = match_records([a, b], [_gss()])
    assert pairs[0].social.record_id == "soc-001"


def test_each_social_used_once():
    socials = [_soc(record_id="soc-000")]
    surveys = [_gss(record_id="gss-000"), _gss(record_id="gss-001")]
    pairs, unmatched = match_records(socials, surveys)
    assert len(pairs) == 1
    assert unmatched == ["gss-001"]


def test_fixture_population_structure(fixtures_dir, taxonomy):
    social = load_social_records(fixtures_dir / "social_records.jsonl", taxonomy)
    survey = load_survey_records(fixtures_dir / "survey_records.jsonl", taxonomy)
    assert len(social) == 30 and len(survey) == 30
    pairs, unmatched = match_records(social, survey)
    assert len(pairs) + len(unmatched) == len(survey)
    assert len(pairs) == 27
    by_feature = {}
    for p in pairs:
        by_feature[p.compromised_feature] = by_feature.get(p.compromised_feature, 0) + 1
    assert by_feature == {None: 24, "gender": 1, "race": 1, "party": 1}
    assert unmatched == ["gss-027", "gss-028", "gss-029"]


# ---------------------------------------------------------------------------
# interests
# ---------------------------------------------------------------------------

class StubGateway:
    """Returns scripted values, then the mock answer; a scripted
    SchemaError stands for an answer that fails its schema."""

    def __init__(self, script=()):
        self.script = list(script)
        self.tags = []
        self.fallback_counts = {}

    def generate(self, request, mock=None, *, fallback):
        self.tags.append(request.request_tag)
        if not self.script:
            return mock()
        item = self.script.pop(0)
        if isinstance(item, SchemaError):
            schema = request.expected_schema
            self.fallback_counts[schema] = self.fallback_counts.get(schema, 0) + 1
            return fallback()
        return item

    def counters(self):
        return {"fallback_counts": dict(self.fallback_counts)}


def _pair(posts):
    return MatchedPair(_soc(posts=posts), _gss(), None)


def test_interests_from_posts_keywords(taxonomy):
    pair = _pair(["The stock market worries me.", "New tariffs announced."])
    got = assign_interests(pair, taxonomy, StubGateway(), tag="interests:t")
    assert got == (("economics",), False)


def test_interests_fallback_when_nothing_matches(taxonomy):
    got = assign_interests(_pair([]), taxonomy, StubGateway(), tag="interests:t")
    assert got == ((taxonomy.names[0],), False)


def test_interests_invalid_entries_dropped(taxonomy):
    gw = StubGateway(script=[["economics", "astrology"], ["economics", "astrology"]])
    got = assign_interests(_pair([]), taxonomy, gw, tag="interests:t")
    assert got == (("economics",), False)
    # an invalid first answer triggers exactly one retry
    assert gw.tags == ["interests:t", "interests:t:retry"]


def test_interests_schema_error_falls_back_to_keywords(taxonomy):
    gw = StubGateway(script=[SchemaError("bad", raw="")])
    pair = _pair(["tariffs all day"])
    assert assign_interests(pair, taxonomy, gw, tag="t") == (("economics",), False)


def test_unknown_only_interests_fall_back_and_are_reported(fixtures_dir, taxonomy, tmp_path):
    # first pair: both asks name only unknown topics, so the keyword rules
    # stand in; second pair: an answer fails its schema inside the gateway
    gw = StubGateway(script=[["astrology"], ["tarot"], SchemaError("bad", raw="")])
    profiles, report = build_profiles(
        fixtures_dir / "social_records.jsonl", fixtures_dir / "survey_records.jsonl",
        taxonomy, gw, out_path=tmp_path / "p.json", report_path=tmp_path / "r.json")
    assert gw.tags[:3] == ["interests:gss-000", "interests:gss-000:retry", "interests:gss-001"]
    assert report["interest_rule_fallbacks"] == 1
    assert report["fallback_counts"] == {"interest_list": 1}
    assert json.loads((tmp_path / "r.json").read_text()) == report
    assert all(p.interests for p in profiles)


# ---------------------------------------------------------------------------
# profile build + validation
# ---------------------------------------------------------------------------

def test_survey_fields_take_precedence():
    pair = MatchedPair(_soc(gender="male"), _gss(gender="female"), "gender")
    profile = build_profile(pair, "agent-0000", ("economics",))
    assert profile.demographics["gender"] == "female"
    assert profile.demographics["state"] == "TX"
    assert profile.provenance["compromised_feature"] == "gender"


def test_profile_field_arity(fixtures_dir, profiles, taxonomy):
    for profile in profiles:
        validate_profile(profile, taxonomy)
        total = (len(profile.demographics) + len(profile.political_preferences)
                 + len(profile.media_preferences) + len(profile.domestic_views))
        assert total == 50


def test_build_profiles_report_reconciles(fixtures_dir, taxonomy, tmp_path, open_gateway):
    gw = open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    profiles, report = build_profiles(
        fixtures_dir / "social_records.jsonl",
        fixtures_dir / "survey_records.jsonl",
        taxonomy, gw, out_path=tmp_path / "p.json")
    assert report["matched"] + len(report["unmatched"]) == 30
    assert report["matched"] == len(profiles) == 27
    assert sum(report["compromised"].values()) == report["matched"]
    # agent ids are assigned in survey order, zero-based
    assert profiles[0].agent_id == "agent-0000"
    assert profiles[-1].agent_id == "agent-0026"


def test_build_profiles_empty_match_is_fatal(taxonomy, tmp_path):
    soc = tmp_path / "soc.jsonl"
    gss = tmp_path / "gss.jsonl"
    soc.write_text(json.dumps({"record_id": "soc-000", "state": "CA",
                               "gender": "female", "race": "white",
                               "party": "democrat", "posts": []}) + "\n")
    gss.write_text(json.dumps({"record_id": "gss-000", "region": "New England",
                               "gender": "female", "race": "white",
                               "party": "democrat"}) + "\n")
    gw = StubGateway()
    with pytest.raises(MatchingError):
        build_profiles(soc, gss, taxonomy, gw, out_path=tmp_path / "p.json")


def test_load_profiles_round_trip(fixtures_dir, profiles_path, taxonomy):
    profiles = load_profiles(profiles_path, taxonomy)
    assert len(profiles) == 27
    assert all(p.interests for p in profiles)


# ---------------------------------------------------------------------------
# record loading diagnostics
# ---------------------------------------------------------------------------

def test_loader_skips_bad_vocab_rows(taxonomy, tmp_path, caplog):
    path = tmp_path / "soc.jsonl"
    rows = [
        {"record_id": "soc-000", "state": "CA", "gender": "female",
         "race": "white", "party": "democrat", "posts": []},
        {"record_id": "soc-001", "state": "CA", "gender": "wrong",
         "race": "white", "party": "democrat", "posts": []},
        {"record_id": "soc-002", "state": "XX", "gender": "female",
         "race": "white", "party": "democrat", "posts": []},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    records = load_social_records(path, taxonomy)
    assert [r.record_id for r in records] == ["soc-000"]


def test_loader_skips_a_state_that_is_not_a_string(taxonomy, tmp_path, caplog):
    path = tmp_path / "soc.jsonl"
    row = {"record_id": "soc-000", "state": 6, "gender": "female",
           "race": "white", "party": "democrat", "posts": []}
    path.write_text(json.dumps(row) + "\n")
    assert load_social_records(path, taxonomy) == []
    assert f"skipping social record at {path}:1" in caplog.text


@pytest.mark.parametrize("posts", ["Trade war with China", [1, 2], None])
def test_loader_skips_posts_that_are_not_a_list_of_strings(taxonomy, tmp_path, caplog, posts):
    """A string was once split into its characters, each taken as a post."""
    path = tmp_path / "soc.jsonl"
    row = {"record_id": "soc-000", "state": "CA", "gender": "female",
           "race": "white", "party": "democrat", "posts": posts}
    path.write_text(json.dumps(row) + "\n")
    assert load_social_records(path, taxonomy) == []
    assert f"skipping social record at {path}:1" in caplog.text


@pytest.mark.parametrize("loader, row", [
    (load_social_records, {"state": "CA", "gender": "female", "race": "white",
                           "party": "democrat", "posts": []}),
    (load_survey_records, {"region": "Pacific", "gender": "female", "race": "white",
                           "party": "democrat"}),
])
@pytest.mark.parametrize("ids, kept", [
    ([None], []), ([1], []), ([1, "1"], ["1"]), (["1", 1], ["1"]),
])
def test_loaders_skip_a_record_id_that_is_not_a_string(taxonomy, tmp_path, caplog,
                                                      loader, row, ids, kept):
    """Ids were once coerced with str(): null became "None", and 1 and "1" collided."""
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps({"record_id": i, **row}) + "\n" for i in ids))
    assert [r.record_id for r in loader(path, taxonomy)] == kept
    assert caplog.text.count("record_id must be a string") == len(ids) - len(kept)


def test_loader_skips_duplicate_ids(taxonomy, tmp_path):
    path = tmp_path / "soc.jsonl"
    row = {"record_id": "soc-000", "state": "CA", "gender": "female",
           "race": "white", "party": "democrat", "posts": []}
    path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
    records = load_social_records(path, taxonomy)
    assert len(records) == 1


def test_survey_loader_fills_missing_extras(taxonomy, tmp_path):
    path = tmp_path / "gss.jsonl"
    row = {"record_id": "gss-000", "region": "Pacific", "gender": "female",
           "race": "white", "party": "democrat"}
    path.write_text(json.dumps(row) + "\n")
    records = load_survey_records(path, taxonomy)
    assert len(records) == 1
    profile = build_profile(MatchedPair(_soc(state="CA"), records[0], None),
                            "agent-0000", ("economics",))
    assert profile.demographics["age_band"] == "unknown"
    validate_profile(profile, taxonomy)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_all_returns_full_set(profiles):
    sampled = sample_agents(profiles, len(profiles), seed=1)
    assert sorted(p.agent_id for p in sampled) == sorted(p.agent_id for p in profiles)


def test_sample_is_deterministic(profiles):
    a = [p.agent_id for p in sample_agents(profiles, 10, seed=42)]
    b = [p.agent_id for p in sample_agents(profiles, 10, seed=42)]
    c = [p.agent_id for p in sample_agents(profiles, 10, seed=43)]
    assert a == b
    assert a != c
    assert len(set(a)) == 10


def test_sample_rejects_oversized_n(profiles):
    with pytest.raises(ConfigError):
        sample_agents(profiles, len(profiles) + 1, seed=1)
