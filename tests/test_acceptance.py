"""Top-level checks of the behaviors this package promises, one per criterion.

Each test covers one numbered criterion and ends by printing a single
verdict line, so a log scan (or the pytest -v listing) shows the status of
every criterion at a glance. Stated runtime budgets are asserted.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import time
from pathlib import Path

import pytest

import synthgen
from newsdrift.corpus import CorpusError, corpus_stats, ingest
from newsdrift.distribution import Payload
from newsdrift.gateway import (
    BackendConfig,
    Gateway,
    MockLexicon,
    load_lexicon,
    mock_sentiment,
    parse_structured,
)
from newsdrift.geography import state_to_region
from newsdrift.orchestrator import RunConfig, read_update_logs, resume, run
from newsdrift.profiles import AgentProfile, build_profiles, validate_profile
from newsdrift.reflection import OpinionState, reflect_batch
from newsdrift.surveys import GroundTruthSeries, mae, overall_valence
from newsdrift.taxonomy import load_taxonomy


def _verdict(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def _replay_records(out_dir) -> list[dict]:
    lines = (Path(out_dir) / "replay.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --- criterion 1: opinion equations at exact worked values ---


_Reader = AgentProfile(
    agent_id="agent-0000",
    demographics={"gender": "female", "race": "white", "party": "democrat",
                  "state": "CA", "region": "Pacific", "age_band": "30-44"},
    political_preferences={},
    media_preferences={},
    domestic_views={},
    interests=("economics",),
    provenance={},
)


def test_criterion_1_equation_suite():
    t0 = time.monotonic()
    taxonomy = load_taxonomy()
    # sentiment weights chosen so one-word bodies hit exact targets
    lexicon = MockLexicon({"up": 0.75}, {"down": 0.75, "dip": 0.25, "blip": 0.05})
    gateway = Gateway(BackendConfig(mode="mock"))

    calls = iter(range(10_000))

    def reflect(state, text):
        payload = Payload("a1", "The economy today", text)
        return reflect_batch(_Reader, [payload], state, gateway, taxonomy,
                             lexicon, "none", batch_id="b0",
                             tag=f"reflect:eq:{next(calls)}", critique=None)

    def state(**valences):
        s = OpinionState.initial("agent-0000", taxonomy)
        s.valences.update(valences)
        return s

    # exposure-weighted overall score: (-1*3 + 2*1) / 4 = -0.25
    s = state(economics=-1.0, technology=2.0)
    s.exposures.update(economics=3, technology=1)
    assert overall_valence(s) == -0.25
    assert overall_valence(state(economics=1.5)) == 0.0  # no exposures yet

    # dissonance branches at exact values
    cases = [
        (0.0, "down", "confirm", -1.5),     # no prior stance, adopt signal
        (1.0, "down", "revise", -0.5),      # stronger contrary signal
        (1.0, "dip", "reinforce", 0.9),     # weak contrary signal, dig in
        (0.2, "blip", "dismiss", 0.1),      # weakly held, weak signal
        (0.3, "up", "confirm", 1.8),        # consonant signal adds up
        (1.0, "up", "confirm", 2.0),        # 1.0 + 1.5 clamps at the scale edge
    ]
    for old, word, action, expected in cases:
        outcome = reflect(state(economics=old), word)
        entry = outcome.domains["economics"]
        assert entry["action"] == action, (old, word)
        assert entry["new_valence"] == pytest.approx(expected, abs=1e-9)

    # untouched domains stay bit-identical
    s = state(economics=1.0, lifestyle=0.7)
    outcome = reflect(s, "down")
    assert "lifestyle" not in outcome.domains
    assert _bits(s.valences["lifestyle"]) == _bits(0.7)

    # error metric identities
    rows = [{"year": 2005 + i, "favorable_pct": 40.0 + i, "unfavorable_pct": 35.0}
            for i in range(4)]
    truth_same = GroundTruthSeries(
        {r["year"]: (r["favorable_pct"], r["unfavorable_pct"]) for r in rows})
    truth_shift = GroundTruthSeries(
        {r["year"]: (r["favorable_pct"] + 5.0, r["unfavorable_pct"] + 5.0)
         for r in rows})
    assert mae(rows, truth_same)["both_averaged"] == 0.0
    assert mae(rows, truth_shift)["both_averaged"] == pytest.approx(5.0)
    assert mae(rows, truth_shift)["favorable"] == pytest.approx(5.0)

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _verdict(1, f"equation worked examples exact, {elapsed:.2f}s < 1s")


# --- criterion 2: byte-identical reruns ---


def test_criterion_2_deterministic_reruns(make_config):
    t0 = time.monotonic()
    first = make_config(n_agents=20, years=(2005, 2009))
    second = dataclasses.replace(first, out_dir=first.out_dir + "-again")
    run(first)
    run(second)
    compared = ("results.json", "replay.jsonl", "attitudes.svg",
                "mean_score.svg", "domain_influence.svg")
    for name in compared:
        a = (Path(first.out_dir) / name).read_bytes()
        b = (Path(second.out_dir) / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _verdict(2, f"20 agents x 5 years reruns byte-identical across "
                f"{len(compared)} artifacts, {elapsed:.1f}s < 30s")


# --- criterion 3: profile pipeline invariants ---


def test_criterion_3_profile_pipeline(tmp_path, fixtures_dir, taxonomy, open_gateway):
    social_path = fixtures_dir / "social_records.jsonl"
    survey_path = fixtures_dir / "survey_records.jsonl"
    gateway = open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "b.jsonl")
    profiles, report = build_profiles(
        social_path, survey_path, taxonomy, gateway,
        out_path=tmp_path / "profiles.json")

    social_by_id = {
        json.loads(line)["record_id"]: json.loads(line)
        for line in social_path.read_text().splitlines()
    }
    n_survey = len(survey_path.read_text().splitlines())

    for profile in profiles:
        validate_profile(profile, taxonomy)  # includes the 50-field arity
        assert profile.provenance["compromised_feature"] in (
            None, "gender", "race", "party")
        social = social_by_id[profile.provenance["social_record_id"]]
        assert state_to_region(social["state"]) == profile.demographics["region"]

    assert report["matched"] == len(profiles)
    assert report["matched"] + len(report["unmatched"]) == n_survey
    assert "region" not in report["compromised"]
    assert sum(report["compromised"].values()) == report["matched"]
    _verdict(3, f"{report['matched']} matched + {len(report['unmatched'])} "
                f"unmatched = {n_survey} records; all profiles valid")


# --- criterion 4: corpus relevance gate ---


def test_criterion_4_corpus_gate(fixtures_dir):
    index, report = ingest(fixtures_dir / "corpus_with_rejects.jsonl")
    for article_id in synthgen.REJECTED_IDS:
        with pytest.raises(CorpusError):
            index.get(article_id)
    assert report.rejected.get("criterion") == len(synthgen.REJECTED_IDS)
    assert len(index) == 9
    assert index.get("art-r-003").article_id == "art-r-003"  # subheader match

    stats = corpus_stats(index)
    total_pct = sum(stats["source_pct"].values())
    assert abs(total_pct - 100.0) <= 0.1
    _verdict(4, f"exactly {len(synthgen.REJECTED_IDS)} off-topic rows rejected; "
                f"source percentages sum to {total_pct:.2f}")


# --- criterion 5: ablation structure ---


def test_criterion_5_ablation_structure(make_config):
    def run_ablation(name):
        config = make_config(n_agents=5, years=(2005, 2006), ablation=name)
        bundle = run(config)
        assert len(bundle["years"]) == 2
        return config.out_dir

    out = run_ablation("no_selection")
    records = _replay_records(out)
    assert all(r["schema"] != "selection_list" for r in records)
    report = json.loads((Path(out) / "run_report.json").read_text())
    assert "selection_list" not in report["request_counts"]

    out = run_ablation("title_only")
    reflections = [r for r in _replay_records(out)
                   if r["schema"] == "reflection_update"]
    assert reflections
    for record in reflections:
        content_lines = [line for line in record["user"].splitlines()
                         if line.startswith("Content:")]
        assert content_lines and all(line.strip() == "Content:"
                                     for line in content_lines)

    out = run_ablation("no_cognitive")
    updates = read_update_logs(Path(out))
    assert updates and all(u["action"] == "none" for u in updates)
    for record in _replay_records(out):
        if record["schema"] == "reflection_update":
            assert all(entry["action"] == "none"
                       for entry in parse_structured(record["schema"], record["raw_response"])
                       ["domains"].values())

    out = run_ablation("no_profile")
    reflections = [r for r in _replay_records(out)
                   if r["schema"] == "reflection_update"]
    assert reflections
    assert all("(no profile available)" in r["user"] for r in reflections)
    _verdict(5, "no_selection/title_only/no_cognitive/no_profile signatures "
                "all verified via the replay log")


# --- criterion 6: directional intervention effect ---


def test_criterion_6_intervention_ordering(make_config):
    t0 = time.monotonic()

    # precondition: the fixture corpus leans negative
    index, _ = ingest(make_config().corpus_path)
    lex = load_lexicon()
    texts = [article.full_text for article in index.store.values()]
    negative_share = sum(mock_sentiment(t, lex) < 0 for t in texts) / len(texts)
    assert negative_share >= 0.70

    finals = {}
    firsts = {}
    for intervention in ("baseline", "debias", "devils_advocate"):
        config = make_config(n_agents=20, years=(2005, 2014),
                             intervention=intervention)
        bundle = run(config)
        finals[intervention] = bundle["years"][-1]
        firsts[intervention] = bundle["years"][0]

    assert finals["debias"]["mean_response"] >= finals["baseline"]["mean_response"]
    assert finals["devils_advocate"]["mean_response"] >= finals["baseline"]["mean_response"]
    assert finals["baseline"]["favorable_pct"] < firsts["baseline"]["favorable_pct"]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _verdict(6, "final mean response debias "
                f"{finals['debias']['mean_response']:.2f} and devils_advocate "
                f"{finals['devils_advocate']['mean_response']:.2f} >= baseline "
                f"{finals['baseline']['mean_response']:.2f}; favorable fell "
                f"{firsts['baseline']['favorable_pct']:.0f}% -> "
                f"{finals['baseline']['favorable_pct']:.0f}%; {elapsed:.1f}s < 120s")


# --- criterion 7: default-shape scale smoke ---


@pytest.fixture(scope="module")
def default_shape_inputs(tmp_path_factory, taxonomy):
    """120-agent population and a 5000-article corpus, built once."""
    root = tmp_path_factory.mktemp("scale")
    social, survey = synthgen.population(
        n_exact=120, n_compromised=0, n_unmatched=0, n_extra_social=0)
    synthgen.write_jsonl(root / "social.jsonl", social)
    synthgen.write_jsonl(root / "survey.jsonl", survey)
    synthgen.write_jsonl(root / "corpus.jsonl", synthgen.mixed_corpus())
    gateway = Gateway(BackendConfig(mode="mock"), log_path=root / "b.jsonl")
    try:
        build_profiles(root / "social.jsonl", root / "survey.jsonl", taxonomy,
                       gateway, out_path=root / "profiles.json")
    finally:
        gateway.close()
    return root


def test_criterion_7_default_shape_scale(default_shape_inputs):
    t0 = time.monotonic()
    root = default_shape_inputs
    config = RunConfig(
        seed=7, years=(2005, 2024), n_agents=100,
        corpus_path=str(root / "corpus.jsonl"),
        profiles_path=str(root / "profiles.json"),
        out_dir=str(root / "run"),
    )
    bundle = run(config)
    assert len(bundle["years"]) == 20 and bundle["skipped_years"] == []

    out = Path(config.out_dir)
    report = json.loads((out / "run_report.json").read_text())
    assert report["agents"] == 100
    assert report["payload_count"] == 20_000
    for name in ("results.json", "results.csv", "replay.jsonl",
                 "checkpoint.json", "run_report.json", "attitudes.svg",
                 "mean_score.svg", "domain_influence.svg",
                 "domain_influence.csv", "demographics.csv"):
        assert (out / name).exists(), name
    assert len(list(out.glob("updates_*.jsonl"))) == 20
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _verdict(7, f"100 agents x 20 years processed exactly "
                f"{report['payload_count']} payloads, {elapsed:.1f}s < 600s")


# --- criterion 8: resume equivalence ---


def test_criterion_8_resume_equivalence(make_config):
    straight = make_config(n_agents=10, years=(2005, 2010))
    run(straight)

    cut = dataclasses.replace(straight, out_dir=straight.out_dir + "-cut")
    partial = run(cut, stop_after_year=2007)  # killed after year 3 of 6
    assert partial["interrupted_after"] == 2007
    resume(cut.out_dir)

    a = (Path(straight.out_dir) / "results.json").read_bytes()
    b = (Path(cut.out_dir) / "results.json").read_bytes()
    assert a == b
    _verdict(8, "results.json after kill-at-year-3 + resume byte-identical "
                "to the uninterrupted 6-year run")
