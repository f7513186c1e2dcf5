"""End-to-end run driver: config identity, artifacts, resume, and the CLI."""

import contextlib
import dataclasses
import hashlib
import itertools
import json
import logging
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import newsdrift
from newsdrift import (cli, distribution, interventions, orchestrator, outputs, prompts,
                       reflection, surveys)
from newsdrift.errors import ConfigError, ResumeError
from newsdrift.gateway import BackendConfig, Gateway, parse_structured
from newsdrift.modes import INTERVENTIONS
from newsdrift.orchestrator import RunConfig, resume, run
from newsdrift.surveys import MAE_BASES

YEAR_KEYS = {"year", "favorable_pct", "unfavorable_pct", "mean_response",
             "mean_valence", "agents"}


def _read(path: Path) -> bytes:
    return Path(path).read_bytes()


# --- configuration identity ---


def test_validate_rejects_reversed_years(make_config):
    with pytest.raises(ConfigError):
        make_config(years=(2010, 2005)).validate()


def test_validate_rejects_nonpositive_agents(make_config):
    with pytest.raises(ConfigError):
        make_config(n_agents=0).validate()


def test_validate_rejects_reads_beyond_offer(make_config):
    with pytest.raises(ConfigError):
        make_config(headlines_per_agent=5, reads_per_year=6).validate()


def test_validate_rejects_oversized_batch(make_config):
    with pytest.raises(ConfigError):
        make_config(batch_size=11).validate()


def test_validate_requires_input_paths(make_config):
    with pytest.raises(ConfigError):
        dataclasses.replace(make_config(), corpus_path=None).validate()


def test_combined_ablation_flags_rejected(make_config):
    # a run removes at most one component, so a combination names no ablation
    for ablation in ("no_profile+title_only", ["no_profile", "title_only"], "no_everything"):
        with pytest.raises(ConfigError, match="unknown ablation"):
            make_config(ablation=ablation)
    with pytest.raises(ConfigError, match="unknown ablation"):
        make_config().with_overrides(ablation="no_everything")
    with pytest.raises(ConfigError, match="unknown intervention"):
        dataclasses.replace(make_config(), intervention="propaganda")


def test_config_hash_ignores_out_dir(make_config):
    a = make_config()
    b = dataclasses.replace(a, out_dir=a.out_dir + "-elsewhere")
    assert a.config_hash() == b.config_hash()


def test_config_hash_tracks_run_parameters(make_config):
    base = make_config()
    assert dataclasses.replace(base, seed=8).config_hash() != base.config_hash()
    assert base.with_overrides(intervention="debias").config_hash() != base.config_hash()
    assert base.with_overrides(ablation="no_profile").config_hash() != base.config_hash()


def test_config_hash_tracks_backend_mode_but_not_replay_path(make_config):
    base = make_config()
    replaying = dataclasses.replace(
        base, backend=BackendConfig(mode="replay", replay_log="a.jsonl"))
    assert replaying.config_hash() != base.config_hash()
    moved = dataclasses.replace(
        base, backend=BackendConfig(mode="replay", replay_log="b.jsonl"))
    assert moved.config_hash() == replaying.config_hash()


def test_canonical_form_is_json_round_trippable(make_config):
    doc = make_config().canonical()
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc
    assert "out_dir" not in doc


def test_from_canonical_rebuilds_equivalent_config(make_config):
    base = make_config()
    rebuilt = RunConfig.from_canonical(base.canonical(), out_dir="elsewhere")
    assert rebuilt.config_hash() == base.config_hash()


def test_from_file_and_overrides(tmp_path, make_config):
    base = make_config()
    doc = {
        "seed": 11,
        "years": [2005, 2006],
        "n_agents": 3,
        "intervention": "debias",
        "ablation": "title_only",
        "paths": {
            "corpus": base.corpus_path,
            "profiles": base.profiles_path,
            "out_dir": str(tmp_path / "from-file"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = RunConfig.from_file(path)
    assert (config.seed, config.n_agents) == (11, 3)
    assert config.years == (2005, 2006)
    assert config.intervention == "debias"
    assert config.ablation == "title_only"
    assert config.out_dir == str(tmp_path / "from-file")

    overridden = config.with_overrides(seed=99, ablation="none",
                                       intervention="baseline")
    assert overridden.seed == 99 and overridden.ablation == "none"
    assert config.seed == 11  # original untouched


def test_from_file_names_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"interventon": "debias", "n_agent": 5,
                                "paths": {"groundtruth": "x"}}))
    with pytest.raises(ConfigError,
                       match="unknown config keys .*: interventon, n_agent, paths.groundtruth$"):
        RunConfig.from_file(path)
    for doc in ([], {"paths": "corpus.jsonl"}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="a run config is a JSON object"):
            RunConfig.from_file(path)


def test_either_mode_spelling_is_one_run(tmp_path, make_config):
    base = make_config(n_agents=2)
    configs = []
    for spelling in ("devils-advocate", "devils_advocate"):
        path = tmp_path / f"{spelling}.json"
        path.write_text(json.dumps({
            "n_agents": 2, "intervention": spelling,
            "ablation": "title-only" if "-" in spelling else "title_only",
            "paths": {"corpus": base.corpus_path, "profiles": base.profiles_path,
                      "out_dir": str(tmp_path / spelling)}}))
        configs.append(RunConfig.from_file(path))
    hyphens, underscores = configs
    assert (hyphens.intervention, hyphens.ablation) == ("devils_advocate", "title_only")
    assert hyphens.canonical() == underscores.canonical()
    assert hyphens.config_hash() == underscores.config_hash()

    # a run named one way resumes under a config file that spells it the other way
    run(underscores, stop_after_year=2005)
    bundle = resume(underscores.out_dir, dataclasses.replace(hyphens, out_dir=underscores.out_dir))
    assert bundle["intervention"] == "devils_advocate" and bundle["ablation"] == "title_only"
    assert bundle == run(hyphens)


# --- full runs ---


def test_smoke_run_produces_bundle_and_artifacts(make_config):
    config = make_config(n_agents=2)
    bundle = run(config)
    assert [r["year"] for r in bundle["years"]] == [2005, 2006]
    assert all(set(r) == YEAR_KEYS for r in bundle["years"])
    assert bundle["config_hash"] == config.config_hash()
    assert bundle["skipped_years"] == []
    assert bundle["mae"] is None  # no ground truth configured

    out = Path(config.out_dir)
    for name in ("results.json", "results.csv", "replay.jsonl",
                 "checkpoint.json", "run_report.json", "attitudes.svg",
                 "mean_score.svg", "domain_influence.svg",
                 "domain_influence.csv", "demographics.csv",
                 "updates_2005.jsonl", "updates_2006.jsonl"):
        assert (out / name).exists(), name
    assert (out / "trace" / "year_2005.jsonl").exists()
    assert json.loads((out / "results.json").read_text()) == bundle


def test_run_report_accounting(make_config):
    config = make_config(n_agents=2)
    run(config)
    report = json.loads((Path(config.out_dir) / "run_report.json").read_text())
    assert report["agents"] == 2
    assert report["years_completed"] == [2005, 2006]
    # 60 articles per fixture year, so every agent sees a full 50-headline offer
    assert report["offer_count"] == 2 * 2 * 50
    assert report["payload_count"] == 2 * 2 * 10
    # one selection, one reflection batch, one survey per agent-year
    assert report["request_counts"] == {
        "reflection_update": 4, "selection_list": 4, "survey_answer": 4}
    assert report["fallback_counts"] == {}
    assert report["replay_lines"] == 12
    assert report["corpus_accepted"] == 600


def test_identical_configs_reproduce_identical_bytes(make_config):
    first = make_config(n_agents=3)
    second = dataclasses.replace(first, out_dir=first.out_dir + "-b")
    run(first)
    run(second)
    for name in ("results.json", "replay.jsonl", "results.csv",
                 "attitudes.svg", "mean_score.svg", "domain_influence.svg"):
        assert _read(Path(first.out_dir) / name) == _read(Path(second.out_dir) / name), name


def test_empty_leading_year_is_skipped(make_config):
    config = make_config(years=(2004, 2005))
    bundle = run(config)
    assert bundle["skipped_years"] == [2004]
    assert [r["year"] for r in bundle["years"]] == [2005]

    # empty years before and after a stop are derived again at the end
    straight = make_config(n_agents=2, years=(2004, 2015))
    bundle = run(straight)
    assert bundle["skipped_years"] == [2004, 2015]
    cut = dataclasses.replace(straight, out_dir=straight.out_dir + "-cut")
    run(cut, stop_after_year=2005)
    assert resume(cut.out_dir) == bundle
    assert json.loads((Path(cut.out_dir) / "run_report.json").read_text())["years_skipped"] == [
        2004, 2015]
    assert _tree(Path(cut.out_dir)) == _tree(Path(straight.out_dir))


def test_mae_reported_when_truth_overlaps(make_config, fixtures_dir):
    config = make_config(
        n_agents=2, ground_truth_path=str(fixtures_dir / "ground_truth.csv"))
    bundle = run(config)
    assert set(bundle["mae"]) == set(MAE_BASES)
    assert all(v >= 0.0 for v in bundle["mae"].values())


def test_rerun_into_same_dir_replaces_stale_outputs(make_config):
    config = make_config(n_agents=2)
    run(config)
    stale = Path(config.out_dir) / "updates_1999.jsonl"
    stale.write_text("{}\n")
    bundle = run(config)
    assert not stale.exists()
    assert [r["year"] for r in bundle["years"]] == [2005, 2006]


# --- interruption and resume ---


def test_interrupted_run_resumes_to_identical_results(make_config):
    straight = make_config(n_agents=2, years=(2005, 2008))
    run(straight)

    broken = dataclasses.replace(straight, out_dir=straight.out_dir + "-cut")
    partial = run(broken, stop_after_year=2006)
    assert partial == {"interrupted_after": 2006, "out_dir": broken.out_dir}
    assert not (Path(broken.out_dir) / "results.json").exists()

    bundle = resume(broken.out_dir)
    assert [r["year"] for r in bundle["years"]] == [2005, 2006, 2007, 2008]
    for name in ("results.json", "replay.jsonl", "results.csv"):
        assert _read(Path(broken.out_dir) / name) == _read(Path(straight.out_dir) / name), name


def test_resume_accepts_matching_config(make_config):
    config = make_config(n_agents=2)
    run(config, stop_after_year=2005)
    bundle = resume(config.out_dir, config)
    assert [r["year"] for r in bundle["years"]] == [2005, 2006]


def test_resume_rejects_drifted_config(make_config):
    config = make_config(n_agents=2)
    run(config, stop_after_year=2005)
    with pytest.raises(ResumeError, match="seed"):
        resume(config.out_dir, dataclasses.replace(config, seed=8))


def test_resume_rejects_changed_input_file(make_config, tmp_path):
    moved = tmp_path / "corpus-copy.jsonl"
    template = make_config()
    moved.write_bytes(Path(template.corpus_path).read_bytes())
    config = dataclasses.replace(template, corpus_path=str(moved), n_agents=2)
    run(config, stop_after_year=2005)
    with moved.open("a") as fh:
        fh.write("\n")
    with pytest.raises(ResumeError, match="corpus"):
        resume(config.out_dir)


def test_resume_rejects_changed_prompt_templates(make_config, monkeypatch):
    config = make_config(n_agents=2)
    run(config, stop_after_year=2005)
    edited = prompts.template_bytes() + b"\n"
    monkeypatch.setattr(prompts, "template_bytes", lambda: edited)
    with pytest.raises(ResumeError, match="prompts"):
        resume(config.out_dir)
    # a checkpoint written before templates were fingerprinted still resumes
    ck_path = Path(config.out_dir) / "checkpoint.json"
    ck = json.loads(ck_path.read_text())
    del ck["fingerprints"]["prompts"]
    ck_path.write_text(json.dumps(ck))
    assert [r["year"] for r in resume(config.out_dir)["years"]] == [2005, 2006]


def test_fallbacks_are_counted_and_survive_resume(make_config, tmp_path):
    recorded = make_config(n_agents=2)
    run(recorded)
    records = [json.loads(line) for line in
               (Path(recorded.out_dir) / "replay.jsonl").read_text().splitlines()]
    survey = next(r for r in records if r["tag"].startswith("survey:"))
    survey.update(ok=False, raw_response="no opinion")
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("".join(json.dumps(r) + "\n" for r in records))

    backend = BackendConfig(mode="replay", replay_log=str(tampered))
    straight = make_config(n_agents=2, backend=backend)
    run(straight)
    cut = make_config(n_agents=2, backend=backend)
    run(cut, stop_after_year=2005)
    resume(cut.out_dir, cut)

    a, b = Path(straight.out_dir), Path(cut.out_dir)
    report = json.loads((a / "run_report.json").read_text())
    assert report["fallback_counts"] == {"survey_answer": 1}
    for name in ("run_report.json", "results.json"):
        assert _read(a / name) == _read(b / name), name


# each mock rule a replay must not run; the ranking runs only on a repair or a fallback
MOCK_RULES = ((distribution, "mock_ranking"), (reflection, "_mock_outcome"),
              (interventions, "mock_debias_text"), (interventions, "_mock_critique"),
              (surveys, "mock_survey_response"))


def _forbid_mock_rules(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a replay computed a mock answer")
    for module, name in MOCK_RULES:
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("intervention", INTERVENTIONS)
def test_a_replay_computes_no_mock_answer(make_config, monkeypatch, intervention):
    recorded = make_config(n_agents=3, intervention=intervention)
    mock_years = run(recorded)["years"]
    _forbid_mock_rules(monkeypatch)
    replay = BackendConfig(mode="replay", replay_log=str(Path(recorded.out_dir) / "replay.jsonl"))
    assert run(make_config(n_agents=3, intervention=intervention, backend=replay))["years"] \
        == mock_years


def test_a_replay_ranks_only_the_selections_it_repairs_or_falls_back_on(make_config, tmp_path,
                                                                        monkeypatch):
    recorded = make_config(n_agents=3)
    mock_years = run(recorded)["years"]
    records = [json.loads(line) for line in
               (Path(recorded.out_dir) / "replay.jsonl").read_text().splitlines()]
    short, failed = [r for r in records if r["tag"].startswith("select:")][1:3]
    # the first pick alone: the ranking fills the rest, so the run reads what it read
    picks = parse_structured(short["schema"], short["raw_response"])
    short.update(raw_response=json.dumps(picks[:1]))
    failed.update(ok=False, raw_response="no picks today")
    scripted = tmp_path / "scripted.jsonl"
    scripted.write_text("".join(json.dumps(r) + "\n" for r in records))

    ranking, ranked = distribution.mock_ranking, []
    _forbid_mock_rules(monkeypatch)

    def counted(profile, offer, *rest):
        ranked.append(f"select:{offer.year}:{offer.agent_id}")
        return ranking(profile, offer, *rest)
    monkeypatch.setattr(distribution, "mock_ranking", counted)
    replay = BackendConfig(mode="replay", replay_log=str(scripted))
    assert run(make_config(n_agents=3, backend=replay))["years"] == mock_years
    assert ranked == [short["tag"], failed["tag"]]


def test_a_replay_run_resumes_only_with_its_config(make_config):
    """The checkpoint keeps no replay_log path, so the error names the checkpoint
    and --config instead of the missing path."""
    recorded = make_config(n_agents=2)
    run(recorded)
    replay = BackendConfig(mode="replay", replay_log=str(Path(recorded.out_dir) / "replay.jsonl"))
    cut = make_config(n_agents=2, backend=replay)
    run(cut, stop_after_year=2005)
    out_dir = Path(cut.out_dir)
    files = _tree(out_dir)
    with pytest.raises(ResumeError, match=re.escape(
            f"checkpoint {out_dir / 'checkpoint.json'} is of a replay run, which resumes "
            f"only with --config")):
        resume(out_dir)
    assert _tree(out_dir) == files
    assert [r["year"] for r in resume(out_dir, cut)["years"]] == [2005, 2006]


def test_each_finished_year_logs_one_progress_line(make_config, tmp_path, caplog, monkeypatch):
    """A year's line gives what counters() gives as it is logged: on a mock run, and on
    a replay that falls back, straight and resumed."""
    caplog.set_level(logging.INFO, logger="newsdrift.orchestrator")
    gateways, at_lines = [], []

    class Kept(Gateway):  # the run's gateway, read as each progress line is logged
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            gateways.append(self)

    class AtLine(logging.Handler):
        def emit(self, record):
            if " done in " in record.getMessage():
                counts = gateways[-1].counters()
                at_lines.append((sum(counts["request_counts"].values()),
                                 sum(counts["fallback_counts"].values())))

    monkeypatch.setattr(orchestrator, "Gateway", Kept)
    logger, handler = logging.getLogger("newsdrift.orchestrator"), AtLine()
    logger.addHandler(handler)
    try:
        config = make_config(n_agents=2)
        run(config)
        records = [json.loads(line) for line in
                   (Path(config.out_dir) / "replay.jsonl").read_text().splitlines()]
        survey = next(r for r in records if r["tag"].startswith("survey:"))
        survey.update(ok=False, raw_response="no opinion")
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("".join(json.dumps(r) + "\n" for r in records))
        backend = BackendConfig(mode="replay", replay_log=str(tampered))
        run(make_config(n_agents=2, backend=backend))
        cut = make_config(n_agents=2, backend=backend)
        run(cut, stop_after_year=2005)
        resume(cut.out_dir, cut)
    finally:
        logger.removeHandler(handler)
    lines = [re.fullmatch(r"year (\d+) done in [\d.]+ s: (\d+) exchanges and (\d+) fallbacks "
                          r"so far", record.getMessage())
             for record in caplog.records if record.name == "newsdrift.orchestrator"]
    done = [tuple(map(int, line.groups())) for line in lines if line]
    report = json.loads((Path(config.out_dir) / "run_report.json").read_text())
    # 2 agents, each one selection, one reflection and one survey a year; the
    # replays fall back on the first survey
    assert done == [(2005, 6, 0), (2006, 12, 0)] + [(2005, 6, 1), (2006, 12, 1)] * 2
    assert sum(report["request_counts"].values()) == 12
    assert [line[1:] for line in done] == at_lines


def test_resume_without_checkpoint_fails(tmp_path):
    with pytest.raises(ResumeError):
        resume(tmp_path / "nowhere")


def test_resume_of_complete_run_is_a_noop(make_config):
    config = make_config(n_agents=2)
    bundle = run(config)
    replay_before = _read(Path(config.out_dir) / "replay.jsonl")
    assert resume(config.out_dir) == bundle
    assert _read(Path(config.out_dir) / "replay.jsonl") == replay_before


def test_resume_can_be_interrupted_again(make_config):
    config = make_config(n_agents=2, years=(2005, 2008))
    run(config, stop_after_year=2005)
    partial = resume(config.out_dir, stop_after_year=2007)
    assert partial["interrupted_after"] == 2007
    bundle = resume(config.out_dir)
    assert [r["year"] for r in bundle["years"]] == [2005, 2006, 2007, 2008]


def test_new_run_killed_in_first_year_never_resumes_the_old_run(make_config, monkeypatch):
    done = make_config(n_agents=2)
    assert run(done)["seed"] == 7

    class Killed(Exception):
        pass

    def killed(*args, **kwargs):
        raise Killed()

    restart = dataclasses.replace(done, seed=1007)
    with monkeypatch.context() as patch:
        patch.setattr(orchestrator, "reflect_batch", killed)
        with pytest.raises(Killed):
            run(restart)
    out = Path(done.out_dir)
    assert not (out / "results.json").exists()
    assert not (out / "attitudes.svg").exists()
    assert json.loads((out / "checkpoint.json").read_text())["complete"] is False

    bundle = resume(done.out_dir)
    assert bundle["seed"] == 1007
    fresh = make_config(n_agents=2, seed=1007)
    assert bundle == run(fresh)
    for name in ("results.json", "replay.jsonl"):
        assert _read(out / name) == _read(Path(fresh.out_dir) / name), name


def test_final_artifacts_lists_every_other_output(make_config, fixtures_dir):
    config = make_config(
        n_agents=2, ground_truth_path=str(fixtures_dir / "ground_truth.csv"))
    run(config)
    out = Path(config.out_dir)
    kept = {orchestrator.CHECKPOINT_NAME, orchestrator.REPLAY_NAME, "trace"}
    written = {p.name for p in out.iterdir()
               if p.name not in kept and not p.match("updates_*.jsonl")}
    assert written == set(orchestrator.FINAL_ARTIFACTS)


def test_checkpoint_holds_live_state_not_results(make_config):
    config = make_config(n_agents=2, intervention="debias")
    run(config, stop_after_year=2005)
    ck_path = Path(config.out_dir) / "checkpoint.json"
    partial = json.loads(ck_path.read_text())
    assert "results" not in partial
    assert partial["completed_years"] == [2005] and partial["debias_cache"]
    resume(config.out_dir)
    final = json.loads(ck_path.read_text())
    assert "results" not in final and final["complete"] is True
    assert set(final["states"]) == set(final["agent_ids"])
    # counts and skipped years are derived from the traces and the corpus, and the
    # config's hash from the config
    assert not {"offer_count", "payload_count", "skipped_years", "config_hash"} & set(final)
    assert all(set(state) == {"agent_id", "valences", "exposures", "last_response"}
               for state in final["states"].values())


def test_a_checkpoint_with_derived_keys_resumes_to_the_straight_run(make_config):
    # a checkpoint as written before the counts and skipped years were derived,
    # its config listed field by field and its inputs hashed role by role
    straight = make_config(n_agents=2, years=(2004, 2006), intervention="debias")
    run(straight)
    cut = dataclasses.replace(straight, out_dir=straight.out_dir + "-cut")
    run(cut, stop_after_year=2005)
    ck_path = Path(cut.out_dir) / "checkpoint.json"
    ck = json.loads(ck_path.read_text())
    ck.update(offer_count=2 * 50, payload_count=2 * 10, skipped_years=[2004])
    for state in ck["states"].values():
        state["year_cursor"] = 2005
    backend = {"mode": "mock", "base_url": "", "model_name": "",
               "api_key_env_var": "NEWSDRIFT_API_KEY", "max_attempts": 3,
               "backoff_seconds": [1.0, 2.0, 4.0], "timeout_seconds": 60.0,
               "temperature": 0.7, "max_tokens": 1024}
    ck["config"] = {"seed": 7, "years": [2004, 2006], "n_agents": 2, "headlines_per_agent": 50,
                    "reads_per_year": 10, "batch_size": 10, "intervention": "debias",
                    "ablation": "none", "backend": backend, "corpus_path": straight.corpus_path,
                    "profiles_path": straight.profiles_path, "ground_truth_path": None,
                    "taxonomy_path": None, "lexicon_path": None}
    ck["config_hash"] = hashlib.sha256(
        json.dumps(ck["config"], sort_keys=True).encode("utf-8")).hexdigest()
    data = Path(newsdrift.__file__).parent / "data"
    files = {"corpus": straight.corpus_path, "profiles": straight.profiles_path,
             "taxonomy": data / "taxonomy.json", "lexicon": data / "lexicon.json"}
    ck["fingerprints"] = {role: hashlib.sha256(_read(path)).hexdigest()
                          for role, path in files.items()}
    ck["fingerprints"]["prompts"] = hashlib.sha256(prompts.template_bytes()).hexdigest()
    ck_path.write_text(json.dumps(ck))
    resume(cut.out_dir, dataclasses.replace(straight, out_dir=cut.out_dir))
    assert _tree(Path(cut.out_dir)) == _tree(Path(straight.out_dir))
    results = json.loads((Path(cut.out_dir) / "results.json").read_text())
    assert results["config_hash"] == ck["config_hash"]


@pytest.mark.parametrize("counts", [5, {"survey_answer": "x"}])
def test_a_checkpoint_with_stale_counts_resumes_to_the_straight_run(make_config, counts):
    """The exchanges are counted again from the replay log; a checkpoint's own
    counts, as written before that, are never read."""
    straight = make_config(n_agents=2, intervention="debias")
    run(straight)
    cut = dataclasses.replace(straight, out_dir=straight.out_dir + "-cut")
    run(cut, stop_after_year=2005)
    ck_path = Path(cut.out_dir) / "checkpoint.json"
    ck = json.loads(ck_path.read_text())
    ck.update(request_counts=counts, fallback_counts=counts)
    ck_path.write_text(json.dumps(ck))
    resume(cut.out_dir)
    for name in ("results.json", "run_report.json"):
        assert _read(Path(cut.out_dir) / name) == _read(Path(straight.out_dir) / name), name
    assert not {"request_counts", "fallback_counts"} & set(json.loads(ck_path.read_text()))


def _with_parsed(lines: str) -> str:
    """Replay-log lines as written before records dropped ``parsed``, the
    value parsed from each record's raw response."""
    return "".join(json.dumps({**r, "parsed": parse_structured(r["schema"], r["raw_response"])})
                   + "\n" for r in map(json.loads, lines.splitlines()))


def test_a_log_whose_records_carry_parsed_replays_to_the_same_results(make_config, tmp_path):
    recorded = make_config(n_agents=2, intervention="debias")
    run(recorded)
    log = Path(recorded.out_dir) / "replay.jsonl"
    old = tmp_path / "old.jsonl"
    old.write_text(_with_parsed(log.read_text()))
    replays = [make_config(n_agents=2, intervention="debias",
                           backend=BackendConfig(mode="replay", replay_log=str(path)))
               for path in (log, old)]
    for config in replays:
        run(config)
    for name in ("results.json", "run_report.json"):
        assert _read(Path(replays[0].out_dir) / name) == _read(Path(replays[1].out_dir) / name)


def test_a_run_kept_with_parsed_and_config_hash_resumes_to_the_straight_run(make_config):
    """A log whose kept records carry ``parsed`` and a checkpoint carrying
    ``config_hash``, as written before both were dropped, resume; the records
    written after the cut carry no ``parsed``."""
    straight = make_config(n_agents=2, intervention="debias")
    run(straight)
    cut = dataclasses.replace(straight, out_dir=straight.out_dir + "-cut")
    run(cut, stop_after_year=2005)
    out = Path(cut.out_dir)
    ck = json.loads((out / "checkpoint.json").read_text())
    ck["config_hash"] = cut.config_hash()
    (out / "checkpoint.json").write_text(json.dumps(ck))
    (out / "replay.jsonl").write_text(_with_parsed((out / "replay.jsonl").read_text()))
    resume(cut.out_dir)
    resumed, expected = _tree(out), _tree(Path(straight.out_dir))
    records = [json.loads(line) for line in resumed.pop("replay.jsonl").splitlines()]
    kept = ck["replay_lines"]
    assert all("parsed" in r for r in records[:kept])
    assert records[kept:] and not any("parsed" in r for r in records[kept:])
    assert [{key: r[key] for key in r if key != "parsed"} for r in records] \
        == [json.loads(line) for line in expected.pop("replay.jsonl").splitlines()]
    assert resumed == expected


@pytest.mark.parametrize("damage", ["delete", "drop_agent", "torn_line"])
def test_resume_refuses_a_damaged_trace_of_a_completed_year(make_config, damage):
    config = make_config(n_agents=2)
    run(config, stop_after_year=2005)
    trace = Path(config.out_dir) / "trace" / "year_2005.jsonl"
    if damage == "delete":
        trace.unlink()
    elif damage == "drop_agent":
        trace.write_text(trace.read_text().splitlines()[0] + "\n")
    else:
        trace.write_text(trace.read_text()[:-9])
    files = _tree(Path(config.out_dir))
    with pytest.raises(ResumeError, match="2005"):
        resume(config.out_dir)
    assert not (Path(config.out_dir) / "results.json").exists()
    if damage == "delete":  # refused before anything is cut back or run
        assert _tree(Path(config.out_dir)) == files


# --- a kill at any write ---


class _Killed(BaseException):
    """The process dies here; no handler in the program may catch it."""


@contextlib.contextmanager
def _killed_at(n: int | None, tear: bool):
    """Number every checkpoint/artifact write and replay-log record from 0 and
    die at number n: before the write lands, or, with tear, after half of it
    (a torn .tmp file, or a replay-log line cut in two). Yields [writes so far]."""
    counter = [0]
    atomic_write, log = outputs.write_text, Gateway._log

    def dies() -> bool:
        counter[0] += 1
        return counter[0] - 1 == n

    def killable_write(path, text):
        if dies():
            if tear:
                path.with_suffix(path.suffix + ".tmp").write_text(text[:len(text) // 2])
            raise _Killed()
        atomic_write(path, text)

    def killable_log(self, *args):
        if not dies():
            return log(self, *args)
        if tear:
            log(self, *args)
            self.close()
            blob = self._log_path.read_bytes()
            last = blob.rstrip(b"\n").rfind(b"\n") + 1
            self._log_path.write_bytes(blob[:(last + len(blob)) // 2])
        raise _Killed()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(outputs, "write_text", killable_write)
        patch.setattr(Gateway, "_log", killable_log)
        yield counter


def _tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def kill_runs(tmp_path_factory, profiles_path, fixtures_dir):
    """Per intervention: a config factory, the uninterrupted run's files and its write count."""
    base = tmp_path_factory.mktemp("kills")
    dirs = itertools.count()

    def config(intervention):
        return RunConfig(seed=7, years=(2005, 2007), n_agents=2, reads_per_year=4, batch_size=2,
                         intervention=intervention,
                         corpus_path=str(fixtures_dir / "corpus_negative.jsonl"),
                         profiles_path=str(profiles_path), out_dir=str(base / str(next(dirs))))

    straight = {}
    for intervention in INTERVENTIONS:
        reference = config(intervention)
        with _killed_at(None, False) as writes:
            run(reference)
        straight[intervention] = (_tree(Path(reference.out_dir)), writes[0])
    return config, straight


@settings(max_examples=20, deadline=None)
@given(intervention=st.sampled_from(INTERVENTIONS),
       point=st.floats(0, 1, exclude_max=True), tear=st.booleans())
@example(intervention="baseline", point=0.0, tear=True)
def test_a_kill_at_any_write_resumes_to_the_uninterrupted_run(kill_runs, intervention,
                                                               point, tear):
    config, straight = kill_runs
    files, writes = straight[intervention]
    n = int(point * writes)
    killed = config(intervention)
    with _killed_at(n, tear), pytest.raises(_Killed):
        run(killed)
    if n == 0:
        # Deliberate: write 0 is run()'s first checkpoint, so nothing of this
        # run is on disk yet and there is nothing to resume; run it again.
        with pytest.raises(ResumeError, match="no checkpoint found"):
            resume(killed.out_dir)
        return
    resume(killed.out_dir)
    assert _tree(Path(killed.out_dir)) == files


def test_a_record_torn_inside_a_character_resumes_to_the_uninterrupted_run(kill_runs):
    """The kept lines are read before the cut-back, and nothing past them: a
    record torn inside the survey prompt's en dash is never decoded."""
    config, straight = kill_runs
    files, _ = straight["baseline"]
    killed = config("baseline")
    run(killed, stop_after_year=2005)
    log = Path(killed.out_dir) / "replay.jsonl"
    dash = "\u2013".encode("utf-8")
    survey = next(line for line in reversed(log.read_bytes().splitlines(keepends=True))
                  if b'"tag": "survey:' in line)
    with log.open("ab") as fh:
        fh.write(survey[:survey.index(dash) + 1])
    resume(killed.out_dir)
    assert _tree(Path(killed.out_dir)) == files


# --- command line ---


def _cli_config(tmp_path, make_config, **extra) -> Path:
    base = make_config()
    doc = {
        "seed": 7,
        "years": [2005, 2006],
        "n_agents": 2,
        "paths": {
            "corpus": base.corpus_path,
            "profiles": base.profiles_path,
            "out_dir": str(tmp_path / "cli-out"),
        },
    }
    doc.update(extra)
    path = tmp_path / "cli-config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_run_and_report(tmp_path, make_config, capsys):
    config_path = _cli_config(tmp_path, make_config)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "cli-out"
    assert (out_dir / "results.json").exists()

    assert cli.main(["report", "--out", str(out_dir)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["years"] == 2 and "domain_influence" in doc


def test_cli_report_recomputes_every_mae_basis_from_ground_truth(make_config, fixtures_dir,
                                                                  capsys):
    truth = str(fixtures_dir / "ground_truth.csv")
    config = make_config(n_agents=2, ground_truth_path=truth)
    run(config)
    results = json.loads((Path(config.out_dir) / "results.json").read_text())
    assert cli.main(["report", "--out", config.out_dir, "--ground-truth", truth]) == 0
    assert json.loads(capsys.readouterr().out)["mae"] == results["mae"]
    assert set(results["mae"]) == set(MAE_BASES)


def test_cli_report_gives_each_schemas_exchanges_and_latency(tmp_path, make_config, capsys):
    config = make_config(n_agents=2)
    run(config)
    log = Path(config.out_dir) / "replay.jsonl"
    records = [json.loads(line) for line in log.read_text("utf-8").splitlines()]
    survey, select = (next(r for r in records if r["schema"] == schema)
                      for schema in ("survey_answer", "selection_list"))
    scripted = [
        {**survey, "ok": False, "raw_response": "no opinion", "t_start": 10.0, "t_end": 10.5},
        {**survey, "t_start": 11.0, "t_end": 11.25},
        {**survey, "tag": "survey:other", "t_start": 12.0, "t_end": 14.0},
        {**select, "t_start": 20.0, "t_end": 20.125},
    ]
    log.write_text("".join(json.dumps(r) + "\n" for r in scripted), "utf-8")
    assert cli.main(["report", "--out", config.out_dir]) == 0
    assert json.loads(capsys.readouterr().out)["exchanges"] == {
        "selection_list": {"ok": 1, "failed": 0, "median_s": 0.125, "max_s": 0.125},
        "survey_answer": {"ok": 2, "failed": 1, "median_s": 0.5, "max_s": 2.0},
    }


@pytest.mark.parametrize("damage", ["missing", "torn_line", "no_times"])
def test_cli_report_refuses_a_missing_or_damaged_replay_log(make_config, caplog, damage):
    config = make_config(n_agents=2)
    run(config)
    log = Path(config.out_dir) / "replay.jsonl"
    lines = log.read_text("utf-8").splitlines(keepends=True)
    if damage == "missing":
        log.unlink()
    elif damage == "torn_line":
        log.write_text("".join(lines[:2]) + lines[2][:40], "utf-8")
    else:
        record = json.loads(lines[1])
        del record["t_end"]
        log.write_text(lines[0] + json.dumps(record) + "\n", "utf-8")
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="newsdrift"):
        assert cli.main(["report", "--out", config.out_dir]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and str(log) in errors[0], errors


def test_cli_reports_unknown_backend_key_as_an_error(tmp_path, make_config, caplog):
    config_path = _cli_config(tmp_path, make_config,
                              backend={"mode": "mock", "concurrency": 4})
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert "unknown backend keys: concurrency" in caplog.text


def test_cli_run_overrides_out_dir_and_seed(tmp_path, make_config):
    config_path = _cli_config(tmp_path, make_config)
    override_dir = tmp_path / "override-out"
    assert cli.main([
        "run", "--config", str(config_path),
        "--seed", "13", "--out", str(override_dir),
    ]) == 0
    bundle = json.loads((override_dir / "results.json").read_text())
    assert bundle["seed"] == 13


def test_cli_resume_finishes_interrupted_run(tmp_path, make_config):
    config_path = _cli_config(tmp_path, make_config)
    config = RunConfig.from_file(config_path)
    run(config, stop_after_year=2005)
    assert cli.main(["resume", "--out", config.out_dir,
                     "--config", str(config_path)]) == 0
    bundle = json.loads((Path(config.out_dir) / "results.json").read_text())
    assert [r["year"] for r in bundle["years"]] == [2005, 2006]


def test_cli_charts_regenerates_svgs(tmp_path, make_config, fixtures_dir):
    config_path = _cli_config(tmp_path, make_config)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    out_dir = tmp_path / "cli-out"
    (out_dir / "attitudes.svg").unlink()
    assert cli.main([
        "charts", "--out", str(out_dir),
        "--ground-truth", str(fixtures_dir / "ground_truth.csv"),
    ]) == 0
    assert (out_dir / "attitudes.svg").exists()


def test_cli_ingest_corpus_prints_stats(make_config, capsys):
    corpus = make_config().corpus_path
    assert cli.main(["ingest-corpus", "--corpus", corpus]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accepted"] == 600 and doc["stats"] is not None


def test_cli_build_profiles(tmp_path, fixtures_dir, capsys):
    out = tmp_path / "profiles.json"
    argv = [
        "build-profiles",
        "--social", str(fixtures_dir / "social_records.jsonl"),
        "--survey", str(fixtures_dir / "survey_records.jsonl"),
        "--out", str(out),
    ]
    # a second build replaces the first one's replay log instead of growing it
    for _ in range(2):
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matched"] == 27
        assert report["fallback_counts"] == {} and report["interest_rule_fallbacks"] == 0
        assert out.exists() and out.with_suffix(".report.json").exists()
        records = [json.loads(line) for line in
                   out.with_suffix(".replay.jsonl").read_text("utf-8").splitlines()]
        assert [r["seq"] for r in records] == list(range(1, 28))
        assert {r["schema"] for r in records} == {"interest_list"}


def test_cli_replayed_profile_build_writes_the_recorded_profiles(tmp_path, fixtures_dir,
                                                                 capsys):
    def build(name, *extra):
        assert cli.main(["build-profiles",
                         "--social", str(fixtures_dir / "social_records.jsonl"),
                         "--survey", str(fixtures_dir / "survey_records.jsonl"),
                         "--out", str(tmp_path / name), *extra]) == 0
        return json.loads(capsys.readouterr().out)

    recorded = build("recorded.json")
    assert recorded["request_counts"] == {"interest_list": 27}
    assert recorded["replay_lines"] == 27
    config = tmp_path / "replay-config.json"
    config.write_text(json.dumps({"backend": {
        "mode": "replay", "replay_log": str(tmp_path / "recorded.replay.jsonl")}}))
    assert build("replayed.json", "--config", str(config)) == recorded
    for suffix in (".json", ".report.json", ".replay.jsonl"):
        assert (_read(tmp_path / f"replayed{suffix}")
                == _read(tmp_path / f"recorded{suffix}")), suffix


_TRUTH_HEADER = "year,favorable_pct,unfavorable_pct\n"

# damage -> (command, the input it damages, that file's text or None for a
# missing file, what the logged error says besides the file's name). The
# input is a `paths` key of the run config or the config itself for `run`,
# --social for build-profiles, and a file of a run stopped after 2005 for
# report, charts and resume.
_BAD_INPUTS = {
    "config_missing": ("run", "config", None, "is not a readable JSON file"),
    "config_not_json": ("run", "config", "{", "is not a readable JSON file"),
    "config_attempts_not_a_number": ("run", "config", '{"backend": {"max_attempts": "3"}}',
                                     "max_attempts must be an integer of at least 1: '3'"),
    "config_backend_a_string": ("run", "config", '{"backend": "mock"}',
                                "the backend section must be an object: 'mock'"),
    "config_backend_null": ("run", "config", '{"backend": null}',
                            "the backend section must be an object: None"),
    "config_backend_a_number": ("run", "config", '{"backend": 5}',
                                "the backend section must be an object: 5"),
    "config_backend_a_list": ("run", "config", '{"backend": []}',
                              "the backend section must be an object: []"),
    "config_agents_not_an_integer": ("run", "config", '{"n_agents": "5"}',
                                     "n_agents must be an integer: '5'"),
    "config_agents_a_bool": ("run", "config", '{"n_agents": true}',
                             "n_agents must be an integer: True"),
    "config_seed_not_an_integer": ("run", "config", '{"seed": "7"}',
                                   "seed must be an integer: '7'"),
    "config_years_not_a_pair": ("run", "config", '{"years": 2010}',
                                "years must be two integers, first and last: 2010"),
    "config_year_not_an_integer": ("run", "config", '{"years": [2005, "2006"]}',
                                   "years must be two integers, first and last: [2005, '2006']"),
    "config_reads_not_an_integer": ("run", "config", '{"reads_per_year": 2.5}',
                                    "reads_per_year must be an integer: 2.5"),
    "config_reads_beyond_offer": ("run", "config", '{"reads_per_year": 60}',
                                  "reads_per_year must lie in [1, headlines_per_agent]"),
    "profiles_not_json": ("run", "profiles", "[", "is not a readable JSON file"),
    "profile_without_demographics": ("run", "profiles", '[{"agent_id": "a"}]',
                                     "entry 1 is not a profile: KeyError: 'demographics'"),
    "taxonomy_missing": ("run", "taxonomy", None, "is not a readable JSON file"),
    "taxonomy_not_json": ("run", "taxonomy", "{", "is not a readable JSON file"),
    "taxonomy_without_topics": ("run", "taxonomy", "{}", "KeyError: 'topics'"),
    "topic_without_keywords": ("run", "taxonomy", '{"topics": [{"name": "economics"}]}',
                               "KeyError: 'keywords'"),
    "lexicon_not_json": ("run", "lexicon", "{", "is not a readable JSON file"),
    "lexicon_without_negative": ("run", "lexicon", '{"positive": {"good": 1.0}}',
                                 "KeyError: 'negative'"),
    "lexicon_weight_not_a_number": ("run", "lexicon",
                                    '{"positive": {"good": "high"}, "negative": {}}',
                                    "lexicon weight for 'good'"),
    "lexicon_weight_a_bool": ("run", "lexicon", '{"positive": {"good": true}, "negative": {}}',
                              "lexicon weight for 'good' outside (0, 2]: True"),
    "corpus_without_articles": ("run", "corpus", "{\n", "holds no accepted article"),
    "ground_truth_missing": ("run", "ground_truth", None, "is not readable"),
    "ground_truth_cell_not_a_number": ("run", "ground_truth", _TRUTH_HEADER + "2005,x,50\n",
                                       "line 2: could not convert string to float: 'x'"),
    "ground_truth_row_short": ("run", "ground_truth", _TRUTH_HEADER + "2005,40,50\n2006,40\n",
                               "line 3: not enough values to unpack"),
    "ground_truth_years_not_contiguous": ("run", "ground_truth",
                                          _TRUTH_HEADER + "2005,40,50\n2007,40,50\n",
                                          "years must be contiguous"),
    "ground_truth_percentage_out_of_range": ("run", "ground_truth", _TRUTH_HEADER + "2005,101,0\n",
                                             "year 2005: percentages out of range"),
    "ground_truth_percentages_over_100": ("run", "ground_truth", _TRUTH_HEADER + "2005,60,50\n",
                                          "year 2005: favorable + unfavorable > 100"),
    "social_missing": ("build-profiles", "social", None, "is not readable"),
    "results_missing": ("report", "results.json", None, "is not a readable JSON file"),
    "results_without_years": ("report", "results.json", "{}", "holds no list of years"),
    "charts_results_without_years": ("charts", "results.json", "{}", "holds no list of years"),
    "results_year_empty": ("report", "results.json", '{"years": [{}]}',
                           "holds a year that is not an object with an integer year"),
    "charts_results_year_empty": ("charts", "results.json", '{"years": [{}]}',
                                  "holds a year that is not an object with an integer year"),
    "results_year_not_an_object": ("report", "results.json", '{"years": [2005]}',
                                   "holds a year that is not an object"),
    "checkpoint_not_json": ("resume", "checkpoint.json", '{"config": ',
                            "is not a readable JSON file"),
    "checkpoint_without_keys": ("resume", "checkpoint.json", "{}",
                                "lacks keys: config, fingerprints, agent_ids, replay_lines, "
                                "states, completed_years, debias_cache"),
    # one line more than the checkpoint keeps, so a cut-back would show
    "replay_record_without_schema": ("resume", "replay.jsonl",
                                     '{"tag": "select:2005:a"}\n' + "{}\n" * 6,
                                     "line 1 is not a replay record: KeyError: 'schema'"),
    "replay_log_missing": ("resume", "replay.jsonl", None, "is not readable"),
    "replay_log_short": ("resume", "replay.jsonl", "",
                         "has fewer than the 6 lines expected"),
}


@pytest.mark.parametrize("damage", list(_BAD_INPUTS))
def test_cli_reports_a_bad_input_file(tmp_path, make_config, fixtures_dir, caplog, damage):
    command, role, text, message = _BAD_INPUTS[damage]
    config_path = _cli_config(tmp_path, make_config)
    out_dir = tmp_path / "cli-out"
    if command in ("report", "charts", "resume"):
        run(RunConfig.from_file(config_path), stop_after_year=2005)
        bad = out_dir / role
        bad.unlink(missing_ok=True)
    elif role == "config":
        bad = config_path
        config_path.unlink()
    else:
        bad = tmp_path / f"{damage}.input"
        doc = json.loads(config_path.read_text())
        doc["paths"][role] = str(bad)
        config_path.write_text(json.dumps(doc))
    if text is not None:
        bad.write_text(text)
    files = _tree(out_dir) if out_dir.exists() else None
    argv = {
        "run": ["run", "--config", str(config_path)],
        "build-profiles": ["build-profiles", "--social", str(bad),
                           "--survey", str(fixtures_dir / "survey_records.jsonl"),
                           "--out", str(tmp_path / "profiles.json")],
        "report": ["report", "--out", str(out_dir)],
        "charts": ["charts", "--out", str(out_dir)],
        "resume": ["resume", "--out", str(out_dir)],
    }[command]
    assert cli.main(argv) == 1
    assert [r.levelname for r in caplog.records].count("ERROR") == 1
    assert str(bad) in caplog.text and message in caplog.text
    if files is not None:  # nothing is cut back or written
        assert _tree(out_dir) == files


@pytest.mark.parametrize("command", ["run", "resume"])
def test_cli_refuses_a_replay_run_into_its_own_log(tmp_path, make_config, caplog, command):
    config_path = _cli_config(tmp_path, make_config)
    recorded = dataclasses.replace(RunConfig.from_file(config_path), out_dir=str(tmp_path / "rec"))
    run(recorded)
    out_dir = tmp_path / "cli-out"
    replay = BackendConfig(mode="replay", replay_log=str(Path(recorded.out_dir) / "replay.jsonl"))
    run(dataclasses.replace(recorded, backend=replay, out_dir=str(out_dir)), stop_after_year=2005)
    files = _tree(out_dir)
    doc = json.loads(config_path.read_text())
    # the run's own log, by another spelling of its path
    doc["backend"] = {"mode": "replay",
                      "replay_log": str(out_dir / "trace" / ".." / "replay.jsonl")}
    config_path.write_text(json.dumps(doc))
    assert cli.main([command, "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert f"a replay run cannot write the log it replays: {out_dir / 'replay.jsonl'}" \
        in caplog.text
    assert _tree(out_dir) == files


def _first_state(ck: dict) -> dict:
    return next(iter(ck["states"].values()))


_BAD_STATE = ("ValueError: the state of 'agent-0005' holds a valence that is no number in "
              "[-2, 2], an exposure that is no count, or a last response other than null or 1-4")

# damage -> (what it does to a checkpoint that has every key, what the error says)
_BAD_CHECKPOINT_VALUES = {
    "state_empty": (lambda ck: ck["states"].update(dict.fromkeys(ck["states"], {})),
                    "KeyError: 'agent_id'"),
    "states_a_list": (lambda ck: ck.update(states=[]),
                      "AttributeError: 'list' object has no attribute 'items'"),
    "completed_years_a_number": (lambda ck: ck.update(completed_years=5),
                                 "TypeError: 'int' object is not iterable"),
    "completed_year_a_string": (lambda ck: ck.update(completed_years=["2005"]),
                                "ValueError: completed_years are not all years: ['2005']"),
    "debias_cache_a_list": (lambda ck: ck.update(debias_cache=[]),
                            "TypeError: 'list' object is not a mapping"),
    "replay_lines_a_string": (lambda ck: ck.update(replay_lines="3"),
                              "ValueError: replay_lines is not a line count: '3'"),
    "replay_lines_negative": (lambda ck: ck.update(replay_lines=-1),
                              "ValueError: replay_lines is not a line count: -1"),
    "config_a_list": (lambda ck: ck.update(config=[]),
                      "TypeError: 'list' object is not a mapping"),
    "config_without_backend": (lambda ck: ck["config"].pop("backend"), "KeyError: 'backend'"),
    "fingerprints_a_list": (lambda ck: ck.update(fingerprints=[]),
                            "TypeError: 'list' object is not a mapping"),
    "valence_not_a_number": (lambda ck: _first_state(ck)["valences"].update(
        dict.fromkeys(_first_state(ck)["valences"], "x")), _BAD_STATE),
    "valence_true": (lambda ck: _first_state(ck)["valences"].update(economics=True), _BAD_STATE),
    "valence_a_numeral": (lambda ck: _first_state(ck)["valences"].update(economics="1.5"),
                          _BAD_STATE),
    "valence_beyond_the_scale": (lambda ck: _first_state(ck)["valences"].update(economics=99.0),
                                 _BAD_STATE),
    "exposure_a_fraction": (lambda ck: _first_state(ck)["exposures"].update(economics=2.7),
                            _BAD_STATE),
    "exposure_negative": (lambda ck: _first_state(ck)["exposures"].update(economics=-3),
                          _BAD_STATE),
    "last_response_a_string": (lambda ck: _first_state(ck).update(last_response="x"), _BAD_STATE),
    "last_response_true": (lambda ck: _first_state(ck).update(last_response=True), _BAD_STATE),
}


@pytest.mark.parametrize("damage", list(_BAD_CHECKPOINT_VALUES))
def test_resume_refuses_a_checkpoint_value_it_cannot_read(make_config, caplog, damage):
    """Every value is read before resume cuts the replay log or a year file back."""
    config = make_config(n_agents=3, intervention="debias")
    run(config, stop_after_year=2005)
    out = Path(config.out_dir)
    ck = json.loads((out / "checkpoint.json").read_text())
    change, message = _BAD_CHECKPOINT_VALUES[damage]
    change(ck)
    (out / "checkpoint.json").write_text(json.dumps(ck))
    # a line the checkpoint does not count, which a resume would cut
    (out / "replay.jsonl").write_text((out / "replay.jsonl").read_text() + "{}\n")
    files = _tree(out)
    assert cli.main(["resume", "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert f"checkpoint {out / 'checkpoint.json'} is not a checkpoint: {message}" in errors[0]
    assert _tree(out) == files


# damage -> what it does to a readable checkpoint
_MISFIT_STATES = {
    "state_missing_an_agent": lambda ck: ck["states"].pop(next(iter(ck["states"]))),
    "state_of_another_agent": lambda ck: _first_state(ck).update(agent_id="agent-9999"),
    "state_missing_a_domain": lambda ck: [_first_state(ck)[key].pop("economics")
                                          for key in ("valences", "exposures")],
    "state_with_an_unknown_domain": lambda ck: _first_state(ck)["valences"].update(astrology=0.0),
}


@pytest.mark.parametrize("damage", list(_MISFIT_STATES))
def test_resume_refuses_opinion_states_that_do_not_fit_the_run(make_config, caplog, damage):
    """Each state must belong to one sampled agent and cover exactly the taxonomy's domains."""
    config = make_config(n_agents=3, intervention="debias")
    run(config, stop_after_year=2005)
    out = Path(config.out_dir)
    ck = json.loads((out / "checkpoint.json").read_text())
    _MISFIT_STATES[damage](ck)
    (out / "checkpoint.json").write_text(json.dumps(ck))
    (out / "replay.jsonl").write_text((out / "replay.jsonl").read_text() + "{}\n")
    files = _tree(out)
    assert cli.main(["resume", "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0] == (f"checkpoint {out / 'checkpoint.json'} does not hold one opinion state "
                         f"per sampled agent over exactly the taxonomy's domains")
    assert _tree(out) == files


@pytest.mark.parametrize("command", ["ingest-corpus", "build-profiles", "run"])
def test_cli_reports_an_unwritable_output_path(tmp_path, make_config, fixtures_dir, caplog,
                                               command):
    folder, taken = tmp_path / "a-directory", tmp_path / "a-file"
    folder.mkdir()
    taken.write_text("a file, not a directory\n")
    bad, argv = {
        "ingest-corpus": (folder, ["ingest-corpus", "--corpus", make_config().corpus_path,
                                   "--out", str(folder)]),
        "build-profiles": (taken / "report.json", [
            "build-profiles", "--social", str(fixtures_dir / "social_records.jsonl"),
            "--survey", str(fixtures_dir / "survey_records.jsonl"),
            "--out", str(tmp_path / "profiles.json"), "--report", str(taken / "report.json")]),
        "run": (taken, ["run", "--config", str(_cli_config(tmp_path, make_config)),
                        "--out", str(taken)]),
    }[command]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 1
    assert [r.levelname for r in caplog.records].count("ERROR") == 1
    assert str(bad) in caplog.text
    assert not list(tmp_path.glob("*.tmp"))  # no temp file is left behind
    assert sorted(tmp_path.rglob("*")) == before  # nor any other new file


def test_cli_reports_domain_errors_as_exit_code(tmp_path, make_config):
    config_path = _cli_config(tmp_path, make_config)
    doc = json.loads(config_path.read_text())
    doc["paths"]["corpus"] = str(tmp_path / "missing.jsonl")
    config_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(config_path)]) == 1
