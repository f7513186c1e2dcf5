"""End-to-end run driver: config identity, artifacts, resume, and the CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from newsdrift import cli, orchestrator
from newsdrift.errors import ConfigError, ResumeError
from newsdrift.gateway import BackendConfig
from newsdrift.modes import AblationFlags
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


def test_combined_ablation_flags_rejected():
    with pytest.raises(ConfigError):
        AblationFlags(no_profile=True, title_only=True)
    with pytest.raises(ConfigError):
        AblationFlags.from_name("no_everything")


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
    assert config.ablation.name == "title_only"
    assert config.out_dir == str(tmp_path / "from-file")

    overridden = config.with_overrides(seed=99, ablation="none",
                                       intervention="baseline")
    assert overridden.seed == 99 and overridden.ablation.name == "none"
    assert config.seed == 11  # original untouched


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


def test_replay_log_truncation_streams_whole_lines(tmp_path):
    records = [json.dumps({"seq": n, "user": f"caf\u00e9 {n} \u2028 \u4e2d\u6587"},
                          ensure_ascii=False) + "\n" for n in range(1, 5)]
    blob = "".join(records).encode("utf-8")
    path = tmp_path / "replay.jsonl"

    path.write_bytes(blob)
    orchestrator._truncate_replay_log(path, 2)
    assert path.read_bytes() == "".join(records[:2]).encode("utf-8")

    path.write_bytes(blob)
    orchestrator._truncate_replay_log(path, 4)
    assert path.read_bytes() == blob

    path.write_bytes(blob)
    with pytest.raises(ResumeError, match="4 lines, checkpoint expects 5"):
        orchestrator._truncate_replay_log(path, 5)
    assert path.read_bytes() == blob


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
    assert cli.main([
        "build-profiles",
        "--social", str(fixtures_dir / "social_records.jsonl"),
        "--survey", str(fixtures_dir / "survey_records.jsonl"),
        "--out", str(out),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matched"] == 27
    assert out.exists() and out.with_suffix(".report.json").exists()


def test_cli_reports_domain_errors_as_exit_code(tmp_path, make_config):
    config_path = _cli_config(tmp_path, make_config)
    doc = json.loads(config_path.read_text())
    doc["paths"]["corpus"] = str(tmp_path / "missing.jsonl")
    config_path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(config_path)]) == 1
