"""Run configuration, the year loop, checkpoint/resume, and result export.

A run walks the configured years in order; each year every agent gets a
fresh headline offer, selects articles, reads them (optionally transformed
by the active intervention), reflects, and answers the survey. The year is
then aggregated and checkpointed, so a killed run can resume from the first
incomplete year and still produce byte-identical results under the mock
backend.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import charts
from .corpus import CorpusConfig, CorpusIndex, IngestReport, articles_for_year, ingest
from .distribution import retrieve_full_text, sample_headlines, select_articles
from .errors import ConfigError, ResumeError
from .gateway import BackendConfig, Gateway, MockLexicon, load_lexicon
from .interventions import DebiasCache, apply_intervention
from .modes import AblationFlags, validate_intervention
from .profiles import AgentProfile, load_profiles, sample_agents
from .reflection import OpinionState, apply_updates, reflect_batch
from .surveys import (GroundTruthSeries, MAE_BASES, aggregate_year,
                      demographic_breakdown, domain_influence, mae,
                      overall_valence, survey_response)
from .taxonomy import TopicTaxonomy, load_taxonomy

log = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.json"
REPLAY_NAME = "replay.jsonl"
# written by _finalize; a new run removes them so a reused directory never
# shows an earlier run's results
FINAL_ARTIFACTS = ("results.json", "results.csv", "run_report.json",
                   "domain_influence.csv", "demographics.csv") + charts.CHART_NAMES


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    years: tuple[int, int] = (2005, 2025)
    n_agents: int = 100
    headlines_per_agent: int = 50
    reads_per_year: int = 10
    batch_size: int | None = None
    intervention: str = "baseline"
    ablation: AblationFlags = field(default_factory=AblationFlags)
    backend: BackendConfig = field(default_factory=BackendConfig)
    corpus_path: str = ""
    profiles_path: str = ""
    ground_truth_path: str | None = None
    taxonomy_path: str | None = None
    lexicon_path: str | None = None
    out_dir: str = "out"

    @property
    def effective_batch(self) -> int:
        return self.batch_size if self.batch_size is not None else self.reads_per_year

    def validate(self):
        lo, hi = self.years
        if lo > hi:
            raise ConfigError(f"year range {lo}-{hi} is empty")
        if self.n_agents < 1:
            raise ConfigError("n_agents must be positive")
        if not (1 <= self.reads_per_year <= self.headlines_per_agent):
            raise ConfigError("reads_per_year must lie in [1, headlines_per_agent]")
        if not (1 <= self.effective_batch <= self.reads_per_year):
            raise ConfigError("batch_size must lie in [1, reads_per_year]")
        validate_intervention(self.intervention)
        if not self.corpus_path or not self.profiles_path:
            raise ConfigError("corpus_path and profiles_path are required")

    def canonical(self) -> dict:
        backend = dataclasses.asdict(self.backend)
        backend.pop("replay_log", None)
        backend["backoff_seconds"] = list(self.backend.backoff_seconds)
        return {
            "seed": self.seed,
            "years": list(self.years),
            "n_agents": self.n_agents,
            "headlines_per_agent": self.headlines_per_agent,
            "reads_per_year": self.reads_per_year,
            "batch_size": self.effective_batch,
            "intervention": self.intervention,
            "ablation": self.ablation.name,
            "backend": backend,
            "corpus_path": str(self.corpus_path),
            "profiles_path": str(self.profiles_path),
            "ground_truth_path": None if self.ground_truth_path is None else str(self.ground_truth_path),
            "taxonomy_path": None if self.taxonomy_path is None else str(self.taxonomy_path),
            "lexicon_path": None if self.lexicon_path is None else str(self.lexicon_path),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_canonical(cls, doc: dict, out_dir: str) -> "RunConfig":
        backend_doc = dict(doc["backend"])
        return cls(
            seed=doc["seed"],
            years=tuple(doc["years"]),
            n_agents=doc["n_agents"],
            headlines_per_agent=doc["headlines_per_agent"],
            reads_per_year=doc["reads_per_year"],
            batch_size=doc["batch_size"],
            intervention=doc["intervention"],
            ablation=AblationFlags.from_name(doc["ablation"]),
            backend=BackendConfig.from_dict(backend_doc),
            corpus_path=doc["corpus_path"],
            profiles_path=doc["profiles_path"],
            ground_truth_path=doc.get("ground_truth_path"),
            taxonomy_path=doc.get("taxonomy_path"),
            lexicon_path=doc.get("lexicon_path"),
            out_dir=out_dir,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        doc = json.loads(Path(path).read_text("utf-8"))
        paths = doc.get("paths", {})
        kwargs = {}
        for name in ("seed", "n_agents", "headlines_per_agent", "reads_per_year",
                     "batch_size", "intervention"):
            if name in doc:
                kwargs[name] = doc[name]
        if "years" in doc:
            kwargs["years"] = tuple(doc["years"])
        if "ablation" in doc:
            kwargs["ablation"] = AblationFlags.from_name(doc["ablation"])
        if "backend" in doc:
            kwargs["backend"] = BackendConfig.from_dict(doc["backend"])
        mapping = {
            "corpus": "corpus_path",
            "profiles": "profiles_path",
            "ground_truth": "ground_truth_path",
            "taxonomy": "taxonomy_path",
            "lexicon": "lexicon_path",
            "out_dir": "out_dir",
        }
        for key, attr in mapping.items():
            if paths.get(key) is not None:
                kwargs[attr] = paths[key]
        return cls(**kwargs)

    def with_overrides(self, *, seed=None, backend_mode=None, intervention=None,
                       ablation=None, out_dir=None) -> "RunConfig":
        config = self
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        if intervention is not None:
            config = dataclasses.replace(config, intervention=intervention)
        if ablation is not None:
            config = dataclasses.replace(config, ablation=AblationFlags.from_name(ablation))
        if out_dir is not None:
            config = dataclasses.replace(config, out_dir=out_dir)
        if backend_mode is not None and backend_mode != config.backend.mode:
            backend = dataclasses.replace(config.backend, mode=backend_mode)
            config = dataclasses.replace(config, backend=backend)
        return config

    def fingerprints(self) -> dict:
        entries = {}
        roles = {
            "corpus": self.corpus_path,
            "profiles": self.profiles_path,
            "ground_truth": self.ground_truth_path,
            "taxonomy": self.taxonomy_path,
            "lexicon": self.lexicon_path,
        }
        packaged = {"taxonomy": "data/taxonomy.json", "lexicon": "data/lexicon.json"}
        for role, path in roles.items():
            if path:
                blob = Path(path).read_bytes()
            elif role in packaged:
                blob = resources.files("newsdrift").joinpath(packaged[role]).read_bytes()
            else:
                continue
            entries[role] = hashlib.sha256(blob).hexdigest()
        return entries


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------

@dataclass
class RunEnv:
    taxonomy: TopicTaxonomy
    lexicon: MockLexicon
    index: CorpusIndex
    ingest_report: IngestReport
    agents: list[AgentProfile]
    truth: GroundTruthSeries | None


def _load_environment(config: RunConfig) -> RunEnv:
    taxonomy = load_taxonomy(config.taxonomy_path)
    lexicon = load_lexicon(config.lexicon_path)
    index, ingest_report = ingest(config.corpus_path, CorpusConfig())
    profiles = load_profiles(config.profiles_path, taxonomy)
    agents = sample_agents(profiles, config.n_agents, config.seed)
    truth = None
    if config.ground_truth_path:
        truth = GroundTruthSeries.from_csv(config.ground_truth_path)
        if not len(truth):
            log.warning("ground truth file %s is empty", config.ground_truth_path)
    return RunEnv(taxonomy, lexicon, index, ingest_report, agents, truth)


# ---------------------------------------------------------------------------
# Year processing
# ---------------------------------------------------------------------------

def _chunk(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _process_year(config: RunConfig, env: RunEnv, gateway: Gateway,
                  states: dict[str, OpinionState], year: int,
                  cache: DebiasCache) -> tuple[dict, list[dict], list[dict], int, int]:
    per_agent: dict[str, tuple[float, int]] = {}
    updates_all: list[dict] = []
    trace: list[dict] = []
    offer_count = 0
    payload_count = 0
    for profile in env.agents:
        agent_id = profile.agent_id
        offer = sample_headlines(env.index, year, agent_id,
                                 config.headlines_per_agent, config.seed)
        offer_count += len(offer.offers)
        m_eff = min(config.reads_per_year, len(offer.offers))
        selected = select_articles(
            profile, offer, m_eff, gateway, env.taxonomy, env.lexicon,
            config.ablation, tag=f"select:{year}:{agent_id}",
        )
        payloads = retrieve_full_text(env.index, selected, config.ablation)
        payload_count += len(payloads)

        state = states[agent_id]
        critique_chars = []
        read_meta = []
        for j, batch in enumerate(_chunk(list(payloads), config.effective_batch)):
            batch_payloads, critique = apply_intervention(
                config.intervention, batch, gateway, env.lexicon, cache,
                tag=f"critique:{year}:{agent_id}:b{j}",
            )
            critique_chars.append(len(critique) if critique else 0)
            read_meta.extend(
                {"article_id": p.article_id, "text_chars": len(p.full_text),
                 "debiased": p.debiased}
                for p in batch_payloads
            )
            outcome = reflect_batch(
                profile, batch_payloads, state, gateway, env.taxonomy,
                env.lexicon, config.ablation,
                batch_id=f"{year}:{agent_id}:b{j}",
                tag=f"reflect:{year}:{agent_id}:b{j}",
                critique=critique, index=env.index,
            )
            state, updates = apply_updates(state, outcome, year)
            updates_all.extend(updates)
        state.advance_year(year)
        response = survey_response(profile, state, gateway, env.taxonomy,
                                   tag=f"survey:{year}:{agent_id}")
        state.last_response = response
        states[agent_id] = state
        per_agent[agent_id] = (overall_valence(state), response)
        trace.append({
            "agent_id": agent_id,
            "offer_ids": list(offer.ids),
            "selected_ids": list(selected),
            "reads": read_meta,
            "critique_chars": critique_chars,
            "overall_valence": overall_valence(state),
            "response": response,
        })
    expected = [p.agent_id for p in env.agents]
    result = aggregate_year(year, per_agent, expected)
    return result, updates_all, trace, offer_count, payload_count


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, doc):
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def _write_checkpoint(out_dir: Path, config: RunConfig, env: RunEnv,
                      states: dict[str, OpinionState], results: list[dict],
                      skipped: list[int], cache: DebiasCache, gateway: Gateway,
                      offer_count: int, payload_count: int, complete: bool):
    doc = {
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "fingerprints": config.fingerprints(),
        "agent_ids": [p.agent_id for p in env.agents],
        "states": {agent_id: state.to_dict() for agent_id, state in states.items()},
        "completed_years": [r["year"] for r in results],
        "skipped_years": list(skipped),
        "results": results,
        "offer_count": offer_count,
        "payload_count": payload_count,
        "debias_cache": cache.as_dict(),
        "request_counts": gateway.request_counts,
        "replay_lines": gateway.log_lines,
        "complete": complete,
    }
    _write_json(out_dir / CHECKPOINT_NAME, doc)


def _write_updates(out_dir: Path, year: int, updates: list[dict]):
    path = out_dir / f"updates_{year}.jsonl"
    lines = [json.dumps(u, sort_keys=True, ensure_ascii=False) for u in updates]
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _write_trace(out_dir: Path, year: int, trace: list[dict]):
    trace_dir = out_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(t, sort_keys=True, ensure_ascii=False) for t in trace]
    _atomic_write(trace_dir / f"year_{year}.jsonl", "\n".join(lines) + ("\n" if lines else ""))


def read_update_logs(out_dir: Path) -> list[dict]:
    updates = []
    for path in sorted(out_dir.glob("updates_*.jsonl")):
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    updates.append(json.loads(line))
    return updates


def _truncate_replay_log(path: Path, keep_lines: int):
    if not path.exists():
        if keep_lines:
            raise ResumeError(f"replay log missing but checkpoint expects {keep_lines} lines")
        return
    with path.open("rb") as fh:
        for n in range(keep_lines):
            if not fh.readline():
                raise ResumeError(
                    f"replay log has {n} lines, checkpoint expects {keep_lines}"
                )
        offset = fh.tell()
    os.truncate(path, offset)


# ---------------------------------------------------------------------------
# Run / resume / finalize
# ---------------------------------------------------------------------------

def run(config: RunConfig, stop_after_year: int | None = None) -> dict:
    """Execute a full simulation from scratch into config.out_dir.

    stop_after_year halts right after that year's checkpoint, simulating a
    killed process for resume testing.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    replay_path = out_dir / REPLAY_NAME
    for name in (CHECKPOINT_NAME, REPLAY_NAME) + FINAL_ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    for stale in out_dir.glob("updates_*.jsonl"):
        stale.unlink()
    for stale in out_dir.glob("trace/year_*.jsonl"):
        stale.unlink()

    env = _load_environment(config)
    backend = config.backend
    if backend.mode == "replay" and backend.replay_log is None:
        raise ConfigError("replay mode requires a replay_log path")
    gateway = Gateway(backend, log_path=replay_path)
    states = {p.agent_id: OpinionState.initial(p.agent_id, env.taxonomy)
              for p in env.agents}
    cache = DebiasCache()
    # a kill before the first year ends resumes this run from its start
    _write_checkpoint(out_dir, config, env, states, [], [], cache, gateway, 0, 0, False)
    return _drive(config, env, gateway, states, results=[], skipped=[],
                  cache=cache, offer_count=0, payload_count=0,
                  stop_after_year=stop_after_year)


def resume(out_dir: str | Path, config: RunConfig | None = None,
           stop_after_year: int | None = None) -> dict:
    """Continue a checkpointed run from its first incomplete year."""
    out_dir = Path(out_dir)
    ck_path = out_dir / CHECKPOINT_NAME
    if not ck_path.exists():
        raise ResumeError(f"no checkpoint found in {out_dir}")
    ck = json.loads(ck_path.read_text("utf-8"))

    if config is not None:
        drift = _config_drift(config.canonical(), ck["config"])
        if drift:
            raise ResumeError("config does not match checkpoint: " + "; ".join(drift))
    else:
        config = RunConfig.from_canonical(ck["config"], out_dir=str(out_dir))
    config.validate()

    current = config.fingerprints()
    for role, digest in ck["fingerprints"].items():
        if current.get(role) != digest:
            raise ResumeError(f"input file changed since checkpoint: {role}")

    if ck.get("complete") and (out_dir / "results.json").exists():
        log.info("run already complete; nothing to resume")
        return json.loads((out_dir / "results.json").read_text("utf-8"))

    env = _load_environment(config)
    if [p.agent_id for p in env.agents] != ck["agent_ids"]:
        raise ResumeError("agent sample no longer matches checkpoint")

    _truncate_replay_log(out_dir / REPLAY_NAME, ck["replay_lines"])
    done = set(ck["completed_years"]) | set(ck["skipped_years"])
    for path in out_dir.glob("updates_*.jsonl"):
        year = int(path.stem.split("_")[1])
        if year not in done:
            path.unlink()
    for path in out_dir.glob("trace/year_*.jsonl"):
        year = int(path.stem.split("_")[1])
        if year not in done:
            path.unlink()

    gateway = Gateway(config.backend, log_path=out_dir / REPLAY_NAME,
                      resume_seq=ck["replay_lines"],
                      initial_counts=ck.get("request_counts"))
    states = {agent_id: OpinionState.from_dict(doc)
              for agent_id, doc in ck["states"].items()}
    cache = DebiasCache()
    for article_id, (text, failed) in ck.get("debias_cache", {}).items():
        cache.put(article_id, text, failed)
    return _drive(config, env, gateway, states,
                  results=list(ck["results"]), skipped=list(ck["skipped_years"]),
                  cache=cache, offer_count=ck["offer_count"],
                  payload_count=ck["payload_count"],
                  stop_after_year=stop_after_year)


def _config_drift(proposed: dict, recorded: dict) -> list[str]:
    drift = []
    for key in sorted(set(proposed) | set(recorded)):
        if proposed.get(key) != recorded.get(key):
            drift.append(f"{key}: checkpoint={recorded.get(key)!r} proposed={proposed.get(key)!r}")
    return drift


def _drive(config: RunConfig, env: RunEnv, gateway: Gateway,
           states: dict[str, OpinionState], results: list[dict],
           skipped: list[int], cache: DebiasCache, offer_count: int,
           payload_count: int, stop_after_year: int | None) -> dict:
    out_dir = Path(config.out_dir)
    done = {r["year"] for r in results} | set(skipped)
    for year in range(config.years[0], config.years[1] + 1):
        if year in done:
            continue
        if not articles_for_year(env.index, year):
            log.warning("year %d has no articles; skipping", year)
            skipped.append(year)
            _write_checkpoint(out_dir, config, env, states, results, skipped,
                              cache, gateway, offer_count, payload_count, False)
            continue
        result, updates, trace, offers, payloads = _process_year(
            config, env, gateway, states, year, cache
        )
        results.append(result)
        offer_count += offers
        payload_count += payloads
        _write_updates(out_dir, year, updates)
        _write_trace(out_dir, year, trace)
        _write_checkpoint(out_dir, config, env, states, results, skipped,
                          cache, gateway, offer_count, payload_count, False)
        if stop_after_year == year:
            log.info("stopping after year %d as requested", year)
            return {"interrupted_after": year, "out_dir": str(out_dir)}
    return _finalize(config, env, gateway, states, results, skipped, cache,
                     offer_count, payload_count)


def _finalize(config: RunConfig, env: RunEnv, gateway: Gateway,
              states: dict[str, OpinionState], results: list[dict],
              skipped: list[int], cache: DebiasCache, offer_count: int,
              payload_count: int) -> dict:
    out_dir = Path(config.out_dir)
    results = sorted(results, key=lambda r: r["year"])
    updates = read_update_logs(out_dir)
    influence = domain_influence(updates)

    error = None
    if env.truth is not None and len(env.truth):
        if any(r["year"] in env.truth.by_year for r in results):
            error = {basis: mae(results, env.truth, basis) for basis in MAE_BASES}
        else:
            log.warning("ground truth and simulation share no years; skipping MAE")

    bundle = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "intervention": config.intervention,
        "ablation": config.ablation.name,
        "years": results,
        "skipped_years": sorted(skipped),
        "mae": error,
    }
    _write_json(out_dir / "results.json", bundle)
    _write_results_csv(out_dir / "results.csv", results)
    _write_influence_csv(out_dir / "domain_influence.csv", influence)
    _write_demographics_csv(out_dir / "demographics.csv", results, env.agents)
    charts.write_charts(out_dir, results, env.truth, influence)

    report = {
        "agents": len(env.agents),
        "years_completed": [r["year"] for r in results],
        "years_skipped": sorted(skipped),
        "offer_count": offer_count,
        "payload_count": payload_count,
        "request_counts": dict(sorted(gateway.request_counts.items())),
        "replay_lines": gateway.log_lines,
        "corpus_accepted": env.ingest_report.accepted,
        "corpus_rejected": env.ingest_report.rejected,
    }
    _write_json(out_dir / "run_report.json", report)
    _write_checkpoint(out_dir, config, env, states, results, skipped, cache,
                      gateway, offer_count, payload_count, True)
    return bundle


def _write_results_csv(path: Path, results: list[dict]):
    lines = ["year,favorable_pct,unfavorable_pct,mean_response,mean_valence"]
    for r in results:
        lines.append(
            f"{r['year']},{r['favorable_pct']:.6f},{r['unfavorable_pct']:.6f},"
            f"{r['mean_response']:.6f},{r['mean_valence']:.6f}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_influence_csv(path: Path, influence: dict):
    lines = ["domain,year,mean_new_valence"]
    for domain, cell in sorted(influence.items()):
        for year, value in sorted(cell["by_year"].items()):
            lines.append(f"{domain},{year},{value:.6f}")
        lines.append(f"{domain},all,{cell['all']:.6f}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_demographics_csv(path: Path, results: list[dict], agents):
    lines = ["group_by,group,favorable_pct"]
    if results:
        final = results[-1]
        responses = {
            agent_id: entry["response"] for agent_id, entry in final["agents"].items()
        }
        for group_by in ("gender", "race", "party", "region", "age-band"):
            breakdown = demographic_breakdown(responses, agents, group_by)
            for group, pct in breakdown.items():
                lines.append(f"{group_by},{group},{pct:.6f}")
    _atomic_write(path, "\n".join(lines) + "\n")
