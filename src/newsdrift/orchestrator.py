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
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import charts, inputs, outputs, prompts
from .corpus import CorpusIndex, IngestReport, articles_for_year, ingest
from .distribution import retrieve_full_text, sample_headlines, select_articles
from .errors import ConfigError, CorpusError, ResumeError
from .gateway import BackendConfig, Gateway, MockLexicon, load_lexicon
from .interventions import apply_intervention, debias_payload
from .modes import validate_ablation, validate_intervention
from .profiles import AgentProfile, load_profiles, sample_agents
from .reflection import OpinionState, apply_updates, reflect_batch
from .surveys import (BREAKDOWN_FIELDS, GroundTruthSeries, MAE_BASES, aggregate_year,
                      demographic_breakdown, domain_influence, mae,
                      overall_valence, survey_response)
from .taxonomy import TopicTaxonomy, load_taxonomy

log = logging.getLogger(__name__)

CHECKPOINT_NAME = "checkpoint.json"
# the checkpoint keys resume reads without a default
_CHECKPOINT_KEYS = ("config", "fingerprints", "agent_ids", "replay_lines", "states",
                   "completed_years", "debias_cache")
REPLAY_NAME = "replay.jsonl"
# written by _finalize; a new run removes them so a reused directory never
# shows an earlier run's results
FINAL_ARTIFACTS = ("results.json", "results.csv", "run_report.json",
                   "domain_influence.csv", "demographics.csv") + charts.CHART_NAMES


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# run config file: each `paths` key with the field it sets; every other field
# is a top-level key
_PATH_FIELDS = {
    "corpus": "corpus_path",
    "profiles": "profiles_path",
    "ground_truth": "ground_truth_path",
    "taxonomy": "taxonomy_path",
    "lexicon": "lexicon_path",
    "out_dir": "out_dir",
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    years: tuple[int, int] = (2005, 2025)
    n_agents: int = 100
    headlines_per_agent: int = 50
    reads_per_year: int = 10
    batch_size: int | None = None
    intervention: str = "baseline"
    ablation: str = "none"
    backend: BackendConfig = field(default_factory=BackendConfig)
    corpus_path: str = ""
    profiles_path: str = ""
    ground_truth_path: str | None = None
    taxonomy_path: str | None = None
    lexicon_path: str | None = None
    out_dir: str = "out"

    def __post_init__(self):
        # every artifact stores the checked spelling of the run mode names
        object.__setattr__(self, "intervention", validate_intervention(self.intervention))
        object.__setattr__(self, "ablation", validate_ablation(self.ablation))

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
        if not self.corpus_path or not self.profiles_path:
            raise ConfigError("corpus_path and profiles_path are required")

    def canonical(self) -> dict:
        doc = dataclasses.asdict(self)
        # where files go and how many requests overlap change no result
        del doc["out_dir"], doc["backend"]["replay_log"], doc["backend"]["max_in_flight"]
        doc["backend"]["backoff_seconds"] = list(self.backend.backoff_seconds)
        return {**doc, "years": list(self.years), "batch_size": self.effective_batch}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_canonical(cls, doc: dict, out_dir: str) -> "RunConfig":
        # canonical keys are field names; two fields need their types back
        return cls(**{
            **doc,
            "years": tuple(doc["years"]),
            "backend": BackendConfig.from_dict(doc["backend"]),
            "out_dir": out_dir,
        })

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        kwargs = inputs.read_json(path, "run config", ConfigError)
        paths = kwargs.pop("paths", {}) if isinstance(kwargs, dict) else None
        if not isinstance(paths, dict):
            raise ConfigError(f"{path}: a run config is a JSON object whose paths are an object")
        file_keys = {f.name for f in dataclasses.fields(cls)} - set(_PATH_FIELDS.values())
        unknown = ([key for key in kwargs if key not in file_keys]
                   + [f"paths.{key}" for key in paths if key not in _PATH_FIELDS])
        if unknown:
            raise ConfigError(f"unknown config keys in {path}: {', '.join(sorted(unknown))}")
        if "years" in kwargs:
            kwargs["years"] = tuple(kwargs["years"])
        for key, attr in _PATH_FIELDS.items():
            if paths.get(key) is not None:
                kwargs[attr] = paths[key]
        try:
            if "backend" in kwargs:
                kwargs["backend"] = BackendConfig.from_dict(kwargs["backend"])
            return cls(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def with_overrides(self, *, seed=None, backend_mode=None, intervention=None,
                       ablation=None, out_dir=None) -> "RunConfig":
        changes = dict(seed=seed, intervention=intervention, ablation=ablation, out_dir=out_dir)
        changes = {name: value for name, value in changes.items() if value is not None}
        if backend_mode is not None and backend_mode != self.backend.mode:
            changes["backend"] = dataclasses.replace(self.backend, mode=backend_mode)
        return dataclasses.replace(self, **changes)

    def fingerprints(self) -> dict:
        entries = {}
        for role, attr in _PATH_FIELDS.items():
            path = getattr(self, attr)
            if role != "out_dir" and (path or role in inputs.PACKAGED):
                blob = inputs.read_bytes(path or None, role, ConfigError)
                entries[role] = hashlib.sha256(blob).hexdigest()
        entries["prompts"] = hashlib.sha256(prompts.template_bytes()).hexdigest()
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
    header: dict  # the run's identity in every checkpoint; see _load_environment


def _load_environment(config: RunConfig, fingerprints: dict | None = None) -> RunEnv:
    taxonomy = load_taxonomy(config.taxonomy_path)
    lexicon = load_lexicon(config.lexicon_path)
    index, ingest_report = ingest(config.corpus_path)
    if not len(index):
        raise CorpusError(f"corpus {config.corpus_path} holds no accepted article")
    profiles = load_profiles(config.profiles_path, taxonomy)
    agents = sample_agents(profiles, config.n_agents, config.seed)
    truth = None
    if config.ground_truth_path:
        truth = GroundTruthSeries.from_csv(config.ground_truth_path)
        if not len(truth):
            log.warning("ground truth file %s is empty", config.ground_truth_path)
    header = {
        "config": config.canonical(),
        "config_hash": config.config_hash(),
        "fingerprints": config.fingerprints() if fingerprints is None else fingerprints,
        "agent_ids": [p.agent_id for p in agents],
    }
    return RunEnv(taxonomy, lexicon, index, ingest_report, agents, truth, header)


@dataclass
class RunState:
    """Everything the year loop carries from one year to the next.

    A checkpoint is this object serialised next to the run's header and the
    gateway's counters. Yearly aggregates and counts live in the per-year
    traces; a year of the range still not completed at the end had no articles.
    """
    states: dict[str, OpinionState]
    completed_years: list[int] = field(default_factory=list)
    # debias rewrites: article id -> [text, failed]
    cache: dict[str, list] = field(default_factory=dict)

    @classmethod
    def initial(cls, env: RunEnv) -> "RunState":
        return cls({p.agent_id: OpinionState.initial(p.agent_id, env.taxonomy)
                    for p in env.agents})

    def to_dict(self) -> dict:
        return {
            "states": {agent_id: state.to_dict() for agent_id, state in self.states.items()},
            "completed_years": list(self.completed_years),
            "debias_cache": self.cache,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunState":
        return cls(
            states={agent_id: OpinionState.from_dict(d) for agent_id, d in doc["states"].items()},
            completed_years=list(doc["completed_years"]),
            cache=doc["debias_cache"],
        )


# ---------------------------------------------------------------------------
# Year processing
# ---------------------------------------------------------------------------

def _chunk(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _choose(config: RunConfig, env: RunEnv, gateway: Gateway, year: int):
    """Start every agent's offer and selection for a year; return the call that
    waits for them, each an ((offer, selected, batches), selection records).

    A selection reads only the static profile, the seed and the corpus, never
    an opinion, so it may run before the years ahead of it are done.
    """
    def choose(profile):
        offer = sample_headlines(env.index, year, profile.agent_id,
                                 config.headlines_per_agent, config.seed)
        m_eff = min(config.reads_per_year, len(offer.offers))
        selected = select_articles(
            profile, offer, m_eff, gateway, env.taxonomy, env.lexicon,
            config.ablation, tag=f"select:{year}:{profile.agent_id}",
        )
        payloads = retrieve_full_text(env.index, selected, config.ablation)
        return offer, selected, _chunk(list(payloads), config.effective_batch)

    return gateway.start(lambda profile: gateway.capture(choose, profile), env.agents)


def _process_year(config: RunConfig, env: RunEnv, gateway: Gateway, state: RunState,
                  year: int, selections, next_year: int | None):
    """One year in three phases, each run by the gateway over independent work:
    the started ``selections`` (see ``_choose``), the debias rewrites, and the
    reading and survey, behind which ``next_year``'s selections are started
    and returned with the year's updates and trace rows.

    Agents share nothing within a year but the debias cache, so each agent's
    chain of exchanges may run beside the others'. The replay log still reads
    as the sequential run wrote it: an agent's records, its selection first,
    each debias rewrite just before the batch of the article's first reader.
    """
    agents = env.agents
    chosen = selections()

    # (agent index, batch index) -> records of the rewrites that batch reads first
    rewrites: dict[tuple[int, int], list] = {}
    if config.intervention == "debias":
        first_reader = {}
        for i, ((_, _, batches), _) in enumerate(chosen):
            for j, batch in enumerate(batches):
                for payload in batch:
                    if payload.article_id not in state.cache:
                        first_reader.setdefault(payload.article_id, (payload, (i, j)))
        readers = list(first_reader.values())
        held = gateway.map(lambda entry: gateway.capture(
            debias_payload, entry[0], gateway, env.lexicon, state.cache), readers)
        for (_, reader), (_, records) in zip(readers, held):
            rewrites.setdefault(reader, []).extend(records)

    def read_and_survey(i):
        profile = agents[i]
        agent_id = profile.agent_id
        (offer, selected, batches), selection_records = chosen[i]
        gateway.emit(selection_records)
        opinion = state.states[agent_id]
        critique_chars = []
        read_meta = []
        updates_all = []
        for j, batch in enumerate(batches):
            gateway.emit(rewrites.get((i, j), []))
            batch_payloads, critique = apply_intervention(
                config.intervention, batch, gateway, env.lexicon, state.cache,
                tag=f"critique:{year}:{agent_id}:b{j}",
            )
            critique_chars.append(len(critique) if critique else 0)
            read_meta.extend(
                {"article_id": p.article_id, "text_chars": len(p.full_text),
                 "debiased": p.debiased}
                for p in batch_payloads
            )
            outcome = reflect_batch(
                profile, batch_payloads, opinion, gateway, env.taxonomy,
                env.lexicon, config.ablation,
                batch_id=f"{year}:{agent_id}:b{j}",
                tag=f"reflect:{year}:{agent_id}:b{j}",
                critique=critique,
            )
            opinion, updates = apply_updates(opinion, outcome, year)
            updates_all.extend(updates)
        response = survey_response(profile, opinion, gateway, env.taxonomy,
                                   tag=f"survey:{year}:{agent_id}")
        opinion.last_response = response
        return opinion, updates_all, {
            "agent_id": agent_id,
            "offer_ids": list(offer.ids),
            "selected_ids": list(selected),
            "reads": read_meta,
            "critique_chars": critique_chars,
            "overall_valence": overall_valence(opinion),
            "response": response,
        }

    read = gateway.start(read_and_survey, range(len(agents)))
    following = _choose(config, env, gateway, next_year) if next_year is not None else None
    updates_all: list[dict] = []
    trace: list[dict] = []
    for opinion, updates, row in read():
        state.states[opinion.agent_id] = opinion
        updates_all.extend(updates)
        trace.append(row)
    return updates_all, trace, following


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _read_jsonl(path: Path) -> list[dict]:
    try:
        return [json.loads(line) for _, line in inputs.read_lines(path, "run output", ResumeError)]
    except ValueError as exc:
        raise ResumeError(f"run output {path} is not JSON lines: {exc}") from None


def _trace_path(out_dir: Path, year: int) -> Path:
    return out_dir / "trace" / f"year_{year}.jsonl"


def _write_checkpoint(out_dir: Path, header: dict, gateway: Gateway,
                      state: RunState, complete: bool):
    doc = {**header, **state.to_dict(), **gateway.counters(), "complete": complete}
    outputs.write_json(out_dir / CHECKPOINT_NAME, doc)


def read_update_logs(out_dir: Path) -> list[dict]:
    updates = []
    for path in sorted(out_dir.glob("updates_*.jsonl")):
        updates.extend(_read_jsonl(path))
    return updates


def _year_result(out_dir: Path, year: int, agent_ids: list[str]) -> tuple[dict, int, int]:
    """Rebuild one completed year's aggregate, offers and reads from its trace rows."""
    path = _trace_path(out_dir, year)
    rows = _read_jsonl(path)
    per_agent = {row["agent_id"]: (row["overall_valence"], row["response"]) for row in rows}
    missing = [a for a in agent_ids if a not in per_agent]
    if missing:
        raise ResumeError(f"year {year} is complete but {path} lacks agents {missing}")
    return (aggregate_year(year, per_agent, agent_ids),
            sum(len(row["offer_ids"]) for row in rows), sum(len(row["reads"]) for row in rows))


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
    outputs.make_dir(out_dir / "trace")  # both folders exist before any year is written
    for name in (CHECKPOINT_NAME, REPLAY_NAME) + FINAL_ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    for stale in [*out_dir.glob("updates_*.jsonl"), *out_dir.glob("trace/year_*.jsonl")]:
        stale.unlink()

    env = _load_environment(config)
    gateway = Gateway(config.backend, log_path=out_dir / REPLAY_NAME)
    state = RunState.initial(env)
    try:
        # a kill before the first year ends resumes this run from its start
        _write_checkpoint(out_dir, env.header, gateway, state, False)
        return _drive(config, env, gateway, state, stop_after_year)
    finally:
        gateway.close()


def resume(out_dir: str | Path, config: RunConfig | None = None,
           stop_after_year: int | None = None) -> dict:
    """Continue a checkpointed run from its first incomplete year."""
    out_dir = Path(out_dir)
    ck_path = out_dir / CHECKPOINT_NAME
    if not ck_path.exists():
        raise ResumeError(f"no checkpoint found in {out_dir}")
    ck = inputs.read_json(ck_path, "checkpoint", ResumeError)
    missing = [key for key in _CHECKPOINT_KEYS if not isinstance(ck, dict) or key not in ck]
    if missing:
        raise ResumeError(f"checkpoint {ck_path} lacks keys: {', '.join(missing)}")

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
        return inputs.read_json(out_dir / "results.json", "results", ResumeError)

    env = _load_environment(config, current)
    if env.header["agent_ids"] != ck["agent_ids"]:
        raise ResumeError("agent sample no longer matches checkpoint")

    outputs.truncate_replay_log(out_dir / REPLAY_NAME, ck["replay_lines"])
    state = RunState.from_dict(ck)
    for path in [*out_dir.glob("updates_*.jsonl"), *out_dir.glob("trace/year_*.jsonl")]:
        if int(path.stem.split("_")[1]) not in state.completed_years:
            path.unlink()

    gateway = Gateway(config.backend, log_path=out_dir / REPLAY_NAME, counters=ck)
    try:
        return _drive(config, env, gateway, state, stop_after_year)
    finally:
        gateway.close()


def _config_drift(proposed: dict, recorded: dict) -> list[str]:
    drift = []
    for key in sorted(set(proposed) | set(recorded)):
        if proposed.get(key) != recorded.get(key):
            drift.append(f"{key}: checkpoint={recorded.get(key)!r} proposed={proposed.get(key)!r}")
    return drift


def _drive(config: RunConfig, env: RunEnv, gateway: Gateway, state: RunState,
           stop_after_year: int | None) -> dict:
    out_dir = Path(config.out_dir)
    years = []  # the years this call runs, up to stop_after_year
    for year in range(config.years[0], config.years[1] + 1):
        if year in state.completed_years:
            continue
        if not articles_for_year(env.index, year):
            log.warning("year %d has no articles; skipping", year)
            continue
        years.append(year)
        if year == stop_after_year:
            break
    chosen = _choose(config, env, gateway, years[0]) if years else None
    for year, next_year in zip(years, [*years[1:], None]):
        began = time.perf_counter()
        updates, trace, chosen = _process_year(config, env, gateway, state, year,
                                               chosen, next_year)
        outputs.write_jsonl(out_dir / f"updates_{year}.jsonl", updates)
        outputs.write_jsonl(_trace_path(out_dir, year), trace)
        state.completed_years.append(year)
        _write_checkpoint(out_dir, env.header, gateway, state, False)
        log.info("year %d done in %.2f s: %d exchanges and %d fallbacks so far", year,
                 time.perf_counter() - began, sum(gateway.request_counts.values()),
                 sum(gateway.fallback_counts.values()))
        if stop_after_year == year:
            log.info("stopping after year %d as requested", year)
            return {"interrupted_after": year, "out_dir": str(out_dir)}
    return _finalize(config, env, gateway, state)


def _finalize(config: RunConfig, env: RunEnv, gateway: Gateway, state: RunState) -> dict:
    out_dir = Path(config.out_dir)
    updates = read_update_logs(out_dir)
    results, offer_count, payload_count = [], 0, 0
    for year in sorted(state.completed_years):
        result, offers, reads = _year_result(out_dir, year, env.header["agent_ids"])
        results.append(result)
        offer_count += offers
        payload_count += reads
    years = range(config.years[0], config.years[1] + 1)
    skipped = [year for year in years if year not in state.completed_years]
    influence = domain_influence(updates)

    error = None
    if env.truth is not None and len(env.truth):
        if any(r["year"] in env.truth.by_year for r in results):
            error = {basis: mae(results, env.truth, basis) for basis in MAE_BASES}
        else:
            log.warning("ground truth and simulation share no years; skipping MAE")

    bundle = {
        "config_hash": env.header["config_hash"],
        "seed": config.seed,
        "intervention": config.intervention,
        "ablation": config.ablation,
        "years": results,
        "skipped_years": skipped,
        "mae": error,
    }
    outputs.write_json(out_dir / "results.json", bundle)
    columns = ("year", "favorable_pct", "unfavorable_pct", "mean_response", "mean_valence")
    outputs.write_csv(out_dir / "results.csv", columns, [[r[c] for c in columns] for r in results])
    outputs.write_csv(out_dir / "domain_influence.csv", ("domain", "year", "mean_new_valence"),
                      [(domain, year, value) for domain, cell in sorted(influence.items())
                       for year, value in [*sorted(cell["by_year"].items()), ("all", cell["all"])]])
    last = results[-1]["agents"] if results else {}
    responses = {agent_id: entry["response"] for agent_id, entry in last.items()}
    outputs.write_csv(out_dir / "demographics.csv", ("group_by", "group", "favorable_pct"),
                      [(by, group, pct) for by in BREAKDOWN_FIELDS
                       for group, pct in demographic_breakdown(responses, env.agents, by).items()])
    charts.write_charts(out_dir, results, env.truth, influence)

    report = {
        "agents": len(env.agents),
        "years_completed": [r["year"] for r in results],
        "years_skipped": skipped,
        "offer_count": offer_count,
        "payload_count": payload_count,
        **gateway.counters(),
        "corpus_accepted": env.ingest_report.accepted,
        "corpus_rejected": env.ingest_report.rejected,
    }
    outputs.write_json(out_dir / "run_report.json", report)
    _write_checkpoint(out_dir, env.header, gateway, state, True)
    return bundle

