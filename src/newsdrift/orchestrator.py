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
from .gateway import BackendConfig, Gateway, is_number
from .interventions import apply_intervention, rewrite_payload
from .mock import MockLexicon, load_lexicon
from .modes import ABLATIONS, INTERVENTIONS, KEPT, TREATMENTS, Kept, Treatment, checked
from .profiles import AgentProfile, load_profiles, sample_agents
from .reflection import OpinionState, apply_updates, reflect_batch
from .surveys import (BREAKDOWN_FIELDS, GroundTruthSeries, aggregate_year,
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
        for kind, names in (("intervention", INTERVENTIONS), ("ablation", ABLATIONS)):
            object.__setattr__(self, kind, checked(kind, getattr(self, kind), names))
        if not (isinstance(self.years, (list, tuple)) and len(self.years) == 2
                and all(is_number(year, int) for year in self.years)):
            raise ConfigError(f"years must be two integers, first and last: {self.years!r}")
        object.__setattr__(self, "years", tuple(self.years))
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", self.reads_per_year)
        for name in ("seed", "n_agents", "headlines_per_agent", "reads_per_year", "batch_size"):
            value = getattr(self, name)
            if not is_number(value, int):
                raise ConfigError(f"{name} must be an integer: {value!r}")
        lo, hi = self.years
        if lo > hi:
            raise ConfigError(f"year range {lo}-{hi} is empty")
        if self.n_agents < 1:
            raise ConfigError("n_agents must be positive")
        if not (1 <= self.reads_per_year <= self.headlines_per_agent):
            raise ConfigError("reads_per_year must lie in [1, headlines_per_agent]")
        if not (1 <= self.batch_size <= self.reads_per_year):
            raise ConfigError("batch_size must lie in [1, reads_per_year]")

    def validate(self):
        """Check what only a run needs; build-profiles reads a config without paths."""
        if not self.corpus_path or not self.profiles_path:
            raise ConfigError("corpus_path and profiles_path are required")
        log_path = Path(self.out_dir) / REPLAY_NAME
        if self.backend.mode == "replay" and Path(self.backend.replay_log).resolve() == \
                log_path.resolve():
            raise ConfigError(f"a replay run cannot write the log it replays: {log_path}")

    def canonical(self) -> dict:
        doc = dataclasses.asdict(self)
        # where files go and how many requests overlap change no result
        del doc["out_dir"], doc["backend"]["replay_log"], doc["backend"]["max_in_flight"]
        doc["backend"]["backoff_seconds"] = list(self.backend.backoff_seconds)
        return {**doc, "years": list(self.years)}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_canonical(cls, doc: dict, out_dir: str) -> "RunConfig":
        # canonical keys are field names; the backend needs its type back
        return cls(**{**doc, "backend": BackendConfig.from_dict(doc["backend"]),
                      "out_dir": out_dir})

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
    treatment: Treatment  # the records of the run's intervention and ablation, resolved once
    kept: Kept


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
        "fingerprints": config.fingerprints() if fingerprints is None else fingerprints,
        "agent_ids": [p.agent_id for p in agents],
    }
    return RunEnv(taxonomy, lexicon, index, ingest_report, agents, truth, header,
                  TREATMENTS[config.intervention], KEPT[config.ablation])


@dataclass
class RunState:
    """Everything the year loop carries from one year to the next.

    A checkpoint is this object serialised next to the run's header and the
    replay log's line count. Yearly aggregates and counts live in the per-year
    traces; a year of the range still not completed at the end had no articles.
    """
    states: dict[str, OpinionState]
    completed_years: list[int] = field(default_factory=list)
    # debias rewrites: article id -> [text, failed], kept for the checkpoint alone
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
            cache={**doc["debias_cache"]},
        )


# ---------------------------------------------------------------------------
# Year processing
# ---------------------------------------------------------------------------

def _chunk(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def _choose(config: RunConfig, env: RunEnv, gateway: Gateway, year: int):
    """Start every agent's offer and selection for a year; return one call per
    agent that returns its (offer, batches).

    A selection reads only the static profile, the seed and the corpus, never
    an opinion, so it may run before the years ahead of it are done.
    """
    def choose(profile):
        offer = sample_headlines(env.index, year, profile.agent_id,
                                 config.headlines_per_agent, config.seed)
        m_eff = min(config.reads_per_year, len(offer.offers))
        selected = select_articles(
            profile, offer, m_eff, gateway, env.taxonomy, env.lexicon,
            env.kept, tag=f"select:{year}:{profile.agent_id}",
        )
        payloads = retrieve_full_text(env.index, selected, env.kept)
        return offer, _chunk(list(payloads), config.batch_size)

    return gateway.start(choose, env.agents)


def _start_year(config: RunConfig, env: RunEnv, gateway: Gateway, state: RunState,
                year: int, chosen: list):
    """Start the year's debias rewrites, then each agent's reading and survey;
    return one call per agent for its (opinion, updates, trace row).

    ``chosen`` holds ``_choose``'s calls. Under debias the rewrites start once
    every selection is in, one per distinct read in first-reader order. An
    agent's reading waits only for its own selection and its own reads'
    rewrites, so each agent's chain of exchanges may run beside the others'.
    The gateway writes the chains in the order they were started, so a year's
    log reads: its selections, its rewrites, then each agent's chain.
    """
    rewrites = {}  # article id -> the call that rewrites it
    if env.treatment.rewrite:
        reads = {payload.article_id: payload for choice in chosen
                 for batch in choice()[1] for payload in batch}
        rewrites = dict(zip(reads, gateway.start(lambda payload: rewrite_payload(
            payload, gateway, env.lexicon, state.cache), reads.values())))

    def read_and_survey(i):
        profile = env.agents[i]
        agent_id = profile.agent_id
        offer, batches = chosen[i]()
        opinion = state.states[agent_id]
        critique_chars = []
        read_meta = []
        updates_all = []
        for j, batch in enumerate(batches):
            batch_payloads, critique = apply_intervention(
                env.treatment, batch, gateway, env.lexicon, rewrites,
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
                env.lexicon, env.kept,
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
            "reads": read_meta,
            "critique_chars": critique_chars,
            "overall_valence": overall_valence(opinion),
            "response": response,
        }

    return gateway.start(read_and_survey, range(len(env.agents)))


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
    doc = {**header, **state.to_dict(), "replay_lines": gateway.replay_lines, "complete": complete}
    outputs.write_json(out_dir / CHECKPOINT_NAME, doc, indent=None)  # one line: json's C encoder


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
    return (aggregate_year(year, per_agent),
            sum(len(row["offer_ids"]) for row in rows), sum(len(row["reads"]) for row in rows))


# ---------------------------------------------------------------------------
# Run / resume / finalize
# ---------------------------------------------------------------------------

def run(config: RunConfig, stop_after_year: int | None = None) -> dict:
    """Execute a full simulation into config.out_dir, resuming its empty checkpoint.

    stop_after_year halts right after that year's checkpoint, simulating a
    killed process for resume testing.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    outputs.make_dir(out_dir / "trace")  # both folders exist before any year is written
    for name in (CHECKPOINT_NAME,) + FINAL_ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    env = _load_environment(config)
    return _continue(config, env, RunState.initial(env), 0, stop_after_year)


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
    try:  # every value is read before anything is cut back
        if config is None:
            if {**ck["config"]}["backend"]["mode"] == "replay":  # a checkpoint keeps no replay_log
                raise ResumeError(f"checkpoint {ck_path} is of a replay run, which resumes "
                                  f"only with --config naming its replay log")
            config, drift = RunConfig.from_canonical(ck["config"], out_dir=str(out_dir)), []
        else:
            drift = _config_drift(config.canonical(), {**ck["config"]})
        state, fingerprints = RunState.from_dict(ck), {**ck["fingerprints"]}
        if not (is_number(ck["replay_lines"], int) and ck["replay_lines"] >= 0):
            raise ValueError(f"replay_lines is not a line count: {ck['replay_lines']!r}")
        if not all(is_number(year, int) for year in state.completed_years):
            raise ValueError(f"completed_years are not all years: {state.completed_years!r}")
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ResumeError(f"checkpoint {ck_path} is not a checkpoint: "
                          f"{type(exc).__name__}: {exc}") from None
    if drift:
        raise ResumeError("config does not match checkpoint: " + "; ".join(drift))
    lost = [year for year in state.completed_years if not _trace_path(out_dir, year).exists()]
    if lost:
        raise ResumeError(f"checkpoint {ck_path} names completed years without a trace: {lost}")
    config.validate()

    current = config.fingerprints()
    for role, digest in fingerprints.items():
        if current.get(role) != digest:
            raise ResumeError(f"input file changed since checkpoint: {role}")

    if ck.get("complete") and (out_dir / "results.json").exists():
        log.info("run already complete; nothing to resume")
        return inputs.read_json(out_dir / "results.json", "results", ResumeError)

    env = _load_environment(config, current)
    if env.header["agent_ids"] != ck["agent_ids"]:
        raise ResumeError("agent sample no longer matches checkpoint")
    domains = set(env.taxonomy.names)
    if set(state.states) != set(ck["agent_ids"]) or not all(
            opinion.agent_id == agent_id and opinion.valences.keys() == domains
            and opinion.exposures.keys() == domains for agent_id, opinion in state.states.items()):
        raise ResumeError(f"checkpoint {ck_path} does not hold one opinion state per sampled "
                          f"agent over exactly the taxonomy's domains")

    return _continue(config, env, state, ck["replay_lines"], stop_after_year)


def _continue(config: RunConfig, env: RunEnv, state: RunState, replay_lines: int,
              stop_after_year: int | None) -> dict:
    """Open the gateway, which cuts the replay log back to replay_lines lines, cut
    the year files back to the state, then drive the years left; a fresh run passes 0."""
    out_dir = Path(config.out_dir)
    gateway = Gateway(config.backend, log_path=out_dir / REPLAY_NAME, replay_lines=replay_lines)
    try:
        for path in [*out_dir.glob("updates_*.jsonl"), *out_dir.glob("trace/year_*.jsonl")]:
            if path.stem.split("_", 1)[1] not in map(str, state.completed_years):
                path.unlink()
        # a kill before the next year ends resumes from here
        _write_checkpoint(out_dir, env.header, gateway, state, False)
        return _drive(config, env, gateway, state, stop_after_year)
    finally:
        gateway.close()


def _config_drift(proposed: dict, recorded: dict) -> list[str]:
    return [f"{key}: checkpoint={recorded.get(key)!r} proposed={proposed.get(key)!r}"
            for key in sorted(set(proposed) | set(recorded))
            if proposed.get(key) != recorded.get(key)]


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
    selections = _choose(config, env, gateway, years[0]) if years else None
    for year, next_year in zip(years, [*years[1:], None]):
        began = time.perf_counter()
        read = _start_year(config, env, gateway, state, year, selections)
        # behind this year's reading, on the remote backend; the last year holds none
        selections = _choose(config, env, gateway, next_year) if next_year else None
        updates, trace = [], []
        while read:  # each agent's call is dropped once its chain is written
            opinion, agent_updates, row = read.pop(0)()
            state.states[opinion.agent_id] = opinion
            updates.extend(agent_updates)
            trace.append(row)
        outputs.write_jsonl(out_dir / f"updates_{year}.jsonl", updates)
        outputs.write_jsonl(_trace_path(out_dir, year), trace)
        state.completed_years.append(year)
        _write_checkpoint(out_dir, env.header, gateway, state, False)
        log.info("year %d done in %.2f s: %d exchanges and %d fallbacks so far", year,
                 time.perf_counter() - began, gateway.exchanges, gateway.fallbacks)
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
            error = mae(results, env.truth)
        else:
            log.warning("ground truth and simulation share no years; skipping MAE")

    bundle = {
        "config_hash": config.config_hash(),
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

