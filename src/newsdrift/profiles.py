"""Synthetic population construction.

Social-media records supply state and post text; survey respondent
records supply region plus the 42 preference/view fields. Records are
paired on region and demographics, interests are tagged from post and
media-preference text, and the result is a fixed-arity profile per agent:
8 demographic + 5 political + 7 media + 30 domestic-view fields.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

from . import inputs, outputs, prompts
from .errors import ConfigError, MatchingError, ValidationError
from .gateway import GenerationRequest
from .geography import REGIONS, state_to_region
from .seeding import stable_rng
from .taxonomy import TopicTaxonomy

log = logging.getLogger(__name__)

MATCH_FIELDS = ("gender", "race", "party")


@lru_cache(maxsize=None)
def load_profile_schema() -> dict[str, tuple[str, ...]]:
    doc = inputs.read_json(None, "profile schema", ValidationError)
    return {section: tuple(names) for section, names in doc.items()}


@dataclass(frozen=True)
class SocialMediaRecord:
    record_id: str
    state: str
    gender: str
    race: str
    party: str
    posts: tuple[str, ...] = ()


@dataclass(frozen=True)
class SurveyRespondentRecord:
    record_id: str
    region: str
    gender: str
    race: str
    party: str
    extra_demographics: dict = field(default_factory=dict)
    media_preferences: dict = field(default_factory=dict)
    political_preferences: dict = field(default_factory=dict)
    domestic_views: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MatchedPair:
    social: SocialMediaRecord
    survey: SurveyRespondentRecord
    compromised_feature: str | None


@dataclass(frozen=True)
class AgentProfile:
    agent_id: str
    demographics: dict
    political_preferences: dict
    media_preferences: dict
    domestic_views: dict
    interests: tuple[str, ...]
    provenance: dict
    # the profile's texts in every prompt, made once: nothing changes a loaded profile
    interests_text: str = field(init=False, repr=False)
    demographics_text: str = field(init=False, repr=False)
    media_preferences_text: str = field(init=False, repr=False)
    domestic_views_text: str = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("interests_text", "demographics_text", "media_preferences_text",
                     "domestic_views_text"):
            object.__setattr__(self, name, getattr(prompts, name)(self))

    def feature_count(self) -> int:
        return (len(self.demographics) + len(self.political_preferences)
                + len(self.media_preferences) + len(self.domestic_views))

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "demographics": dict(self.demographics),
            "political_preferences": dict(self.political_preferences),
            "media_preferences": dict(self.media_preferences),
            "domestic_views": dict(self.domestic_views),
            "interests": list(self.interests),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, doc: dict, taxonomy: TopicTaxonomy) -> "AgentProfile":
        profile = cls(
            agent_id=doc["agent_id"],
            demographics=dict(doc["demographics"]),
            political_preferences=dict(doc["political_preferences"]),
            media_preferences=dict(doc["media_preferences"]),
            domestic_views=dict(doc["domestic_views"]),
            interests=tuple(doc["interests"]),
            provenance=dict(doc.get("provenance", {})),
        )
        validate_profile(profile, taxonomy)
        return profile


def validate_profile(profile: AgentProfile, taxonomy: TopicTaxonomy):
    schema = load_profile_schema()
    sections = (
        ("demographics", profile.demographics),
        ("political_preferences", profile.political_preferences),
        ("media_preferences", profile.media_preferences),
        ("domestic_views", profile.domestic_views),
    )
    for name, fields in sections:
        expected = schema[name]
        if tuple(fields.keys()) != expected:
            raise ValidationError(
                f"profile {profile.agent_id}: {name} fields {sorted(fields)} "
                f"do not match the declared schema"
            )
    if profile.feature_count() != 50:
        raise ValidationError(f"profile {profile.agent_id}: expected 50 feature fields")
    if not profile.interests:
        raise ValidationError(f"profile {profile.agent_id}: interests empty")
    unknown = [t for t in profile.interests if t not in taxonomy.names]
    if unknown:
        raise ValidationError(f"profile {profile.agent_id}: interests outside taxonomy: {unknown}")
    state = profile.demographics["state"]
    region = profile.demographics["region"]
    if state_to_region(state) != region:
        raise ValidationError(
            f"profile {profile.agent_id}: state {state} is not in region {region}"
        )
    if profile.provenance.get("compromised_feature") == "region":
        raise ValidationError(f"profile {profile.agent_id}: region can never be compromised")


# ---------------------------------------------------------------------------
# Record loading
# ---------------------------------------------------------------------------

def _load_records(path, taxonomy: TopicTaxonomy, what: str, build) -> list:
    """The records build makes of a JSONL file's lines. A line that does not parse
    or build, breaks the vocabulary or repeats a record id is skipped with a warning."""
    records = []
    seen = set()
    for lineno, line in inputs.read_lines(path, f"{what} records", ValidationError):
        try:
            record = build(json.loads(line))
            if not isinstance(record.record_id, str):
                raise ValidationError(f"record_id must be a string: {record.record_id!r}")
            for name in MATCH_FIELDS:
                value = getattr(record, name)
                if not taxonomy.validate_vocab(name, value):
                    raise ValidationError(f"{name} value {value!r} outside taxonomy vocabulary")
            if record.record_id in seen:
                raise ValidationError(f"duplicate record_id {record.record_id}")
            seen.add(record.record_id)
        except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
            log.warning("skipping %s record at %s:%d (%s)", what, path, lineno, exc)
            continue
        records.append(record)
    return records


def load_social_records(path: str | Path, taxonomy: TopicTaxonomy) -> list[SocialMediaRecord]:
    def build(doc) -> SocialMediaRecord:
        posts = doc.get("posts", [])
        if not (isinstance(posts, list) and all(isinstance(post, str) for post in posts)):
            raise ValidationError(f"posts must be a list of strings: {posts!r}")
        record = SocialMediaRecord(
            record_id=doc["record_id"],
            state=doc["state"],
            gender=doc["gender"],
            race=doc["race"],
            party=doc["party"],
            posts=tuple(posts),
        )
        state_to_region(record.state)
        return record

    return _load_records(path, taxonomy, "social", build)


def load_survey_records(path: str | Path, taxonomy: TopicTaxonomy) -> list[SurveyRespondentRecord]:
    schema = load_profile_schema()
    extra_fields = [name for name in schema["demographics"]
                    if name not in ("gender", "race", "party", "state", "region")]

    def build(doc) -> SurveyRespondentRecord:
        if doc["region"] not in REGIONS:
            raise ValidationError(f"unknown region {doc['region']!r}")
        return SurveyRespondentRecord(
            record_id=doc["record_id"],
            region=doc["region"],
            gender=doc["gender"],
            race=doc["race"],
            party=doc["party"],
            extra_demographics={name: doc.get(name, "unknown") for name in extra_fields},
            media_preferences=_fixed_arity(doc.get("media_preferences"),
                                           schema["media_preferences"]),
            political_preferences=_fixed_arity(doc.get("political_preferences"),
                                               schema["political_preferences"]),
            domestic_views=_fixed_arity(doc.get("domestic_views"),
                                        schema["domestic_views"]),
        )

    return _load_records(path, taxonomy, "survey", build)


def _fixed_arity(values, names: tuple[str, ...]) -> dict:
    """Keep declared fields in declared order; missing values become unknown."""
    values = values or {}
    if not isinstance(values, dict):
        raise ValidationError("preference section must be an object")
    return {name: values.get(name, "unknown") for name in names}


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def match_records(social: list[SocialMediaRecord],
                  survey: list[SurveyRespondentRecord]) -> tuple[list[MatchedPair], list[str]]:
    """Pair survey respondents with social records.

    Region must agree exactly; at most one of gender/race/party may differ.
    Greedy over survey records in id order, each side used at most once,
    candidates ranked by exact-match count then social record id.
    """
    if not social or not survey:
        raise MatchingError("both record lists must be non-empty")
    by_region: dict[str, list[SocialMediaRecord]] = {}
    for record in sorted(social, key=lambda r: r.record_id):
        by_region.setdefault(state_to_region(record.state), []).append(record)

    pairs: list[MatchedPair] = []
    unmatched: list[str] = []
    used: set[str] = set()
    for resp in sorted(survey, key=lambda r: r.record_id):
        best = None
        for cand in by_region.get(resp.region, []):
            if cand.record_id in used:
                continue
            exact = sum(
                getattr(cand, name) == getattr(resp, name) for name in MATCH_FIELDS
            )
            if exact < 2:
                continue
            rank = (-exact, cand.record_id)
            if best is None or rank < best[0]:
                best = (rank, cand, exact)
        if best is None:
            unmatched.append(resp.record_id)
            continue
        _, cand, exact = best
        used.add(cand.record_id)
        compromised = None
        if exact < len(MATCH_FIELDS):
            compromised = next(
                name for name in MATCH_FIELDS
                if getattr(cand, name) != getattr(resp, name)
            )
        pairs.append(MatchedPair(cand, resp, compromised))
    return pairs, unmatched


# ---------------------------------------------------------------------------
# Interest tagging
# ---------------------------------------------------------------------------

def _interest_source_text(pair: MatchedPair) -> tuple[str, str]:
    posts = "\n".join(pair.social.posts)
    media = "; ".join(f"{k}: {v}" for k, v in pair.survey.media_preferences.items())
    return posts, media


def assign_interests(pair: MatchedPair, taxonomy: TopicTaxonomy, gateway,
                     tag: str) -> tuple[tuple[str, ...], bool]:
    """Tag a matched pair with a non-empty subset of the taxonomy topics.

    Also says whether the keyword rules stood in, both asks having named
    only unknown topics.
    """
    posts, media = _interest_source_text(pair)
    mock = partial(taxonomy.tag_interests, posts + " " + media)
    system, user = prompts.render_interests(posts or "(no posts)", media, taxonomy.names)

    def ask(suffix: str):
        request = GenerationRequest(system, user, "interest_list", tag + suffix)
        return gateway.generate(request, mock, fallback=mock)

    proposed = ask("")
    if any(t not in taxonomy.names for t in proposed):
        proposed = ask(":retry")
    valid = [t for t in taxonomy.names if t in set(proposed)]
    if not valid:
        log.warning("no valid interests from backend for %s, using keyword rules", tag)
        return tuple(mock()), True
    return tuple(valid), False


# ---------------------------------------------------------------------------
# Profile build
# ---------------------------------------------------------------------------

def build_profile(pair: MatchedPair, agent_id: str,
                  interests: tuple[str, ...]) -> AgentProfile:
    schema = load_profile_schema()
    values = {
        "gender": pair.survey.gender,
        "race": pair.survey.race,
        "party": pair.survey.party,
        "state": pair.social.state,
        "region": pair.survey.region,
        **pair.survey.extra_demographics,
    }
    demographics = {name: values.get(name, "unknown") for name in schema["demographics"]}
    return AgentProfile(
        agent_id=agent_id,
        demographics=demographics,
        political_preferences=dict(pair.survey.political_preferences),
        media_preferences=dict(pair.survey.media_preferences),
        domestic_views=dict(pair.survey.domestic_views),
        interests=interests,
        provenance={
            "social_record_id": pair.social.record_id,
            "survey_record_id": pair.survey.record_id,
            "compromised_feature": pair.compromised_feature,
        },
    )


def build_profiles(social_path, survey_path, taxonomy: TopicTaxonomy, gateway,
                   out_path, report_path=None) -> tuple[list[AgentProfile], dict]:
    social = load_social_records(social_path, taxonomy)
    survey = load_survey_records(survey_path, taxonomy)
    if not social or not survey:
        raise MatchingError("no usable records after validation")
    pairs, unmatched = match_records(social, survey)
    if not pairs:
        raise MatchingError("no record pairs could be matched")

    profiles = []
    rule_fallbacks = 0
    for i, pair in enumerate(pairs):
        interests, from_rules = assign_interests(
            pair, taxonomy, gateway, tag=f"interests:{pair.survey.record_id}"
        )
        rule_fallbacks += from_rules
        profile = build_profile(pair, f"agent-{i:04d}", interests)
        validate_profile(profile, taxonomy)
        profiles.append(profile)

    report = {**_matching_report(profiles, unmatched), **gateway.counters(),
              "interest_rule_fallbacks": rule_fallbacks}
    # unsorted keys: validate_profile checks each section's field order
    outputs.write_json(Path(out_path), [p.to_dict() for p in profiles], sort_keys=False)
    if report_path is not None:
        outputs.write_json(Path(report_path), report)
    return profiles, report


def _matching_report(profiles: list[AgentProfile], unmatched: list[str]) -> dict:
    compromised = {"none": 0, "gender": 0, "race": 0, "party": 0}
    for profile in profiles:
        feature = profile.provenance["compromised_feature"] or "none"
        compromised[feature] += 1
    marginals = {}
    for field_name in ("gender", "party", "region", "race"):
        counts: dict[str, int] = {}
        for profile in profiles:
            value = profile.demographics[field_name]
            counts[value] = counts.get(value, 0) + 1
        marginals[field_name] = dict(sorted(counts.items()))
    return {
        "matched": len(profiles),
        "unmatched": sorted(unmatched),
        "compromised": compromised,
        "marginals": marginals,
    }


def load_profiles(path, taxonomy: TopicTaxonomy) -> list[AgentProfile]:
    docs = inputs.read_json(path, "profile file", ValidationError)
    if not isinstance(docs, list) or not docs:
        raise ValidationError(f"profile file {path} must hold a non-empty JSON array")
    profiles = []
    for number, doc in enumerate(docs, 1):
        try:
            profiles.append(AgentProfile.from_dict(doc, taxonomy))
        except (LookupError, TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"profile file {path} entry {number} is not a profile: "
                                  f"{type(exc).__name__}: {exc}") from None
    return profiles


def sample_agents(profiles: list[AgentProfile], n: int, seed) -> list[AgentProfile]:
    if n > len(profiles):
        raise ConfigError(f"cannot sample {n} agents from {len(profiles)} profiles")
    rng = stable_rng(seed, "sample_agents")
    return rng.sample(profiles, n)
