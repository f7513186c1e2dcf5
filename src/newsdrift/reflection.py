"""Batch reflection and the per-domain opinion update.

Each agent holds one valence per taxonomy domain, clamped to [-2, 2], plus
an exposure counter. A batch of read articles produces a reflection outcome
naming the touched domains; applying it rewrites exactly those domains and
leaves every other domain untouched.

The deterministic rules mirror dissonance resolution: news agreeing with
the current leaning (or landing on a blank slate) is confirmed and absorbed;
stronger contradicting news revises the valence; weaker contradicting news
is either dismissed (a weak opinion decays toward zero) or reinforced (a
held opinion barely budges and a rationalizing cognition is recorded).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from . import prompts
from .errors import ValidationError
from .gateway import VALENCE_MAX, VALENCE_MIN, GenerationRequest, clamp_valence, is_number
from .mock import MockLexicon, mock_sentiment
from .modes import Kept
from .taxonomy import TopicTaxonomy

log = logging.getLogger(__name__)

WEAK_OPINION = 0.25
REINFORCE_KEEP = 0.9
DISMISS_KEEP = 0.5
NUDGE = 0.01


@dataclass
class OpinionState:
    agent_id: str
    valences: dict[str, float]
    exposures: dict[str, int]
    last_response: int | None = None

    @classmethod
    def initial(cls, agent_id: str, taxonomy: TopicTaxonomy) -> "OpinionState":
        return cls(agent_id, dict.fromkeys(taxonomy.names, 0.0), dict.fromkeys(taxonomy.names, 0))

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "valences": dict(self.valences),
            "exposures": dict(self.exposures),
            "last_response": self.last_response,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "OpinionState":
        """Read a checkpointed state, refusing values no run writes, such as true or "1.5"."""
        state = cls(doc["agent_id"], dict(doc["valences"]), dict(doc["exposures"]),
                    doc.get("last_response"))
        last = state.last_response
        if not (all(is_number(v) and VALENCE_MIN <= v <= VALENCE_MAX
                    for v in state.valences.values())
                and all(is_number(n, int) and n >= 0 for n in state.exposures.values())
                and (last is None or is_number(last, int) and 1 <= last <= 4)):
            raise ValueError(f"the state of {state.agent_id!r} holds a valence that is no number "
                             f"in [-2, 2], an exposure that is no count, or a last response "
                             f"other than null or 1-4")
        return state


@dataclass
class ReflectionOutcome:
    batch_id: str
    domains: dict[str, dict]
    batch_counts: dict[str, int] = field(default_factory=dict)


def categorize_payload(payload, taxonomy: TopicTaxonomy) -> str:
    """Resolve an article's domain: stored category, else keyword rules."""
    return payload.category or taxonomy.best_topic(payload.headline + " " + payload.full_text)


def _mock_domain_update(old: float, mean_sentiment: float,
                        dissonance: bool) -> tuple[str, float, list[str]]:
    """Deterministic dissonance resolution for one domain."""
    if not dissonance:
        return "none", clamp_valence(old + mean_sentiment), []
    consonant = old == 0.0 or mean_sentiment == 0.0 or (old > 0) == (mean_sentiment > 0)
    if consonant:
        return "confirm", clamp_valence(old + mean_sentiment), []
    if abs(mean_sentiment) >= abs(old):
        return "revise", clamp_valence(old + mean_sentiment), []
    if abs(old) < WEAK_OPINION:
        return "dismiss", old * DISMISS_KEEP, []
    cognition = "the coverage looks one-sided, so my view stands"
    return "reinforce", old * REINFORCE_KEEP, [cognition]


def _mock_outcome(payloads, payload_domains: list[str], state: OpinionState,
                  taxonomy: TopicTaxonomy, lexicon: MockLexicon,
                  critique: str | None, kept: Kept) -> dict:
    sentiments: dict[str, list[float]] = {}
    for payload, domain in zip(payloads, payload_domains):
        score = mock_sentiment(payload.headline + " " + payload.full_text, lexicon)
        sentiments.setdefault(domain, []).append(score)

    domains = {}
    for domain in taxonomy.names:
        if domain not in sentiments:
            continue
        scores = sentiments[domain]
        mean = sum(scores) / len(scores)
        if critique is not None:
            mean = mean / 2.0
        old = state.valences[domain]
        action, new, cognitions = _mock_domain_update(old, mean, kept.dissonance)
        new = round(new, 6)
        if new == old:
            continue
        domains[domain] = {
            "action": action,
            "new_valence": new,
            "cognitions": cognitions,
        }
    themes = sorted(sentiments)
    reasoning = (
        f"weighed {len(payloads)} articles across {len(sentiments)} domains; "
        f"updated {len(domains)}"
    )
    return {"themes": themes, "reasoning": reasoning, "domains": domains}


def reflect_batch(profile, payloads, state: OpinionState, gateway,
                  taxonomy: TopicTaxonomy, lexicon: MockLexicon,
                  kept: Kept, batch_id: str, tag: str,
                  critique: str | None = None) -> ReflectionOutcome:
    if not payloads:
        raise ValidationError("reflection needs at least one article")

    payload_domains = [categorize_payload(p, taxonomy) for p in payloads]
    counts = dict(Counter(payload_domains))
    mock = partial(_mock_outcome, payloads, payload_domains, state, taxonomy, lexicon,
                   critique, kept)
    system, user = prompts.render_reflection(
        profile,
        opinions=format_opinions(state, taxonomy),
        news_list=prompts.format_news_list(payloads),
        devils_advocate_response=critique,
        kept=kept,
    )
    request = GenerationRequest(system, user, "reflection_update", tag)
    parsed = gateway.generate(request, mock,
                              fallback=lambda: {"themes": [], "reasoning": "", "domains": {}})
    domains = {}
    for name, entry in parsed["domains"].items():
        if name not in taxonomy.names:
            log.warning("dropping unknown domain %r in %s", name, batch_id)
            continue
        entry = dict(entry)
        if not kept.dissonance:
            entry["action"] = "none"
        old = state.valences[name]
        if entry["new_valence"] == old:
            # a repeated value still moves toward zero (down from zero); mock
            # outcomes never repeat one, so only model answers are nudged
            entry["new_valence"] = round(old + NUDGE if old < 0 else old - NUDGE, 6)
        domains[name] = entry
    return ReflectionOutcome(batch_id=batch_id, domains=domains, batch_counts=counts)


def apply_updates(state: OpinionState, outcome: ReflectionOutcome,
                  year: int) -> tuple[OpinionState, list[dict]]:
    """Rewrite touched domains, bump their exposures, freeze the rest; ``reflect_batch``
    names only taxonomy domains, and only valences in range."""
    new_state = OpinionState(state.agent_id, dict(state.valences), dict(state.exposures),
                             state.last_response)
    updates = []
    for domain, entry in outcome.domains.items():
        old, new = state.valences[domain], entry["new_valence"]
        new_state.valences[domain] = new
        new_state.exposures[domain] += outcome.batch_counts.get(domain, 0)
        updates.append({
            "agent_id": state.agent_id,
            "year": year,
            "domain": domain,
            "old_valence": old,
            "delta": round(new - old, 6),
            "new_valence": new,
            "action": entry["action"],
            "batch_id": outcome.batch_id,
        })
    return new_state, updates


def format_opinions(state: OpinionState, taxonomy: TopicTaxonomy) -> str:
    return "\n".join(f"- {name}: valence {state.valences[name]:+.3f}, "
                     f"exposures {state.exposures[name]}" for name in taxonomy.names)
