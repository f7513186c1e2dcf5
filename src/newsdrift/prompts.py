"""Prompt construction for every backend exchange.

Templates live under data/prompts/. The first paragraph of each template
acts as the system preamble, the remainder as the user message. Each template
is split once into its preamble and its user part's literal and placeholder
pieces; a render joins the pieces with the values, so a value holding a
placeholder goes in verbatim. str.format is unusable here because several
templates contain raw JSON braces.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

from .modes import Kept

NO_PROFILE_TEXT = "(no profile available)"

# region stripped from reflection templates when a run keeps no dissonance resolution
_DISSONANCE_START = "4. **Compare new information with existing beliefs**"
_DISSONANCE_END = (
    "- Reducing the Importance of the Dissonant Cognition: "
    "De-emphasizing the significance of conflicting beliefs or behaviors.\n"
)
_ACTION_MENU = '"action": "confirm|revise|reinforce|dismiss"'
_ACTION_NONE = '"action": "none"'
# a template's placeholder; the templates' raw JSON braces never match it
_PLACEHOLDER = re.compile(r"\{(\w+)\}")


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return resources.files("newsdrift").joinpath(f"data/prompts/{name}.txt").read_text("utf-8")


def template_bytes() -> bytes:
    """Every packaged template's bytes, joined in file-name order."""
    folder = resources.files("newsdrift").joinpath("data/prompts")
    return b"".join(path.read_bytes() for path in sorted(folder.iterdir(), key=lambda p: p.name))


def split_role(text: str) -> tuple[str, str]:
    """Split a rendered prompt into (system preamble, user message)."""
    head, _, tail = text.partition("\n\n")
    return head.strip(), tail.strip()


@lru_cache(maxsize=None)
def _split(template: str) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """A template's system preamble, its user part's pieces (literal text at even
    indexes, placeholder names at odd ones) and those names."""
    system, user = split_role(template)
    if _PLACEHOLDER.search(system):
        raise ValueError(f"a template's first paragraph holds a placeholder: {system!r}")
    pieces = tuple(_PLACEHOLDER.split(user))
    return system, pieces, pieces[1::2]


def _render(template: str, mapping: dict[str, str]) -> tuple[str, str]:
    """(system preamble, user message) with each {key}'s value put in verbatim."""
    system, pieces, names = _split(template)
    parts = list(pieces)
    parts[1::2] = [mapping[name] for name in names]
    return system, "".join(parts).strip()


@lru_cache(maxsize=None)
def _strip_dissonance(template: str) -> str:
    start = template.index(_DISSONANCE_START)
    end = template.index(_DISSONANCE_END) + len(_DISSONANCE_END)
    stripped = template[:start] + template[end:]
    return stripped.replace(_ACTION_MENU, _ACTION_NONE)


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------

def format_news_list(payloads) -> str:
    """Number each article; title-only payloads leave the Content line empty."""
    parts = []
    for n, payload in enumerate(payloads, start=1):
        parts.append(f"Article {n}: {payload.headline}\nContent: {payload.full_text}")
    return "\n\n".join(parts)


def format_numbered_headlines(offers) -> str:
    return "\n".join(f"{n}. {headline}" for n, (_, headline) in enumerate(offers, start=1))


def _kv_line(pairs: dict) -> str:
    return "; ".join(f"{key}: {value}" for key, value in pairs.items())


def demographics_text(profile) -> str:
    return _kv_line({**profile.demographics, **profile.political_preferences})


def media_preferences_text(profile) -> str:
    return _kv_line(profile.media_preferences)


def domestic_views_text(profile) -> str:
    return _kv_line(profile.domestic_views)


def interests_text(profile) -> str:
    return ", ".join(profile.interests)


# ---------------------------------------------------------------------------
# Renderers: each returns (system preamble, user message)
# ---------------------------------------------------------------------------

def render_reflection(profile, opinions: str, news_list: str, *,
                      devils_advocate_response: str | None = None,
                      kept: Kept = Kept()) -> tuple[str, str]:
    name = "reflection_devils_advocate" if devils_advocate_response is not None else "reflection"
    template = _template(name)
    if not kept.dissonance:
        template = _strip_dissonance(template)
    mapping = {
        "current_opinions": opinions,
        "interests": profile.interests_text if kept.profile else NO_PROFILE_TEXT,
        "demographics_str": profile.demographics_text if kept.profile else NO_PROFILE_TEXT,
        "domestic_views_str": profile.domestic_views_text if kept.profile else NO_PROFILE_TEXT,
        "formatted_news_list": news_list,
    }
    if devils_advocate_response is not None:
        mapping["devils_advocate_response"] = devils_advocate_response
    return _render(template, mapping)


def render_debias(full_text: str) -> tuple[str, str]:
    return _render(_template("debias"), {"full_text": full_text})


def render_critique(news_list: str) -> tuple[str, str]:
    return _render(_template("critique"), {"formatted_news_list": news_list})


def render_selection(profile, numbered_headlines: str, m: int) -> tuple[str, str]:
    mapping = {
        "interests": profile.interests_text,
        "demographics_str": profile.demographics_text,
        "media_preferences_str": profile.media_preferences_text,
        "numbered_headlines": numbered_headlines,
        "m": str(m),
    }
    return _render(_template("selection"), mapping)


def render_survey(profile, opinions: str, overall_valence: float,
                  previous_response: int | None) -> tuple[str, str]:
    mapping = {
        "interests": profile.interests_text,
        "demographics_str": profile.demographics_text,
        "domestic_views_str": profile.domestic_views_text,
        "current_opinions": opinions,
        "overall_valence": f"{overall_valence:+.3f}",
        "previous_response": "none yet" if previous_response is None else str(previous_response),
    }
    return _render(_template("survey"), mapping)


def render_interests(posts: str, media_preferences: str, topic_names) -> tuple[str, str]:
    mapping = {
        "posts": posts,
        "media_preferences_str": media_preferences,
        "topic_names": ", ".join(topic_names),
    }
    return _render(_template("interests"), mapping)
