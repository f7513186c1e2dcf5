"""Prompt construction for every backend exchange.

Templates live under data/prompts/ and are filled by literal placeholder
replacement; str.format is unusable here because several templates contain
raw JSON braces. The first paragraph of each template acts as the system
preamble, the remainder as the user message.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .errors import ValidationError

NO_PROFILE_TEXT = "(no profile available)"

# region stripped from reflection templates under the no-cognitive flag
_DISSONANCE_START = "4. **Compare new information with existing beliefs**"
_DISSONANCE_END = (
    "- Reducing the Importance of the Dissonant Cognition: "
    "De-emphasizing the significance of conflicting beliefs or behaviors.\n"
)
_ACTION_MENU = '"action": "confirm|revise|reinforce|dismiss"'
_ACTION_NONE = '"action": "none"'


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return resources.files("newsdrift").joinpath(f"data/prompts/{name}.txt").read_text("utf-8")


def template_bytes() -> bytes:
    """Every packaged template's bytes, joined in file-name order."""
    folder = resources.files("newsdrift").joinpath("data/prompts")
    return b"".join(path.read_bytes() for path in sorted(folder.iterdir(), key=lambda p: p.name))


def _fill(template: str, mapping: dict[str, str]) -> str:
    text = template
    for key, value in mapping.items():
        text = text.replace("{" + key + "}", value)
    for key in mapping:
        if "{" + key + "}" in text:
            raise ValidationError(f"placeholder {{{key}}} survived substitution")
    return text


def split_role(text: str) -> tuple[str, str]:
    """Split a rendered prompt into (system preamble, user message)."""
    head, _, tail = text.partition("\n\n")
    return head.strip(), tail.strip()


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
                      no_profile: bool = False,
                      no_cognitive: bool = False) -> tuple[str, str]:
    name = "reflection_devils_advocate" if devils_advocate_response is not None else "reflection"
    template = _template(name)
    if no_cognitive:
        template = _strip_dissonance(template)
    mapping = {
        "current_opinions": opinions,
        "interests": NO_PROFILE_TEXT if no_profile else interests_text(profile),
        "demographics_str": NO_PROFILE_TEXT if no_profile else demographics_text(profile),
        "domestic_views_str": NO_PROFILE_TEXT if no_profile else domestic_views_text(profile),
        "formatted_news_list": news_list,
    }
    if devils_advocate_response is not None:
        mapping["devils_advocate_response"] = devils_advocate_response
    return split_role(_fill(template, mapping))


def render_debias(full_text: str) -> tuple[str, str]:
    return split_role(_fill(_template("debias"), {"full_text": full_text}))


def render_critique(news_list: str) -> tuple[str, str]:
    return split_role(_fill(_template("critique"), {"formatted_news_list": news_list}))


def render_selection(profile, numbered_headlines: str, m: int) -> tuple[str, str]:
    mapping = {
        "interests": interests_text(profile),
        "demographics_str": demographics_text(profile),
        "media_preferences_str": media_preferences_text(profile),
        "numbered_headlines": numbered_headlines,
        "m": str(m),
    }
    return split_role(_fill(_template("selection"), mapping))


def render_survey(profile, opinions: str, overall_valence: float,
                  previous_response: int | None) -> tuple[str, str]:
    mapping = {
        "interests": interests_text(profile),
        "demographics_str": demographics_text(profile),
        "domestic_views_str": domestic_views_text(profile),
        "current_opinions": opinions,
        "overall_valence": f"{overall_valence:+.3f}",
        "previous_response": "none yet" if previous_response is None else str(previous_response),
    }
    return split_role(_fill(_template("survey"), mapping))


def render_interests(posts: str, media_preferences: str, topic_names) -> tuple[str, str]:
    mapping = {
        "posts": posts,
        "media_preferences_str": media_preferences,
        "topic_names": ", ".join(topic_names),
    }
    return split_role(_fill(_template("interests"), mapping))
