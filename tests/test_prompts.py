from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from newsdrift import prompts
from newsdrift.distribution import Payload
from newsdrift.modes import KEPT, Kept
from newsdrift.profiles import AgentProfile


FakeProfile = AgentProfile(
    agent_id="agent-0000",
    demographics={"gender": "female", "race": "white", "party": "democrat",
                  "state": "CA", "region": "Pacific", "age_band": "30-44",
                  "education": "college", "income_band": "middle"},
    political_preferences={"ideology": "liberal", "party_strength": "lean"},
    media_preferences={"news_frequency": "daily", "primary_news_source": "online"},
    domestic_views={"abortion": "favor", "gun_control": "oppose"},
    interests=("economics", "technology"),
    provenance={},
)


PAYLOADS = (Payload("a1", "Headline One", "Body text one."),
            Payload("a2", "Headline Two", "Body text two."))


def _no_leftover_placeholders(*parts):
    import re
    for part in parts:
        leftovers = re.findall(r"\{[a-z_]+\}", part)
        assert not leftovers, leftovers


def test_format_news_list():
    text = prompts.format_news_list(PAYLOADS)
    assert "Article 1: Headline One" in text
    assert "Content: Body text one." in text
    assert "Article 2: Headline Two" in text


def test_format_news_list_title_only_leaves_content_empty():
    bare = (Payload("a1", "Headline One", ""),)
    text = prompts.format_news_list(bare)
    content_lines = [l for l in text.splitlines() if l.startswith("Content:")]
    assert content_lines and all(l.strip() == "Content:" for l in content_lines)


def test_format_numbered_headlines_starts_at_one():
    text = prompts.format_numbered_headlines((("a1", "First"), ("a2", "Second")))
    assert text.splitlines() == ["1. First", "2. Second"]


def test_reflection_prompt_fills_everything():
    news = prompts.format_news_list(PAYLOADS)
    system, user = prompts.render_reflection(FakeProfile, "- economics: valence +1.000, exposures 2", news)
    assert system
    assert "Headline One" in user
    assert "female" in user
    _no_leftover_placeholders(system, user)


def test_an_article_naming_a_placeholder_goes_into_the_prompt_verbatim():
    """A value is never scanned for placeholders, so a later key cannot find one in it."""
    news = prompts.format_news_list([Payload("a1", "Headline", "Readers ask: {interests}?")])
    system, user = prompts.render_reflection(FakeProfile, "op", news)
    assert "Content: Readers ask: {interests}?" in user
    assert "economics, technology" in user  # the template's own {interests}
    system, user = prompts.render_debias("Quote the {full_text} tag as is.")
    assert "Quote the {full_text} tag as is." in user


def test_a_headline_naming_a_later_placeholder_is_not_filled():
    system, user = prompts.render_selection(FakeProfile, "1. China picks {m} winners", 3)
    assert "1. China picks {m} winners" in user
    assert "1. China picks 3 winners" not in user


def test_reflection_prompt_no_profile_placeholder():
    news = prompts.format_news_list(PAYLOADS)
    system, user = prompts.render_reflection(FakeProfile, "op", news, kept=KEPT["no_profile"])
    assert "(no profile available)" in user
    assert "female" not in user
    assert "democrat" not in user
    _no_leftover_placeholders(system, user)


def test_reflection_prompt_no_cognitive_strips_dissonance_menu():
    news = prompts.format_news_list(PAYLOADS)
    system, user = prompts.render_reflection(FakeProfile, "op", news, kept=KEPT["no_cognitive"])
    whole = system + user
    assert "Compare new information with existing beliefs" not in whole
    assert '"action": "confirm|revise|reinforce|dismiss"' not in whole
    assert '"action": "none"' in whole
    # the standard prompt keeps both
    system, user = prompts.render_reflection(FakeProfile, "op", news)
    whole = system + user
    assert "Compare new information with existing beliefs" in whole
    assert '"action": "confirm|revise|reinforce|dismiss"' in whole


def test_reflection_prompt_devils_advocate_variant():
    news = prompts.format_news_list(PAYLOADS)
    critique = "These articles overstate the risks."
    system, user = prompts.render_reflection(FakeProfile, "op", news,
                                             devils_advocate_response=critique)
    assert critique in user
    _no_leftover_placeholders(system, user)


def test_survey_prompt_scale_and_previous_answer():
    system, user = prompts.render_survey(FakeProfile, "- economics: valence +0.500, exposures 3",
                                         0.5, None)
    assert "1 = Very unfavorable" in user
    assert "4 = Very favorable" in user
    assert "(1, 2, 3, or 4)" in user
    assert "+0.500" in user
    assert "none yet" in user
    system, user = prompts.render_survey(FakeProfile, "op", -1.25, 2)
    assert "-1.250" in user
    assert "none yet" not in user
    _no_leftover_placeholders(system, user)


def test_debias_prompt_embeds_text():
    system, user = prompts.render_debias("A very alarming development.")
    assert "A very alarming development." in user
    assert "debiased_text" in system + user
    _no_leftover_placeholders(system, user)


def test_critique_prompt_embeds_news():
    news = prompts.format_news_list(PAYLOADS)
    system, user = prompts.render_critique(news)
    assert "Headline Two" in user
    _no_leftover_placeholders(system, user)


def test_selection_prompt_has_count_and_headlines():
    numbered = prompts.format_numbered_headlines((("a1", "First"), ("a2", "Second")))
    system, user = prompts.render_selection(FakeProfile, numbered, 1)
    assert "1. First" in user
    assert "female" in user
    _no_leftover_placeholders(system, user)


def test_interests_prompt():
    system, user = prompts.render_interests("I post about tariffs.",
                                            "news_frequency: daily",
                                            ("economics", "politics"))
    assert "tariffs" in user
    assert "economics" in user
    _no_leftover_placeholders(system, user)


def test_demographics_text_lists_fields():
    text = prompts.demographics_text(FakeProfile)
    assert "gender: female" in text
    assert "ideology: liberal" in text


def test_split_role():
    role, rest = prompts.split_role("You are someone.\n\nDo the thing.\nMore.")
    assert role == "You are someone."
    assert rest.startswith("Do the thing.")


def _fill(template: str, mapping: dict[str, str]) -> str:
    """The renderers' one-pass fill from before each template was split once."""
    return re.sub(r"\{(\w+)\}", lambda match: mapping[match.group(1)], template)


def _old_render(name: str, mapping: dict[str, str], no_cognitive: bool = False):
    template = prompts._template(name)
    if no_cognitive:
        template = prompts._strip_dissonance(template)
    return prompts.split_role(_fill(template, mapping))


# values that name placeholders, break paragraphs or carry outer whitespace
_VALUES = st.text() | st.lists(st.sampled_from(
    ["{m}", "{interests}", "{full_text}", "{current_opinions}", "\n\n", "\n", " ", "\t",
     "\u2028", "China", "é", "{", "}"])).map("".join)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_VALUES, min_size=5, max_size=5), m=st.integers(1, 50),
       valence=st.floats(-2, 2), previous=st.none() | st.integers(1, 4),
       keeps_profile=st.booleans(), keeps_dissonance=st.booleans())
def test_every_template_renders_as_the_one_pass_fill_did(values, m, valence, previous,
                                                          keeps_profile, keeps_dissonance):
    opinions, news, critique, text, interest = values
    kept = Kept(profile=keeps_profile, dissonance=keeps_dissonance)
    profile = AgentProfile(
        agent_id="agent-0000", demographics={"gender": text, "state": news},
        political_preferences={"ideology": interest}, media_preferences={"news": opinions},
        domestic_views={"abortion": critique}, interests=(interest, "economics"), provenance={})
    texts = {"interests": prompts.interests_text(profile),
             "demographics_str": prompts.demographics_text(profile),
             "domestic_views_str": prompts.domestic_views_text(profile),
             "media_preferences_str": prompts.media_preferences_text(profile)}
    reflection_texts = dict.fromkeys(("interests", "demographics_str", "domestic_views_str"),
                                     prompts.NO_PROFILE_TEXT) if not keeps_profile else texts
    for devil in (None, critique):
        mapping = {**reflection_texts, "current_opinions": opinions, "formatted_news_list": news}
        name = "reflection"
        if devil is not None:
            mapping["devils_advocate_response"], name = devil, "reflection_devils_advocate"
        assert prompts.render_reflection(
            profile, opinions, news, devils_advocate_response=devil,
            kept=kept) == _old_render(name, mapping, not keeps_dissonance)
    assert prompts.render_debias(text) == _old_render("debias", {"full_text": text})
    assert prompts.render_critique(news) == _old_render("critique", {"formatted_news_list": news})
    assert prompts.render_selection(profile, news, m) == _old_render(
        "selection", {**texts, "numbered_headlines": news, "m": str(m)})
    assert prompts.render_survey(profile, opinions, valence, previous) == _old_render(
        "survey", {**texts, "current_opinions": opinions, "overall_valence": f"{valence:+.3f}",
                   "previous_response": "none yet" if previous is None else str(previous)})
    assert prompts.render_interests(text, opinions, (interest, critique)) == _old_render(
        "interests", {"posts": text, "media_preferences_str": opinions,
                      "topic_names": f"{interest}, {critique}"})


def test_a_template_with_a_placeholder_in_its_first_paragraph_is_refused():
    with pytest.raises(ValueError, match="first paragraph"):
        prompts._split("You are {name}.\n\nAnswer.")
