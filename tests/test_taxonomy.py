from __future__ import annotations

import json
import re

import pytest
from hypothesis import assume, given, strategies as st

from newsdrift.errors import ValidationError
from newsdrift.mock import load_lexicon, mock_sentiment
from newsdrift.taxonomy import Topic, TopicTaxonomy, load_taxonomy

_TAXONOMY = load_taxonomy()
_LEXICON = load_lexicon()
# words that hit the rules, mixed with filler and arbitrary text below
_WORDS = sorted({kw for t in _TAXONOMY.topics for kw in t.keywords}
                | set(_LEXICON.signed) | {"China", "the", "AI", "Tariffs", "x"})
_texts = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join),
    st.text(max_size=80),
)
# keywords in any case, next to filler words and punctuation, joined by
# spaces or glued into longer words
_KEYWORDS = sorted({kw for t in _TAXONOMY.topics for kw in t.keywords})
_tokens = st.one_of(
    st.sampled_from(_KEYWORDS),
    st.sampled_from(_KEYWORDS).map(str.upper),
    st.sampled_from(_KEYWORDS).map(str.title),
    st.sampled_from(["the", "said", "waiter", "traders", "market", "share", "war", "x", "AI-led"]),
    st.sampled_from([",", ".", "!", "-", "'s", "\n", "_", "3"]),
)
_scan_texts = st.one_of(
    st.lists(_tokens, max_size=16).map(" ".join),
    st.lists(_tokens, max_size=16).map("".join),
    st.text(max_size=80),
)


def _reference(taxonomy, text):
    """keyword_hits, best_topic and topics_in_text from a search per keyword."""
    lowered = text.lower()
    distinct = tuple(t.keywords_present(lowered) for t in taxonomy.topics)
    best, best_count = taxonomy.names[0], 0
    for t in taxonomy.topics:
        count = sum(len(re.findall(r"\b" + re.escape(kw.lower()) + r"\b", lowered))
                    for kw in t.keywords)
        if count > best_count:
            best, best_count = t.name, count
    topics = [t.name for t, n in zip(taxonomy.topics, distinct) if n]
    return distinct, best, topics


def _scanned(taxonomy, text):
    return taxonomy.keyword_hits(text), taxonomy.best_topic(text), taxonomy.topics_in_text(text)


def _with_keywords(**extra):
    """The packaged topics, with extra keywords appended to the named ones."""
    return [Topic(t.name, [*t.keywords, *extra.get(t.name, ())]) for t in _TAXONOMY.topics]


def test_packaged_taxonomy_shape(taxonomy):
    assert len(taxonomy.topics) == 15
    for required in ("economics", "politics", "health", "technology",
                     "lifestyle", "sports", "entertainment"):
        assert required in taxonomy.names


def test_keyword_tagging_finds_economics(taxonomy):
    tagged = taxonomy.tag_interests("I follow the stock market and worry about tariffs.")
    assert tagged == ["economics"]


def test_tagging_falls_back_to_first_topic(taxonomy):
    assert taxonomy.tag_interests("") == [taxonomy.names[0]]
    assert taxonomy.tag_interests("xyzzy plugh") == [taxonomy.names[0]]


def test_word_boundary_matching(taxonomy):
    # "ai" must not fire inside ordinary words
    assert "technology" not in taxonomy.topics_in_text("the waiter said hello")
    assert "technology" in taxonomy.topics_in_text("an AI system launched")


def test_multi_topic_text(taxonomy):
    topics = taxonomy.topics_in_text("trade talks and a new software release")
    assert "economics" in topics and "technology" in topics
    # taxonomy order preserved
    assert topics.index("economics") < topics.index("technology")


def test_best_topic_prefers_hit_count(taxonomy):
    text = "software software software and one tariff"
    assert taxonomy.best_topic(text) == "technology"


def test_categorize_unmatched_text_uses_first_topic(taxonomy):
    assert taxonomy.best_topic("nothing relevant here") == taxonomy.names[0]


def test_wrong_topic_count_rejected():
    topics = [Topic(f"t{i}", [f"kw{i}"]) for i in range(3)]
    with pytest.raises(ValidationError):
        TopicTaxonomy(topics, {})


def test_duplicate_topic_names_rejected(taxonomy):
    topics = [Topic("economics", ["economy"])] * 15
    with pytest.raises(ValidationError):
        TopicTaxonomy(topics, {})


def test_load_from_explicit_path(tmp_path, taxonomy):
    doc = {
        "topics": [{"name": t.name, "keywords": list(t.keywords)} for t in taxonomy.topics],
        "demographics": {k: list(v) for k, v in taxonomy.demographics.items()},
    }
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(doc))
    loaded = load_taxonomy(path)
    assert loaded.names == taxonomy.names


@pytest.mark.parametrize("keywords", [["economy", 7], "economy"],
                         ids=["non-string-keyword", "keywords-not-a-list"])
def test_load_refuses_mistyped_keywords(tmp_path, taxonomy, keywords):
    doc = {"topics": [{"name": t.name, "keywords": list(t.keywords)} for t in taxonomy.topics]}
    doc["topics"][0]["keywords"] = keywords
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="taxonomy topic 'economics'"):
        load_taxonomy(path)


@pytest.mark.parametrize("demographics", [[], {"gender": "female"}, {"gender": [1, 2]}],
                         ids=["a-list", "a-string-vocabulary", "non-string-values"])
def test_load_refuses_demographics_that_are_no_object_of_string_lists(tmp_path, taxonomy,
                                                                       demographics):
    doc = {"topics": [{"name": t.name, "keywords": list(t.keywords)} for t in taxonomy.topics],
           "demographics": demographics}
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as refused:
        load_taxonomy(path)
    assert f"taxonomy {path} is not a taxonomy" in str(refused.value)
    assert "demographics must be an object of string lists" in str(refused.value)


def test_vocab_validation(taxonomy):
    assert taxonomy.validate_vocab("gender", "female")
    assert not taxonomy.validate_vocab("gender", "xyz")
    # unknown fields are unconstrained
    assert taxonomy.validate_vocab("shoe_size", "12")


@given(_texts)
def test_memoised_rules_match_a_fresh_computation(text):
    hits = _TAXONOMY.keyword_hits(text)
    assert hits == tuple(t.keywords_present(text.lower()) for t in _TAXONOMY.topics)
    assert _TAXONOMY.keyword_hits(text) == hits

    # a taxonomy and lexicon with empty memos compute from scratch
    fresh_taxonomy = TopicTaxonomy(list(_TAXONOMY.topics), _TAXONOMY.demographics)
    fresh_lexicon = load_lexicon()
    best = _TAXONOMY.best_topic(text)
    assert _TAXONOMY.best_topic(text) == best == fresh_taxonomy.best_topic(text)
    score = mock_sentiment(text, _LEXICON)
    again = mock_sentiment(text, _LEXICON)
    assert repr(again) == repr(score) == repr(mock_sentiment(text, fresh_lexicon))


@given(_scan_texts)
def test_one_scan_counts_like_a_search_per_keyword(text):
    assert _scanned(_TAXONOMY, text) == _reference(_TAXONOMY, text)


@given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(" ".join),
                min_size=1, max_size=6, unique=True),
       st.data())
def test_taxonomies_the_guard_admits_scan_like_a_search_per_keyword(keywords, data):
    # up to six keywords of one to three words, spread over three topics
    topics = [Topic(t.name, keywords[i::3] if i < 3 else [])
              for i, t in enumerate(_TAXONOMY.topics)]
    try:
        taxonomy = TopicTaxonomy(topics, {})
    except ValidationError:
        assume(False)
    pieces = st.sampled_from([*keywords, "a", "b", "c", "B", "-", "ab"])
    text = data.draw(st.lists(pieces, max_size=8).map(" ".join))
    assert _scanned(taxonomy, text) == _reference(taxonomy, text)


@pytest.mark.parametrize("extra, named", [
    ({"business": ["Economy"]}, ["'economy' appears 2 times"]),
    ({"health": ["VIRUS"]}, ["'virus' appears 2 times"]),
    ({"economics": ["trade war"]}, ["'trade' occurs inside 'trade war'"]),
    ({"business": ["market share"]}, ["'stock market' and 'market share' can overlap"]),
    ({"sports": [""]}, ["empty keyword ''"]),
], ids=["duplicate-across-topics", "duplicate-in-one-topic", "inside-another",
        "overlapping", "empty"])
def test_keywords_one_scan_would_miscount_are_refused(extra, named):
    with pytest.raises(ValidationError) as err:
        TopicTaxonomy(_with_keywords(**extra), {})
    for problem in named:
        assert problem in str(err.value)


def test_packaged_taxonomy_passes_the_keyword_guard():
    taxonomy = load_taxonomy()
    assert taxonomy.topics_in_text("Stock market rally; trade talks resume.") == ["economics"]
