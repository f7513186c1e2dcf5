from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from newsdrift.errors import ValidationError
from newsdrift.gateway import MockLexicon, load_lexicon, mock_sentiment
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


def test_packaged_taxonomy_shape(taxonomy):
    assert len(taxonomy.topics) == 15
    for required in ("economics", "politics", "health", "technology",
                     "lifestyle", "sports", "entertainment"):
        assert required in taxonomy


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
    assert taxonomy.categorize("nothing relevant here") == taxonomy.names[0]


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
        "topics": [{"name": n, "keywords": list(taxonomy.topic(n).keywords)}
                   for n in taxonomy.names],
        "demographics": {k: list(v) for k, v in taxonomy.demographics.items()},
    }
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(doc))
    loaded = load_taxonomy(path)
    assert loaded.names == taxonomy.names


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
    fresh_lexicon = MockLexicon(_LEXICON.positive, _LEXICON.negative)
    best = _TAXONOMY.best_topic(text)
    assert _TAXONOMY.best_topic(text) == best == fresh_taxonomy.best_topic(text)
    score = mock_sentiment(text, _LEXICON)
    again = mock_sentiment(text, _LEXICON)
    assert repr(again) == repr(score) == repr(mock_sentiment(text, fresh_lexicon))
