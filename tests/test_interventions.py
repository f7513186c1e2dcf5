"""Debias rewriting, the devil's-advocate critique, and mode dispatch."""

import re

import pytest
from hypothesis import given, strategies as st

from newsdrift.distribution import Payload
from newsdrift.errors import ConfigError, ValidationError
from newsdrift.gateway import BackendConfig, Gateway, run_once
from newsdrift.interventions import apply_intervention, devils_advocate_critique, rewrite_payload
from newsdrift.mock import load_lexicon, mock_debias_text, mock_sentiment
from newsdrift.modes import TREATMENTS
from newsdrift.orchestrator import RunConfig

LOADED = "China's alarming crackdown stuns markets"


def _payload(i=0, text=LOADED, headline=None):
    return Payload(
        article_id=f"art-{i:03d}",
        headline=headline if headline is not None else f"China report {i}",
        full_text=text,
    )


class CountingGateway:
    """Runs the mock path but remembers how often it was asked."""

    def __init__(self):
        self._inner = Gateway(BackendConfig(mode="mock"))
        self.calls = 0

    def generate(self, request, mock=None, *, fallback):
        self.calls += 1
        return self._inner.generate(request, mock, fallback=fallback)


class BrokenGateway:
    """Every exchange ends in a schema failure."""

    def __init__(self):
        self.calls = 0

    def generate(self, request, mock=None, *, fallback):
        self.calls += 1
        return fallback()


class ForbiddenGateway:
    def generate(self, request, mock=None, *, fallback):  # pragma: no cover
        raise AssertionError("baseline must not touch the text backend")


# --- debias rewriting ---


def test_mock_debias_strips_lexicon_words(lexicon):
    out = mock_debias_text(LOADED, lexicon)
    assert out == "China's markets"
    assert mock_sentiment(out, lexicon) == 0.0
    assert mock_sentiment(LOADED, lexicon) < 0


def test_mock_debias_is_case_insensitive(lexicon):
    out = mock_debias_text("ALARMING news, a Crackdown STUNS everyone", lexicon)
    for word in ("alarming", "crackdown", "stuns"):
        assert word not in out.lower()
    assert mock_sentiment(out, lexicon) == 0.0


def test_mock_debias_leaves_neutral_text_alone(lexicon):
    text = "The delegation met again on Tuesday"
    assert mock_debias_text(text, lexicon) == text


def test_mock_debias_respects_word_boundaries(lexicon):
    # "growths" must survive even though "growth" carries weight
    assert "growth" in lexicon.signed
    out = mock_debias_text("the growths on the chart kept climbing", lexicon)
    assert out == "the growths on the chart kept climbing"


def test_mock_debias_strips_a_word_joined_by_an_underscore(lexicon):
    # mock_sentiment splits tokens at "_", so "cooperation" is scored on its own
    assert mock_sentiment("cooperation_policy", lexicon) == 2.0
    out = mock_debias_text("cooperation_policy", lexicon)
    assert out == "_policy"
    assert mock_sentiment(out, lexicon) == 0.0


def test_mock_debias_strips_in_lower_case_a_text_that_lower_case_lengthens(lexicon):
    # "İ" lower-cases to two characters, which would shift every span after it
    assert mock_debias_text("İzmir alarming talks", lexicon) == "İzmir talks".lower()


_LEXICON = load_lexicon()
_WORDS = sorted(_LEXICON.signed) + ["china", "policy", "growths", "don't", "a", "x1", "İzmir"]


_CASES = [str.lower, str.upper, str.title]


@given(st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_CASES),
                          st.text("_'- 0123456789", max_size=3))))
def test_mock_debias_leaves_nothing_that_mock_sentiment_scores(parts):
    text = "".join(case(word) + glue for word, case, glue in parts)
    assert mock_sentiment(mock_debias_text(text, _LEXICON), _LEXICON) == 0.0


def _rewrites(payloads, gateway, lexicon, rewritten):
    """Each distinct read's rewrite as a year's reading takes it: a call that
    makes the rewrite at its first use."""
    return {p.article_id: run_once(rewrite_payload, p, gateway, lexicon, rewritten)
            for p in payloads}


def test_debias_payload_flags_and_rewrites(mock_gateway, lexicon):
    out = rewrite_payload(_payload(), mock_gateway, lexicon, {})
    assert out.full_text == "China's markets"
    assert out.debiased
    assert out.article_id == "art-000" and out.headline == "China report 0"


def test_debias_payload_neutral_text_still_flagged(mock_gateway, lexicon):
    text = "The delegation met again on Tuesday"
    out = rewrite_payload(_payload(text=text), mock_gateway, lexicon, {})
    assert out.full_text == text
    assert out.debiased


def test_debias_payload_keeps_input_frozen(mock_gateway, lexicon):
    payload = _payload()
    rewrite_payload(payload, mock_gateway, lexicon, {})
    assert payload.full_text == LOADED and not payload.debiased


def test_debias_failure_keeps_original_text(lexicon):
    gateway = BrokenGateway()
    rewritten = {}
    out = rewrite_payload(_payload(), gateway, lexicon, rewritten)
    assert out.full_text == LOADED
    assert not out.debiased
    assert rewritten == {"art-000": [LOADED, True]}


def test_rewrite_payload_notes_each_outcome(lexicon):
    counting, broken = CountingGateway(), BrokenGateway()
    rewritten = {}
    rewrite_payload(_payload(0), counting, lexicon, rewritten)
    rewrite_payload(_payload(1), broken, lexicon, rewritten)
    assert counting.calls == broken.calls == 1
    assert rewritten == {"art-000": ["China's markets", False], "art-001": [LOADED, True]}


# --- devil's advocate critique ---


def test_critique_has_one_bullet_per_headline(mock_gateway, lexicon):
    payloads = [
        _payload(0, headline="Trade boom lifts coastal factories"),
        _payload(1, headline="Crackdown stuns foreign investors"),
    ]
    critique = devils_advocate_critique(payloads, mock_gateway, lexicon, "da:t")
    bullets = [line for line in critique.splitlines() if line.startswith('- "')]
    assert len(bullets) == 2
    assert '- "Trade boom lifts coastal factories":' in critique
    assert '- "Crackdown stuns foreign investors":' in critique


def test_critique_take_tracks_headline_polarity(mock_gateway, lexicon):
    positive = devils_advocate_critique(
        [_payload(0, headline="A booming year")], mock_gateway, lexicon, "da:pos")
    negative = devils_advocate_critique(
        [_payload(0, headline="A crisis year")], mock_gateway, lexicon, "da:neg")
    neutral = devils_advocate_critique(
        [_payload(0, headline="A calendar year")], mock_gateway, lexicon, "da:zero")
    assert "glosses over the real costs" in positive
    assert "ignores the upside" in negative
    assert "second look" in neutral


def test_critique_rejects_empty_batch(mock_gateway, lexicon):
    with pytest.raises(ValidationError):
        devils_advocate_critique([], mock_gateway, lexicon, "da:empty")


def test_critique_failure_returns_empty_string(lexicon):
    critique = devils_advocate_critique(
        [_payload()], BrokenGateway(), lexicon, "da:broken")
    assert critique == ""


# --- mode dispatch ---


def test_baseline_passes_payloads_through(lexicon):
    payloads = [_payload(i) for i in range(3)]
    out, critique = apply_intervention(
        TREATMENTS["baseline"], payloads, ForbiddenGateway(), lexicon, {}, "iv:t")
    assert out == tuple(payloads)
    assert critique is None


def test_debias_flags_every_payload(lexicon):
    texts = [LOADED, "The delegation met again on Tuesday"] * 5
    payloads = [_payload(i, text=t) for i, t in enumerate(texts)]
    gateway, rewritten = CountingGateway(), {}
    rewrites = _rewrites(payloads, gateway, lexicon, rewritten)
    out, critique = apply_intervention(
        TREATMENTS["debias"], payloads, gateway, lexicon, rewrites, "iv:t")
    again, _ = apply_intervention(TREATMENTS["debias"], payloads[:3], gateway, lexicon, rewrites,
                                  "iv:t")
    assert again == out[:3] and gateway.calls == len(rewritten) == 10  # one per article
    assert len(out) == 10
    assert all(p.debiased for p in out)
    assert critique is None
    pattern = re.compile(
        r"\b(?:" + "|".join(re.escape(w) for w in lexicon.signed) + r")\b",
        re.IGNORECASE)
    assert not any(pattern.search(p.full_text) for p in out)


def test_devils_advocate_leaves_texts_bit_identical(mock_gateway, lexicon):
    payloads = [_payload(i) for i in range(4)]
    out, critique = apply_intervention(
        TREATMENTS["devils_advocate"], payloads, mock_gateway, lexicon, {}, "iv:t")
    assert [p.full_text for p in out] == [p.full_text for p in payloads]
    assert out == tuple(payloads)
    assert critique and len(critique.splitlines()) == 6


# a mode name is checked once, by RunConfig, which stores its one spelling


def test_hyphenated_mode_name_accepted(mock_gateway, lexicon):
    treatment = TREATMENTS[RunConfig(intervention="devils-advocate").intervention]
    out, critique = apply_intervention(
        treatment, [_payload()], mock_gateway, lexicon, {}, "iv:t")
    assert critique


def test_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="unknown intervention"):
        RunConfig(intervention="propaganda")
