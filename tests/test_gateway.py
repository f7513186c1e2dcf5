from __future__ import annotations

import ast
import dataclasses
import functools
import http.client
import itertools
import json
import os
import random
import re
import signal
import socket
import ssl
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from newsdrift import orchestrator
from newsdrift.errors import (ConfigError, ReplayError, ResumeError, SchemaError, TransportError,
                             ValidationError)
from newsdrift.gateway import (
    _ENCODER,
    SCHEMAS,
    BackendConfig,
    GenerationRequest,
    Gateway,
    MockLexicon,
    clamp_valence,
    extract_json_value,
    load_lexicon,
    mock_sentiment,
    parse_structured,
    serialize_for_log,
)
from newsdrift.orchestrator import RunConfig, resume, run


# ---------------------------------------------------------------------------
# sentiment
# ---------------------------------------------------------------------------

def test_sentiment_no_lexicon_words(lexicon):
    assert mock_sentiment("the quick brown fox", lexicon) == 0.0
    assert mock_sentiment("", lexicon) == 0.0


def test_sentiment_single_word_scaling():
    lex = MockLexicon({"good": 1.0}, {"bad": 1.0})
    assert mock_sentiment("good news today", lex) == 2.0
    assert mock_sentiment("bad news today", lex) == -2.0


def test_sentiment_equal_weights_cancel():
    lex = MockLexicon({"good": 1.0}, {"bad": 1.0})
    assert mock_sentiment("good and bad", lex) == 0.0


def test_sentiment_averages_over_matched_only():
    lex = MockLexicon({"good": 1.0}, {"bad": 0.5})
    # (1.0 - 0.5) / 2 * 2 = 0.5, unmatched filler words do not dilute
    assert mock_sentiment("good bad and much other text", lex) == 0.5


def test_sentiment_clamps():
    lex = MockLexicon({"great": 2.0}, {})
    assert mock_sentiment("great great great", lex) == 2.0


def test_sentiment_word_boundaries_and_case(lexicon):
    lex = MockLexicon({"win": 1.0}, {})
    assert mock_sentiment("winning is not the word win", lex) == 2.0
    assert mock_sentiment("WIN", lex) == 2.0
    assert mock_sentiment("winning", lex) == 0.0


@given(st.text(max_size=200))
def test_sentiment_always_in_range(text):
    lex = load_lexicon()
    assert -2.0 <= mock_sentiment(text, lex) <= 2.0


def test_lexicon_rejects_overlap_and_bad_weights():
    with pytest.raises(ValidationError):
        MockLexicon({"x": 1.0}, {"x": 1.0})
    with pytest.raises(ValidationError):
        MockLexicon({"x": 0.0}, {})
    with pytest.raises(ValidationError):
        MockLexicon({}, {"y": 2.5})


def test_a_bool_is_no_number_to_any_reader_of_numbers():
    with pytest.raises(ValidationError, match="lexicon weight for 'good'"):
        MockLexicon({"good": True}, {})
    with pytest.raises(SchemaError, match="new_valence missing"):
        parse_structured("reflection_update", '{"domains": {"economy": {"new_valence": true}}}')
    with pytest.raises(ConfigError, match="timeout_seconds"):
        BackendConfig(timeout_seconds=True)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        RunConfig(seed=False)


def test_clamp_valence():
    assert clamp_valence(3.7) == 2.0
    assert clamp_valence(-9.0) == -2.0
    assert clamp_valence(0.3) == 0.3


# ---------------------------------------------------------------------------
# structured parsing
# ---------------------------------------------------------------------------

def test_survey_answer_parses_first_integer():
    assert parse_structured("survey_answer", "3") == 3
    assert parse_structured("survey_answer", "I would say 2, maybe.") == 2


def test_survey_answer_rejects_non_numeric_and_out_of_range():
    with pytest.raises(SchemaError):
        parse_structured("survey_answer", "five")
    with pytest.raises(SchemaError):
        parse_structured("survey_answer", "7")
    with pytest.raises(SchemaError):
        parse_structured("survey_answer", "-1 stars")


def test_selection_list_parsing():
    assert parse_structured("selection_list", "[3, 1, 2]") == [3, 1, 2]
    assert parse_structured("selection_list", "picks: [1, 2.0]") == [1, 2]
    with pytest.raises(SchemaError):
        parse_structured("selection_list", '{"picks": 1}')
    with pytest.raises(SchemaError):
        parse_structured("selection_list", '["one"]')
    with pytest.raises(SchemaError):
        parse_structured("selection_list", "[true]")


def test_interest_list_parsing():
    assert parse_structured("interest_list", '["economics", "sports"]') == ["economics", "sports"]
    with pytest.raises(SchemaError):
        parse_structured("interest_list", "[1, 2]")


def test_debiased_text_parsing():
    raw = '{"debiased_text": "An event occurred."}'
    assert parse_structured("debiased_text", raw) == "An event occurred."
    with pytest.raises(SchemaError):
        parse_structured("debiased_text", '{"text": "x"}')


def test_critique_text_passthrough():
    assert parse_structured("critique_text", "  some critique  ") == "some critique"
    with pytest.raises(SchemaError):
        parse_structured("critique_text", "   ")


def test_reflection_update_parsing():
    raw = json.dumps({
        "themes": ["trade"],
        "reasoning": "because",
        "domains": {
            "economics": {"action": "revise", "new_valence": -0.5, "cognitions": []},
        },
    })
    parsed = parse_structured("reflection_update", raw)
    assert parsed["domains"]["economics"]["new_valence"] == -0.5
    assert parsed["domains"]["economics"]["action"] == "revise"


def test_reflection_update_rejects_bad_payloads():
    with pytest.raises(SchemaError):
        parse_structured("reflection_update", '{"domains": {"econ": {}}}')
    with pytest.raises(SchemaError):
        parse_structured("reflection_update", json.dumps(
            {"domains": {"econ": {"action": "explode", "new_valence": 0.0}}}))
    with pytest.raises(SchemaError):
        parse_structured("reflection_update", json.dumps(
            {"domains": {"econ": {"action": "confirm", "new_valence": 9.0}}}))


def test_extract_json_value_from_prose():
    assert extract_json_value('Sure! Here you go: {"a": 1} hope that helps') == {"a": 1}
    assert extract_json_value("pick [2, 3] please") == [2, 3]
    with pytest.raises(SchemaError):
        extract_json_value("no json here {unbalanced")


def test_serialize_round_trips_each_schema():
    cases = [
        ("survey_answer", 3),
        ("selection_list", [1, 2, 3]),
        ("interest_list", ["economics"]),
        ("debiased_text", "Plain text."),
        ("critique_text", "A critique."),
        ("reflection_update", {"themes": [], "reasoning": "",
                               "domains": {"health": {"action": "confirm",
                                                      "new_valence": 1.0,
                                                      "cognitions": []}}}),
    ]
    for schema, value in cases:
        assert parse_structured(schema, serialize_for_log(schema, value)) == value


# nested JSON values; hypothesis's text draws from all of Unicode
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=50, deadline=None)
@given(value=_JSON_VALUES, text=st.text(st.characters(min_codepoint=0x80), min_size=1))
def test_log_json_is_json_dumps_with_sorted_keys_and_text_unescaped(value, text):
    nested = {"z": [text, value], text: {"a": value}}
    dumps = lambda doc: json.dumps(doc, sort_keys=True, ensure_ascii=False)  # noqa: E731
    assert serialize_for_log("reflection_update", nested) == dumps(nested)
    assert serialize_for_log("debiased_text", text) == dumps({"debiased_text": text})
    with tempfile.TemporaryDirectory() as folder:
        gw = Gateway(BackendConfig(mode="mock"), log_path=Path(folder) / "r.jsonl")
        request = GenerationRequest("system", text, "reflection_update", "r:1")
        gw.emit([(request, text, True, 0.0, 0.0)])
        gw.close()
        line = (Path(folder) / "r.jsonl").read_text("utf-8")
    assert line == dumps({"seq": 1, "tag": "r:1", "schema": "reflection_update",
                          "system": "system", "user": text, "temperature": 0.7,
                          "max_tokens": 1024, "raw_response": text,
                          "ok": True, "t_start": 0.0, "t_end": 0.0}) + "\n"


# texts rich in what JSON escapes or leaves alone: quotes, backslashes, control
# characters, non-ASCII, U+2028 and the paragraph break a prompt splits at
_LOG_TEXTS = st.text() | st.lists(st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\t", "\n\n", "\u2028", "é", "中", "😀", "a", " "])).map("".join)
_LOG_NUMBERS = st.integers() | st.floats() | st.booleans()
_LOG_TIMES = st.just(0.0) | st.builds(time.time) | st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(texts=st.tuples(_LOG_TEXTS, _LOG_TEXTS, _LOG_TEXTS, _LOG_TEXTS),
       schema=st.sampled_from(SCHEMAS), ok=st.booleans(),
       temperature=_LOG_NUMBERS, max_tokens=_LOG_NUMBERS, t_start=_LOG_TIMES, t_end=_LOG_TIMES)
def test_a_log_line_is_the_encoders_line_of_the_record(texts, schema, ok, temperature,
                                                       max_tokens, t_start, t_end):
    """The line _log assembles from parts is the one its encoder makes of the whole record."""
    system, user, raw, tag = texts
    # the second record takes its preamble's quoted form from the gateway's memo
    requests = (GenerationRequest(system, user, schema, tag),
                GenerationRequest(system, raw, schema, tag + "+"),
                GenerationRequest(user, system, schema, tag + "++"))
    config = BackendConfig(mode="mock", temperature=temperature, max_tokens=max_tokens)
    with tempfile.TemporaryDirectory() as folder:
        gw = Gateway(config, log_path=Path(folder) / "r.jsonl")
        try:
            gw.emit([(request, raw, ok, t_start, t_end) for request in requests])
        finally:
            gw.close()
        written = (Path(folder) / "r.jsonl").read_text("utf-8")
    # each record as _log built it before it wrote lines from parts
    assert written == "".join(_ENCODER.encode({
        "seq": seq, "tag": request.request_tag, "schema": schema,
        "system": request.role_preamble, "user": request.user_text, "temperature": temperature,
        "max_tokens": max_tokens, "raw_response": raw, "ok": ok,
        "t_start": t_start, "t_end": t_end}) + "\n" for seq, request in enumerate(requests, 1))


# ---------------------------------------------------------------------------
# mock gateway + replay log
# ---------------------------------------------------------------------------

def _req(tag, schema="survey_answer", **kw):
    return GenerationRequest("system text", "user text", schema, tag, **kw)


def test_mock_gateway_logs_every_exchange(tmp_path, open_gateway):
    log = tmp_path / "replay.jsonl"
    gw = open_gateway(BackendConfig(mode="mock"), log_path=log)
    assert gw.generate(_req("s:1"), mock=lambda: 3, fallback=lambda: None) == 3
    assert gw.generate(_req("s:2"), mock=lambda: 1, fallback=lambda: None) == 1
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert [l["seq"] for l in lines] == [1, 2]
    assert lines[0]["tag"] == "s:1"
    assert lines[0]["raw_response"] == "3"
    assert parse_structured(lines[0]["schema"], lines[0]["raw_response"]) == 3
    assert lines[0]["ok"] is True
    # mock exchanges carry fixed timestamps for byte-stable logs
    assert lines[0]["t_start"] == 0.0 and lines[0]["t_end"] == 0.0
    assert set(lines[0]) == {"seq", "tag", "schema", "system", "user", "temperature",
                             "max_tokens", "raw_response", "ok", "t_start", "t_end"}


def test_duplicate_tag_rejected(tmp_path, open_gateway):
    gw = open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    gw.generate(_req("dup"), mock=lambda: 2, fallback=lambda: None)
    with pytest.raises(ConfigError):
        gw.generate(_req("dup"), mock=lambda: 2, fallback=lambda: None)


def test_a_gateway_over_a_kept_log_refuses_a_tag_the_log_holds(tmp_path):
    log = tmp_path / "r.jsonl"
    first = Gateway(BackendConfig(mode="mock"), log_path=log)
    first.generate(_req("t"), mock=lambda: 2, fallback=lambda: None)
    first.close()
    resumed = Gateway(BackendConfig(mode="mock"), log_path=log, replay_lines=1)
    with pytest.raises(ConfigError, match="duplicate request tag in run: 't'"):
        resumed.generate(_req("t"), mock=lambda: 2, fallback=lambda: None)


def test_a_gateway_counts_the_exchanges_of_the_kept_lines_again(tmp_path):
    """A tag counts once under its schema, and as a fallback when its last kept
    record is not ok; lines past the kept ones are never read."""
    log = tmp_path / "r.jsonl"
    first = Gateway(BackendConfig(mode="mock"), log_path=log)
    first.generate(_req("a"), mock=lambda: 1, fallback=lambda: None)
    first.emit([(_req("b"), "nope", False, 0.0, 0.0),
                (_req("b"), None, False, 0.0, 0.0)])
    first.generate(_req("c", schema="selection_list"), mock=lambda: [1], fallback=lambda: None)
    first.close()
    log.write_text(log.read_text() + "{torn\n")
    again = Gateway(BackendConfig(mode="mock"), log_path=log, replay_lines=3)
    assert again.counters() == first.counters() == {
        "request_counts": {"survey_answer": 2, "selection_list": 1},
        "fallback_counts": {"survey_answer": 1}, "replay_lines": 3}
    log.write_text(log.read_text() + "{torn\n")  # the gateway above cut it away
    with pytest.raises(ResumeError, match=re.escape(f"{log} line 4 is not a replay record")):
        Gateway(BackendConfig(mode="mock"), log_path=log, replay_lines=4)


def test_a_gateway_cuts_its_log_back_to_the_kept_lines_and_numbers_on_from_them(tmp_path):
    """The kept lines stay byte for byte, multibyte text and U+2028 included; a
    gateway over an existing log that keeps none leaves only its own records."""
    log = tmp_path / "r.jsonl"
    first = Gateway(BackendConfig(mode="mock"), log_path=log)
    for n in range(4):
        text = f"caf\u00e9 {n} \u2028 \u4e2d\u6587 1\u20134"
        first.generate(GenerationRequest("system text", text, "survey_answer", f"s:{n}"),
                       mock=lambda: n + 1, fallback=lambda: None)
    first.close()
    blob = log.read_bytes()
    lines = blob.splitlines(keepends=True)
    assert len(lines) == 4
    for kept in (0, 2, 4):
        log.write_bytes(blob)
        gw = Gateway(BackendConfig(mode="mock"), log_path=log, replay_lines=kept)
        assert log.read_bytes() == b"".join(lines[:kept])
        gw.generate(_req("next"), mock=lambda: 2, fallback=lambda: None)
        gw.close()
        written = log.read_bytes().splitlines(keepends=True)
        assert written[:kept] == lines[:kept]
        assert [json.loads(line)["seq"] for line in written] == list(range(1, kept + 2))


@pytest.mark.parametrize("refusal", ["damaged_kept_record", "short_log", "replay_log_missing",
                                     "remote_without_key"])
def test_a_gateway_that_refuses_to_open_leaves_its_log_as_it_was(tmp_path, monkeypatch,
                                                                  refusal):
    log = tmp_path / "r.jsonl"
    first = Gateway(BackendConfig(mode="mock"), log_path=log)
    for n in range(3):
        first.generate(_req(f"s:{n}"), mock=lambda: n + 1, fallback=lambda: None)
    first.close()
    config, kept, error = BackendConfig(mode="mock"), 2, ResumeError
    if refusal == "damaged_kept_record":
        log.write_bytes(log.read_bytes().replace(b'"tag"', b'"tog"', 1))
    elif refusal == "short_log":
        kept = 4
    elif refusal == "replay_log_missing":
        config, error = BackendConfig(mode="replay", replay_log=str(tmp_path / "nope.jsonl")), \
            ReplayError
    else:
        monkeypatch.delenv("NEWSDRIFT_API_KEY", raising=False)
        config, error = BackendConfig(mode="remote", base_url="http://127.0.0.1:9/v1",
                                      model_name="m"), ConfigError
    blob = log.read_bytes()
    with pytest.raises(error):
        Gateway(config, log_path=log, replay_lines=kept)
    assert log.read_bytes() == blob


def test_mock_requires_mock_value(tmp_path):
    gw = Gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    with pytest.raises(ConfigError):
        gw.generate(_req("x"), fallback=lambda: None)


def test_request_counts_by_schema(tmp_path, open_gateway):
    gw = open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "r.jsonl")
    gw.generate(_req("a"), mock=lambda: 1, fallback=lambda: None)
    gw.generate(_req("b"), mock=lambda: 2, fallback=lambda: None)
    gw.generate(_req("c", schema="selection_list"), mock=lambda: [1], fallback=lambda: None)
    assert gw.counters()["request_counts"] == {"survey_answer": 2, "selection_list": 1}


def test_replay_gateway_reserves_logged_values(tmp_path, open_gateway):
    log = tmp_path / "replay.jsonl"
    gw = open_gateway(BackendConfig(mode="mock"), log_path=log)
    gw.generate(_req("s:1"), mock=lambda: 4, fallback=lambda: None)

    replay = open_gateway(BackendConfig(mode="replay", replay_log=str(log)),
                          log_path=tmp_path / "second.jsonl")
    assert replay.generate(_req("s:1"), mock=lambda: 1, fallback=lambda: None) == 4
    with pytest.raises(ReplayError):
        replay.generate(_req("s:unknown"), mock=lambda: 1, fallback=lambda: None)


def test_replay_surfaces_recorded_failures(tmp_path):
    log = tmp_path / "replay.jsonl"
    record = {"seq": 1, "tag": "s:1", "schema": "survey_answer", "system": "system text",
              "user": "user text", "temperature": 0.7, "max_tokens": 10,
              "raw_response": "no digits at all", "ok": False,
              "t_start": 0.0, "t_end": 0.0}
    log.write_text(json.dumps(record) + "\n")
    replay = Gateway(BackendConfig(mode="replay", replay_log=str(log)))
    assert replay.generate(_req("s:1"), fallback=lambda: 2) == 2
    assert replay.counters()["fallback_counts"] == {"survey_answer": 1}

    # a failed attempt before the tag's ok record: the ok record is served
    answered = {**record, "seq": 2, "raw_response": "3", "ok": True}
    log.write_text(json.dumps(record) + "\n" + json.dumps(answered) + "\n")
    replay = Gateway(BackendConfig(mode="replay", replay_log=str(log)))
    assert replay.generate(_req("s:1"), fallback=lambda: 2) == 3
    resumed = Gateway(BackendConfig(mode="mock"), log_path=log, replay_lines=2)
    for gateway in (replay, resumed):
        counts = gateway.counters()
        assert (counts["request_counts"], counts["fallback_counts"]) \
            == ({"survey_answer": 1}, {})


def test_replay_refuses_a_changed_prompt(tmp_path, open_gateway):
    log = tmp_path / "replay.jsonl"
    open_gateway(BackendConfig(mode="mock"), log_path=log).generate(
        _req("s:1"), mock=lambda: 4, fallback=lambda: None)
    replay = open_gateway(BackendConfig(mode="replay", replay_log=str(log)))
    changed = GenerationRequest("system text", "other user text", "survey_answer", "s:1")
    with pytest.raises(ReplayError, match="s:1"):
        replay.generate(changed, fallback=lambda: None)


def test_replay_missing_log_file(tmp_path):
    with pytest.raises(ReplayError):
        Gateway(BackendConfig(mode="replay", replay_log=str(tmp_path / "nope.jsonl")))


@pytest.mark.parametrize("damage", ["torn_line", "record_without_tag"])
def test_replay_names_the_line_of_a_damaged_log(tmp_path, damage):
    log = tmp_path / "replay.jsonl"
    gw = Gateway(BackendConfig(mode="mock"), log_path=log)
    for n in range(3):
        gw.generate(_req(f"s:{n}"), mock=lambda: 4, fallback=lambda: None)
    gw.close()
    lines = log.read_text().splitlines(keepends=True)
    if damage == "torn_line":
        lines[2] = lines[2][:len(lines[2]) // 2]
    else:
        record = json.loads(lines[2])
        del record["tag"]
        lines[2] = json.dumps(record) + "\n"
    log.write_text("".join(lines))
    with pytest.raises(ReplayError) as caught:
        Gateway(BackendConfig(mode="replay", replay_log=str(log)))
    assert f"{log} line 3 is not a replay record" in str(caught.value)


# ---------------------------------------------------------------------------
# remote backend against a local HTTP server
# ---------------------------------------------------------------------------

class _CannedServer:
    """Serves a scripted sequence of responses over HTTP/1.1 and records requests.

    Once the script runs out, every request is answered with what ``answer``
    returns for its JSON body: the content, or a script entry. Each request is
    held ``hold`` seconds, or what a callable ``hold`` returns, and a
    ``("held", seconds, content)`` entry that much longer; ``max_in_flight`` is
    the most held at once. A ``("hang_up", content)`` entry answers, then
    closes the connection without saying so and sets ``hung_up``.
    ``connections`` counts the connections that carried a post; like a
    server's, each reply writes its headers and its body in two sends.
    """

    def __init__(self):
        self.script: list = []
        self.requests: list = []
        self.answer = lambda body: "1"
        self.hold = 0.0
        self.in_flight = self.max_in_flight = self.connections = 0
        self.hung_up = threading.Event()
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            carried_post = False

            def do_POST(self):
                with lock:
                    outer.connections += not self.carried_post
                    outer.in_flight += 1
                    outer.max_in_flight = max(outer.max_in_flight, outer.in_flight)
                self.carried_post = True
                try:
                    kind, rest = self._hold()
                finally:
                    # before the reply is written: a client that has read it
                    # may post again at once, and is then still one request
                    with lock:
                        outer.in_flight -= 1
                self._answer(kind, rest)

            def _hold(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                outer.requests.append({
                    "auth": self.headers.get("Authorization"),
                    "json": body,
                    "path": self.path,
                })
                hold = outer.hold() if callable(outer.hold) else outer.hold
                if hold:  # tests that count the client's back-off patch time.sleep
                    time.sleep(hold)
                reply = outer.script.pop(0) if outer.script else outer.answer(body)
                kind, *rest = reply if isinstance(reply, tuple) else ("ok", reply)
                if kind == "held":  # an Event's wait, as tests may patch time.sleep
                    threading.Event().wait(rest.pop(0))
                    kind = "ok"
                return kind, rest

            def _answer(self, kind, rest):
                if kind == "hang_up":
                    self._answer("ok", rest)
                    self.connection.shutdown(socket.SHUT_RDWR)
                    self.close_connection = True
                    outer.hung_up.set()
                elif kind in ("ok", "json"):
                    doc = rest[0]  # "json" sends its document as the whole body
                    if kind == "ok":
                        doc = {"choices": [{"message": {"content": doc}}]}
                    blob = json.dumps(doc).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(blob)))
                    self.end_headers()
                    self.wfile.write(blob)
                elif kind == "http_error":
                    self.send_response(rest[0])
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                elif kind == "garbage":
                    blob = b"<html>not json</html>"
                    self.send_response(200)
                    self.send_header("Content-Length", str(len(blob)))
                    self.end_headers()
                    self.wfile.write(blob)

            def log_message(self, *args):
                pass

        # a backlog deeper than socketserver's 5: a burst of connects that
        # overflows it waits for the client's one-second SYN retransmit
        self.server = type("Server", (ThreadingHTTPServer,), {"request_queue_size": 64})(
            ("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,), daemon=True)
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def canned_server():
    server = _CannedServer()
    yield server
    server.close()


def _remote_config(server, **kw):
    defaults = dict(mode="remote", base_url=server.url, model_name="test-model",
                    max_attempts=3, backoff_seconds=(0.0,), timeout_seconds=5.0)
    defaults.update(kw)
    return BackendConfig(**defaults)


def test_remote_happy_path(canned_server, tmp_path, monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "sk-test-123")
    canned_server.script = [("ok", "the answer is 3")]
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 3
    sent = canned_server.requests[0]
    assert sent["auth"] == "Bearer sk-test-123"
    assert sent["json"]["model"] == "test-model"
    assert sent["json"]["messages"][0] == {"role": "system", "content": "system text"}
    assert sent["json"]["messages"][1]["content"] == "user text"


def test_remote_requires_api_key(canned_server, monkeypatch):
    monkeypatch.delenv("NEWSDRIFT_API_KEY", raising=False)
    with pytest.raises(ConfigError):
        Gateway(_remote_config(canned_server))


def test_remote_schema_retry_then_success(canned_server, tmp_path, monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("ok", "no digits"), ("ok", "4")]
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 4
    lines = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    # the failed attempt is logged too, then the success
    assert [l["ok"] for l in lines] == [False, True]
    assert lines[0]["raw_response"] == "no digits"


def test_remote_schema_exhaustion(canned_server, tmp_path, monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("ok", "nope")] * 3
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: 2) == 2
    assert gw.counters()["fallback_counts"] == {"survey_answer": 1}
    lines = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert [l["ok"] for l in lines] == [False, False, False]


def test_remote_transport_retry_then_success(canned_server, tmp_path, monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("http_error", 500), ("ok", "2")]
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 2


def test_remote_transport_exhaustion(canned_server, tmp_path, monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("http_error", 503)] * 3
    gw = Gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    with pytest.raises(TransportError):
        gw.generate(_req("s:1"), fallback=lambda: None)


def test_remote_garbage_body_is_transport_level(canned_server, tmp_path, monkeypatch,
                                                open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("garbage",), ("ok", "1")]
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 1


def test_remote_reply_without_answer_text_is_transport_level(canned_server, tmp_path,
                                                             monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    slept = []
    monkeypatch.setattr("newsdrift.gateway.time.sleep", slept.append)
    canned_server.script = [("ok", None), ("ok", "2")]
    gw = open_gateway(_remote_config(canned_server, backoff_seconds=(0.25,)),
                      log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 2
    assert slept == [0.25]
    records = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert [(r["raw_response"], r["ok"]) for r in records] == [("2", True)]


def test_remote_empty_choices_exhaust_the_budget(canned_server, tmp_path, monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("json", {"choices": []})] * 3
    gw = Gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    with pytest.raises(TransportError):
        gw.generate(_req("s:1"), fallback=lambda: None)
    assert len(canned_server.requests) == 3
    assert gw.counters()["fallback_counts"] == {}
    assert not (tmp_path / "r.jsonl").exists()


def test_exhausted_exchange_returns_the_fallback_and_counts_it(canned_server, tmp_path,
                                                                monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("ok", "nope"), ("ok", "seven"), ("ok", "9"), ("ok", "2")]
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    fallback = object()
    assert gw.generate(_req("s:1"), fallback=lambda: fallback) is fallback
    assert gw.generate(_req("s:2"), fallback=lambda: fallback) == 2
    assert gw.counters()["fallback_counts"] == {"survey_answer": 1}
    assert gw.counters()["request_counts"] == {"survey_answer": 2}
    # every failed attempt is still logged
    records = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert [(r["tag"], r["raw_response"], r["ok"]) for r in records] == [
        ("s:1", "nope", False), ("s:1", "seven", False), ("s:1", "9", False),
        ("s:2", "2", True)]


def test_remote_attempt_budget_covers_both_kinds_of_failure(canned_server, tmp_path,
                                                             monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("garbage",), ("garbage",), ("ok", "nope")] * 3
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: 2) == 2
    assert gw.counters()["fallback_counts"] == {"survey_answer": 1}
    assert len(canned_server.requests) == 3
    # transport failures are not logged, the failed parse is
    lines = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert [(l["raw_response"], l["ok"]) for l in lines] == [("nope", False)]


def test_remote_last_attempt_decides_the_error(canned_server, tmp_path, monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("ok", "nope"), ("ok", "nope"), ("http_error", 500)]
    gw = open_gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    with pytest.raises(TransportError):
        gw.generate(_req("s:1"), fallback=lambda: None)
    assert len(canned_server.requests) == 3


def test_remote_only_transport_failures_back_off(canned_server, tmp_path, monkeypatch,
                                                 open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    slept = []
    monkeypatch.setattr("newsdrift.gateway.time.sleep", slept.append)
    gw = open_gateway(_remote_config(canned_server, backoff_seconds=(0.25, 9.0)),
                      log_path=tmp_path / "r.jsonl")
    canned_server.script = [("ok", "no digits"), ("ok", "4")]
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 4
    assert slept == []
    canned_server.script = [("http_error", 500), ("ok", "2")]
    assert gw.generate(_req("s:2"), fallback=lambda: None) == 2
    assert slept == [0.25]


def test_remote_refused_connection_exhausts_the_budget(tmp_path, monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    slept = []
    monkeypatch.setattr("newsdrift.gateway.time.sleep", slept.append)
    with socket.socket() as probe:  # a port that was bound and is closed again
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = BackendConfig(mode="remote", base_url=f"http://127.0.0.1:{port}/v1/chat/completions",
                           model_name="m", max_attempts=3, backoff_seconds=(0.25, 0.5))
    gw = Gateway(config, log_path=tmp_path / "r.jsonl")
    with pytest.raises(TransportError, match="last of 3 attempts"):
        gw.generate(_req("s:1"), fallback=lambda: None)
    assert slept == [0.25, 0.5]
    assert not (tmp_path / "r.jsonl").exists()


def test_remote_reply_later_than_the_timeout_is_retried(canned_server, tmp_path, monkeypatch,
                                                        open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    slept = []
    monkeypatch.setattr("newsdrift.gateway.time.sleep", slept.append)
    canned_server.script = [("held", 0.45, "1"), ("ok", "2")]
    gw = open_gateway(_remote_config(canned_server, timeout_seconds=0.25,
                                     backoff_seconds=(0.5,)), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 2
    assert slept == [0.5]
    assert len(canned_server.requests) == 2
    records = [json.loads(l) for l in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert [(r["raw_response"], r["ok"]) for r in records] == [("2", True)]


def test_remote_client_errors_are_retried_like_server_errors(canned_server, tmp_path,
                                                             monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    slept = []
    monkeypatch.setattr("newsdrift.gateway.time.sleep", slept.append)
    canned_server.script = [("http_error", 404), ("http_error", 500), ("ok", "2")]
    gw = open_gateway(_remote_config(canned_server, backoff_seconds=(0.25,)),
                      log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 2
    assert slept == [0.25, 0.25]


def test_remote_base_url_path_and_query_reach_the_server(canned_server, tmp_path, monkeypatch,
                                                         open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    gw = open_gateway(_remote_config(canned_server,
                                     base_url=canned_server.url + "?api-version=x"))
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 1
    assert canned_server.requests[0]["path"] == "/v1/chat/completions?api-version=x"


def test_https_base_urls_verify_certificates(monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    made = []

    class Recorder:
        """Stands in for HTTPSConnection and answers every POST with one completion."""

        def __init__(self, *args, **kwargs):
            made.append({"args": args, "kwargs": kwargs, "closed": False})
            self.sock = None

        def request(self, method, path, body, headers):
            made[-1]["path"] = path
            self.sock = type("Socket", (), {"setsockopt": lambda *args: None})()

        def getresponse(self):
            blob = json.dumps({"choices": [{"message": {"content": "3"}}]}).encode()
            return type("Reply", (), {"status": 200, "reason": "OK", "read": lambda _: blob})()

        def close(self):
            made[-1]["closed"] = True

    monkeypatch.setattr("http.client.HTTPSConnection", Recorder)
    monkeypatch.setattr("http.client.HTTPConnection", None)  # https must not fall back
    for url in ("https://localhost/v1/chat/completions?api-version=x",
                "https://127.0.0.1:8443/v1/chat/completions"):
        gw = Gateway(BackendConfig(mode="remote", base_url=url, model_name="m"))
        assert gw.generate(_req(url), fallback=lambda: None) == 3
        assert not made[-1]["closed"]  # kept alive until the gateway closes
        gw.close()
    assert [(m["args"], m["path"], m["closed"]) for m in made] == [
        (("localhost", 443), "/v1/chat/completions?api-version=x", True),
        (("127.0.0.1", 8443), "/v1/chat/completions", True)]
    for m in made:
        context = m["kwargs"].get("context")  # None: http.client's default, verifying context
        if context is not None:
            assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname


def test_nothing_turns_certificate_verification_off():
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    offenders = [f"{path.name}:{number}"
                 for path in sorted(package.glob("*.py"))
                 for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
                 if re.search(r"_create_unverified_context|CERT_NONE|check_hostname\s*=\s*False",
                              line)]
    assert offenders == []


def test_the_cli_imports_no_third_party_http_library():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, newsdrift.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    assert loaded.strip() == "[]"


def test_a_sequential_remote_run_posts_on_one_connection(canned_server, make_config,
                                                         monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    run(make_config(n_agents=2, backend=_remote_config(canned_server, max_in_flight=1)))
    assert len(canned_server.requests) > 1
    assert canned_server.connections == 1


def test_a_concurrent_remote_run_keeps_one_connection_per_worker(canned_server, make_config,
                                                                 monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    canned_server.hold = 0.005
    run(make_config(reads_per_year=4, batch_size=2,
                    backend=_remote_config(canned_server, max_in_flight=8)))
    assert canned_server.max_in_flight > 1
    assert len(canned_server.requests) > 8
    assert canned_server.connections <= 8


def test_close_closes_every_connection_and_a_later_exchange_opens_another(canned_server,
                                                                          monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    made = []

    class Recording(http.client.HTTPConnection):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr("http.client.HTTPConnection", Recording)
    canned_server.hold = 0.005
    gw = Gateway(_remote_config(canned_server, max_in_flight=4))

    def ask(n):
        return gw.generate(_req(f"s:{n}"), fallback=lambda: None)

    assert [outcome()[0] for outcome in gw.start(ask, range(8))] == [1] * 8
    assert made and any(connection.sock for connection in made)
    gw.close()
    assert not any(connection.sock for connection in made)
    assert gw.generate(_req("s:after"), fallback=lambda: None) == 1
    assert any(connection.sock for connection in made)
    gw.close()
    assert not any(connection.sock for connection in made)


def test_a_failed_attempt_is_retried_on_a_new_connection(canned_server, tmp_path, monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("http_error", 500), ("ok", "2"), ("ok", "3")]
    gw = Gateway(_remote_config(canned_server), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 2
    assert canned_server.connections == 2
    assert gw.generate(_req("s:2"), fallback=lambda: None) == 3
    assert canned_server.connections == 2
    gw.close()


def test_an_idle_connection_the_server_closed_costs_no_attempt(canned_server, tmp_path,
                                                               monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("hang_up", "1"), ("ok", "2")]
    gw = Gateway(_remote_config(canned_server, max_attempts=1), log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 1
    assert canned_server.hung_up.wait(5)
    assert gw.generate(_req("s:2"), fallback=lambda: None) == 2
    assert canned_server.connections == 2
    gw.close()


def test_a_kept_alive_connection_is_reused_past_descriptor_1024(canned_server, monkeypatch):
    """select.select refuses a descriptor from 1024 on; the idle check must not."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    pipes = []
    try:
        try:
            while not pipes or pipes[-1][1] < 1024:
                pipes.append(os.pipe())
        except OSError:
            pytest.skip("this process may not open 1,024 descriptors")
        gw = Gateway(_remote_config(canned_server, max_attempts=1))
        for n in range(2):
            assert gw.generate(_req(f"s:{n}"), fallback=lambda: None) == 1
        gw.close()
        assert canned_server.connections == 1
    finally:
        for pipe in pipes:
            os.close(pipe[0])
            os.close(pipe[1])


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="no TCP_QUICKACK here")
def test_a_kept_alive_connection_waits_on_no_delayed_ack(canned_server, monkeypatch):
    """Each reply comes in two sends; the second waits on the client's ACK of
    the first, which a delayed ACK holds for up to 40 ms."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    gw = Gateway(_remote_config(canned_server))
    began = time.perf_counter()
    for n in range(20):
        assert gw.generate(_req(f"s:{n}"), fallback=lambda: None) == 1
    elapsed = time.perf_counter() - began
    gw.close()
    assert canned_server.connections == 1
    assert elapsed < 0.4


def test_remote_sends_and_logs_the_backend_generation_parameters(canned_server, tmp_path,
                                                                 monkeypatch, open_gateway):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.script = [("ok", "3")]
    gw = open_gateway(_remote_config(canned_server, temperature=0.2, max_tokens=64),
                      log_path=tmp_path / "r.jsonl")
    assert gw.generate(_req("s:1"), fallback=lambda: None) == 3
    sent = canned_server.requests[0]["json"]
    assert (sent["temperature"], sent["max_tokens"]) == (0.2, 64)
    record = json.loads((tmp_path / "r.jsonl").read_text())
    assert (record["temperature"], record["max_tokens"]) == (0.2, 64)


def _schema_answer(body):
    """A fixed valid answer per schema, told apart by the system prompt."""
    system = body["messages"][0]["content"]
    if system.startswith("You are a reader deciding"):
        return "[1, 2]"
    if system.startswith("You are the reasoning core"):
        return json.dumps({"themes": [], "reasoning": "", "domains": {
            "economics": {"action": "confirm", "new_valence": 0.0, "cognitions": []}}})
    if system.startswith("You are a news editor"):
        return json.dumps({"debiased_text": "A rewritten report."})
    return "3"


def test_replay_of_remote_run_reproduces_it(canned_server, make_config, monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    remote = make_config(n_agents=2, backend=_remote_config(canned_server))
    run(remote)
    replay_log = Path(remote.out_dir) / "replay.jsonl"
    replayed = make_config(n_agents=2, backend=BackendConfig(
        mode="replay", replay_log=str(replay_log)))
    run(replayed)

    a, b = Path(remote.out_dir), Path(replayed.out_dir)
    # economics answered 0.0 at 0.0 is nudged to -0.01, then set back to 0.0
    updates = [json.loads(line) for line in (a / "updates_2005.jsonl").read_text().splitlines()]
    assert {u["new_valence"] for u in updates} == {-0.01}
    for name in ("updates_2005.jsonl", "updates_2006.jsonl", "results.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the config hash covers the backend mode, so only it may differ
    results = [json.loads((d / "results.json").read_text()) for d in (a, b)]
    assert results[0].pop("config_hash") != results[1].pop("config_hash")
    assert results[0] == results[1]


def _without_times(log: Path) -> list[dict]:
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for record in records:
        del record["t_start"], record["t_end"]
    return records


def _outputs(out: Path) -> dict[str, bytes]:
    names = ["results.json", "run_report.json", *(p.name for p in out.glob("updates_*.jsonl"))]
    files = {name: (out / name).read_bytes() for name in names}
    files.update({f"trace/{p.name}": p.read_bytes() for p in out.glob("trace/*.jsonl")})
    return files


def _sequential_tags(out: Path, year: int, intervention: str) -> list[str]:
    """The first year's tags in the order a one-agent-at-a-time run makes them."""
    tags = []
    for row in (json.loads(line) for line in
                (out / "trace" / f"year_{year}.jsonl").read_text().splitlines()):
        agent = row["agent_id"]
        tags.append(f"select:{year}:{agent}")
        for j in range(0, len(row["reads"]), 2):
            if intervention == "debias":
                tags.extend(f"debias:{read['article_id']}" for read in row["reads"][j:j + 2]
                            if f"debias:{read['article_id']}" not in tags)
            if intervention == "devils_advocate":
                tags.append(f"critique:{year}:{agent}:b{j // 2}")
            tags.append(f"reflect:{year}:{agent}:b{j // 2}")
        tags.append(f"survey:{year}:{agent}")
    return tags


@pytest.mark.parametrize("intervention", ["baseline", "debias", "devils_advocate"])
def test_concurrent_remote_run_equals_the_sequential_one(canned_server, make_config,
                                                         monkeypatch, intervention):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    canned_server.hold = 0.005
    runs = {}
    for in_flight in (1, 8):
        canned_server.max_in_flight = 0
        config = make_config(reads_per_year=4, batch_size=2, intervention=intervention,
                             backend=_remote_config(canned_server, max_in_flight=in_flight))
        run(config)
        runs[in_flight] = Path(config.out_dir)
        assert (canned_server.max_in_flight > 1) == (in_flight > 1)
    sequential, concurrent = runs[1], runs[8]
    tags = [r["tag"] for r in _without_times(concurrent / "replay.jsonl")]
    first_year = tags[:tags.index(f"select:2006:{tags[0].split(':')[2]}")]
    assert list(dict.fromkeys(first_year)) == _sequential_tags(concurrent, 2005, intervention)
    assert _without_times(concurrent / "replay.jsonl") == _without_times(sequential / "replay.jsonl")
    assert _outputs(concurrent) == _outputs(sequential)


def test_a_failure_inside_a_concurrent_year_resumes_to_the_uninterrupted_run(
        canned_server, make_config, monkeypatch):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    straight = make_config(intervention="debias", reads_per_year=4, batch_size=2,
                           backend=_remote_config(canned_server))
    run(straight)
    # the third agent's survey in the second year answers HTTP 500 to every attempt
    surveys = [r for r in _without_times(Path(straight.out_dir) / "replay.jsonl")
               if r["tag"].startswith("survey:2006:")]
    survey = surveys[2]["user"]
    canned_server.answer = lambda body: (
        ("http_error", 500) if body["messages"][1]["content"] == survey else _schema_answer(body))
    cut = dataclasses.replace(straight, out_dir=str(Path(straight.out_dir).parent / "cut"))
    with pytest.raises(TransportError):
        run(cut)

    out = Path(cut.out_dir)
    blob = (out / "replay.jsonl").read_bytes()
    assert blob.endswith(b"\n")
    written = [json.loads(line) for line in blob.splitlines()]
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["completed_years"] == [2005]
    assert len(written) > checkpoint["replay_lines"]  # the agents before the third one

    canned_server.answer = _schema_answer
    resume(cut.out_dir)
    assert _without_times(out / "replay.jsonl") == _without_times(
        Path(straight.out_dir) / "replay.jsonl")
    assert _outputs(out) == _outputs(Path(straight.out_dir))


def _artifacts(out: Path) -> dict[str, bytes]:
    """Every file of a run but its replay log, by path in the output directory."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "replay.jsonl"}


def _small_remote(make_config, server, intervention, **backend):
    """2 agents x 3 years, two batches a year: each run starts the next
    year's selections twice."""
    return make_config(n_agents=2, years=(2005, 2007), reads_per_year=2, batch_size=1,
                       intervention=intervention, backend=_remote_config(server, **backend))


@pytest.mark.parametrize("intervention", ["baseline", "debias", "devils_advocate"])
def test_reorder_anywhere(canned_server, make_config, monkeypatch, intervention):
    """Completions come back in a drawn order; nothing but the times may show it."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    sequential = _small_remote(make_config, canned_server, intervention, max_in_flight=1)
    run(sequential)
    expected_log = _without_times(Path(sequential.out_dir) / "replay.jsonl")
    expected = _artifacts(Path(sequential.out_dir))

    @settings(max_examples=7, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        canned_server.hold = functools.partial(random.Random(seed).uniform, 0.0, 0.005)
        concurrent = _small_remote(make_config, canned_server, intervention, max_in_flight=8)
        run(concurrent)
        assert _without_times(Path(concurrent.out_dir) / "replay.jsonl") == expected_log
        assert _artifacts(Path(concurrent.out_dir)) == expected

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade the interpreter every few bytecodes
    try:
        check()
    finally:
        sys.setswitchinterval(interval)


def test_fail_anywhere(canned_server, make_config, monkeypatch):
    """The k-th POST answers HTTP 500 with no attempt left; resume mends the run."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    straight = _small_remote(make_config, canned_server, "debias", max_attempts=1)
    run(straight)
    straight_log = _without_times(Path(straight.out_dir) / "replay.jsonl")
    posts = len(canned_server.requests)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, posts))
    def check(k):
        arrivals = itertools.count(1)
        failed = []

        def answer(body):
            if next(arrivals) == k:
                failed.append([m["content"] for m in body["messages"]])
                return ("http_error", 500)
            return _schema_answer(body)

        canned_server.answer = answer
        cut = _small_remote(make_config, canned_server, "debias", max_attempts=1)
        with pytest.raises(TransportError):
            run(cut)
        out = Path(cut.out_dir)
        blob = (out / "replay.jsonl").read_bytes() if (out / "replay.jsonl").exists() else b""
        assert blob == b"" or blob.endswith(b"\n")
        written = _without_times(out / "replay.jsonl") if blob else []
        # whole records, all of them before the failed exchange in log order
        # (a survey may repeat an earlier year's prompt, so look past the prefix)
        assert written == straight_log[:len(written)]
        assert failed[0] in ([r["system"], r["user"]] for r in straight_log[len(written):])

        canned_server.answer = _schema_answer
        resume(cut.out_dir)
        assert _without_times(out / "replay.jsonl") == straight_log
        assert _artifacts(out) == _artifacts(Path(straight.out_dir))

    check()


# the command line, run in a child process; prints a line once it is imported
_CHILD = ("import sys; from newsdrift import cli; print(flush=True); "
          "sys.exit(cli.main(sys.argv[1:]))")


def test_kill_anywhere(canned_server, make_config, monkeypatch, tmp_path):
    """A concurrent remote run in a child process, killed at a drawn share of an
    uninterrupted run's time, resumes to the uninterrupted run."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    canned_server.hold = functools.partial(random.Random(0).uniform, 0.0, 0.005)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(orchestrator.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    files = itertools.count()

    def config_file(intervention) -> Path:
        config = _small_remote(make_config, canned_server, intervention, max_in_flight=8)
        doc = dataclasses.asdict(config)
        doc["paths"] = {role: doc.pop(attr) for role, attr in orchestrator._PATH_FIELDS.items()}
        path = tmp_path / f"config{next(files)}.json"
        path.write_text(json.dumps(doc))
        return path

    straight = {}  # intervention -> (its output directory, its run's seconds)
    for intervention in ("baseline", "debias", "devils_advocate"):
        config = RunConfig.from_file(config_file(intervention))
        began = time.perf_counter()
        run(config)
        straight[intervention] = (Path(config.out_dir), time.perf_counter() - began)

    @settings(max_examples=12, deadline=None)
    @given(intervention=st.sampled_from(sorted(straight)), point=st.floats(0, 1))
    def check(intervention, point):
        expected, seconds = straight[intervention]
        path = config_file(intervention)
        with subprocess.Popen([sys.executable, "-c", _CHILD, "run", "--config", str(path)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as child:
            child.stdout.readline()  # it has imported the program
            time.sleep(point * seconds)
            os.kill(child.pid, signal.SIGKILL)  # our own child, not yet reaped
            child.wait(timeout=10)
        config = RunConfig.from_file(path)
        out = Path(config.out_dir)
        if (out / "checkpoint.json").exists():
            resume(out, config)
        else:  # killed before its first checkpoint: nothing to resume, so run again
            run(config)
        assert _without_times(out / "replay.jsonl") == _without_times(expected / "replay.jsonl")
        assert _artifacts(out) == _artifacts(expected)

    check()


def _hold_surveys(body):
    """``_schema_answer``, with every survey held 50 ms: a year's reading then
    outlasts the next year's selections."""
    answer = _schema_answer(body)
    if body["messages"][0]["content"].startswith("You are answering a yearly opinion survey"):
        return ("held", 0.05, answer)
    return answer


@pytest.mark.parametrize("mode", ["remote", "mock", "replay"])
def test_next_years_selections_start_before_the_checkpoint_only_on_remote(
        canned_server, make_config, monkeypatch, mode):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _hold_surveys
    recorded = make_config(n_agents=2)
    run(recorded)
    backend = {"remote": _remote_config(canned_server), "mock": BackendConfig(mode="mock"),
               "replay": BackendConfig(mode="replay",
                                       replay_log=str(Path(recorded.out_dir) / "replay.jsonl"))}
    events = []
    select, checkpoint = orchestrator.select_articles, orchestrator._write_checkpoint

    def selected(*args, tag, **kwargs):
        picks = select(*args, tag=tag, **kwargs)
        events.append(tag.rsplit(":", 1)[0])  # its POST has been answered
        return picks

    def checkpointed(out_dir, header, gateway, state, complete):
        events.append(f"checkpoint:{state.completed_years}")
        checkpoint(out_dir, header, gateway, state, complete)

    monkeypatch.setattr(orchestrator, "select_articles", selected)
    monkeypatch.setattr(orchestrator, "_write_checkpoint", checkpointed)
    run(make_config(n_agents=2, backend=backend[mode]))
    if mode == "remote":
        assert events.index("select:2006") < events.index("checkpoint:[2005]")
    else:
        assert events == ["checkpoint:[]", "select:2005", "select:2005", "checkpoint:[2005]",
                          "select:2006", "select:2006", "checkpoint:[2005, 2006]",
                          "checkpoint:[2005, 2006]"]


def test_each_reading_waits_only_for_its_own_selection(canned_server, make_config,
                                                       monkeypatch):
    """The first POST, a 2005 selection, is held 0.3 s; the other agents read
    meanwhile, and the run still equals the one-at-a-time run."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _schema_answer
    sequential = make_config(reads_per_year=4, batch_size=2,
                             backend=_remote_config(canned_server, max_in_flight=1))
    run(sequential)
    events = []
    select, reflect = orchestrator.select_articles, orchestrator.reflect_batch

    def selected(*args, tag, **kwargs):
        picks = select(*args, tag=tag, **kwargs)
        events.append(("select", tag.split(":", 1)[1]))  # its POST has been answered
        return picks

    def reflected(*args, batch_id, **kwargs):
        events.append(("reflect", batch_id.rsplit(":", 1)[0]))
        return reflect(*args, batch_id=batch_id, **kwargs)

    monkeypatch.setattr(orchestrator, "select_articles", selected)
    monkeypatch.setattr(orchestrator, "reflect_batch", reflected)
    arrivals = itertools.count()
    canned_server.hold = lambda: 0.3 if next(arrivals) == 0 else 0.0
    concurrent = make_config(reads_per_year=4, batch_size=2,
                             backend=_remote_config(canned_server, max_in_flight=8))
    run(concurrent)

    chosen = [key for kind, key in events if kind == "select" and key.startswith("2005:")]
    held = chosen[-1]  # the held selection is the year's last to return
    early = {key for kind, key in events[:events.index(("select", held))] if kind == "reflect"}
    assert early == set(chosen) - {held}
    assert _without_times(Path(concurrent.out_dir) / "replay.jsonl") \
        == _without_times(Path(sequential.out_dir) / "replay.jsonl")
    assert _artifacts(Path(concurrent.out_dir)) == _artifacts(Path(sequential.out_dir))


class _CutInside2006(Exception):
    pass


def test_a_cut_while_next_years_selections_ran_resumes_to_the_uninterrupted_run(
        canned_server, make_config, monkeypatch):
    """The 2006 selections run before 2005's checkpoint, so counting them from
    more than the checkpoint's replay_lines would count them twice on resume."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = _hold_surveys
    straight = make_config(n_agents=2, backend=_remote_config(canned_server))
    run(straight)
    reflect = orchestrator.reflect_batch

    def reflect_until_2006(*args, batch_id, **kwargs):
        if batch_id.startswith("2006:"):
            raise _CutInside2006(batch_id)
        return reflect(*args, batch_id=batch_id, **kwargs)

    monkeypatch.setattr(orchestrator, "reflect_batch", reflect_until_2006)
    cut = make_config(n_agents=2, backend=_remote_config(canned_server))
    with pytest.raises(_CutInside2006):
        run(cut)
    monkeypatch.setattr(orchestrator, "reflect_batch", reflect)

    out = Path(cut.out_dir)
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["completed_years"] == [2005]
    assert not {"request_counts", "fallback_counts"} & set(checkpoint)
    resume(cut.out_dir)
    for name in ("results.json", "run_report.json"):
        assert (out / name).read_bytes() == (Path(straight.out_dir) / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["mock", "remote"])
def test_map_raises_the_first_failure_in_item_order(canned_server, monkeypatch, mode):
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    config = _remote_config(canned_server, max_in_flight=2) if mode == "remote" \
        else BackendConfig(mode="mock")
    gw = Gateway(config)
    started = []

    def work(item):
        started.append(item)
        if item == 1:
            time.sleep(0.05)
            raise KeyError("first in item order")
        if item == 2:
            raise ReplayError("first in time")
        time.sleep(0.01)
        return item

    with pytest.raises(KeyError, match="first in item order"):
        [outcome() for outcome in gw.start(work, range(40))]
    gw.close()
    assert len(started) < 40  # the items not started were cancelled
    assert [outcome() for outcome in gw.start(lambda item: item * 2, range(3))] \
        == [(0, []), (2, []), (4, [])]
    gw.close()


def test_a_mock_item_runs_once_and_a_failed_one_raises_again_at_its_next_call():
    gw = Gateway(BackendConfig(mode="mock"))
    runs = []

    def work(item):
        runs.append(item)
        if item == "bad":
            raise KeyError(f"item {item}")
        return item

    good, bad = gw.start(work, ["good", "bad"])
    assert runs == []  # nothing runs before its call's first use
    assert good() == good() == ("good", [])
    for _ in range(2):
        with pytest.raises(KeyError, match="item bad"):
            bad()
    assert runs == ["good", "bad", "bad"]


def test_an_item_run_inside_another_keeps_its_records_held(tmp_path, open_gateway):
    """On mock an item runs at its call's first use, here inside another item."""
    log = tmp_path / "r.jsonl"
    gw = open_gateway(BackendConfig(mode="mock"), log_path=log)
    inner = gw.start(lambda n: gw.generate(_req(f"inner:{n}"), mock=lambda: 1,
                                           fallback=lambda: None), range(1))

    def outer(n):
        value, records = inner[0]()
        gw.emit(records)
        return value + gw.generate(_req(f"outer:{n}"), mock=lambda: 2, fallback=lambda: None)

    [(total, records)] = [outcome() for outcome in gw.start(outer, range(1))]
    assert total == 3 and not log.exists()
    gw.emit(records)
    assert inner[0]() == (1, [(_req("inner:0"), "1", True, 0.0, 0.0)])  # kept, not run again
    assert [json.loads(line)["tag"] for line in log.read_text().splitlines()] \
        == ["inner:0", "outer:0"]


def test_a_tag_repeated_across_concurrent_items_is_refused_at_the_second(canned_server,
                                                                         tmp_path, monkeypatch):
    """The second item asks and finishes first, yet its record is the one refused."""
    monkeypatch.setenv("NEWSDRIFT_API_KEY", "k")
    canned_server.answer = lambda body: body["messages"][1]["content"][-1]
    log = tmp_path / "r.jsonl"
    gw = Gateway(_remote_config(canned_server, max_in_flight=8), log_path=log)

    def ask(item):
        time.sleep(0.05 * (1 - item))  # the first item is held back
        request = GenerationRequest("system text", f"user {item + 1}", "survey_answer", "dup")
        return gw.generate(request, fallback=lambda: None)

    with pytest.raises(ConfigError, match="duplicate request tag in run: 'dup'"):
        for outcome in gw.start(ask, range(2)):
            gw.emit(outcome()[1])
    gw.close()
    assert [(r["user"], parse_structured(r["schema"], r["raw_response"]))
            for r in map(json.loads, log.read_text().splitlines())] == [("user 1", 1)]


def test_log_records_reach_the_file_as_written(tmp_path):
    path = tmp_path / "r.jsonl"
    gw = Gateway(BackendConfig(mode="mock"), log_path=path)
    for n in range(1, 3):
        gw.generate(_req(f"s:{n}"), mock=lambda: n, fallback=lambda: None)
        assert len(path.read_text().splitlines()) == n
    gw.close()
    gw.generate(_req("s:3"), mock=lambda: 3, fallback=lambda: None)
    gw.close()
    assert [json.loads(line)["seq"] for line in path.read_text().splitlines()] == [1, 2, 3]


def test_schema_errors_are_caught_only_in_the_gateway():
    """Fallback policy lives in Gateway.generate; call sites pass a fallback instead."""
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    catchers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                if "SchemaError" in names and path.name != "gateway.py":
                    catchers.append(f"{path.name}:{node.lineno}")
    assert catchers == []


def test_threads_are_started_only_in_the_gateway():
    """Concurrency lives in Gateway.start and every connection in Gateway._post;
    call sites never branch on backend mode."""
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("threading", "concurrent", "socket", "ssl", "http",
                                       "select", "selectors") for m in modules) \
                    and path.name != "gateway.py":
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_run_and_resume_enter_the_year_loop_through_one_function():
    """In orchestrator.py only _continue opens a Gateway, which cuts the replay log
    back, so a fresh run is a resume from its empty checkpoint; no module but
    gateway.py cuts a file back."""
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    starts, cutters = set(), []
    for path in sorted(package.glob("*.py")):
        for definition in ast.parse(path.read_text("utf-8")).body:
            for node in ast.walk(definition):
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func).split(".")[-1]
                    if called == "Gateway" and path.name == "orchestrator.py":
                        starts.add((getattr(definition, "name", None), called))
                    if "truncate" in called and path.name != "gateway.py":
                        cutters.append(f"{path.name}:{node.lineno}")
    assert starts == {("_continue", "Gateway")}
    assert cutters == []


def test_exchanges_are_counted_only_as_the_log_writes_them():
    """The tag map the counts derive from changes only in Gateway.__init__ and
    Gateway._log, so the counts always match replay_lines."""
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    counted = {"_tags"}
    writers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        allowed = set()
        if path.name == "gateway.py":
            gateway = next(node for node in tree.body if getattr(node, "name", None) == "Gateway")
            allowed = {id(node) for method in gateway.body
                       if getattr(method, "name", None) in ("__init__", "_log")
                       for node in ast.walk(method)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(node, "targets", None) or [node.target]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear")):
                targets = [node.func.value]
            else:
                continue
            for target in targets:
                names = {n.attr for n in ast.walk(target) if isinstance(n, ast.Attribute)}
                if names & counted and id(node) not in allowed:
                    writers.append(f"{path.name}:{node.lineno}")
    assert writers == []


def test_input_files_are_read_only_in_the_inputs_module():
    """inputs.py resolves and reads every input file; prompts.py reads its own templates."""
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "inputs.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        if path.name == "prompts.py":
            tree.body = [node for node in tree.body
                         if getattr(node, "name", None) not in ("_template", "template_bytes")]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner, attr = getattr(node.func.value, "id", None), node.func.attr
            if (attr in ("read_text", "read_bytes") and owner != "inputs"
                    or (owner, attr) in (("resources", "files"), ("json", "load"))):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_output_files_are_written_only_in_the_outputs_module():
    """outputs.py writes every output file; Gateway.__init__ cuts the replay log
    back and Gateway._log appends to it."""
    package = Path(__file__).resolve().parents[1] / "src" / "newsdrift"
    writers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "outputs.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        for node in tree.body:
            if path.name == "gateway.py" and getattr(node, "name", None) == "Gateway":
                node.body = [item for item in node.body
                             if getattr(item, "name", None) not in ("__init__", "_log")]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            owner = getattr(getattr(func, "value", None), "id", None)
            attr = getattr(func, "attr", None)
            # open(file, mode) or path.open(mode), or a mode= keyword
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes = [*modes, *(k.value for k in node.keywords if k.arg == "mode")]
            writes_a_file = (getattr(func, "id", attr) == "open" and any(
                isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes))
            if (writes_a_file or attr in ("write_text", "write_bytes") and owner != "outputs"
                    or (owner, attr) in (("json", "dump"), ("os", "replace"), ("os", "truncate"))):
                writers.append(f"{path.name}:{node.lineno}")
    assert writers == []


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_backend_config_validation():
    with pytest.raises(ConfigError):
        BackendConfig(mode="nonsense")
    with pytest.raises(ConfigError):
        BackendConfig(mode="remote")  # missing base_url/model_name
    with pytest.raises(ConfigError):
        BackendConfig(mode="replay")  # missing replay_log
    with pytest.raises(ConfigError, match="max_attempts"):
        BackendConfig(max_attempts=0)
    with pytest.raises(ConfigError, match="max_in_flight"):
        BackendConfig(max_in_flight=0)


@pytest.mark.parametrize("base_url", [
    "localhost:8000/v1/chat/completions",  # no scheme: "localhost" is taken as one
    "ftp://llm.example.org/v1",
    "http:///v1/chat/completions",
    "http://llm.example.org:99999/v1",
])
def test_backend_config_refuses_an_unusable_remote_base_url(base_url):
    with pytest.raises(ConfigError, match="base_url"):
        BackendConfig(mode="remote", base_url=base_url, model_name="m")


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan")])
def test_backend_config_refuses_a_timeout_that_is_not_positive(timeout):
    with pytest.raises(ConfigError, match="timeout_seconds"):
        BackendConfig(timeout_seconds=timeout)


@pytest.mark.parametrize("field, value", [
    ("max_attempts", "3"), ("max_attempts", True), ("max_attempts", 2.0),
    ("max_in_flight", 2.5), ("max_in_flight", True), ("max_in_flight", None),
    ("timeout_seconds", "60"), ("timeout_seconds", True),
    ("backoff_seconds", ["1"]), ("backoff_seconds", [False]), ("backoff_seconds", "12"),
])
def test_backend_config_refuses_a_number_of_the_wrong_type(field, value):
    with pytest.raises(ConfigError, match=field):
        BackendConfig.from_dict({"mode": "mock", field: value})


def test_backend_config_refuses_a_negative_backoff():
    with pytest.raises(ConfigError, match="backoff_seconds"):
        BackendConfig.from_dict({"mode": "mock", "backoff_seconds": [1, -0.5]})


def test_unknown_schema_rejected():
    with pytest.raises(ConfigError):
        GenerationRequest("s", "u", "not_a_schema", "t")


def test_backend_config_from_dict_round_trip():
    cfg = BackendConfig.from_dict({"mode": "mock", "backoff_seconds": [0.5, 1]})
    assert cfg.backoff_seconds == (0.5, 1.0)


def test_backend_config_from_dict_names_unknown_keys():
    with pytest.raises(ConfigError, match="concurrency, typo"):
        BackendConfig.from_dict({"mode": "mock", "typo": 1, "concurrency": 4})
