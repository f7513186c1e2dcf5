"""Uniform text-generation interface with remote, mock, and replay backends.

Every structured exchange in the simulation flows through ``Gateway.generate``
regardless of backend, so the replay log always carries the full prompt
and the raw response for each request. Mock-mode values
come from deterministic rules at the call sites, handed in as a zero-argument
``mock`` that only the mock backend calls (a ``fallback`` is called only when
the exchange falls back); they are serialized, re-validated, and logged
exactly like a remote completion, which keeps the two paths byte-compatible.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import selectors
import socket
import ssl
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path
from urllib.parse import urlsplit

from . import inputs
from .errors import (ConfigError, ReplayError, ResumeError, SchemaError, TransportError,
                     ValidationError)

SCHEMAS = (
    "selection_list",
    "reflection_update",
    "debiased_text",
    "critique_text",
    "survey_answer",
    "interest_list",
)

MODES = ("remote", "mock", "replay")

REFLECTION_ACTIONS = ("confirm", "revise", "reinforce", "dismiss", "none")

VALENCE_MIN = -2.0
VALENCE_MAX = 2.0

# a token mock_sentiment scores: a longest run of these in the lower-cased text
WORD = re.compile(r"[a-z0-9']+")

# one of each for the run: neither keeps state between calls, and the decoder's
# C scanner holds the interpreter lock while it reads, so remote workers share it
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)
_DECODER = json.JSONDecoder()

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Request / config types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GenerationRequest:
    role_preamble: str
    user_text: str
    expected_schema: str
    request_tag: str

    def __post_init__(self):
        if self.expected_schema not in SCHEMAS:
            raise ConfigError(f"unknown schema id: {self.expected_schema!r}")


@dataclass(frozen=True)
class BackendConfig:
    mode: str = "mock"
    base_url: str = ""
    model_name: str = ""
    api_key_env_var: str = "NEWSDRIFT_API_KEY"
    max_attempts: int = 3
    backoff_seconds: tuple[float, ...] = (1.0, 2.0, 4.0)
    timeout_seconds: float = 60.0
    temperature: float = 0.7
    max_tokens: int = 1024
    replay_log: str | None = None
    # remote requests in flight at once in Gateway.start; 1 runs them one by one
    max_in_flight: int = 8

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown backend mode: {self.mode!r}")
        if self.mode == "remote" and (not self.base_url or not self.model_name):
            raise ConfigError("remote mode requires base_url and model_name")
        if self.mode == "replay" and not self.replay_log:
            raise ConfigError("replay mode requires replay_log path")
        for name in ("max_attempts", "max_in_flight"):
            value = getattr(self, name)
            if not (is_number(value, int) and value >= 1):
                raise ConfigError(f"{name} must be an integer of at least 1: {value!r}")
        if not (is_number(self.timeout_seconds) and self.timeout_seconds > 0):
            raise ConfigError(f"timeout_seconds must be a positive number: {self.timeout_seconds!r}")
        if not (isinstance(self.backoff_seconds, (list, tuple))
                and all(is_number(delay) and delay >= 0 for delay in self.backoff_seconds)):
            raise ConfigError(f"backoff_seconds must be numbers, none negative: "
                              f"{self.backoff_seconds!r}")
        object.__setattr__(self, "backoff_seconds", tuple(map(float, self.backoff_seconds)))
        if self.mode == "remote":
            try:
                url = urlsplit(self.base_url)
                usable = url.scheme in ("http", "https") and url.hostname and url.port != 0
            except ValueError:  # an unclosed [ in the host, or a port that is no number in range
                usable = False
            if not usable:
                raise ConfigError(f"base_url must be an http:// or https:// URL with a host and "
                                  f"a port from 1 to 65535, if any: {self.base_url!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "BackendConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"the backend section must be an object: {doc!r}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown backend keys: {', '.join(unknown)}")
        return cls(**doc)


def is_number(value, kind=(int, float)) -> bool:
    """Whether value is a number of kind, int or float by default; a bool is none."""
    return isinstance(value, kind) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Mock lexicon and sentiment
# ---------------------------------------------------------------------------

class MockLexicon:
    """Weighted positive/negative word lists for the deterministic backend."""

    def __init__(self, positive: dict[str, float], negative: dict[str, float]):
        overlap = set(positive) & set(negative)
        if overlap:
            raise ValidationError(f"lexicon word sets must be disjoint: {sorted(overlap)}")
        for word, weight in {**positive, **negative}.items():
            if not (is_number(weight) and 0.0 < weight <= 2.0):
                raise ValidationError(f"lexicon weight for {word!r} outside (0, 2]: {weight!r}")
        self.positive = {w.lower(): float(x) for w, x in positive.items()}
        self.negative = {w.lower(): float(x) for w, x in negative.items()}
        self.signed = {**self.positive, **{w: -x for w, x in self.negative.items()}}
        # mock_sentiment's per-run memo, keyed by the scored text
        self._scores: dict[str, float] = {}


def load_lexicon(path: str | Path | None = None) -> MockLexicon:
    """Load a lexicon file, or the packaged default when path is None."""
    doc = inputs.read_json(path, "lexicon", ValidationError)
    try:
        return MockLexicon(doc["positive"], doc["negative"])
    except (LookupError, TypeError, ValidationError) as exc:
        raise ValidationError(f"lexicon {path} is not a lexicon: "
                              f"{type(exc).__name__}: {exc}") from None


def mock_sentiment(text: str, lexicon: MockLexicon) -> float:
    """Deterministic sentiment score in [-2, 2], memoised on the lexicon.

    Signed lexicon weights of matched word occurrences are averaged and
    scaled by 2, then clamped; a text without lexicon words scores 0.
    """
    score = lexicon._scores.get(text)
    if score is not None:
        return score
    total = 0.0
    matched = 0
    for token in WORD.findall(text.lower()):
        weight = lexicon.signed.get(token)
        if weight is not None:
            total += weight
            matched += 1
    score = lexicon._scores[text] = clamp_valence(total / max(1, matched) * 2.0)
    return score


def clamp_valence(value: float) -> float:
    return max(VALENCE_MIN, min(VALENCE_MAX, value))


# ---------------------------------------------------------------------------
# Structured parsing
# ---------------------------------------------------------------------------

def extract_json_value(text: str):
    """Parse the first balanced JSON object or array embedded in text."""
    for i, ch in enumerate(text):
        if ch in "{[":
            try:
                value, _ = _DECODER.raw_decode(text, i)
                return value
            except json.JSONDecodeError:
                continue
    raise SchemaError("no balanced JSON value found in response", raw=text)


def _as_int(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def parse_structured(schema: str, text: str):
    """Validate raw response text against a schema id.

    Returns the parsed value or raises SchemaError carrying the raw text.
    """
    if schema == "survey_answer":
        match = re.search(r"-?\d+", text)
        if not match:
            raise SchemaError("no integer in survey answer", raw=text)
        answer = int(match.group(0))
        if answer not in (1, 2, 3, 4):
            raise SchemaError(f"survey answer out of range: {answer}", raw=text)
        return answer

    if schema == "critique_text":
        critique = text.strip()
        if not critique:
            raise SchemaError("empty critique", raw=text)
        return critique

    value = extract_json_value(text)

    if schema == "selection_list":
        if not isinstance(value, list):
            raise SchemaError("selection must be a JSON array", raw=text)
        picks = []
        for item in value:
            number = _as_int(item)
            if number is None:
                raise SchemaError(f"selection entries must be integers: {item!r}", raw=text)
            picks.append(number)
        return picks

    if schema == "interest_list":
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise SchemaError("interests must be a JSON array of strings", raw=text)
        return value

    if schema == "debiased_text":
        if not isinstance(value, dict) or not isinstance(value.get("debiased_text"), str):
            raise SchemaError('expected {"debiased_text": "..."}', raw=text)
        return value["debiased_text"]

    if schema == "reflection_update":
        if not isinstance(value, dict) or not isinstance(value.get("domains"), dict):
            raise SchemaError('reflection update must carry a "domains" object', raw=text)
        domains = {}
        for name, entry in value["domains"].items():
            if not isinstance(entry, dict):
                raise SchemaError(f"domain entry for {name!r} must be an object", raw=text)
            valence = entry.get("new_valence")
            if not is_number(valence):
                raise SchemaError(f"new_valence missing for domain {name!r}", raw=text)
            valence = float(valence)
            if not (VALENCE_MIN <= valence <= VALENCE_MAX):
                raise SchemaError(f"new_valence out of range for {name!r}: {valence}", raw=text)
            action = entry.get("action", "none")
            if action not in REFLECTION_ACTIONS:
                raise SchemaError(f"unknown action for {name!r}: {action!r}", raw=text)
            cognitions = entry.get("cognitions", [])
            if not isinstance(cognitions, list) or not all(isinstance(c, str) for c in cognitions):
                raise SchemaError(f"cognitions for {name!r} must be strings", raw=text)
            domains[name] = {
                "action": action,
                "new_valence": valence,
                "cognitions": list(cognitions),
            }
        themes = value.get("themes", [])
        if not isinstance(themes, list) or not all(isinstance(t, str) for t in themes):
            raise SchemaError("themes must be a list of strings", raw=text)
        reasoning = value.get("reasoning", "")
        if not isinstance(reasoning, str):
            raise SchemaError("reasoning must be a string", raw=text)
        return {"themes": list(themes), "reasoning": reasoning, "domains": domains}

    raise ConfigError(f"unknown schema id: {schema!r}")


def serialize_for_log(schema: str, value) -> str:
    """Render a structured value the way a well-behaved backend would."""
    if schema == "survey_answer":
        return str(value)
    if schema == "critique_text":
        return value
    if schema == "debiased_text":
        return _ENCODER.encode({"debiased_text": value})
    return _ENCODER.encode(value)


def run_once(fn, *args):
    """A zero-argument call that runs fn(*args) at its first use and returns that
    result then and at every later use; a call that raises keeps nothing, so the
    next use runs fn again."""
    done = []

    def call():
        if not done:
            done.append(fn(*args))
        return done[0]
    return call


def _prompt_digest(system: str, user: str) -> bytes:
    return hashlib.sha256(f"{system}\x00{user}".encode("utf-8")).digest()


def read_records(path: Path, error: type[Exception], lines: int | None = None):
    """Stream a replay log's records, or those of its first ``lines`` lines and no
    further, so a torn tail is never decoded; a damaged or missing line raises ``error``."""
    for number, line in inputs.read_lines(path, "replay log", error):
        try:
            record = json.loads(line)
            texts = ("tag", "schema", "system", "user", "raw_response")
            if not (all(isinstance(record[key], str) for key in texts)
                    and isinstance(record["ok"], bool)):
                raise TypeError(f"{', '.join(texts)} must be strings and ok a boolean")
        except (ValueError, LookupError, TypeError) as exc:
            raise error(f"{path} line {number} is not a replay record: "
                        f"{type(exc).__name__}: {exc}") from None
        yield record
        if number == lines:
            return
    if lines:
        raise error(f"replay log {path} has fewer than the {lines} lines expected")


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

class Gateway:
    """Single entry point for all backend exchanges in a run.

    Each backend only supplies raw answers; ``generate`` parses, logs and
    returns them the same way whatever the mode. ``start`` runs independent
    chains of exchanges, at most ``max_in_flight`` at once on the remote
    backend, and hands each chain's records back to be written in the order a
    sequential run writes them. Each thread that posts keeps one connection
    alive. Records are written, and their tags taken and checked for a
    repeat, in ``_log``, only in the thread that collects them, so the tag map
    always describes the log as far as it is written.
    The gateway alone writes the replay log: it cuts the log back to the kept
    lines when it opens, then appends through one line-buffered handle; request
    tags must be unique per run so a recorded log can drive an exact replay.
    ``close`` releases the handle, the workers and the connections.
    """

    def __init__(self, config: BackendConfig, log_path: str | Path | None = None,
                 replay_lines: int = 0):
        # replay_lines: the log's first lines that a resume keeps; the rest is cut away below
        self.config = config
        self._log_path = Path(log_path) if log_path else None
        self._log_fh = None
        self.replay_lines = replay_lines
        # .records: where this thread's exchanges are held; unset writes to the log
        self._local = threading.local()
        self._pool: ThreadPoolExecutor | None = None
        # thread id -> that thread's kept-alive connection to the remote endpoint
        self._connections: dict[int, http.client.HTTPConnection] = {}
        # tag -> (schema, fell back); a kept tag's last record is ok unless it fell back
        self._tags: dict[str, tuple[str, bool]] = {
            record["tag"]: (record["schema"], not record["ok"])
            for record in read_records(self._log_path, ResumeError, replay_lines)
        } if replay_lines else {}
        # the tag map's size and its fallbacks, kept as _log adds to it
        self.exchanges = len(self._tags)
        self.fallbacks = sum(fell_back for _, fell_back in self._tags.values())
        # a record's fixed values as JSON, and each system preamble's, made once
        self._temperature = _ENCODER.encode(config.temperature)
        self._max_tokens = _ENCODER.encode(config.max_tokens)
        self._systems: dict[str, str] = {}
        # tag -> (raw answer served on replay, digest of its recorded prompts) of the tag's
        # last record, as for _tags: its ok one, or its last failed attempt
        self._replay_index: dict[str, tuple[str, bytes]] = {
            record["tag"]: (record["raw_response"],
                            _prompt_digest(record["system"], record["user"]))
            for record in read_records(Path(config.replay_log), ReplayError)
        } if config.mode == "replay" else {}
        if config.mode == "remote":
            api_key = os.environ.get(config.api_key_env_var, "")
            if not api_key:
                raise ConfigError(f"remote mode requires API key in ${config.api_key_env_var}")
            self._headers = {"Authorization": f"Bearer {api_key}",
                             "Content-Type": "application/json"}
            url = urlsplit(config.base_url)
            self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
            # The port is always given: http.client would take the end of a bare
            # IPv6 host for one.
            if url.scheme == "https":
                self._connect = partial(http.client.HTTPSConnection, url.hostname,
                                        url.port or 443, context=ssl.create_default_context())
            else:
                self._connect = partial(http.client.HTTPConnection, url.hostname, url.port or 80)
        if self._log_path and self._log_path.exists():  # last, so a refusal leaves the log
            with self._log_path.open("rb+") as fh:
                for _ in range(replay_lines):
                    fh.readline()
                fh.truncate()

    def close(self):
        """Cancel the ``start`` items not yet begun and wait for the running ones, then
        close every connection and the replay-log handle; a later ``start``, POST or
        record opens them again."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None

    # -- concurrency ---------------------------------------------------------

    def _capture(self, fn, item):
        """Run fn(item) and return (its result, the log records it made, held back)."""
        enclosing = getattr(self._local, "records", None)  # an item run inside another
        self._local.records = records = []
        try:
            return fn(item), records
        finally:
            self._local.records = enclosing

    def emit(self, records: list):
        """Write records held back by ``start``; inside a ``start`` item, hold them
        with that item's own records."""
        held = getattr(self._local, "records", None)
        if held is not None:
            held.extend(records)
            return
        for record in records:
            self._log(*record)

    def start(self, fn, items):
        """Start fn(item) for each item, each call a chain of exchanges, and
        return one call per item that returns its (result, held records) once
        it has finished. The caller emits the records in item order, so the
        log reads as if the items ran one after another.

        The remote backend submits the items to its pool at once, where they
        queue behind items started earlier and run up to ``max_in_flight`` at a
        time, one after another when that is 1; a call waits for its item and
        raises its failure, and ``close`` cancels the items not yet begun. Mock
        and replay run an item at its call's first use, in the calling thread,
        and keep its result for later calls (``run_once``). An item may use
        the calls of items started before it.
        """
        if self.config.mode != "remote":
            return [run_once(self._capture, fn, item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.config.max_in_flight,
                                            thread_name_prefix="newsdrift-gateway")
        return [self._pool.submit(self._capture, fn, item).result for item in items]

    def counters(self) -> dict:
        """Exchanges and fallbacks per schema, from the tag map, and the log's line count."""
        return {"request_counts": dict(Counter(schema for schema, _ in self._tags.values())),
                "fallback_counts": dict(Counter(schema for schema, fell_back
                                                in self._tags.values() if fell_back)),
                "replay_lines": self.replay_lines}

    # -- logging -----------------------------------------------------------

    def _log(self, request: GenerationRequest, raw: str | None, ok: bool,
             t_start: float, t_end: float):
        """Write one record. The exchange takes its tag at its ok record, or
        at its fallback, which has ``raw`` None and writes no line; a later
        record with that tag is refused."""
        schema, tag = request.expected_schema, request.request_tag
        if tag in self._tags:
            raise ConfigError(f"duplicate request tag in run: {tag!r}")
        if ok or raw is None:
            self._tags[tag] = (schema, raw is None)
            self.exchanges += 1
            self.fallbacks += raw is None
        if raw is None:
            log.warning("no answer for %s matched %s; using the fallback", tag, schema)
            return
        self.replay_lines += 1
        if self._log_path is None:
            return
        system = self._systems.get(request.role_preamble) or self._systems.setdefault(
            request.role_preamble, encode_basestring(request.role_preamble))
        if self._log_fh is None:
            # line buffering hands every record to the OS as it is written
            self._log_fh = self._log_path.open("a", encoding="utf-8", buffering=1)
        # the bytes of _ENCODER.encode(record): its keys in sorted order, its strings
        # quoted by its own escaper, its numbers as it writes them
        self._log_fh.write(
            f'{{"max_tokens": {self._max_tokens}, "ok": {"true" if ok else "false"}, '
            f'"raw_response": {encode_basestring(raw)}, "schema": {encode_basestring(schema)}, '
            f'"seq": {self.replay_lines}, "system": {system}, "t_end": {t_end!r}, '
            f'"t_start": {t_start!r}, "tag": {encode_basestring(tag)}, '
            f'"temperature": {self._temperature}, "user": {encode_basestring(request.user_text)}}}\n')

    # -- backends ------------------------------------------------------------

    def _post(self, request: GenerationRequest) -> str:
        """Send one request to the remote endpoint and return the answer text."""
        messages = [{"role": "system", "content": request.role_preamble},
                    {"role": "user", "content": request.user_text}]
        body = json.dumps({"model": self.config.model_name, "messages": messages,
                           "temperature": self.config.temperature,
                           "max_tokens": self.config.max_tokens}).encode("utf-8")
        # the thread's kept-alive connection; http.client reopens a closed one
        connection = self._connections.get(threading.get_ident())
        if connection is None:
            connection = self._connections[threading.get_ident()] = self._connect(
                timeout=self.config.timeout_seconds)
        elif connection.sock:  # an idle socket that reads is one the server has closed
            with selectors.DefaultSelector() as idle:
                idle.register(connection.sock, selectors.EVENT_READ)
                if idle.select(0):
                    connection.close()
        try:
            connection.request("POST", self._path, body, self._headers)
            if hasattr(socket, "TCP_QUICKACK"):  # a reply in two writes skips the delayed ACK
                connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            response = connection.getresponse()
            reply = response.read()
            if response.status >= 300:  # redirects are not followed
                raise http.client.HTTPException(f"HTTP {response.status} {response.reason}")
            content = json.loads(reply)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"reply carries no answer text: {content!r}")
            return content
        except BaseException:
            connection.close()  # the next attempt goes out on a new connection
            raise

    def _answers(self, request: GenerationRequest, mock):
        """Yield the backend's raw answers as (raw, t_start, t_end); remote posts
        up to ``max_attempts`` times in all and backs off after transport failures."""
        tag = request.request_tag
        if self.config.mode == "mock":
            if mock is None:
                raise ConfigError(f"mock mode needs a mock answer for {tag!r}")
            yield serialize_for_log(request.expected_schema, mock()), 0.0, 0.0
        elif self.config.mode == "replay":
            if tag not in self._replay_index:
                raise ReplayError(f"no replay entry for tag {tag!r}")
            raw, digest = self._replay_index[tag]
            if digest != _prompt_digest(request.role_preamble, request.user_text):
                raise ReplayError(f"prompt for tag {tag!r} differs from the recorded one")
            yield raw, 0.0, 0.0
        else:
            attempts = self.config.max_attempts
            schedule = self.config.backoff_seconds
            for attempt in range(attempts):
                t_start = time.time()
                try:
                    raw = self._post(request)
                except (OSError, http.client.HTTPException,
                        LookupError, TypeError, ValueError) as exc:
                    if attempt == attempts - 1:
                        raise TransportError(
                            f"last of {attempts} attempts failed in transport: {exc}") from exc
                    time.sleep(schedule[min(attempt, len(schedule) - 1)] if schedule else 0.0)
                    continue
                yield raw, t_start, time.time()

    # -- main entry ----------------------------------------------------------

    def generate(self, request: GenerationRequest, mock=None, *, fallback):
        """Run one exchange and return the validated structured value.

        ``mock`` and ``fallback`` are zero-argument callables; only the mock
        backend calls ``mock()``, for its deterministic answer. An answer
        that fails its schema is logged as failed, and the next answer is
        tried. When none matches, ``fallback()`` is returned, and the
        exchange is counted in ``fallback_counts`` under its schema once its
        records are emitted; transport, replay and config errors still raise.
        """
        schema = request.expected_schema
        for raw, t_start, t_end in self._answers(request, mock):
            try:
                parsed = parse_structured(schema, raw)
            except SchemaError:
                self.emit([(request, raw, False, t_start, t_end)])
                continue
            self.emit([(request, raw, True, t_start, t_end)])
            return parsed
        self.emit([(request, None, False, 0.0, 0.0)])
        return fallback()
