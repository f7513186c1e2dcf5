"""Uniform text-generation interface with remote, mock, and replay backends.

Every structured exchange in the simulation flows through ``Gateway.generate``
regardless of backend, so the replay log always carries the full prompt,
the raw response, and the parsed value for each request. Mock-mode values
are produced by deterministic rules at the call sites and passed in as
``mock_value``; they are serialized, re-validated, and logged exactly like
a remote completion, which keeps the two paths byte-compatible.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import requests

from .errors import ConfigError, ReplayError, SchemaError, TransportError, ValidationError

SCHEMAS = (
    "selection_list",
    "reflection_update",
    "debiased_text",
    "critique_text",
    "survey_answer",
    "interest_list",
)

REFLECTION_ACTIONS = ("confirm", "revise", "reinforce", "dismiss", "none")

VALENCE_MIN = -2.0
VALENCE_MAX = 2.0

_WORD = re.compile(r"[a-z0-9']+")


# ---------------------------------------------------------------------------
# Request / config types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenerationRequest:
    role_preamble: str
    user_text: str
    expected_schema: str
    request_tag: str
    temperature: float = 0.7
    max_tokens: int = 1024

    def __post_init__(self):
        if self.expected_schema not in SCHEMAS:
            raise ConfigError(f"unknown schema id: {self.expected_schema!r}")


@dataclass(frozen=True)
class BackendConfig:
    mode: str = "mock"
    base_url: str = ""
    model_name: str = ""
    api_key_env_var: str = "NEWSDRIFT_API_KEY"
    max_in_flight: int = 4
    max_attempts: int = 3
    backoff_seconds: tuple[float, ...] = (1.0, 2.0, 4.0)
    timeout_seconds: float = 60.0
    temperature: float = 0.7
    max_tokens: int = 1024
    replay_log: str | None = None

    def __post_init__(self):
        if self.mode not in ("remote", "mock", "replay"):
            raise ConfigError(f"unknown backend mode: {self.mode!r}")
        if self.mode == "remote" and (not self.base_url or not self.model_name):
            raise ConfigError("remote mode requires base_url and model_name")
        if self.mode == "replay" and not self.replay_log:
            raise ConfigError("replay mode requires replay_log path")
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "BackendConfig":
        kwargs = dict(doc)
        if "backoff_seconds" in kwargs:
            kwargs["backoff_seconds"] = tuple(float(x) for x in kwargs["backoff_seconds"])
        return cls(**kwargs)


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
            if not (0.0 < weight <= 2.0):
                raise ValidationError(f"lexicon weight for {word!r} outside (0, 2]: {weight}")
        self.positive = {w.lower(): float(x) for w, x in positive.items()}
        self.negative = {w.lower(): float(x) for w, x in negative.items()}
        self.signed = {**self.positive, **{w: -x for w, x in self.negative.items()}}
        words = sorted(self.signed, key=len, reverse=True)
        self.debias_pattern = re.compile(
            r"\b(?:" + "|".join(re.escape(w) for w in words) + r")\b", re.IGNORECASE)
        # mock_sentiment's per-run memo, keyed by the scored text
        self._scores: dict[str, float] = {}

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.signed


def load_lexicon(path: str | Path | None = None) -> MockLexicon:
    """Load a lexicon file, or the packaged default when path is None."""
    if path is None:
        raw = resources.files("newsdrift").joinpath("data/lexicon.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    doc = json.loads(raw)
    return MockLexicon(doc["positive"], doc["negative"])


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
    for token in _WORD.findall(text.lower()):
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
    decoder = json.JSONDecoder()
    for i, ch in enumerate(text):
        if ch in "{[":
            try:
                value, _ = decoder.raw_decode(text, i)
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
            if not isinstance(valence, (int, float)) or isinstance(valence, bool):
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
        return json.dumps({"debiased_text": value}, sort_keys=True, ensure_ascii=False)
    return json.dumps(value, sort_keys=True, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Gateway
# ---------------------------------------------------------------------------

class Gateway:
    """Single entry point for all backend exchanges in a run.

    The replay log is append-only behind a lock; request tags must be unique
    per run so a recorded log can drive an exact replay.
    """

    def __init__(self, config: BackendConfig, log_path: str | Path | None = None,
                 resume_seq: int = 0, initial_counts: dict[str, int] | None = None):
        self.config = config
        self.mode = config.mode
        self._log_path = Path(log_path) if log_path else None
        self._log_lock = threading.Lock()
        self._inflight = threading.Semaphore(config.max_in_flight)
        self._seq = resume_seq
        self._seen_tags: set[str] = set()
        self.request_counts: dict[str, int] = dict(initial_counts or {})
        self._replay_index: dict[str, list[tuple[bool, str]]] = {}
        if self.mode == "replay":
            self._load_replay_index(Path(config.replay_log))
        if self.mode == "remote":
            self._api_key = os.environ.get(config.api_key_env_var, "")
            if not self._api_key:
                raise ConfigError(
                    f"remote mode requires API key in ${config.api_key_env_var}"
                )

    # -- replay ------------------------------------------------------------

    def _load_replay_index(self, path: Path):
        if not path.exists():
            raise ReplayError(f"replay log not found: {path}")
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                self._replay_index.setdefault(record["tag"], []).append(
                    (record["ok"], record["raw_response"]))

    @property
    def log_lines(self) -> int:
        return self._seq

    # -- logging -----------------------------------------------------------

    def _log(self, request: GenerationRequest, raw: str, parsed, ok: bool,
             t_start: float, t_end: float):
        self._seq += 1
        if self._log_path is None:
            return
        record = {
            "seq": self._seq,
            "tag": request.request_tag,
            "schema": request.expected_schema,
            "system": request.role_preamble,
            "user": request.user_text,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "raw_response": raw,
            "parsed": parsed,
            "ok": ok,
            "t_start": t_start,
            "t_end": t_end,
        }
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        with self._log_lock:
            with self._log_path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    # -- remote transport ----------------------------------------------------

    def _post_once(self, request: GenerationRequest) -> str:
        payload = {
            "model": self.config.model_name,
            "messages": [
                {"role": "system", "content": request.role_preamble},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Authorization": f"Bearer {self._api_key}"}
        with self._inflight:
            response = requests.post(
                self.config.base_url,
                json=payload,
                headers=headers,
                timeout=self.config.timeout_seconds,
            )
        response.raise_for_status()
        data = response.json()
        return data["choices"][0]["message"]["content"]

    def _post(self, request: GenerationRequest) -> str:
        last_error: Exception | None = None
        schedule = self.config.backoff_seconds
        for attempt in range(self.config.max_attempts):
            try:
                return self._post_once(request)
            except (requests.RequestException, KeyError, ValueError, json.JSONDecodeError) as exc:
                last_error = exc
                if attempt < self.config.max_attempts - 1:
                    delay = schedule[min(attempt, len(schedule) - 1)] if schedule else 0.0
                    time.sleep(delay)
        raise TransportError(f"backend unreachable after {self.config.max_attempts} attempts: {last_error}")

    # -- main entry ----------------------------------------------------------

    def generate(self, request: GenerationRequest, mock_value=None):
        """Run one exchange and return the validated structured value.

        ``mock_value`` is the deterministic result the mock backend returns;
        callers always supply it so a remote run can also fall back to it
        when they choose to catch SchemaError.
        """
        if request.request_tag in self._seen_tags:
            raise ConfigError(f"duplicate request tag in run: {request.request_tag!r}")
        self._seen_tags.add(request.request_tag)
        self.request_counts[request.expected_schema] = (
            self.request_counts.get(request.expected_schema, 0) + 1
        )

        if self.mode == "mock":
            if mock_value is None:
                raise ConfigError(f"mock mode needs a mock_value for {request.request_tag!r}")
            raw = serialize_for_log(request.expected_schema, mock_value)
            parsed = parse_structured(request.expected_schema, raw)
            self._log(request, raw, parsed, True, 0.0, 0.0)
            return parsed

        if self.mode == "replay":
            records = self._replay_index.get(request.request_tag)
            if not records:
                raise ReplayError(f"no replay entry for tag {request.request_tag!r}")
            for ok, raw in records:
                if ok:
                    parsed = parse_structured(request.expected_schema, raw)
                    self._log(request, raw, parsed, True, 0.0, 0.0)
                    return parsed
            raw = records[-1][1]
            self._log(request, raw, None, False, 0.0, 0.0)
            raise SchemaError(f"replayed failure for tag {request.request_tag!r}", raw=raw)

        # remote: transport retries inside _post, schema retries here
        last_raw = ""
        for _ in range(self.config.max_attempts):
            t_start = time.time()
            raw = self._post(request)
            t_end = time.time()
            last_raw = raw
            try:
                parsed = parse_structured(request.expected_schema, raw)
            except SchemaError:
                self._log(request, raw, None, False, t_start, t_end)
                continue
            self._log(request, raw, parsed, True, t_start, t_end)
            return parsed
        raise SchemaError(
            f"response never matched schema {request.expected_schema!r} "
            f"after {self.config.max_attempts} attempts",
            raw=last_raw,
        )
