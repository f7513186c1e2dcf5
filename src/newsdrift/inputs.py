"""The one reader of input files.

Every file a run or a command reads goes through here: the run config, the
corpus, the record and profile files, the taxonomy and lexicon (or their
packaged copies), the ground truth, replay logs, checkpoints, traces and
results. A file that cannot be read or parsed raises the caller's error type
with the file's name, so a bad input ends in one logged error.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Iterator

from .errors import NewsdriftError

# the packaged copy read for an input whose path is None
PACKAGED = {
    "taxonomy": "data/taxonomy.json",
    "lexicon": "data/lexicon.json",
    "profile schema": "data/profile_schema.json",
}


def _source(path, what: str):
    return resources.files("newsdrift").joinpath(PACKAGED[what]) if path is None else Path(path)


def read_bytes(path, what: str, error: type[NewsdriftError]) -> bytes:
    """The bytes of the `what` file at path, or of its packaged copy when path is None."""
    source = _source(path, what)
    try:
        return source.read_bytes()
    except OSError as exc:
        raise error(f"{what} {source} is not readable: {exc}") from None


def read_json(path, what: str, error: type[NewsdriftError]):
    """The JSON document in the `what` file at path, or in its packaged copy."""
    source = _source(path, what)
    try:
        return json.loads(source.read_bytes().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"{what} {source} is not a readable JSON file: {exc}") from None


def read_lines(path, what: str, error: type[NewsdriftError]) -> Iterator[tuple[int, str]]:
    """Stream (line number, stripped line) for each non-blank line of a text file."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if line := line.strip():
                    yield number, line
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{what} {path} is not readable: {exc}") from None
