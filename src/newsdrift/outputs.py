"""The one writer of output files.

Every file a run or a command writes goes through ``write_text``, whole: to a
temp file that then replaces it, so a kill leaves the old file or the new one.
A file that cannot be written raises ConfigError with its name. The gateway
appends to the replay log; resume cuts it back with ``truncate_replay_log``.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from .errors import ConfigError, ResumeError


def make_dir(path: Path):
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path} cannot be created: {exc}") from None


def write_text(path: Path, text: str):
    """Write text to path whole, creating its directory."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise ConfigError(f"output file {path} is not writable: {exc}") from None


def write_json(path: Path, doc, sort_keys: bool = True):
    write_text(path, json.dumps(doc, indent=2, sort_keys=sort_keys, ensure_ascii=False) + "\n")


def write_jsonl(path: Path, rows: list[dict]):
    lines = [json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows]
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_csv(path: Path, header: tuple[str, ...], rows):
    """Comma-joined rows under a header; a float cell is written with six decimals."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{cell:.6f}" if isinstance(cell, float) else str(cell)
                          for cell in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def truncate_replay_log(path: Path, keep_lines: int):
    """Cut the replay log back to its first keep_lines lines."""
    if not path.exists():
        if keep_lines:
            raise ResumeError(f"replay log missing but checkpoint expects {keep_lines} lines")
        return
    with path.open("rb") as fh:
        for n in range(keep_lines):
            if not fh.readline():
                raise ResumeError(f"replay log has {n} lines, checkpoint expects {keep_lines}")
        offset = fh.tell()
    os.truncate(path, offset)
