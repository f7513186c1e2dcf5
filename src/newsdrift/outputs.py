"""The one writer of output files.

Every file a run or a command writes goes through ``write_text``, whole: to a
temp file that then replaces it, so a kill leaves the old file or the new one.
A file that cannot be written raises ConfigError with its name. The replay log
is the exception: the gateway cuts it back when it opens and appends to it.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

from .errors import ConfigError


def make_dir(path: Path, for_file: Path | None = None):
    """Create the directory path; an error also names for_file, the file it is made for."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        target = f" for {for_file}" if for_file else ""
        raise ConfigError(f"output directory {path}{target} cannot be created: {exc}") from None


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


def write_json(path: Path, doc, sort_keys: bool = True, indent: int | None = 2):
    write_text(path, json.dumps(doc, indent=indent, sort_keys=sort_keys, ensure_ascii=False) + "\n")


def write_jsonl(path: Path, rows: list[dict]):
    lines = [json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows]
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_csv(path: Path, header: tuple[str, ...], rows):
    """Comma-joined rows under a header; a float cell is written with six decimals."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{cell:.6f}" if isinstance(cell, float) else str(cell)
                          for cell in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")

