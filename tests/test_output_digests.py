"""Byte identity of the mock artifacts, checked against a committed table.

A small shape runs under each intervention, straight and stopped then
resumed, and baseline under each ablation but ``none``, straight only, from a
temporary working directory with relative paths, after a profile build that
writes its replay log and report. Every output file's sha256 is compared with
``fixtures/output_digests.json``. A change meant to alter the artifacts
records the table again in the same change, and says which files changed and
why:

    PYTHONPATH=src python tests/test_output_digests.py

The digests depend on the interpreter (float formatting, ``random``), so the
table names the Python version it was recorded with, and another version
skips the test instead of recording it again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import pytest

from newsdrift.gateway import BackendConfig, Gateway
from newsdrift.modes import ABLATIONS, INTERVENTIONS
from newsdrift.orchestrator import RunConfig, resume, run
from newsdrift.profiles import build_profiles
from newsdrift.taxonomy import load_taxonomy

FIXTURES = Path(__file__).parent / "fixtures"
TABLE = FIXTURES / "output_digests.json"
RESUMED = "-resumed"


def _python() -> str:
    return ".".join(platform.python_version_tuple()[:2])


def _digests(out: Path) -> dict[str, str]:
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_shape(workdir: Path) -> dict[str, dict[str, str]]:
    """Build profiles and run the shape inside workdir; return each output
    directory's file digests by its name: an intervention, with RESUMED
    appended for the run stopped after 2009 and resumed, or baseline-<ablation>."""
    for name in ("corpus_negative.jsonl", "ground_truth.csv"):
        shutil.copy(FIXTURES / name, workdir / name)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        Path("profiles").mkdir()
        # the log and report are named as build-profiles names them
        gateway = Gateway(BackendConfig(mode="mock"),
                          log_path=Path("profiles/profiles.replay.jsonl"))
        try:
            build_profiles(FIXTURES / "social_records.jsonl", FIXTURES / "survey_records.jsonl",
                           load_taxonomy(), gateway, out_path=Path("profiles/profiles.json"),
                           report_path=Path("profiles/profiles.report.json"))
        finally:
            gateway.close()
        digests = {"profiles": _digests(Path("profiles"))}
        shape = RunConfig(seed=7, years=(2005, 2014), n_agents=8,
                          corpus_path="corpus_negative.jsonl",
                          profiles_path="profiles/profiles.json",
                          ground_truth_path="ground_truth.csv")
        for intervention in INTERVENTIONS:
            straight = dataclasses.replace(shape, intervention=intervention,
                                           out_dir=f"out/{intervention}")
            cut = dataclasses.replace(straight, out_dir=straight.out_dir + RESUMED)
            run(straight)
            run(cut, stop_after_year=2009)
            resume(cut.out_dir)
            for config in (straight, cut):
                digests[Path(config.out_dir).name] = _digests(Path(config.out_dir))
        for ablation in (a for a in ABLATIONS if a != "none"):
            config = dataclasses.replace(shape, ablation=ablation,
                                         out_dir=f"out/baseline-{ablation}")
            run(config)
            digests[Path(config.out_dir).name] = _digests(Path(config.out_dir))
    finally:
        os.chdir(here)
    return digests


def test_mock_artifacts_match_the_recorded_digests(tmp_path):
    table = json.loads(TABLE.read_text("utf-8"))
    if table["python"] != _python():
        pytest.skip(f"digests were recorded on Python {table['python']}, "
                    f"this is Python {_python()}")
    differing = []
    for name, files in run_shape(tmp_path).items():
        expected = table["digests"][name.removesuffix(RESUMED)]
        differing.extend(f"{name}/{file}" for file in sorted(set(files) | set(expected))
                         if files.get(file) != expected.get(file))
    assert not differing, f"{len(differing)} files differ from {TABLE.name}: {', '.join(differing)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        shape = run_shape(Path(workdir))
    TABLE.write_text(json.dumps({
        "python": _python(),
        "digests": {name: files for name, files in shape.items() if not name.endswith(RESUMED)},
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, shape.values()))} digests in {TABLE}")
