from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from newsdrift.gateway import BackendConfig, Gateway
from newsdrift.mock import load_lexicon
from newsdrift.orchestrator import RunConfig
from newsdrift.profiles import build_profiles, load_profiles
from newsdrift.taxonomy import load_taxonomy

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy()


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def profiles_path(tmp_path_factory, taxonomy) -> Path:
    """Profiles built once from the shipped 60-record population fixture."""
    out = tmp_path_factory.mktemp("profiles")
    gateway = Gateway(BackendConfig(mode="mock"), log_path=out / "build_replay.jsonl")
    try:
        build_profiles(
            FIXTURES / "social_records.jsonl",
            FIXTURES / "survey_records.jsonl",
            taxonomy,
            gateway,
            out_path=out / "profiles.json",
        )
    finally:
        gateway.close()
    return out / "profiles.json"


@pytest.fixture(scope="session")
def profiles(profiles_path, taxonomy):
    return load_profiles(profiles_path, taxonomy)


@pytest.fixture
def make_config(profiles_path, tmp_path):
    """RunConfig factory bound to the fixture corpus and a per-test out dir."""

    counter = {"n": 0}

    def factory(**overrides) -> RunConfig:
        counter["n"] += 1
        defaults = dict(
            seed=7,
            years=(2005, 2006),
            n_agents=5,
            intervention="baseline",
            corpus_path=str(FIXTURES / "corpus_negative.jsonl"),
            profiles_path=str(profiles_path),
            out_dir=str(tmp_path / f"run{counter['n']}"),
        )
        defaults.update(overrides)
        return RunConfig(**defaults)

    return factory


@pytest.fixture
def open_gateway():
    """Gateway(...) for one test; each gateway it made is closed when the test ends."""
    made = []

    def factory(*args, **kwargs) -> Gateway:
        made.append(Gateway(*args, **kwargs))
        return made[-1]

    yield factory
    for gateway in made:
        gateway.close()


@pytest.fixture
def mock_gateway(open_gateway, tmp_path):
    return open_gateway(BackendConfig(mode="mock"), log_path=tmp_path / "replay.jsonl")
