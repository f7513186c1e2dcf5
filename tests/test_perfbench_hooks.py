"""The benchmark's tracer wraps program names by attribute; keep them in place."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls_on_current_sources(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    from newsdrift.taxonomy import Topic, TopicTaxonomy

    originals = (Topic.keywords_present, TopicTaxonomy.best_topic)
    try:
        tracer.install()  # getattr raises AttributeError for any name it no longer finds
        assert tracer.installed
        assert (Topic.keywords_present, TopicTaxonomy.best_topic) != originals
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert (Topic.keywords_present, TopicTaxonomy.best_topic) == originals
