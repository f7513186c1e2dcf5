from __future__ import annotations

import json

import pytest

from newsdrift.errors import CorpusError
from newsdrift.corpus import (
    Article,
    CorpusIndex,
    articles_for_year,
    corpus_stats,
    ingest,
    satisfies_criterion,
)


def _row(article_id="a1", year=2010, headline="China announces policy",
         **overrides):
    doc = {"article_id": article_id, "year": year, "source": "Wire",
           "headline": headline, "subheader": "", "category": "politics",
           "full_text": "Some body text."}
    doc.update(overrides)
    return doc


def _write(tmp_path, rows, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

def test_criterion_matches_either_field():
    assert satisfies_criterion("China announces policy", "")
    assert satisfies_criterion("Markets slip", "Chinese exports fall")
    assert satisfies_criterion("chinese officials meet", "")
    assert not satisfies_criterion("Japan trade news", "")


def test_criterion_word_boundaries():
    assert not satisfies_criterion("A stroll through Chinatown", "")
    assert not satisfies_criterion("Indochina in maps", "")
    assert satisfies_criterion("China's neighbors react", "")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_accepts_and_rejects(tmp_path):
    rows = [_row(), _row(article_id="a2", headline="Japan trade news")]
    index, report = ingest(_write(tmp_path, rows))
    assert report.accepted == 1
    assert report.rejected["criterion"] == 1
    assert "a1" in index.store and "a2" not in index.store


def test_ingest_rejects_year_out_of_range(tmp_path):
    rows = [_row(article_id="a1", year=1999), _row(article_id="a2", year=2030)]
    index, report = ingest(_write(tmp_path, rows))
    assert report.accepted == 0
    assert report.rejected["year_out_of_range"] == 2


def test_ingest_rejects_empty_full_text(tmp_path):
    rows = [_row(article_id="a1", full_text="  ")]
    index, report = ingest(_write(tmp_path, rows))
    assert report.rejected["empty_full_text"] == 1


def test_ingest_counts_malformed_rows(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(_row()) + "\n" + "{broken json\n"
                    + json.dumps({"article_id": "a3"}) + "\n")
    index, report = ingest(path)
    assert report.accepted == 1
    assert report.rejected["malformed"] == 2


@pytest.mark.parametrize("field, value", [
    ("year", 2005.9), ("year", "2005"), ("year", True), ("year", None),
    ("headline", None), ("headline", ["China"]), ("source", None), ("source", 7),
    ("subheader", 0), ("category", ["politics"]), ("full_text", {"body": "text"}),
])
def test_ingest_counts_a_field_of_the_wrong_json_type_as_malformed(tmp_path, field, value):
    """Each value would once have been coerced: 2005.9 read as 2005, null as "None"."""
    row = {**_row(subheader="Chinese delegation arrives"), field: value}
    index, report = ingest(_write(tmp_path, [row]))
    assert (report.accepted, report.rejected["malformed"]) == (0, 1)


@pytest.mark.parametrize("ids, accepted", [
    ([None], []), ([1], []), ([1, "1"], ["1"]), (["1", 1], ["1"]),
])
def test_ingest_counts_an_article_id_that_is_not_a_string_as_malformed(tmp_path, ids, accepted):
    """Ids were once coerced with str(): null became "None", and 1 and "1" collided."""
    index, report = ingest(_write(tmp_path, [_row(article_id=i) for i in ids]))
    assert sorted(index.store) == accepted
    assert report.rejected["malformed"] == len(ids) - len(accepted)


def test_ingest_reads_a_null_optional_text_as_empty(tmp_path):
    row = _row(subheader=None, category=None, full_text="Body.")
    index, report = ingest(_write(tmp_path, [row]))
    assert (index.get("a1").subheader, index.get("a1").category) == ("", "")


def test_duplicate_article_id_fatal(tmp_path):
    rows = [_row(), _row()]
    with pytest.raises(CorpusError):
        ingest(_write(tmp_path, rows))


def test_high_reject_fraction_warns(tmp_path, caplog):
    rows = [_row()] + [_row(article_id=f"x{i}", headline="No mention here")
                       for i in range(5)]
    with caplog.at_level("WARNING"):
        ingest(_write(tmp_path, rows))
    assert any("reject" in rec.message.lower() for rec in caplog.records)


def test_fixture_reject_corpus(fixtures_dir):
    index, report = ingest(fixtures_dir / "corpus_with_rejects.jsonl")
    assert report.accepted == 9
    assert report.rejected == {"criterion": 3, "year_out_of_range": 0,
                               "empty_full_text": 0, "malformed": 0}
    for rejected_id in ("art-x-000", "art-x-001", "art-x-002"):
        assert rejected_id not in index.store
    # one row qualifies only through its subheader
    assert "art-r-003" in index.store


# ---------------------------------------------------------------------------
# per-year view
# ---------------------------------------------------------------------------

def test_articles_for_year_sorted(tmp_path):
    rows = [_row(article_id=f"a{i}", year=2010) for i in (3, 1, 2)]
    index, _ = ingest(_write(tmp_path, rows))
    assert articles_for_year(index, 2010) == ["a1", "a2", "a3"]
    assert articles_for_year(index, 2011) == []


def test_year_partition_property(fixtures_dir):
    index, report = ingest(fixtures_dir / "corpus_negative.jsonl")
    union = []
    for year in sorted(index.by_year):
        union += articles_for_year(index, year)
    assert sorted(union) == sorted(index.store)
    assert len(union) == report.accepted == 600


def test_ingest_order_invariance(tmp_path, fixtures_dir):
    original = (fixtures_dir / "corpus_negative.jsonl").read_text().splitlines()
    shuffled = list(reversed(original))
    path = tmp_path / "shuffled.jsonl"
    path.write_text("\n".join(shuffled) + "\n")
    a, _ = ingest(fixtures_dir / "corpus_negative.jsonl")
    b, _ = ingest(path)
    assert a.by_year == b.by_year


def test_index_get_unknown_id(tmp_path):
    index, _ = ingest(_write(tmp_path, [_row()]))
    assert index.get("a1").headline == "China announces policy"
    with pytest.raises(CorpusError):
        index.get("missing")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_single_source(tmp_path):
    rows = [_row(article_id=f"a{i}") for i in range(4)]
    index, _ = ingest(_write(tmp_path, rows))
    stats = corpus_stats(index)
    assert stats["source_pct"] == {"Wire": 100.0}


def test_stats_three_to_one_split(tmp_path):
    rows = [_row(article_id=f"a{i}", source="Alpha") for i in range(3)]
    rows.append(_row(article_id="b0", source="Beta"))
    index, _ = ingest(_write(tmp_path, rows))
    stats = corpus_stats(index)
    assert stats["source_pct"] == {"Alpha": 75.0, "Beta": 25.0}
    assert abs(sum(stats["source_pct"].values()) - 100.0) <= 0.1


def test_stats_sum_on_fixture(fixtures_dir):
    index, _ = ingest(fixtures_dir / "corpus_negative.jsonl")
    stats = corpus_stats(index)
    assert abs(sum(stats["source_pct"].values()) - 100.0) <= 0.1
    assert stats["total"] == 600
    assert sum(stats["year_counts"].values()) == 600


def test_uncategorized_articles_counted(tmp_path):
    rows = [_row(article_id="a1", category=""), _row(article_id="a2")]
    index, _ = ingest(_write(tmp_path, rows))
    stats = corpus_stats(index)
    assert stats["category_counts"]["uncategorized"] == 1
    assert stats["category_counts"]["politics"] == 1
