"""Deterministic synthetic fixture generators.

Everything here is pure index arithmetic, so regenerating fixtures always
reproduces the shipped bytes. Run as a script to rewrite tests/fixtures/.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from newsdrift.geography import STATE_TO_REGION
from newsdrift.mock import load_lexicon, mock_sentiment
from newsdrift.taxonomy import load_taxonomy

FIXTURES_DIR = Path(__file__).parent / "fixtures"

_TAX = load_taxonomy()
_LEX = load_lexicon()

# first single-word topic keyword that scores neutral, for lexicon-free headlines
SAFE_KEYWORDS = {
    topic.name: next(k for k in topic.keywords if k not in _LEX.signed and " " not in k)
    for topic in _TAX.topics
}

GENDERS = ("female", "male", "nonbinary")
RACES = ("white", "black", "asian", "hispanic")
PARTIES = ("democrat", "republican", "independent")

PAIR_REGIONS = ("Pacific", "Middle Atlantic", "South Atlantic",
                "East North Central", "West South Central", "Mountain")
COMPROMISE_REGION = "West North Central"
UNMATCHED_REGION = "New England"
EXTRA_SOCIAL_REGION = "East South Central"

REGION_STATES: dict[str, list[str]] = {}
for _state in sorted(STATE_TO_REGION):
    REGION_STATES.setdefault(STATE_TO_REGION[_state], []).append(_state)

SOURCES = ("Global Courier", "Daily Ledger", "Metro Wire")

VIEW_CHOICES = ("favor", "oppose", "neutral")
AGE_BANDS = ("18-29", "30-44", "45-64", "65+")
EDUCATION = ("high school", "college", "graduate")
INCOME = ("low", "middle", "high")


def _social(record_id: str, state: str, gender: str, race: str, party: str,
            i: int) -> dict:
    kw_a = SAFE_KEYWORDS[_TAX.names[i % 15]]
    kw_b = SAFE_KEYWORDS[_TAX.names[(i + 7) % 15]]
    return {
        "record_id": record_id,
        "state": state,
        "gender": gender,
        "race": race,
        "party": party,
        "bio": f"just someone who follows {kw_a} closely",
        "posts": [
            f"Lately I keep reading about {kw_a} and the debate around it.",
            f"My feed is full of {kw_b} talk these days.",
        ],
    }


def _survey(record_id: str, region: str, gender: str, race: str, party: str,
            i: int) -> dict:
    schema_views = (
        "abortion", "gun_control", "immigration_levels", "death_penalty",
        "marijuana_legalization", "climate_policy", "healthcare_spending",
        "education_spending", "defense_spending", "welfare_spending",
        "tax_on_wealthy", "minimum_wage", "union_support", "free_trade",
        "police_funding", "prison_reform", "voting_access", "campaign_finance",
        "affirmative_action", "same_sex_marriage", "religious_liberty",
        "drug_policy", "housing_policy", "public_transit", "nuclear_energy",
        "space_funding", "science_funding", "arts_funding", "internet_regulation",
        "press_freedom",
    )
    return {
        "record_id": record_id,
        "region": region,
        "gender": gender,
        "race": race,
        "party": party,
        "age_band": AGE_BANDS[i % 4],
        "education": EDUCATION[i % 3],
        "income_band": INCOME[i % 3],
        "media_preferences": {
            "news_frequency": ("daily", "weekly", "rarely")[i % 3],
            "primary_news_source": ("online", "tv", "print", "radio")[i % 4],
            "tv_news_hours": str(i % 5),
            "newspaper_days": str(i % 8),
            "online_news_days": str((i * 3) % 8),
            "social_media_news": ("yes", "no")[i % 2],
            "radio_news_days": str((i * 2) % 8),
        },
        "political_preferences": {
            "party_strength": ("strong", "lean", "weak")[i % 3],
            "ideology": ("liberal", "moderate", "conservative")[i % 3],
            "political_interest": ("high", "medium", "low")[i % 3],
            "voted_last_election": ("yes", "no")[i % 2],
            "trust_in_government": ("low", "medium", "high")[i % 3],
        },
        "domestic_views": {
            name: VIEW_CHOICES[(i + j) % 3] for j, name in enumerate(schema_views)
        },
    }


def population(n_exact: int = 24, n_compromised: int = 3, n_unmatched: int = 3,
               n_extra_social: int = 3) -> tuple[list[dict], list[dict]]:
    """Record pairs with known matching structure.

    Exact pairs share all demographics and a region; compromised pairs each
    differ in exactly one of gender/race/party; unmatched surveys sit in a
    region with no social candidates; extra socials sit in a region with no
    surveys.
    """
    social, survey = [], []
    soc_i = gss_i = 0

    for i in range(n_exact):
        region = PAIR_REGIONS[i % len(PAIR_REGIONS)]
        states = REGION_STATES[region]
        state = states[(i // len(PAIR_REGIONS)) % len(states)]
        combo = i // len(PAIR_REGIONS)
        gender = GENDERS[combo % 3]
        race = RACES[combo % 4]
        party = PARTIES[combo % 3]
        social.append(_social(f"soc-{soc_i:03d}", state, gender, race, party, i))
        survey.append(_survey(f"gss-{gss_i:03d}", region, gender, race, party, i))
        soc_i += 1
        gss_i += 1

    compromise_specs = (
        (("female", "white", "democrat"), ("male", "white", "democrat")),
        (("male", "black", "republican"), ("male", "asian", "republican")),
        (("female", "hispanic", "independent"), ("female", "hispanic", "other")),
    )
    states = REGION_STATES[COMPROMISE_REGION]
    for j in range(n_compromised):
        (sg, sr, sp), (gg, gr, gp) = compromise_specs[j % len(compromise_specs)]
        social.append(_social(f"soc-{soc_i:03d}", states[j % len(states)],
                              sg, sr, sp, n_exact + j))
        survey.append(_survey(f"gss-{gss_i:03d}", COMPROMISE_REGION,
                              gg, gr, gp, n_exact + j))
        soc_i += 1
        gss_i += 1

    for j in range(n_unmatched):
        survey.append(_survey(f"gss-{gss_i:03d}", UNMATCHED_REGION,
                              GENDERS[j % 3], RACES[j % 4], PARTIES[j % 3],
                              n_exact + n_compromised + j))
        gss_i += 1

    states = REGION_STATES[EXTRA_SOCIAL_REGION]
    for j in range(n_extra_social):
        social.append(_social(f"soc-{soc_i:03d}", states[j % len(states)],
                              GENDERS[j % 3], RACES[j % 4], PARTIES[j % 3],
                              n_exact + n_compromised + j))
        soc_i += 1

    return social, survey


_POSITIVE_TEXTS = (
    "Joint {kw} initiatives with China showed cooperation and progress, a milestone analysts welcomed.",
    "Observers called the {kw} agreement with China a landmark moment and a welcomed milestone.",
    "The {kw} outlook around China kept booming as prosperity and harmony spread through the sector.",
)

_NEGATIVE_TEXTS = (
    "Rising tensions over {kw} ties with China fed an alarming crisis, analysts said.",
    "The {kw} record around China remained disputed through the spring review.",
    "A {kw} slump tied to China deepened amid sanctions and a widening scandal.",
)


def _article(year: int, i: int, positive: bool) -> dict:
    topic = _TAX.names[i % 15]
    kw = SAFE_KEYWORDS[topic]
    texts = _POSITIVE_TEXTS if positive else _NEGATIVE_TEXTS
    text = texts[i % len(texts)].format(kw=kw)
    headline = f"China {kw} outlook: year {year} briefing {i:02d}"
    score = mock_sentiment(text, _LEX)
    assert (score > 0) == positive and score != 0, (text, score)
    assert mock_sentiment(headline, _LEX) == 0.0, headline
    return {
        "article_id": f"art-{year}-{i:03d}",
        "year": year,
        "source": SOURCES[i % len(SOURCES)],
        "headline": headline,
        "subheader": f"Briefing {i:02d} notes" if i % 4 == 0 else "",
        "category": topic if i % 5 != 4 else "",
        "full_text": text,
    }


def negative_corpus(years=range(2005, 2015), per_year: int = 60) -> list[dict]:
    """Mostly negative coverage with a positive opening year.

    The first year leans positive so favorability starts high; later years
    lean hard negative, keeping the overall net-negative share above 70%.
    """
    rows = []
    first = min(years)
    for year in years:
        n_positive = int(per_year * 0.75) if year == first else max(1, per_year // 10)
        for i in range(per_year):
            # mock selection backfills from the id-descending tail, so the
            # opening year keeps its positives there and later years their
            # negatives
            positive = i >= per_year - n_positive if year == first else i < n_positive
            rows.append(_article(year, i, positive=positive))
    negative = sum(1 for r in rows if mock_sentiment(r["full_text"], _LEX) < 0)
    assert negative / len(rows) >= 0.70, f"net-negative share {negative / len(rows):.2f}"
    return rows


def mixed_corpus(years=range(2005, 2025), per_year: int = 250) -> list[dict]:
    rows = []
    for year in years:
        for i in range(per_year):
            rows.append(_article(year, i, positive=i % 2 == 0))
    return rows


REJECTED_IDS = ("art-x-000", "art-x-001", "art-x-002")


def rejects_corpus() -> list[dict]:
    """Nine acceptable rows (one only via subheader) plus three that fail
    the mention requirement."""
    rows = []
    for i in range(9):
        topic = _TAX.names[i % 15]
        kw = SAFE_KEYWORDS[topic]
        if i == 3:
            headline = f"Trade talks stall in Geneva over {kw} rules"
            subheader = "Chinese delegation presses for a new round"
        else:
            headline = f"China {kw} briefing {i:02d} for the spring session"
            subheader = ""
        rows.append({
            "article_id": f"art-r-{i:03d}",
            "year": 2010,
            "source": SOURCES[i % len(SOURCES)],
            "headline": headline,
            "subheader": subheader,
            "category": topic,
            "full_text": _NEGATIVE_TEXTS[i % 3].format(kw=kw),
        })
    misses = (
        ("Tokyo markets rally on tech optimism", ""),
        ("Brussels drafts new data rules", "Regional outlook brightens"),
        ("Drought reshapes midwest farming", "Growers adapt to a dry decade"),
    )
    for i, (headline, subheader) in enumerate(misses):
        rows.append({
            "article_id": REJECTED_IDS[i],
            "year": 2010,
            "source": SOURCES[i % len(SOURCES)],
            "headline": headline,
            "subheader": subheader,
            "category": "",
            "full_text": "A routine report with no relevant mention at all.",
        })
    return rows


def ground_truth_rows(years=range(2005, 2025)) -> list[tuple[int, float, float]]:
    rows = []
    for year in years:
        favorable = max(10.0, 52.0 - 2.0 * (year - min(years)))
        unfavorable = min(88.0, 92.0 - favorable)
        rows.append((year, favorable, unfavorable))
    return rows


def write_jsonl(path: Path, rows: list[dict]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def write_fixtures(out_dir: Path = FIXTURES_DIR):
    social, survey = population()
    write_jsonl(out_dir / "social_records.jsonl", social)
    write_jsonl(out_dir / "survey_records.jsonl", survey)
    write_jsonl(out_dir / "corpus_negative.jsonl", negative_corpus())
    write_jsonl(out_dir / "corpus_with_rejects.jsonl", rejects_corpus())
    gt_path = out_dir / "ground_truth.csv"
    with gt_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "favorable_pct", "unfavorable_pct"])
        for year, fav, unfav in ground_truth_rows():
            writer.writerow([year, f"{fav:.1f}", f"{unfav:.1f}"])


if __name__ == "__main__":
    write_fixtures()
    print(f"fixtures written to {FIXTURES_DIR}")
