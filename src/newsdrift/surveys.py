"""Yearly attitude surveys, aggregation, and ground-truth comparison.

The survey score is the exposure-weighted mean of domain valences; the
1-4 response buckets that score, with responses 3 and 4 counted favorable.
Favorable and unfavorable percentages always sum to exactly 100 because
every agent must answer.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from . import inputs, prompts
from .errors import ConfigError, ValidationError
from .gateway import GenerationRequest
from .reflection import OpinionState, format_opinions
from .taxonomy import TopicTaxonomy

FAVORABLE_RESPONSES = (3, 4)
MAE_BASES = ("favorable", "unfavorable", "both_averaged")
BREAKDOWN_FIELDS = ("gender", "race", "party", "region", "age-band")


def overall_valence(state: OpinionState) -> float:
    total_exposure = sum(state.exposures.values())
    if total_exposure == 0:
        return 0.0
    # fixed summation order so the value survives checkpoint round trips
    weighted = sum(
        state.valences[d] * state.exposures[d] for d in sorted(state.valences)
    )
    return weighted / total_exposure


def mock_survey_response(valence: float, previous: int | None) -> int:
    if valence < -1.0:
        return 1
    if valence < 0.0:
        return 2
    if valence == 0.0:
        return previous if previous is not None else 2
    if valence <= 1.0:
        return 3
    return 4


def survey_response(profile, state: OpinionState, gateway,
                    taxonomy: TopicTaxonomy, tag: str) -> int:
    valence = overall_valence(state)
    mock = partial(mock_survey_response, valence, state.last_response)
    system, user = prompts.render_survey(
        profile, format_opinions(state, taxonomy), valence, state.last_response
    )
    request = GenerationRequest(system, user, "survey_answer", tag)
    return gateway.generate(request, mock, fallback=mock)


def aggregate_year(year: int, per_agent: dict[str, tuple[float, int]]) -> dict:
    """Summarize one year from each agent's (overall valence, response)."""
    n = len(per_agent)
    favorable = sum(
        1 for _, response in per_agent.values() if response in FAVORABLE_RESPONSES
    )
    favorable_pct = 100.0 * favorable / n
    responses = [response for _, response in per_agent.values()]
    valences = [valence for valence, _ in per_agent.values()]
    return {
        "year": year,
        "favorable_pct": favorable_pct,
        "unfavorable_pct": 100.0 - favorable_pct,
        "mean_response": sum(responses) / n,
        "mean_valence": sum(valences) / n,
        "agents": {
            agent_id: {"overall_valence": valence, "response": response}
            for agent_id, (valence, response) in sorted(per_agent.items())
        },
    }


# ---------------------------------------------------------------------------
# Ground truth and error metrics
# ---------------------------------------------------------------------------

class GroundTruthSeries:
    def __init__(self, by_year: dict[int, tuple[float, float]]):
        years = sorted(by_year)
        if years and years != list(range(years[0], years[-1] + 1)):
            raise ValidationError("years must be contiguous")
        for year, (fav, unfav) in by_year.items():
            if not (0.0 <= fav <= 100.0 and 0.0 <= unfav <= 100.0):
                raise ValidationError(f"year {year}: percentages out of range")
            if fav + unfav > 100.0 + 1e-9:
                raise ValidationError(f"year {year}: favorable + unfavorable > 100")
        self.by_year = dict(by_year)

    def __len__(self) -> int:
        return len(self.by_year)

    @classmethod
    def from_csv(cls, path: str | Path) -> "GroundTruthSeries":
        header = "year,favorable_pct,unfavorable_pct"
        lines = inputs.read_lines(path, "ground truth", ValidationError)
        if next(lines, (0, None))[1] != header:
            raise ValidationError(f"ground truth {path}: the header must be {header}")
        by_year = {}
        for number, line in lines:
            try:
                year, favorable, unfavorable = line.split(",")
                if int(year) in by_year:
                    raise ValueError(f"year {int(year)} is repeated")
                by_year[int(year)] = (float(favorable), float(unfavorable))
            except ValueError as exc:
                raise ValidationError(f"ground truth {path} line {number}: {exc}") from None
        try:
            return cls(by_year)
        except ValidationError as exc:
            raise ValidationError(f"ground truth {path}: {exc}") from None


def mae(sim_results: list[dict], truth: GroundTruthSeries) -> dict[str, float]:
    """Mean absolute error over the shared years, for each of ``MAE_BASES``."""
    overlap = [r for r in sim_results if r["year"] in truth.by_year]
    if not overlap:
        raise ValidationError("simulation and ground truth share no years")

    def series_error(key: str, column: int) -> float:
        return sum(
            abs(r[key] - truth.by_year[r["year"]][column]) for r in overlap
        ) / len(overlap)

    favorable_error = series_error("favorable_pct", 0)
    unfavorable_error = series_error("unfavorable_pct", 1)
    return dict(zip(MAE_BASES, (favorable_error, unfavorable_error,
                                (favorable_error + unfavorable_error) / 2.0)))


# ---------------------------------------------------------------------------
# Update-log and demographic analyses
# ---------------------------------------------------------------------------

def domain_influence(update_logs: list[dict]) -> dict:
    """Mean logged new valence per (domain, year) and per domain overall.

    Domains with no logged updates simply do not appear.
    """
    cells: dict[str, dict[int, list[float]]] = {}
    for entry in update_logs:
        cells.setdefault(entry["domain"], {}).setdefault(
            entry["year"], []
        ).append(entry["new_valence"])
    result = {}
    for domain in sorted(cells):
        per_year = {
            year: sum(vals) / len(vals)
            for year, vals in sorted(cells[domain].items())
        }
        combined = [v for vals in cells[domain].values() for v in vals]
        result[domain] = {"by_year": per_year, "all": sum(combined) / len(combined)}
    return result


def demographic_breakdown(per_agent: dict[str, int], profiles,
                          group_by: str) -> dict[str, float]:
    if group_by not in BREAKDOWN_FIELDS:
        raise ConfigError(f"cannot group by {group_by!r}")
    field_name = "age_band" if group_by == "age-band" else group_by
    groups: dict[str, list[int]] = {}
    for profile in profiles:
        response = per_agent.get(profile.agent_id)
        if response is None:
            continue
        value = profile.demographics[field_name]
        groups.setdefault(value, []).append(response)
    return {
        value: 100.0 * sum(1 for r in responses if r in FAVORABLE_RESPONSES) / len(responses)
        for value, responses in sorted(groups.items())
    }
