from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from newsdrift.errors import ConfigError, ValidationError
from newsdrift.profiles import AgentProfile
from newsdrift.reflection import OpinionState
from newsdrift.surveys import (
    GroundTruthSeries,
    aggregate_year,
    demographic_breakdown,
    domain_influence,
    mae,
    mock_survey_response,
    overall_valence,
    survey_response,
)


def _state(taxonomy, valences=None, exposures=None):
    state = OpinionState.initial("agent-0000", taxonomy)
    state.valences.update(valences or {})
    state.exposures.update(exposures or {})
    return state


# ---------------------------------------------------------------------------
# exposure-weighted score
# ---------------------------------------------------------------------------

def test_weighted_mean_worked_example(taxonomy):
    state = _state(taxonomy, {"economics": -1.0, "technology": 2.0},
                   {"economics": 3, "technology": 1})
    assert overall_valence(state) == pytest.approx(-0.25)


def test_zero_exposure_guard(taxonomy):
    state = _state(taxonomy, {"economics": 1.9})
    assert overall_valence(state) == 0.0


def test_single_domain_weight_cancels(taxonomy):
    state = _state(taxonomy, {"economics": 1.7}, {"economics": 9})
    assert overall_valence(state) == pytest.approx(1.7)


# ---------------------------------------------------------------------------
# threshold mapping
# ---------------------------------------------------------------------------

def test_response_thresholds():
    assert mock_survey_response(-1.3, None) == 1
    assert mock_survey_response(-1.0, None) == 2
    assert mock_survey_response(-0.01, None) == 2
    assert mock_survey_response(0.0, None) == 2
    assert mock_survey_response(0.0, 3) == 3
    assert mock_survey_response(0.4, 1) == 3
    assert mock_survey_response(1.0, None) == 3
    assert mock_survey_response(1.01, None) == 4


@given(valence=st.floats(min_value=-2, max_value=2),
       previous=st.sampled_from([None, 1, 2, 3, 4]))
def test_response_always_on_scale(valence, previous):
    assert mock_survey_response(valence, previous) in (1, 2, 3, 4)


@given(a=st.floats(min_value=-2, max_value=2),
       b=st.floats(min_value=-2, max_value=2))
def test_response_monotone_in_valence(a, b):
    lo, hi = sorted((a, b))
    assert mock_survey_response(lo, 2) <= mock_survey_response(hi, 2)


class FailGateway:
    """Gateway whose every answer fails its schema."""

    def generate(self, request, mock=None, *, fallback):
        return fallback()


def test_survey_falls_back_to_threshold(taxonomy):
    profile = AgentProfile(
        agent_id="agent-0000",
        demographics={"gender": "female", "race": "white", "party": "democrat",
                      "state": "CA", "region": "Pacific"},
        political_preferences={},
        media_preferences={},
        domestic_views={},
        interests=("economics",),
        provenance={},
    )

    state = _state(taxonomy, {"economics": -2.0}, {"economics": 4})
    assert survey_response(profile, state, FailGateway(), taxonomy, tag="survey:t") == 1


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_worked_example():
    per_agent = {"a": (0.5, 3), "b": (1.5, 4), "c": (1.2, 4), "d": (-0.3, 2)}
    result = aggregate_year(2010, per_agent)
    assert result["favorable_pct"] == 75.0
    assert result["unfavorable_pct"] == 25.0
    assert result["favorable_pct"] + result["unfavorable_pct"] == 100.0
    assert result["mean_response"] == 3.25
    assert result["mean_valence"] == pytest.approx(0.725)
    assert list(result["agents"]) == ["a", "b", "c", "d"]


def test_aggregate_all_unfavorable():
    per_agent = {f"a{i}": (-2.0, 1) for i in range(5)}
    result = aggregate_year(2010, per_agent)
    assert result["favorable_pct"] == 0.0
    assert result["unfavorable_pct"] == 100.0


def test_aggregate_homogeneous():
    per_agent = {f"a{i}": (0.5, 3) for i in range(100)}
    result = aggregate_year(2010, per_agent)
    assert result["favorable_pct"] == 100.0
    assert result["mean_response"] == 3.0


# ---------------------------------------------------------------------------
# ground truth + error metric
# ---------------------------------------------------------------------------

def _results(pairs):
    return [{"year": y, "favorable_pct": f, "unfavorable_pct": 100.0 - f}
            for y, f in pairs]


def test_mae_identity():
    truth = GroundTruthSeries({2010: (40.0, 60.0), 2011: (45.0, 55.0)})
    sim = _results([(2010, 40.0), (2011, 45.0)])
    assert mae(sim, truth) == {"favorable": 0.0, "unfavorable": 0.0, "both_averaged": 0.0}


def test_mae_constant_shift():
    truth = GroundTruthSeries({2010: (40.0, 50.0), 2011: (45.0, 45.0)})
    sim = _results([(2010, 45.0), (2011, 50.0)])
    assert mae(sim, truth)["favorable"] == pytest.approx(5.0)


def test_mae_asymmetric_example():
    truth = GroundTruthSeries({2010: (40.0, 60.0), 2011: (60.0, 40.0)})
    sim = _results([(2010, 50.0), (2011, 40.0)])
    assert mae(sim, truth)["favorable"] == pytest.approx(15.0)


def test_mae_averages_both_series():
    truth = GroundTruthSeries({2010: (40.0, 50.0)})
    sim = [{"year": 2010, "favorable_pct": 44.0, "unfavorable_pct": 52.0}]
    assert mae(sim, truth)["both_averaged"] == pytest.approx(3.0)


def test_mae_restricted_to_overlap():
    truth = GroundTruthSeries({2010: (40.0, 60.0)})
    sim = _results([(2010, 40.0), (2011, 99.0)])
    assert mae(sim, truth)["both_averaged"] == 0.0


def test_mae_requires_overlap_and_known_basis():
    truth = GroundTruthSeries({1990: (40.0, 60.0)})
    sim = _results([(2010, 40.0)])
    with pytest.raises(ValidationError):
        mae(sim, truth)


def test_ground_truth_validation():
    with pytest.raises(ValidationError):
        GroundTruthSeries({2010: (40.0, 60.0), 2012: (45.0, 55.0)})  # gap
    with pytest.raises(ValidationError):
        GroundTruthSeries({2010: (80.0, 30.0)})  # sums over 100
    with pytest.raises(ValidationError):
        GroundTruthSeries({2010: (101.0, 0.0)})


def test_ground_truth_from_fixture_csv(fixtures_dir):
    truth = GroundTruthSeries.from_csv(fixtures_dir / "ground_truth.csv")
    assert len(truth) == 20
    assert truth.by_year[2005] == (52.0, 40.0)


def test_ground_truth_header_check(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("year,fav,unfav\n2010,40,60\n")
    with pytest.raises(ValidationError):
        GroundTruthSeries.from_csv(path)


def test_ground_truth_refuses_a_repeated_year(tmp_path):
    """A later row for a year would silently replace the earlier one in the MAE."""
    path = tmp_path / "gt.csv"
    path.write_text("year,favorable_pct,unfavorable_pct\n2005,40,50\n2006,41,49\n2005,90,5\n")
    with pytest.raises(ValidationError, match="line 4: year 2005 is repeated"):
        GroundTruthSeries.from_csv(path)


# ---------------------------------------------------------------------------
# update-log and demographic analyses
# ---------------------------------------------------------------------------

def test_domain_influence_single_entry():
    logs = [{"domain": "technology", "year": 2010, "new_valence": 1.5}]
    result = domain_influence(logs)
    assert result["technology"]["by_year"][2010] == 1.5
    assert result["technology"]["all"] == 1.5


def test_domain_influence_symmetry():
    logs = [{"domain": "technology", "year": 2010, "new_valence": 1.0},
            {"domain": "technology", "year": 2010, "new_valence": -1.0}]
    assert domain_influence(logs)["technology"]["by_year"][2010] == 0.0


def test_domain_influence_absent_cells():
    logs = [{"domain": "technology", "year": 2010, "new_valence": 1.0}]
    result = domain_influence(logs)
    assert "economics" not in result
    assert 2007 not in result["technology"]["by_year"]


class _P:
    def __init__(self, agent_id, party, age_band="30-44"):
        self.agent_id = agent_id
        self.demographics = {"gender": "female", "race": "white", "party": party,
                             "state": "CA", "region": "Pacific",
                             "age_band": age_band}


def test_breakdown_single_group():
    profiles = [_P(f"a{i}", "democrat") for i in range(4)]
    per_agent = {f"a{i}": 4 for i in range(4)}
    assert demographic_breakdown(per_agent, profiles, "party") == {"democrat": 100.0}


def test_breakdown_two_groups():
    profiles = [_P(f"d{i}", "democrat") for i in range(10)]
    profiles += [_P(f"r{i}", "republican") for i in range(10)]
    per_agent = {f"d{i}": (3 if i < 5 else 1) for i in range(10)}
    per_agent.update({f"r{i}": (4 if i < 8 else 2) for i in range(10)})
    result = demographic_breakdown(per_agent, profiles, "party")
    assert result == {"democrat": 50.0, "republican": 80.0}


def test_breakdown_age_band_alias():
    profiles = [_P("a0", "democrat", age_band="65+")]
    assert demographic_breakdown({"a0": 3}, profiles, "age-band") == {"65+": 100.0}


def test_breakdown_unknown_field():
    with pytest.raises(ConfigError):
        demographic_breakdown({}, [], "shoe_size")
