"""Hand-rolled SVG charts: fixed geometry, stable bytes, graceful gaps."""

import logging
import re
import xml.etree.ElementTree as ElementTree

from newsdrift.charts import (
    attitude_chart,
    domain_influence_chart,
    mean_score_chart,
    render_line_chart,
    write_charts,
)
from newsdrift.surveys import GroundTruthSeries

RESULTS = [
    {"year": 2005, "favorable_pct": 60.0, "unfavorable_pct": 40.0,
     "mean_response": 2.6},
    {"year": 2006, "favorable_pct": 45.0, "unfavorable_pct": 55.0,
     "mean_response": 2.3},
]
TRUTH = GroundTruthSeries({2005: (52.0, 40.0), 2006: (50.0, 42.0)})


def _polylines(svg: str) -> list[str]:
    return re.findall(r"<polyline[^>]*>", svg)


def test_attitude_chart_draws_sim_and_survey_lines():
    svg = attitude_chart(RESULTS, TRUTH)
    lines = _polylines(svg)
    assert len(lines) == 4
    assert sum('stroke-dasharray="6 4"' in line for line in lines) == 2
    for label in ("favorable (sim)", "unfavorable (sim)",
                  "favorable (survey)", "unfavorable (survey)"):
        assert label in svg


def test_attitude_chart_without_truth_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="newsdrift.charts"):
        svg = attitude_chart(RESULTS, None)
    assert len(_polylines(svg)) == 2
    assert "ground truth" in caplog.text
    assert "(survey)" not in svg


def test_attitude_chart_empty_truth_treated_as_missing(caplog):
    with caplog.at_level(logging.WARNING, logger="newsdrift.charts"):
        svg = attitude_chart(RESULTS, GroundTruthSeries({}))
    assert len(_polylines(svg)) == 2


def test_fixed_viewport_and_background():
    svg = attitude_chart(RESULTS, TRUTH)
    assert 'viewBox="0 0 860 460"' in svg
    assert 'width="860" height="460"' in svg
    assert '<rect width="860" height="460" fill="#ffffff"/>' in svg


def test_chart_bytes_are_reproducible():
    first = attitude_chart(RESULTS, TRUTH)
    second = attitude_chart(
        [dict(r) for r in RESULTS],
        GroundTruthSeries({2005: (52.0, 40.0), 2006: (50.0, 42.0)}),
    )
    assert first == second


def test_mean_score_chart_smoke():
    svg = mean_score_chart(RESULTS)
    assert len(_polylines(svg)) == 1
    assert "Mean survey response by year" in svg
    assert "2005" in svg and "2006" in svg


def test_domain_influence_chart_one_line_per_domain():
    influence = {
        "economics": {"by_year": {2005: -0.5, 2006: -1.0}, "all": -0.75},
        "technology": {"by_year": {2005: 1.0}, "all": 1.0},
    }
    svg = domain_influence_chart(influence)
    assert len(_polylines(svg)) == 2
    assert "economics" in svg and "technology" in svg


def test_series_names_are_escaped_into_well_formed_svg():
    influence = {"R&D <x>": {"by_year": {2005: 0.5}, "all": 0.5}}
    svg = domain_influence_chart(influence)
    root = ElementTree.fromstring(svg)
    legend = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "R&D <x>" in legend


def test_single_year_series_still_renders():
    svg = mean_score_chart(RESULTS[:1])
    (line,) = _polylines(svg)
    assert "nan" not in line and "inf" not in line


def test_out_of_range_points_are_clamped_into_plot():
    svg = render_line_chart("t", "y", [
        {"name": "s", "color": "#000000", "points": [(0, -50.0), (1, 150.0)]},
    ], 0.0, 100.0)
    (line,) = _polylines(svg)
    for _, py in re.findall(r"(\d+\.\d+),(\d+\.\d+)", line):
        assert 60.0 <= float(py) <= 410.0  # top/bottom margins


def test_write_charts_emits_three_files(tmp_path):
    influence = {"economics": {"by_year": {2005: -0.5}, "all": -0.5}}
    paths = write_charts(tmp_path / "out", RESULTS, TRUTH, influence)
    assert [p.name for p in paths] == [
        "attitudes.svg", "mean_score.svg", "domain_influence.svg"]
    for path in paths:
        text = path.read_text()
        assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
