"""Deterministic SVG line charts for run results.

Charts are written by hand rather than through a plotting library so the
bytes depend only on the data: fixed viewport, fixed palette, fixed float
formatting, no timestamps or generated ids.
"""

from __future__ import annotations

import logging
from pathlib import Path

from . import outputs

log = logging.getLogger(__name__)

WIDTH = 860
HEIGHT = 460
MARGIN_LEFT = 70
MARGIN_RIGHT = 30
MARGIN_TOP = 60
MARGIN_BOTTOM = 50

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#393b79", "#637939", "#8c6d31", "#843c39", "#7b4173",
)


def _x_scale(x, x_min, x_max) -> float:
    span = (x_max - x_min) or 1
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    return MARGIN_LEFT + (x - x_min) / span * plot_w


def _y_scale(y, y_min, y_max) -> float:
    span = (y_max - y_min) or 1
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return HEIGHT - MARGIN_BOTTOM - (y - y_min) / span * plot_h


def render_line_chart(title: str, y_label: str, series: list[dict],
                      y_min: float, y_max: float) -> str:
    """series entries: {name, color, points: [(x, y), ...], dashed: bool}."""
    xs = sorted({x for s in series for x, _ in s["points"]})
    if not xs:
        xs = [0]
    x_min, x_max = xs[0], xs[-1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.2f}" y="28" text-anchor="middle" font-size="18">{title}</text>',
        f'<text x="16" y="{HEIGHT / 2:.2f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT / 2:.2f})">{y_label}</text>',
    ]

    # axes
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#222222"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#222222"/>')

    # y ticks: 5 gridlines
    for i in range(5):
        value = y_min + (y_max - y_min) * i / 4
        y = _y_scale(value, y_min, y_max)
        label = f"{value:.1f}" if (y_max - y_min) < 10 else f"{value:.0f}"
        parts.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11">{label}</text>'
        )

    # x ticks: at most ~12 labels
    stride = max(1, (len(xs) + 11) // 12)
    for i, x in enumerate(xs):
        if i % stride:
            continue
        px = _x_scale(x, x_min, x_max)
        parts.append(
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="#222222"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" font-size="11">{x}</text>'
        )

    # legend across the top, under the title
    legend_x = MARGIN_LEFT
    for s in series:
        parts.append(
            f'<rect x="{legend_x}" y="40" width="12" height="4" fill="{s["color"]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 16}" y="46" font-size="11">{s["name"]}</text>'
        )
        legend_x += 16 + 7 * len(s["name"]) + 18

    for s in series:
        if not s["points"]:
            continue
        coords = " ".join(
            f"{_x_scale(x, x_min, x_max):.2f},{_y_scale(max(y_min, min(y_max, y)), y_min, y_max):.2f}"
            for x, y in sorted(s["points"])
        )
        dash = ' stroke-dasharray="6 4"' if s.get("dashed") else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{s["color"]}" '
            f'stroke-width="2"{dash}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def attitude_chart(results: list[dict], truth) -> str:
    series = [
        {
            "name": "favorable (sim)",
            "color": PALETTE[0],
            "points": [(r["year"], r["favorable_pct"]) for r in results],
        },
        {
            "name": "unfavorable (sim)",
            "color": PALETTE[1],
            "points": [(r["year"], r["unfavorable_pct"]) for r in results],
        },
    ]
    if truth is not None and len(truth):
        series.append({
            "name": "favorable (survey)",
            "color": PALETTE[0],
            "dashed": True,
            "points": sorted((y, fav) for y, (fav, _) in truth.by_year.items()),
        })
        series.append({
            "name": "unfavorable (survey)",
            "color": PALETTE[1],
            "dashed": True,
            "points": sorted((y, unfav) for y, (_, unfav) in truth.by_year.items()),
        })
    else:
        log.warning("no ground truth series; chart shows simulation lines only")
    return render_line_chart("Population attitude by year", "% of agents",
                             series, 0.0, 100.0)


def mean_score_chart(results: list[dict]) -> str:
    series = [{
        "name": "mean survey response",
        "color": PALETTE[2],
        "points": [(r["year"], r["mean_response"]) for r in results],
    }]
    return render_line_chart("Mean survey response by year", "response (1-4)",
                             series, 1.0, 4.0)


def domain_influence_chart(influence: dict) -> str:
    series = []
    for i, (domain, cell) in enumerate(sorted(influence.items())):
        series.append({
            "name": domain,
            "color": PALETTE[i % len(PALETTE)],
            "points": sorted(cell["by_year"].items()),
        })
    return render_line_chart("Mean updated valence by domain", "valence",
                             series, -2.0, 2.0)


CHART_NAMES = ("attitudes.svg", "mean_score.svg", "domain_influence.svg")


def write_charts(out_dir, results: list[dict], truth, influence: dict) -> list[Path]:
    svgs = (attitude_chart(results, truth), mean_score_chart(results),
            domain_influence_chart(influence))
    written = [Path(out_dir) / name for name in CHART_NAMES]
    for path, svg in zip(written, svgs):
        outputs.write_text(path, svg)
    return written
