"""Output checks computed apart from the program.

Every check reads the artifacts a run wrote (parsed here with the standard
library only, never with newsdrift code), recomputes what it can from first
principles and returns a list of problems; an empty list means the check
passed. ``self_test`` corrupts one field in a copy of each checked artifact
and confirms that the matching check reports it.
"""

from __future__ import annotations

import copy
import csv
import json
import re
from pathlib import Path

TOL = 1e-9
FAVORABLE = (3, 4)
SCHEMAS_PER_AGENT_YEAR = ("selection_list", "reflection_update", "survey_answer")
_TOKEN = re.compile(r"[a-z0-9']+")


def read_truth(path: Path) -> dict[int, tuple[float, float]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return {int(row["year"]): (float(row["favorable_pct"]), float(row["unfavorable_pct"]))
                for row in csv.DictReader(fh)}


def read_lexicon_words(root: Path) -> set[str]:
    doc = json.loads((root / "src/newsdrift/data/lexicon.json").read_text("utf-8"))
    return {w.lower() for w in (*doc["positive"], *doc["negative"])}


def _jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load(out_dir: Path) -> dict:
    """Parse the artifacts of one completed output directory."""
    replay = []
    with (out_dir / "replay.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            replay.append((record["seq"], record["tag"], record["ok"]))
    read_ids = set()
    for path in sorted((out_dir / "trace").glob("year_*.jsonl")):
        for row in _jsonl(path):
            read_ids.update(read["article_id"] for read in row["reads"])
    updates = []
    for path in sorted(out_dir.glob("updates_*.jsonl")):
        updates.extend(_jsonl(path))
    return {
        "results": json.loads((out_dir / "results.json").read_text("utf-8")),
        "report": json.loads((out_dir / "run_report.json").read_text("utf-8")),
        "checkpoint": json.loads((out_dir / "checkpoint.json").read_text("utf-8")),
        "updates": updates,
        "read_ids": read_ids,
        "replay": replay,
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Checks: each takes (artifacts, spec) and returns a list of problems
# ---------------------------------------------------------------------------

def check_aggregates(art: dict, spec: dict) -> list[str]:
    """Yearly percentages and means recomputed from the per-agent rows."""
    problems = []
    years = [y["year"] for y in art["results"]["years"]]
    lo, hi = spec["years"]
    if years != list(range(lo, hi + 1)):
        problems.append(f"years {years} are not {lo}..{hi}")
    for y in art["results"]["years"]:
        rows = list(y["agents"].values())
        n = len(rows)
        if n != spec["n_agents"]:
            problems.append(f"{y['year']}: {n} agent rows, expected {spec['n_agents']}")
            continue
        fav = 100.0 * sum(r["response"] in FAVORABLE for r in rows) / n
        expect = {
            "favorable_pct": fav,
            "unfavorable_pct": 100.0 - fav,
            "mean_response": sum(r["response"] for r in rows) / n,
            "mean_valence": sum(r["overall_valence"] for r in rows) / n,
        }
        for key, value in expect.items():
            if not _close(y[key], value):
                problems.append(f"{y['year']}: {key} {y[key]} != recomputed {value}")
    return problems


def check_mae(art: dict, spec: dict) -> list[str]:
    """MAE against the ground-truth rows the benchmark generated."""
    truth = spec["truth"]
    overlap = [y for y in art["results"]["years"] if y["year"] in truth]
    if not overlap:
        return ["no simulated year has ground truth"]
    fav = sum(abs(y["favorable_pct"] - truth[y["year"]][0]) for y in overlap) / len(overlap)
    unfav = sum(abs(y["unfavorable_pct"] - truth[y["year"]][1]) for y in overlap) / len(overlap)
    expect = {"favorable": fav, "unfavorable": unfav, "both_averaged": (fav + unfav) / 2.0}
    got = art["results"]["mae"] or {}
    return [f"mae {basis} {got.get(basis)} != recomputed {value}"
            for basis, value in expect.items()
            if not isinstance(got.get(basis), float) or not _close(got[basis], value)]


def threshold_response(v: float, previous: int | None) -> int:
    if v < -1.0:
        return 1
    if v < 0.0:
        return 2
    if v == 0.0:
        return 2 if previous is None else previous
    return 3 if v <= 1.0 else 4


def check_responses(art: dict, spec: dict) -> list[str]:
    """Each answer is the 4-point threshold mapping of the overall valence."""
    problems = []
    previous: dict[str, int] = {}
    for y in art["results"]["years"]:
        for agent_id, row in y["agents"].items():
            expect = threshold_response(row["overall_valence"], previous.get(agent_id))
            if row["response"] != expect:
                problems.append(f"{y['year']} {agent_id}: response {row['response']} "
                                f"!= threshold mapping {expect}")
            previous[agent_id] = row["response"]
    return problems


def check_final_valence(art: dict, spec: dict) -> list[str]:
    """Final overall valence is the exposure-weighted mean of the checkpoint's valences."""
    problems = []
    states = art["checkpoint"]["states"]
    final = art["results"]["years"][-1]["agents"]
    if set(final) != set(states):
        return ["final-year agents differ from checkpoint agents"]
    for agent_id, row in final.items():
        valences, exposures = states[agent_id]["valences"], states[agent_id]["exposures"]
        total = sum(exposures.values())
        expect = (sum(valences[d] * exposures[d] for d in sorted(valences)) / total
                  if total else 0.0)
        if not _close(row["overall_valence"], expect):
            problems.append(f"{agent_id}: final valence {row['overall_valence']} "
                            f"!= exposure-weighted mean {expect}")
    return problems


def check_update_chain(art: dict, spec: dict) -> list[str]:
    """Per agent and domain the logged updates chain from 0 to the final valence."""
    problems = []
    last: dict[tuple[str, str], float] = {}
    for u in art["updates"]:
        key = (u["agent_id"], u["domain"])
        old, new = u["old_valence"], u["new_valence"]
        if old != last.get(key, 0.0):
            problems.append(f"{key}: old valence {old} does not continue {last.get(key, 0.0)}")
        if abs(new) > 2.0:
            problems.append(f"{key}: |new valence| {new} > 2")
        if u["delta"] != round(new - old, 6):
            problems.append(f"{key}: delta {u['delta']} != round(new - old, 6)")
        last[key] = new
    for agent_id, state in art["checkpoint"]["states"].items():
        for domain, value in state["valences"].items():
            expect = last.get((agent_id, domain), 0.0)
            if value != expect:
                problems.append(f"({agent_id}, {domain}): checkpoint valence {value} "
                                f"!= last logged {expect}")
    return problems[:20]


def check_accounting(art: dict, spec: dict) -> list[str]:
    """Read and exchange counts follow from the run's shape."""
    problems = []
    lo, hi = spec["years"]
    agent_years = spec["n_agents"] * (hi - lo + 1)
    report = art["report"]
    if report["payload_count"] != agent_years * spec["reads"]:
        problems.append(f"payload_count {report['payload_count']} != "
                        f"{agent_years} agent-years x {spec['reads']} reads")
    expect = {schema: agent_years for schema in SCHEMAS_PER_AGENT_YEAR}
    if spec["intervention"] == "debias":
        expect["debiased_text"] = len(art["read_ids"])
    if report["request_counts"] != expect:
        problems.append(f"request_counts {report['request_counts']} != {expect}")
    if report["replay_lines"] != len(art["replay"]):
        problems.append(f"replay_lines {report['replay_lines']} != "
                        f"{len(art['replay'])} records in replay.jsonl")
    return problems


def check_replay_log(art: dict, spec: dict) -> list[str]:
    """Records are numbered from 1 without gaps and answer each tag once.

    Under the remote backend a tag may also carry failed attempts, each
    followed by the tag's one successful record.
    """
    problems = []
    records = art["replay"]
    seqs = [seq for seq, _, _ in records]
    if seqs != list(range(1, len(records) + 1)):
        problems.append("replay.jsonl seq numbers are not 1..N without gaps")
    ok_tags, pending = set(), set()
    for _, tag, ok in records:
        if ok:
            if tag in ok_tags:
                problems.append(f"tag {tag!r} answered twice")
            ok_tags.add(tag)
            pending.discard(tag)
        elif spec.get("remote") and tag not in ok_tags:
            pending.add(tag)
        else:
            problems.append(f"unexpected failed record for {tag!r}")
    if pending:
        problems.append(f"{len(pending)} tags failed without a later success")
    if len(ok_tags) != sum(art["report"]["request_counts"].values()):
        problems.append(f"{len(ok_tags)} answered tags != "
                        f"{sum(art['report']['request_counts'].values())} requests")
    return problems[:20]


def check_debias_cache(art: dict, spec: dict) -> list[str]:
    """No cached rewrite contains a lexicon word, and none failed."""
    problems = []
    cache = art["checkpoint"]["debias_cache"]
    if len(cache) != len(art["read_ids"]):
        problems.append(f"{len(cache)} cached rewrites for {len(art['read_ids'])} read articles")
    for article_id, (text, failed) in cache.items():
        hits = set(_TOKEN.findall(text.lower())) & spec["lexicon_words"]
        if failed or hits:
            problems.append(f"{article_id}: rewrite failed={failed} lexicon words {sorted(hits)}")
    return problems[:20]


CHECKS = {
    "aggregates": check_aggregates,
    "mae": check_mae,
    "responses": check_responses,
    "final_valence": check_final_valence,
    "update_chain": check_update_chain,
    "accounting": check_accounting,
    "replay_log": check_replay_log,
}


def check_run(art: dict, spec: dict) -> list[str]:
    """Every check that applies to the run spec describes."""
    checks = dict(CHECKS)
    if spec["intervention"] == "debias":
        checks["debias_cache"] = check_debias_cache
    return [f"{name}: {p}" for name, check in checks.items() for p in check(art, spec)]


def same_bytes(dir_a: Path, dir_b: Path, patterns: tuple[str, ...]) -> list[str]:
    """Files matching patterns are byte-equal, and the same files exist, in both dirs."""
    problems = []
    for pattern in patterns:
        names_a = sorted(p.name for p in dir_a.glob(pattern))
        names_b = sorted(p.name for p in dir_b.glob(pattern))
        if names_a != names_b or not names_a:
            problems.append(f"{pattern}: files {names_a} != {names_b}")
            continue
        problems.extend(f"{name} differs" for name in names_a
                        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes())
    return problems


def same_years(results_a: dict, results_b: dict) -> list[str]:
    if results_a["years"] != results_b["years"] or results_a["mae"] != results_b["mae"]:
        return ["yearly results differ from the mock reference"]
    return []


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

def _corrupted(art: dict, part: str, mutate) -> dict:
    bad = dict(art)
    bad[part] = copy.deepcopy(art[part])
    mutate(bad[part])
    return bad


def _bump_valence(checkpoint: dict):
    state = next(iter(checkpoint["states"].values()))
    domain = next(iter(state["valences"]))
    state["valences"][domain] += 0.5


def self_test(art: dict, spec: dict) -> list[str]:
    """Corrupt one field per artifact in a copy; each matching check must fail."""
    first_year = lambda results: results["years"][0]  # noqa: E731
    first_row = lambda results: next(iter(first_year(results)["agents"].values()))  # noqa: E731

    def flip_response(results):
        row = first_row(results)
        row["response"] = 1 if row["response"] != 1 else 4

    cases = [
        ("aggregates", "results", lambda r: first_year(r).__setitem__(
            "mean_valence", first_year(r)["mean_valence"] + 0.5)),
        ("mae", "results", lambda r: r["mae"].__setitem__("favorable", r["mae"]["favorable"] + 0.5)),
        ("responses", "results", flip_response),
        ("final_valence", "results", lambda r: next(iter(r["years"][-1]["agents"].values()))
         .__setitem__("overall_valence", 3.0)),
        ("update_chain", "checkpoint", _bump_valence),
        ("accounting", "report", lambda r: r.__setitem__("payload_count", r["payload_count"] + 1)),
        ("replay_log", "replay", lambda r: r.__setitem__(-1, (r[-1][0] + 1, *r[-1][1:]))),
    ]
    if art["updates"]:
        cases.append(("update_chain", "updates",
                      lambda u: u[0].__setitem__("delta", u[0]["delta"] + 0.1)))
    if spec["intervention"] == "debias":
        def taint(checkpoint):
            cache = checkpoint["debias_cache"]
            key = next(iter(cache))
            cache[key] = [cache[key][0] + " " + min(spec["lexicon_words"]), cache[key][1]]
        cases.append(("debias_cache", "checkpoint", taint))
        checks = {**CHECKS, "debias_cache": check_debias_cache}
    else:
        checks = CHECKS

    problems = []
    for name, part, mutate in cases:
        if checks[name](art, spec):
            problems.append(f"self-test: {name} fails on the unmodified artifacts")
        elif not checks[name](_corrupted(art, part, mutate), spec):
            problems.append(f"self-test: {name} missed a corrupted {part}")
    return problems


def self_test_equality(out_dir: Path, scratch: Path, results: dict) -> list[str]:
    """The byte and yearly-result comparisons must report a one-field change."""
    problems = []
    scratch.mkdir(parents=True, exist_ok=True)
    blob = (out_dir / "results.json").read_bytes()
    (scratch / "results.json").write_bytes(blob.replace(b'"year": ', b'"year": 1', 1))
    if not same_bytes(out_dir, scratch, ("results.json",)):
        problems.append("self-test: byte compare missed a changed results.json")
    if not same_years(results, _corrupted(results, "years", lambda y: y[0].__setitem__(
            "mean_response", y[0]["mean_response"] + 1.0))):
        problems.append("self-test: yearly-result compare missed a changed year")
    return problems
