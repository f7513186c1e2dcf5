"""Command line entry point.

Subcommands cover the full pipeline: build the synthetic population,
validate a corpus, run or resume a simulation, and regenerate reports or
charts from a finished output directory. Remote API keys are read from the
environment only, never from configuration files.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import sys
from pathlib import Path

from .corpus import corpus_stats, ingest
from . import inputs, outputs
from .errors import ConfigError, NewsdriftError
from .gateway import MODES, BackendConfig, Gateway, is_number, read_records
from .modes import ABLATIONS, INTERVENTIONS
from .orchestrator import RunConfig, read_update_logs, resume, run
from .profiles import build_profiles
from .surveys import GroundTruthSeries, domain_influence, mae
from .taxonomy import load_taxonomy
from . import charts as charts_mod

log = logging.getLogger("newsdrift")

INTERVENTION_FLAGS = tuple(name.replace("_", "-") for name in INTERVENTIONS)
ABLATION_FLAGS = tuple(name.replace("_", "-") for name in ABLATIONS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsdrift",
        description="Deterministic multi-agent simulation of attitude drift under news exposure.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-profiles", help="match records and emit agent profiles")
    p.add_argument("--social", required=True, help="social media records (JSONL)")
    p.add_argument("--survey", required=True, help="survey respondent records (JSONL)")
    p.add_argument("--out", required=True, help="output profile JSON file")
    p.add_argument("--report", help="matching report JSON file (default: <out>.report.json)")
    p.add_argument("--taxonomy", help="taxonomy JSON (default: packaged)")
    p.add_argument("--config", help="run config JSON supplying the backend section")
    p.add_argument("--backend", choices=MODES, help="override backend mode")

    p = sub.add_parser("ingest-corpus", help="validate a corpus and print statistics")
    p.add_argument("--corpus", required=True, help="corpus JSONL file")
    p.add_argument("--out", help="write the report JSON here as well")

    p = sub.add_parser("run", help="run a simulation")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--backend", choices=MODES)
    p.add_argument("--intervention", choices=INTERVENTION_FLAGS)
    p.add_argument("--ablation", choices=ABLATION_FLAGS)
    p.add_argument("--out", help="output directory override")

    p = sub.add_parser("resume", help="continue a checkpointed run")
    p.add_argument("--out", required=True, help="output directory of the interrupted run")
    p.add_argument("--config", help="config JSON to cross-check against the checkpoint")

    p = sub.add_parser("report", help="summarize a finished run")
    p.add_argument("--out", required=True, help="output directory of the run")
    p.add_argument("--ground-truth", help="ground truth CSV for error recomputation")

    p = sub.add_parser("charts", help="regenerate SVG charts for a finished run")
    p.add_argument("--out", required=True, help="output directory of the run")
    p.add_argument("--ground-truth", help="ground truth CSV to overlay")
    return parser


def _backend_from_args(args) -> BackendConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.with_overrides(backend_mode=args.backend).backend


def _cmd_build_profiles(args) -> int:
    taxonomy = load_taxonomy(args.taxonomy)
    out = Path(args.out)
    report_path = Path(args.report or out.with_suffix(".report.json"))
    log_path = out.with_suffix(".replay.jsonl")
    for path in (out, report_path):  # a folder that cannot be made stops the build untouched
        outputs.make_dir(path.parent, path)
    gateway = Gateway(_backend_from_args(args), log_path=log_path)
    try:
        profiles, report = build_profiles(
            args.social, args.survey, taxonomy, gateway, args.out, report_path
        )
    finally:
        gateway.close()
    log.info("wrote %d profiles to %s", len(profiles), args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_ingest_corpus(args) -> int:
    index, report = ingest(args.corpus)
    doc = {
        "accepted": report.accepted,
        "rejected": report.rejected,
        "stats": corpus_stats(index) if len(index) else None,
    }
    blob = json.dumps(doc, indent=2, sort_keys=True)
    print(blob)
    if args.out:
        outputs.write_text(Path(args.out), blob + "\n")
    return 0


def _run_config_from_args(args) -> RunConfig:
    config = RunConfig.from_file(args.config)
    return config.with_overrides(
        seed=args.seed,
        backend_mode=args.backend,
        intervention=args.intervention,
        ablation=args.ablation,
        out_dir=args.out,
    )


def _cmd_run(args) -> int:
    config = _run_config_from_args(args)
    bundle = run(config)
    final = bundle["years"][-1] if bundle["years"] else None
    log.info(
        "run complete: %d years, final favorable %.2f%%",
        len(bundle["years"]),
        final["favorable_pct"] if final else float("nan"),
    )
    return 0


def _cmd_resume(args) -> int:
    config = None
    if args.config:
        config = RunConfig.from_file(args.config).with_overrides(out_dir=args.out)
    bundle = resume(args.out, config)
    if "interrupted_after" in bundle:
        log.info("stopped again after year %s", bundle["interrupted_after"])
    else:
        log.info("run complete: %d years", len(bundle["years"]))
    return 0


# what report and charts read of each year in results.json, besides "year"
_YEAR_NUMBERS = ("favorable_pct", "unfavorable_pct", "mean_response")


def _read_results(out_dir: Path) -> dict:
    path = out_dir / "results.json"
    results = inputs.read_json(path, "results", ConfigError)
    if not isinstance(results, dict) or not isinstance(results.get("years"), list):
        raise ConfigError(f"results {path} holds no list of years")
    for entry in results["years"]:
        # JSON gives exact types, so these refuse true and false
        if not (isinstance(entry, dict) and type(entry.get("year")) is int
                and all(type(entry.get(key)) in (int, float) for key in _YEAR_NUMBERS)):
            raise ConfigError(f"results {path} holds a year that is not an object with an "
                              f"integer year and numbers {', '.join(_YEAR_NUMBERS)}: {entry!r}")
    return results


def _exchanges(log_path: Path) -> dict:
    """Per schema: ok and failed records of the replay log, and the median and
    maximum of their t_end - t_start in seconds."""
    tally: dict[str, dict] = {}
    for number, record in enumerate(read_records(log_path, ConfigError), 1):
        times = record.get("t_start"), record.get("t_end")
        if not all(is_number(t) for t in times):
            raise ConfigError(f"{log_path} record {number} has no numbers t_start and t_end")
        entry = tally.setdefault(record["schema"], {"ok": 0, "failed": 0, "seconds": []})
        entry["ok" if record["ok"] else "failed"] += 1
        entry["seconds"].append(times[1] - times[0])
    return {schema: {"ok": entry["ok"], "failed": entry["failed"],
                     "median_s": statistics.median(entry["seconds"]),
                     "max_s": max(entry["seconds"])} for schema, entry in sorted(tally.items())}


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    results = _read_results(out_dir)
    doc = {
        "years": len(results["years"]),
        "final": results["years"][-1]["favorable_pct"] if results["years"] else None,
        "mae": results.get("mae"),
        "domain_influence": domain_influence(read_update_logs(out_dir)),
        "exchanges": _exchanges(out_dir / "replay.jsonl"),
    }
    if args.ground_truth:
        truth = GroundTruthSeries.from_csv(args.ground_truth)
        doc["mae"] = mae(results["years"], truth)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_charts(args) -> int:
    out_dir = Path(args.out)
    results = _read_results(out_dir)
    truth = GroundTruthSeries.from_csv(args.ground_truth) if args.ground_truth else None
    influence = domain_influence(read_update_logs(out_dir))
    written = charts_mod.write_charts(out_dir, results["years"], truth, influence)
    for path in written:
        log.info("wrote %s", path)
    return 0


_HANDLERS = {
    "build-profiles": _cmd_build_profiles,
    "ingest-corpus": _cmd_ingest_corpus,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "report": _cmd_report,
    "charts": _cmd_charts,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _HANDLERS[args.command](args)
    except NewsdriftError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
