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
import sys
from pathlib import Path

from .corpus import corpus_stats, ingest
from . import inputs, outputs
from .errors import ConfigError, NewsdriftError
from .gateway import BackendConfig, Gateway
from .modes import ABLATIONS, INTERVENTIONS
from .orchestrator import RunConfig, read_update_logs, resume, run
from .profiles import build_profiles
from .surveys import MAE_BASES, GroundTruthSeries, domain_influence, mae
from .taxonomy import load_taxonomy
from . import charts as charts_mod

log = logging.getLogger("newsdrift")

BACKENDS = ("remote", "mock", "replay")
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
    p.add_argument("--backend", choices=BACKENDS, help="override backend mode")

    p = sub.add_parser("ingest-corpus", help="validate a corpus and print statistics")
    p.add_argument("--corpus", required=True, help="corpus JSONL file")
    p.add_argument("--out", help="write the report JSON here as well")

    p = sub.add_parser("run", help="run a simulation")
    p.add_argument("--config", required=True, help="run config JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--intervention", choices=INTERVENTION_FLAGS)
    p.add_argument("--ablation", choices=ABLATION_FLAGS)
    p.add_argument("--out", help="output directory override")

    p = sub.add_parser("resume", help="continue a checkpointed run")
    p.add_argument("--out", required=True, help="output directory of the interrupted run")
    p.add_argument("--config", help="config JSON to cross-check against the checkpoint")

    p = sub.add_parser("report", help="summarize a finished run")
    p.add_argument("--out", required=True, help="output directory of the run")
    p.add_argument("--ground-truth", help="ground truth CSV for error recomputation")
    p.add_argument("--basis", choices=MAE_BASES, default="both_averaged")

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
    report_path = args.report or str(out.with_suffix(".report.json"))
    log_path = out.with_suffix(".replay.jsonl")
    outputs.make_dir(out.parent)  # the gateway appends its log there
    gateway = Gateway(_backend_from_args(args), log_path=log_path)
    # after a replay gateway has read its log, so the log holds this build only
    log_path.unlink(missing_ok=True)
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


def _read_results(out_dir: Path) -> dict:
    path = out_dir / "results.json"
    results = inputs.read_json(path, "results", ConfigError)
    if not isinstance(results, dict) or not isinstance(results.get("years"), list):
        raise ConfigError(f"results {path} holds no list of years")
    return results


def _cmd_report(args) -> int:
    out_dir = Path(args.out)
    results = _read_results(out_dir)
    doc = {
        "years": len(results["years"]),
        "final": results["years"][-1]["favorable_pct"] if results["years"] else None,
        "mae": results.get("mae"),
        "domain_influence": domain_influence(read_update_logs(out_dir)),
    }
    if args.ground_truth:
        truth = GroundTruthSeries.from_csv(args.ground_truth)
        doc["mae"] = {args.basis: mae(results["years"], truth, args.basis)}
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
