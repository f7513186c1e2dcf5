"""newsdrift benchmark: three workloads driven from outside the program.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It generates each workload's inputs
from tests/synthgen.py into .bench_work/, then repeats whole rounds of the
workload while the next round is expected to end within --seconds. Every simulation step runs in a fresh
interpreter (perfbench/worker.py) and touches the program only through
profiles.build_profiles, corpus.ingest, orchestrator.run and
orchestrator.resume. After every round the outputs are checked against
computations made here (perfbench/checks.py).

With --trace 0 it reports the end-to-end metrics, each the median over the
run's rounds. With --trace 1 rounds alternate between traced and untraced
workers; the traced ones give the per-layer metrics (perfbench/tracer.py)
and the pair gives the tracing overhead. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from tracer import ORCHESTRATOR_SPANS

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench_work"
WORKER_TIMEOUT_S = 100

SETUP_REPS = 2
HEADLINES, READS = 50, 10
DEFAULT_SHAPE = {"years": (2005, 2024), "n_agents": 100}
REMOTE_SHAPE = {"years": (2005, 2014), "n_agents": 20}
STOP_AFTER_YEAR = 2014
STALE_SHAPE = {"years": (2005, 2006), "n_agents": 5}
STALE_SEED_OFFSET = 1000
LATENCY_S = 0.02
SCHEMAS = ("selection_list", "reflection_update", "survey_answer", "debiased_text",
           "interest_list")

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("reads_per_s", "reads/s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
)

PER_LAYER = (
    ("corpus.ingest_s", "s"),
    ("profiles.build_s", "s"),
    ("profiles.load_s", "s"),
    ("taxonomy.best_topic_calls", "count"),
    ("taxonomy.best_topic_s", "s"),
    ("taxonomy.best_topic_repeat", "calls/text"),
    ("taxonomy.keywords_present_calls", "count"),
    ("taxonomy.keywords_present_s", "s"),
    ("gateway.mock_sentiment_calls", "count"),
    ("gateway.mock_sentiment_s", "s"),
    ("gateway.mock_sentiment_repeat", "calls/text"),
    ("distribution.sample_headlines_s", "s"),
    ("distribution.mock_ranking_s", "s"),
    ("distribution.select_articles_s", "s"),
    ("interventions.apply_s", "s"),
    ("interventions.debias_exchanges", "count"),
    ("interventions.debias_cache_hit_ratio", "ratio"),
    ("reflection.reflect_batch_s", "s"),
    ("reflection.apply_updates_s", "s"),
    ("reflection.updates", "count"),
    ("surveys.survey_response_s", "s"),
    ("surveys.aggregate_s", "s"),
    ("prompts.render_s", "s"),
    ("prompts.rendered_bytes", "bytes"),
    *((f"gateway.exchanges.{schema}", "count") for schema in SCHEMAS),
    ("gateway.generate_s", "s"),
    ("gateway.log_bytes", "bytes"),
    ("gateway.posts", "count"),
    ("gateway.connections", "count"),
    ("gateway.posts_per_exchange", "posts/exchange"),
    ("gateway.server_wait_s", "s"),
    ("gateway.client_overhead_s", "s"),
    ("gateway.max_in_flight", "count"),
    ("orchestrator.self_s", "s"),
    ("orchestrator.checkpoint_bytes", "bytes"),
    ("orchestrator.restore_s", "s"),
    ("orchestrator.year_growth", "ratio"),
    ("charts.write_s", "s"),
    ("run_s", "s"),
    ("resume_s", "s"),
    ("replay_s", "s"),
    ("trace.run_overhead_s", "s"),
)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def make_inputs(root: Path, work: Path) -> dict:
    """Write the workload inputs from tests/synthgen.py; the program gets only these files."""
    for path in (str(root / "tests"), str(root / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import synthgen

    inputs = {name: str(work / "inputs" / file) for name, file in (
        ("social", "social.jsonl"), ("survey", "survey.jsonl"), ("corpus", "corpus.jsonl"),
        ("ground_truth", "ground_truth.csv"), ("profiles", "profiles.json"),
        ("profiles_report", "profiles.report.json"), ("setup_log", "setup_replay.jsonl"))}
    social, survey = synthgen.population(n_exact=120)
    synthgen.write_jsonl(Path(inputs["social"]), social)
    synthgen.write_jsonl(Path(inputs["survey"]), survey)
    synthgen.write_jsonl(Path(inputs["corpus"]), synthgen.mixed_corpus())
    with open(inputs["ground_truth"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "favorable_pct", "unfavorable_pct"])
        for year, fav, unfav in synthgen.ground_truth_rows():
            writer.writerow([year, f"{fav:.1f}", f"{unfav:.1f}"])
    return inputs


class Bench:
    """State of one workload invocation: inputs, operation counters and problems."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = make_inputs(root, self.work)
        self.spec_base = {"truth": checks.read_truth(Path(self.inputs["ground_truth"])),
                          "lexicon_words": checks.read_lexicon_words(root), "reads": READS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._jobs = 0

    # -- helpers -------------------------------------------------------------

    def config(self, out_dir: Path, shape: dict, intervention: str = "baseline",
               backend: dict | None = None, seed: int | None = None) -> dict:
        return {"seed": self.seed if seed is None else seed, "years": shape["years"],
                "n_agents": shape["n_agents"], "headlines_per_agent": HEADLINES,
                "reads_per_year": READS, "intervention": intervention,
                "backend": backend or {"mode": "mock"}, "corpus": self.inputs["corpus"],
                "profiles": self.inputs["profiles"],
                "ground_truth": self.inputs["ground_truth"], "out_dir": str(out_dir)}

    def spec(self, config: dict, remote: bool = False) -> dict:
        return {**self.spec_base, "years": tuple(config["years"]),
                "n_agents": config["n_agents"], "intervention": config["intervention"],
                "remote": remote}

    def worker(self, phase: str, config: dict, *, traced: bool = False,
               setup_reps: int = 0, env: dict | None = None, **extra) -> dict:
        """Run one phase in a fresh interpreter and return its result."""
        self._jobs += 1
        jobs = self.work / "jobs"
        jobs.mkdir(exist_ok=True)
        job_path = jobs / f"{self._jobs:03d}-{phase}.json"
        result_path = job_path.with_suffix(".result.json")
        job = {"root": str(self.root), "phase": phase, "trace": traced, "config": config,
               "inputs": self.inputs, "setup_reps": setup_reps,
               "result_out": str(result_path),
               "spans_out": str(self.work / f"spans-{phase}.bin"), **extra}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        try:
            subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                           stdout=sys.stderr, env=env, timeout=WORKER_TIMEOUT_S, check=False)
            result = json.loads(result_path.read_text("utf-8"))
        except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
            result = {"error": f"{type(exc).__name__}: {exc}", "times": {}, "maxrss_kb": 0}
        if "error" in result:
            print(result["error"], file=sys.stderr)
            self.problems.append(f"{phase} worker failed: {result['error'].strip().splitlines()[-1]}")
        return result

    def operation(self, result: dict) -> bool:
        """Count one public operation; False when it raised."""
        self.attempted += 1
        if "error" in result:
            self.failed += 1
            return False
        return True

    def check(self, out_dir: Path, config: dict, remote: bool = False) -> dict | None:
        try:
            art = checks.load(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"{out_dir.name}: artifacts unreadable ({exc})")
            return None
        self.problems.extend(f"{out_dir.name}: {p}"
                             for p in checks.check_run(art, self.spec(config, remote)))
        return art

    def self_test(self, out_dir: Path, art: dict | None, config: dict, remote: bool = False):
        if art is not None:
            self.problems.extend(checks.self_test(art, self.spec(config, remote)))
            self.problems.extend(checks.self_test_equality(out_dir, self.work / "selftest",
                                                           art["results"]))


# ---------------------------------------------------------------------------
# Workloads: prepare() runs once, outside every timed region; round() is the
# repeated unit and returns its samples
# ---------------------------------------------------------------------------

def _sample(results: list[dict], out_dir: Path, run_s: float,
            total_s: float, sim_s: float) -> dict:
    report = json.loads((out_dir / "run_report.json").read_text("utf-8"))
    setup = [t for r in results for t in r["times"].get("setup", [])]
    return {"setup_s": setup, "run_s": run_s, "total_s": total_s,
            "reads_per_s": report["payload_count"] / sim_s,
            "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
            "output_bytes": dir_bytes(out_dir)}


class MockDefault:
    """Criterion-7 shape, baseline intervention, one uninterrupted run."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.config = bench.config(bench.work / "run", DEFAULT_SHAPE)
        self.art = None

    def prepare(self):
        pass

    def round(self, traced: bool) -> dict:
        b, out = self.bench, self.bench.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        r = b.worker("run", self.config, traced=traced, setup_reps=SETUP_REPS)
        if not b.operation(r):
            return {}
        self.art = b.check(out, self.config)
        run_s = r["times"]["run"]
        sample = _sample([r], out, run_s, run_s, run_s)
        if traced:
            sample["layers"] = layer_metrics([r["layers"]], out)
        return sample

    def finish(self):
        self.bench.self_test(self.bench.work / "run", self.art, self.config)


class MockDebiasResume:
    """Debias run stopped after 2014, resumed in a fresh process, then the stale-directory case."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.config = bench.config(bench.work / "run", DEFAULT_SHAPE, "debias")
        self.reference = bench.work / "reference"
        self.art = None

    def prepare(self):
        b = self.bench
        config = b.config(self.reference, DEFAULT_SHAPE, "debias")
        if "error" not in b.worker("run", config, setup_reps=1):
            b.check(self.reference, config)

    def round(self, traced: bool) -> dict:
        b, out = self.bench, self.bench.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        first = b.worker("run", self.config, traced=traced, setup_reps=SETUP_REPS,
                         stop_after_year=STOP_AFTER_YEAR)
        if not b.operation(first):
            return {}
        second = b.worker("resume", self.config, traced=traced)
        if not b.operation(second):
            return {}
        self.art = b.check(out, self.config)
        b.problems.extend(f"resume vs uninterrupted: {p}" for p in checks.same_bytes(
            self.reference, out, ("results.json", "updates_*.jsonl")))
        run_s, resume_s = first["times"]["run"], second["times"]["resume"]
        sample = _sample([first, second], out, run_s, run_s + resume_s, run_s + resume_s)
        sample["resume_s"] = resume_s
        if traced:
            sample["layers"] = layer_metrics([first["layers"], second["layers"]], out)
        self.stale_directory(out)
        return sample

    def stale_directory(self, out: Path):
        """A new run killed in a directory holding a completed run, then resumed.

        resume() must return the new run's results, not the completed run's.
        """
        b = self.bench
        seed = b.seed + STALE_SEED_OFFSET
        stale = b.worker("stale", b.config(out, STALE_SHAPE, "debias", seed=seed))
        if not b.operation(stale):
            return
        if not stale["stopped_inside_year"]:
            b.problems.append("stale-directory run was not stopped inside its first year")
        if stale["bundle_seed"] != seed:
            b.failed += 1
            print(f"stale-directory resume returned seed {stale['bundle_seed']}, "
                  f"expected {seed}", file=sys.stderr)

    def finish(self):
        self.bench.self_test(self.bench.work / "reference", self.art, self.config)


class RemoteLoopback:
    """20 agents x 10 years against a loopback server, then replayed from its log."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.mock_dir = bench.work / "mock"
        self.mock_results = None
        self.art = None

    def prepare(self):
        b = self.bench
        config = b.config(self.mock_dir, REMOTE_SHAPE)
        if "error" not in b.worker("run", config, setup_reps=1):
            if b.check(self.mock_dir, config) is not None:
                self.mock_results = json.loads((self.mock_dir / "results.json").read_text())

    def round(self, traced: bool) -> dict:
        b = self.bench
        out, replay_out = b.work / "remote", b.work / "replay"
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(replay_out, ignore_errors=True)
        server = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "loopback.py"),
             str(self.mock_dir / "replay.jsonl"), str(LATENCY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = int(server.stdout.readline())
            backend = {"mode": "remote", "model_name": "loopback",
                       "base_url": f"http://127.0.0.1:{port}/v1/chat/completions"}
            config = b.config(out, REMOTE_SHAPE, backend=backend)
            env = {**os.environ, "NEWSDRIFT_API_KEY": "perfbench-dummy-key"}
            remote = b.worker("run", config, traced=traced, setup_reps=SETUP_REPS, env=env)
            server.stdin.close()
            stats = json.loads(server.stdout.readline())
            server.wait(timeout=30)
        except (ValueError, subprocess.TimeoutExpired) as exc:
            b.problems.append(f"loopback server failed: {exc}")
            return {}
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        if not b.operation(remote):
            return {}
        self.art = b.check(out, config, remote=True)
        if self.art is not None:
            failed_records = sum(1 for _, _, ok in self.art["replay"] if not ok)
            if stats["posts"] != len(self.art["replay"]):
                b.problems.append(f"server saw {stats['posts']} posts, log holds "
                                  f"{len(self.art['replay'])} records")
            if stats["bad_bodies"] != failed_records or not failed_records:
                b.problems.append(f"{stats['bad_bodies']} bad bodies sent, "
                                  f"{failed_records} failed records logged")
            b.problems.extend(checks.same_years(self.mock_results, self.art["results"]))
        if stats["unknown"]:
            b.problems.append(f"server had no answer for {stats['unknown']} prompts")

        replay_config = b.config(replay_out, REMOTE_SHAPE, backend={
            "mode": "replay", "replay_log": str(out / "replay.jsonl")})
        replay = b.worker("run", replay_config)
        if not b.operation(replay):
            return {}
        replay_art = b.check(replay_out, replay_config)
        if replay_art is not None:
            b.problems.extend(f"replay: {p}" for p in
                              checks.same_years(self.mock_results, replay_art["results"]))
        run_s, replay_s = remote["times"]["run"], replay["times"]["run"]
        sample = _sample([remote, replay], out, run_s, run_s + replay_s, run_s)
        sample["replay_s"] = replay_s
        if traced:
            sample["layers"] = layer_metrics([remote["layers"]], out, stats)
        return sample

    def finish(self):
        self.bench.self_test(self.bench.work / "remote", self.art,
                             self.bench.config(self.bench.work / "remote", REMOTE_SHAPE),
                             remote=True)


WORKLOADS = {
    "mock-default": MockDefault,
    "mock-debias-resume": MockDebiasResume,
    "remote-loopback": RemoteLoopback,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced workers of one round
# ---------------------------------------------------------------------------

def layer_metrics(phases: list[dict], out_dir: Path, server: dict | None = None) -> dict:
    self_s: dict[str, float] = {}
    call_self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    distinct: dict[str, int] = {}
    years: list[float] = []
    restore = 0.0
    for phase in phases:
        for total, part in ((self_s, phase["self_s"]), (call_self_s, phase["call_self_s"]),
                            (counts, phase["counts"]), (distinct, phase["distinct"])):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
        years.extend(phase["years"])
        restore += phase["restore_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    report = json.loads((out_dir / "run_report.json").read_text("utf-8"))
    server = server or {}
    debias_payloads = counts.get("interventions.debias_payloads", 0)
    debias_exchanges = counts.get("gateway.exchanges.debiased_text", 0)
    return {
        "corpus.ingest_s": self_s.get("corpus.ingest", 0.0),
        "profiles.build_s": self_s.get("profiles.build", 0.0),
        "profiles.load_s": self_s.get("profiles.load", 0.0),
        "taxonomy.best_topic_calls": counts.get("taxonomy.best_topic", 0),
        "taxonomy.best_topic_s": self_s.get("taxonomy.best_topic", 0.0),
        "taxonomy.best_topic_repeat": ratio(counts.get("taxonomy.best_topic", 0),
                                            distinct.get("taxonomy.best_topic", 0)),
        "taxonomy.keywords_present_calls": counts.get("taxonomy.keywords_present", 0),
        "taxonomy.keywords_present_s": self_s.get("taxonomy.keywords_present", 0.0),
        "gateway.mock_sentiment_calls": counts.get("gateway.mock_sentiment", 0),
        "gateway.mock_sentiment_s": self_s.get("gateway.mock_sentiment", 0.0),
        "gateway.mock_sentiment_repeat": ratio(counts.get("gateway.mock_sentiment", 0),
                                               distinct.get("gateway.mock_sentiment", 0)),
        "distribution.sample_headlines_s": self_s.get("distribution.sample_headlines", 0.0),
        "distribution.mock_ranking_s": self_s.get("distribution.mock_ranking", 0.0),
        "distribution.select_articles_s": self_s.get("distribution.select_articles", 0.0),
        "interventions.apply_s": self_s.get("interventions.apply", 0.0),
        "interventions.debias_exchanges": debias_exchanges,
        "interventions.debias_cache_hit_ratio": ratio(debias_payloads - debias_exchanges,
                                                      debias_payloads),
        "reflection.reflect_batch_s": self_s.get("reflection.reflect_batch", 0.0),
        "reflection.apply_updates_s": self_s.get("reflection.apply_updates", 0.0),
        "reflection.updates": counts.get("reflection.updates", 0),
        "surveys.survey_response_s": self_s.get("surveys.survey_response", 0.0),
        "surveys.aggregate_s": self_s.get("surveys.aggregate", 0.0),
        "prompts.render_s": self_s.get("prompts.render", 0.0),
        "prompts.rendered_bytes": counts.get("prompts.rendered_bytes", 0),
        **{f"gateway.exchanges.{s}": counts.get(f"gateway.exchanges.{s}", 0) for s in SCHEMAS},
        "gateway.generate_s": self_s.get("gateway.generate", 0.0),
        "gateway.log_bytes": (out_dir / "replay.jsonl").stat().st_size,
        "gateway.posts": server.get("posts", 0),
        "gateway.connections": server.get("connections", 0),
        "gateway.posts_per_exchange": ratio(server.get("posts", 0),
                                            sum(report["request_counts"].values())),
        "gateway.server_wait_s": server.get("held_s", 0.0),
        "gateway.client_overhead_s": (call_self_s.get("gateway.generate", 0.0)
                                      - server["held_s"]) if server else 0.0,
        "gateway.max_in_flight": server.get("max_in_flight", 0),
        "orchestrator.self_s": sum(self_s.get(name, 0.0) for name in ORCHESTRATOR_SPANS),
        "orchestrator.checkpoint_bytes": (out_dir / "checkpoint.json").stat().st_size,
        "orchestrator.restore_s": restore,
        "orchestrator.year_growth": ratio(years[-1], years[0]) if years else 0.0,
        "charts.write_s": self_s.get("charts.write", 0.0),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, name, seed)
    workload = WORKLOADS[name](bench)
    workload.prepare()
    samples: list[dict] = []
    traced_flags: list[bool] = []
    durations: list[float] = []
    t0 = perf_counter()
    # whole rounds only: start one when it is expected to end within the
    # measuring time, judged by the mean round so far
    while not bench.problems and (len(samples) < (2 if trace else 1) or perf_counter() - t0
                                  + statistics.mean(durations) <= seconds):
        traced = trace and len(samples) % 2 == 0
        started = perf_counter()
        samples.append(workload.round(traced))
        traced_flags.append(traced)
        durations.append(perf_counter() - started)
    workload.finish()

    plain = [s for s, t in zip(samples, traced_flags) if not t and s]
    traced_samples = [s for s, t in zip(samples, traced_flags) if t and s]
    if trace:
        metrics = {key: _median([s["layers"][key] for s in traced_samples])
                   for key, _ in PER_LAYER if traced_samples and key in traced_samples[0]["layers"]}
        metrics["run_s"] = _median([s["run_s"] for s in plain])
        metrics["resume_s"] = _median([s["resume_s"] for s in plain if "resume_s" in s])
        metrics["replay_s"] = _median([s["replay_s"] for s in plain if "replay_s" in s])
        metrics["trace.run_overhead_s"] = (_median([s["run_s"] for s in traced_samples])
                                           - _median([s["run_s"] for s in plain]))
        units = dict(PER_LAYER)
    else:
        metrics = {"setup_s": _median([t for s in plain for t in s["setup_s"]])}
        metrics.update({key: _median([s[key] for s in plain]) for key, _ in END_TO_END[1:]})
        units = dict(END_TO_END)
    missing = [key for key in units if key not in metrics]
    if missing:
        bench.problems.append(f"no value for {missing}")
    for problem in bench.problems:
        print(f"PROBLEM [{name}] {problem}", file=sys.stderr)
    print(f"== {name}: seed {seed}, {len(samples)} rounds "
          f"({sum(traced_flags)} traced), {bench.attempted} operations attempted, "
          f"{bench.failed} failed, outputs {'correct' if not bench.problems else 'WRONG'}")
    width = max(len(key) for key in units)
    for key, unit in units.items():
        if key in metrics:
            print(f"   {key:<{width}}  {metrics[key]:>16.6f}  {unit}")
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items() if key in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "newsdrift" / "orchestrator.py").is_file() \
            or not (root / "tests" / "synthgen.py").is_file():
        print(f"{root} is not a newsdrift checkout: src/newsdrift and tests/synthgen.py "
              "are required", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
