"""One phase of a benchmark round, run in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job (written by run.py) names the phase, the generated inputs, the run
configuration and where to put the result. Phases:

- ``run``: set up (build profiles, ingest the corpus) ``setup_reps`` times,
  then time one ``orchestrator.run`` call, optionally stopped after a year;
- ``resume``: time one ``orchestrator.resume`` call;
- ``stale``: start a small run with another seed in a directory that holds a
  completed run, stop it inside its first year by raising from a wrapped
  public function, then ``resume`` and report the seed the bundle carries.

The result JSON holds wall times, the process's peak resident memory and,
when the job asks for tracing, the per-layer summary of its spans.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


class StopInsideYear(Exception):
    """Raised from a wrapped function to cut a run short inside a year."""


def _config(spec: dict):
    from newsdrift.gateway import BackendConfig
    from newsdrift.orchestrator import RunConfig
    return RunConfig(
        seed=spec["seed"],
        years=tuple(spec["years"]),
        n_agents=spec["n_agents"],
        headlines_per_agent=spec["headlines_per_agent"],
        reads_per_year=spec["reads_per_year"],
        intervention=spec["intervention"],
        backend=BackendConfig(**spec["backend"]),
        corpus_path=spec["corpus"],
        profiles_path=spec["profiles"],
        ground_truth_path=spec["ground_truth"],
        out_dir=spec["out_dir"],
    )


def _setup(inputs: dict, reps: int, tracer) -> list[float]:
    """The build-profiles and ingest-corpus steps, timed once per repetition.

    Only the last repetition is traced, so the per-layer numbers count one
    set-up like the run they precede.
    """
    from newsdrift import corpus, profiles
    from newsdrift.gateway import BackendConfig, Gateway
    from newsdrift.taxonomy import load_taxonomy

    log_path = Path(inputs["setup_log"])
    times = []
    for rep in range(reps):
        log_path.unlink(missing_ok=True)
        traced = tracer is not None and rep == reps - 1
        if traced:
            tracer.install()
        span = tracer.span if traced else (lambda name: nullcontext())
        t0 = perf_counter()
        with span("profiles.build"):
            taxonomy = load_taxonomy()
            gateway = Gateway(BackendConfig(mode="mock"), log_path=log_path)
            profiles.build_profiles(inputs["social"], inputs["survey"], taxonomy, gateway,
                                    inputs["profiles"], inputs["profiles_report"])
        with span("corpus.ingest"):
            corpus.ingest(inputs["corpus"])
        times.append(perf_counter() - t0)
    return times


def _stale(job: dict) -> dict:
    from newsdrift import orchestrator

    calls = {"n": 0}
    reflect = orchestrator.reflect_batch

    def reflect_then_stop(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise StopInsideYear()
        return reflect(*args, **kwargs)

    orchestrator.reflect_batch = reflect_then_stop
    try:
        orchestrator.run(_config(job["config"]))
        stopped = False
    except StopInsideYear:
        stopped = True
    finally:
        orchestrator.reflect_batch = reflect
    bundle = orchestrator.resume(job["config"]["out_dir"])
    return {"stopped_inside_year": stopped, "bundle_seed": bundle.get("seed")}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text("utf-8"))
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    from newsdrift import orchestrator

    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()

    result: dict = {"times": {}}
    phase = job["phase"]
    try:
        if phase == "stale":
            result.update(_stale(job))
        else:
            if phase == "run":
                result["times"]["setup"] = _setup(job["inputs"], job["setup_reps"], tracer)
                name, call = "orchestrator.run", lambda: orchestrator.run(
                    _config(job["config"]), stop_after_year=job.get("stop_after_year"))
            elif phase == "resume":
                name, call = "orchestrator.resume", lambda: orchestrator.resume(
                    job["config"]["out_dir"])
            else:
                raise ValueError(f"unknown phase {phase!r}")
            if tracer is not None:
                if not tracer.installed:
                    tracer.install()
                root = len(tracer.start)
            t0 = perf_counter()
            with tracer.span(name) if tracer is not None else nullcontext():
                call()
            result["times"][phase] = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
                result["layers"] = tracer.summary(root)
                tracer.write(Path(job["spans_out"]))
    except Exception:
        result["error"] = traceback.format_exc()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(job["result_out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
