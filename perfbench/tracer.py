"""Outside-in span tracer for the benchmark's traced runs.

The tracer replaces names that the program's modules import from one
another (for example ``newsdrift.orchestrator.reflect_batch``) with wrappers
that record one span per call: name, start, end and the index of the
enclosing span. Nothing under ``src/`` is modified; the patches live only in
the worker process that installs them. Spans are kept in flat arrays in
memory and written out once, when the worker ends.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# span names whose self time is orchestrator work (checkpoint, update and
# trace writes, replay-log truncation, finalize bookkeeping)
ORCHESTRATOR_SPANS = ("orchestrator.run", "orchestrator.resume",
                      "orchestrator.read_update_logs")

RENDERERS = ("render_reflection", "render_selection", "render_survey",
             "render_debias", "render_critique", "render_interests")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, owner, attr: str, name: str, on_call=None, span: bool = True):
        """Replace owner.attr by a recording wrapper.

        on_call(args, result) runs after the span closes, so the counting it
        does is not charged to the layer.
        """
        fn = getattr(owner, attr)
        open_, close = self._open, self._close

        if span:
            def traced(*args, **kwargs):
                i = open_(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                if on_call is not None:
                    on_call(args, result)
                return result
        else:
            def traced(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_call(args, result)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- program boundaries --------------------------------------------------

    def install(self):
        """Patch every layer boundary the per-layer metrics are taken at."""
        from newsdrift import charts, distribution, interventions, orchestrator, prompts, reflection
        from newsdrift.gateway import Gateway
        from newsdrift.taxonomy import Topic, TopicTaxonomy

        counts, distinct = self.counts, self.distinct

        def count(key):
            def on_call(args, result):
                counts[key] += 1
            return on_call

        def count_text(key, pos):
            def on_call(args, result):
                counts[key] += 1
                distinct[key].add(args[pos])
            return on_call

        def count_exchange(args, result):
            counts["gateway.exchanges." + args[1].expected_schema] += 1

        def count_rendered(args, result):
            system, user = result
            counts["prompts.rendered_bytes"] += len(system.encode()) + len(user.encode())

        def count_updates(args, result):
            counts["reflection.updates"] += len(result[1])

        for attr, name in (
            ("ingest", "corpus.ingest"),
            ("articles_for_year", "corpus.articles_for_year"),
            ("load_profiles", "profiles.load"),
            ("sample_headlines", "distribution.sample_headlines"),
            ("select_articles", "distribution.select_articles"),
            ("apply_intervention", "interventions.apply"),
            ("reflect_batch", "reflection.reflect_batch"),
            ("survey_response", "surveys.survey_response"),
            ("aggregate_year", "surveys.aggregate"),
            ("domain_influence", "surveys.aggregate"),
            ("mae", "surveys.aggregate"),
            ("read_update_logs", "orchestrator.read_update_logs"),
        ):
            self.wrap(orchestrator, attr, name)
        self.wrap(orchestrator, "apply_updates", "reflection.apply_updates", count_updates)
        self.wrap(distribution, "mock_ranking", "distribution.mock_ranking")
        for module in (distribution, reflection, interventions):
            self.wrap(module, "mock_sentiment", "gateway.mock_sentiment",
                      count_text("gateway.mock_sentiment", 0))
        self.wrap(interventions, "debias_payload", "", count("interventions.debias_payloads"),
                  span=False)
        for attr in RENDERERS:
            self.wrap(prompts, attr, "prompts.render", count_rendered)
        self.wrap(charts, "write_charts", "charts.write")
        self.wrap(Gateway, "generate", "gateway.generate", count_exchange)
        self.wrap(TopicTaxonomy, "best_topic", "taxonomy.best_topic",
                  count_text("taxonomy.best_topic", 1))
        self.wrap(Topic, "keywords_present", "taxonomy.keywords_present",
                  count("taxonomy.keywords_present"))

    # -- summaries -----------------------------------------------------------

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations.

        Only spans from index first on count; a span's descendants always
        follow it, so first = a root's index covers that root's subtree.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(first, n):
            out[self.names[self.name_ix[i]]] += self.end[i] - self.start[i] - child[i]
        return dict(out)

    def year_durations(self, root: int) -> list[float]:
        """Durations of the years simulated under span root.

        A year runs from its articles_for_year check to the next year's check,
        or to the end of the loop: finalize reading the update logs, or the
        root span's end when the run stops early.
        """
        marks = []
        tail = self.end[root]
        year_id = self._name_ids.get("corpus.articles_for_year")
        logs_id = self._name_ids.get("orchestrator.read_update_logs")
        for i in range(root + 1, len(self.start)):
            if self.parent[i] != root:
                continue
            if self.name_ix[i] == year_id:
                marks.append(self.start[i])
            elif self.name_ix[i] == logs_id:
                tail = self.start[i]
                break
        marks.append(tail)
        return [b - a for a, b in zip(marks, marks[1:])]

    def summary(self, root: int) -> dict:
        """The per-layer numbers of one worker phase whose public call is span root."""
        return {
            "self_s": self.self_times(),
            "call_self_s": self.self_times(root),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "years": self.year_durations(root),
            "restore_s": self._restore(root),
        }

    def _restore(self, root: int) -> float:
        """From a resume call to its first headline offer: checkpoint load and set-up."""
        if self.names[self.name_ix[root]] != "orchestrator.resume":
            return 0.0
        offer_id = self._name_ids.get("distribution.sample_headlines")
        first = next((self.start[i] for i in range(root + 1, len(self.start))
                      if self.name_ix[i] == offer_id), self.end[root])
        return first - self.start[root]

    def write(self, path: Path):
        """Write the spans: a JSON header, then the four arrays in binary."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name_ix:int32", "parent:int32", "start:float64", "end:float64"]}
        with path.open("wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)
