"""Spans and counters recorded around calls into cosuggest's modules.

The tracer replaces a function where its calling module looks it up (for
example ``cosuggest.evaluation.build_graph``), so the program's files stay
untouched.  A span records name, parent id, start, end and self time, where
self time is the duration minus the time covered by child spans and hot
calls.  Hot per-item functions (``match_query``, ``suggest``) keep a call
count and busy time instead of one span per call.  Observers read counts
from arguments and results after the clock has stopped; their cost is
charged to no span.  A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.hot: dict[str, list[int]] = {}  # name -> [calls, busy ns]
        self.counters: dict[str, float] = {}
        self.match_queries: set = set()
        self.missing: list[str] = []
        self.observer_errors: list[str] = []
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _observer_failed(self, name: str, exc: Exception) -> None:
        message = f"observer of {name} failed: {exc!r}"
        if message not in self.observer_errors:
            self.observer_errors.append(message)

    def _observe(self, name: str, observe, args, kwargs, result) -> None:
        start = perf_counter_ns()
        try:
            observe(self, args, kwargs, result)
        except Exception as exc:  # an observer must never break the traced job
            self._observer_failed(name, exc)
        if self._stack:
            self._stack[-1][1] += perf_counter_ns() - start

    def _open(self) -> list:
        frame = [len(self.spans), 0, self._stack[-1][0] if self._stack else None]  # id, child ns, parent
        self.spans.append({})
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans[frame[0]] = {
            "id": frame[0],
            "parent": frame[2],
            "name": name,
            "start_ns": start,
            "end_ns": end,
            "self_ns": end - start - frame[1],
        }

    def _span(self, name: str, fn: Callable, observe) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self._open()
            start = perf_counter_ns()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self._close(frame, name, start)
            if observe is not None:
                self._observe(name, observe, args, kwargs, return_value)
            return return_value

        return wrapper

    def _hot(self, name: str, fn: Callable, observe) -> Callable:
        record = self.hot.setdefault(name, [0, 0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            return_value = fn(*args, **kwargs)
            end = perf_counter_ns()
            record[0] += 1
            record[1] += end - start
            try:
                observe(self, args, kwargs, return_value)
            except Exception as exc:  # an observer must never break the traced job
                self._observer_failed(name, exc)
            if stack:  # the call and its observer are both outside the parent's self time
                stack[-1][1] += perf_counter_ns() - start
            return return_value

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, name, start)

    def install(self, targets) -> None:
        """Wrap every (module, attribute path, span name, hot, observer) target."""
        for module_name, attr, name, hot, observe in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._hot if hot else self._span)(name, fn, observe)
            raw = vars(owner)[leaf]
            self._restore.append((owner, leaf, raw))
            setattr(owner, leaf, staticmethod(wrapper) if isinstance(owner, type) else wrapper)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._restore):
            setattr(owner, leaf, raw)
        self._restore.clear()


# Observers: read counts after each call.  (tracer, args, kwargs, result)
def _obs_index(t, a, k, r):
    t.count("matching.index_phrases", len(r.index))


def _obs_match(t, a, k, r):
    t.count("matching.match_hits", 1 if r else 0)
    t.match_queries.add(a[1] if len(a) > 1 else k.get("query_text"))


def _obs_parse(t, a, k, r):
    t.count("log_pipeline.rows_skipped", r.skipped)
    t.count("log_pipeline.records", len(r.records))


def _obs_split(t, a, k, r):
    t.count("log_pipeline.sessions", len(r))


def _obs_reduce(t, a, k, r):
    t.count("log_pipeline.sessions_in", len(a[0]))
    t.count("log_pipeline.sessions_kept", len(r.sessions))


def _obs_write_reduced(t, a, k, r):
    t.count("log_pipeline.reduced_bytes", os.path.getsize(a[1]))


def _obs_build(t, a, k, r):
    t.count("cooccurrence.edges_built", len(r.edges))


def _obs_prune(t, a, k, r):
    t.count("cooccurrence.prune_edges_in", len(a[0].edges))
    t.count("cooccurrence.prune_edges_kept", len(r.edges))


def _obs_copra(t, a, k, r):
    t.count("copra.iterations", r.iterations)
    t.count("copra.converged", 1 if r.converged else 0)
    t.count("copra.clusters", len(r.clusters))


def _obs_suggest(t, a, k, r):
    t.count("suggestion.nonempty", 1 if r.suggested else 0)


# (module, attribute, span name, hot, observer): each function where the
# module that calls it on the benchmark's paths looks it up.
TARGETS = [
    ("cosuggest.cli", "main", "cli.main", False, None),
    ("cosuggest.cli", "reduce_from_config", "evaluation.reduce_from_config", False, None),
    ("cosuggest.cli", "run_experiment_on_dataset", "evaluation.run_experiment_on_dataset", False, None),
    ("cosuggest.cli", "read_reduced_ndjson", "log_pipeline.read_reduced_ndjson", False, None),
    ("cosuggest.cli", "write_reduced_ndjson", "log_pipeline.write_reduced_ndjson", False, _obs_write_reduced),
    ("cosuggest.evaluation", "build_matcher", "evaluation.build_matcher", False, None),
    ("cosuggest.evaluation", "load_ontology", "ontology.load_ontology", False, None),
    ("cosuggest.evaluation", "subset_by_facet", "ontology.subset_by_facet", False, None),
    ("cosuggest.evaluation", "load_lexicon", "matching.load_lexicon", False, None),
    ("cosuggest.evaluation", "parse_log", "log_pipeline.parse_log", False, _obs_parse),
    ("cosuggest.evaluation", "split_sessions", "log_pipeline.split_sessions", False, _obs_split),
    ("cosuggest.evaluation", "reduce_dataset", "log_pipeline.reduce_dataset", False, _obs_reduce),
    ("cosuggest.evaluation", "make_folds", "evaluation.make_folds", False, None),
    ("cosuggest.evaluation", "_run_fold", "evaluation.run_fold", False, None),
    ("cosuggest.evaluation", "build_graph", "cooccurrence.build_graph", False, _obs_build),
    ("cosuggest.evaluation", "prune", "cooccurrence.prune", False, _obs_prune),
    ("cosuggest.evaluation", "copra_cluster", "copra.copra_cluster", False, _obs_copra),
    ("cosuggest.evaluation", "session_length_stats", "log_pipeline.session_length_stats", False, None),
    ("cosuggest.evaluation", "suggest", "suggestion.suggest", True, _obs_suggest),
    ("cosuggest.log_pipeline", "match_query", "matching.match_query", True, _obs_match),
    ("cosuggest.matching", "ConceptMatcher.from_ontology", "matching.from_ontology", False, _obs_index),
    # The online workload calls the exported API through the package.
    ("cosuggest", "load_ontology", "ontology.load_ontology", False, None),
    ("cosuggest", "subset_by_facet", "ontology.subset_by_facet", False, None),
    ("cosuggest", "load_lexicon", "matching.load_lexicon", False, None),
    ("cosuggest", "read_clusters_json", "copra.read_clusters_json", False, None),
    ("cosuggest", "match_query", "matching.match_query", True, _obs_match),
    ("cosuggest", "suggest", "suggestion.suggest", True, _obs_suggest),
]


UNITS = {
    "ontology.load_s": "s",
    "ontology.subset_s": "s",
    "matching.index_build_s": "s",
    "matching.index_phrases": "count",
    "matching.match_calls": "count",
    "matching.match_s": "s",
    "matching.match_us_per_call": "us",
    "matching.hit_share": "share",
    "matching.distinct_query_share": "share",
    "log_pipeline.parse_s": "s",
    "log_pipeline.rows_read": "count",
    "log_pipeline.rows_skipped": "count",
    "log_pipeline.records": "count",
    "log_pipeline.split_s": "s",
    "log_pipeline.sessions": "count",
    "log_pipeline.reduce_self_s": "s",
    "log_pipeline.sessions_kept_share": "share",
    "log_pipeline.write_reduced_s": "s",
    "log_pipeline.reduced_bytes": "B",
    "log_pipeline.read_reduced_s": "s",
    "cooccurrence.build_calls": "count",
    "cooccurrence.build_s": "s",
    "cooccurrence.edges_built": "count",
    "cooccurrence.prune_s": "s",
    "cooccurrence.edges_kept_share": "share",
    "copra.calls": "count",
    "copra.cluster_s": "s",
    "copra.iterations": "count",
    "copra.converged_share": "share",
    "copra.clusters": "count",
    "copra.read_clusters_s": "s",
    "evaluation.make_folds_s": "s",
    "evaluation.fold_s_max": "s",
    "evaluation.self_s": "s",
    "suggestion.calls": "count",
    "suggestion.suggest_s": "s",
    "suggestion.us_per_call": "us",
    "suggestion.nonempty_share": "share",
    "cli.self_s": "s",
    "trace.overhead_share": "share",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced job; layers that did not run read 0."""
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    longest: dict[str, float] = {}
    for span in tracer.spans:
        name, seconds = span["name"], (span["end_ns"] - span["start_ns"]) / 1e9
        dur[name] = dur.get(name, 0.0) + seconds
        self_s[name] = self_s.get(name, 0.0) + span["self_ns"] / 1e9
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), seconds)
    c = tracer.counters.get
    match_calls, match_ns = tracer.hot.get("matching.match_query", [0, 0])
    suggest_calls, suggest_ns = tracer.hot.get("suggestion.suggest", [0, 0])
    copra_calls = calls.get("copra.copra_cluster", 0)
    return {
        "ontology.load_s": dur.get("ontology.load_ontology", 0.0),
        "ontology.subset_s": dur.get("ontology.subset_by_facet", 0.0),
        "matching.index_build_s": dur.get("matching.from_ontology", 0.0),
        "matching.index_phrases": c("matching.index_phrases", 0),
        "matching.match_calls": match_calls,
        "matching.match_s": match_ns / 1e9,
        "matching.match_us_per_call": _share(match_ns / 1e3, match_calls),
        "matching.hit_share": _share(c("matching.match_hits", 0), match_calls),
        "matching.distinct_query_share": _share(len(tracer.match_queries), match_calls),
        "log_pipeline.parse_s": dur.get("log_pipeline.parse_log", 0.0),
        "log_pipeline.rows_read": 0,  # counted from the log file by the worker
        "log_pipeline.rows_skipped": c("log_pipeline.rows_skipped", 0),
        "log_pipeline.records": c("log_pipeline.records", 0),
        "log_pipeline.split_s": dur.get("log_pipeline.split_sessions", 0.0),
        "log_pipeline.sessions": c("log_pipeline.sessions", 0),
        "log_pipeline.reduce_self_s": self_s.get("log_pipeline.reduce_dataset", 0.0),
        "log_pipeline.sessions_kept_share": _share(c("log_pipeline.sessions_kept", 0), c("log_pipeline.sessions_in", 0)),
        "log_pipeline.write_reduced_s": dur.get("log_pipeline.write_reduced_ndjson", 0.0),
        "log_pipeline.reduced_bytes": c("log_pipeline.reduced_bytes", 0),
        "log_pipeline.read_reduced_s": dur.get("log_pipeline.read_reduced_ndjson", 0.0),
        "cooccurrence.build_calls": calls.get("cooccurrence.build_graph", 0),
        "cooccurrence.build_s": dur.get("cooccurrence.build_graph", 0.0),
        "cooccurrence.edges_built": c("cooccurrence.edges_built", 0),
        "cooccurrence.prune_s": dur.get("cooccurrence.prune", 0.0),
        "cooccurrence.edges_kept_share": _share(c("cooccurrence.prune_edges_kept", 0), c("cooccurrence.prune_edges_in", 0)),
        "copra.calls": copra_calls,
        "copra.cluster_s": dur.get("copra.copra_cluster", 0.0),
        "copra.iterations": _share(c("copra.iterations", 0), copra_calls),
        "copra.converged_share": _share(c("copra.converged", 0), copra_calls),
        "copra.clusters": _share(c("copra.clusters", 0), copra_calls),
        "copra.read_clusters_s": dur.get("copra.read_clusters_json", 0.0),
        "evaluation.make_folds_s": dur.get("evaluation.make_folds", 0.0),
        "evaluation.fold_s_max": longest.get("evaluation.run_fold", 0.0),
        "evaluation.self_s": sum(
            v for k, v in self_s.items() if k.startswith("evaluation.") and k != "evaluation.make_folds"
        ),
        "suggestion.calls": suggest_calls,
        "suggestion.suggest_s": suggest_ns / 1e9,
        "suggestion.us_per_call": _share(suggest_ns / 1e3, suggest_calls),
        "suggestion.nonempty_share": _share(c("suggestion.nonempty", 0), suggest_calls),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
