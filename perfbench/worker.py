"""One repetition of a workload, run single-threaded in a fresh process.

Usage: python3 perfbench/worker.py <spec.json> <result.json>

The spec names the workload, its prepared input directory, whether to
trace, and whether this is a set-up probe (the job stopped where its
set-up ends).  Batch workloads call ``cosuggest.cli.main`` with the
documented argv; the online workload calls the exported library API.  The
worker times the work, reads its own peak RSS with ``getrusage`` right
after the job (before any check runs), checks the outputs against the
prepared expectations, and writes a JSON result.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from contextlib import contextmanager, nullcontext
from math import ceil
from pathlib import Path
from time import perf_counter_ns

import oracle
from gen import EXCLUDED_FACET
from tracing import TARGETS, Tracer, layer_metrics


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def _seconds_since(start_ns: int) -> float:
    return (perf_counter_ns() - start_ns) / 1e9


def _percentile(sorted_values: list[int], q: float) -> int:
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


class SetupDone(Exception):
    """Raised at the set-up mark of a set-up probe, to stop the job there."""


@contextmanager
def setup_mark(module_name: str, attr: str, stop: bool):
    """Record when ``module.attr`` returns: the end of the job's set-up.

    Yields the list of return times, or None when the binding is gone.  With
    ``stop`` the first return raises SetupDone, so a probe times the
    program's own set-up path in a fresh process and nothing after it.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        module = None
    fn = getattr(module, attr, None)
    if fn is None:
        yield None
        return
    marks: list[int] = []

    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(perf_counter_ns())
        if stop:
            raise SetupDone
        return result

    setattr(module, attr, marked)
    try:
        yield marks
    finally:
        setattr(module, attr, fn)


def run_cli(spec: dict, argv: list[str], mark: tuple[str, str], tracer: Tracer | None) -> dict:
    """One CLI call, split at the set-up mark into set-up and job time."""
    import cosuggest.cli as cli

    with setup_mark(*mark, stop=spec["setup_only"]) as marks:
        if tracer:
            tracer.install(TARGETS)
        start = perf_counter_ns()
        try:
            rc = cli.main(argv)
        except SetupDone:
            rc = 0
        end = perf_counter_ns()
        rss = _peak_rss_mb()
        if tracer:
            tracer.uninstall()
    result = {"rc": rc, "wall_s": (end - start) / 1e9, "peak_rss_mb": rss, "setups": [], "missing": []}
    if marks is not None and len(marks) == 1:
        result["setups"] = [(marks[0] - start) / 1e9]
        result["job_s"] = (end - marks[0]) / 1e9
    else:  # a missing measurement point, not a failed job
        called = "not found" if marks is None else f"called {len(marks)} times, expected once"
        result["missing"].append(f"set-up mark {'.'.join(mark)} {called}")
    return result


def run_reduce_log(cs, spec: dict, files: dict, manifest: dict, tracer: Tracer | None) -> dict:
    # Set-up ends when the matcher is built: the log parse can start.
    out = spec["scratch"] / "reduced.ndjson"
    argv = ["reduce", "--log", files["log"], "--ontology", files["ontology"]]
    argv += ["--lexicon", files["lexicon"], "--out", str(out)]
    result = run_cli(spec, argv, ("cosuggest.evaluation", "build_matcher"), tracer)
    result["failures"] = failures = []
    rc = result.pop("rc")
    if rc != 0:
        failures.append(f"reduce exited {rc}")
    elif not spec["setup_only"]:
        if oracle.sessions_digest(oracle.parse_reduced(out)) != manifest["expected"]["reduced_digest"]:
            failures.append("reduced content differs from the oracle")
    return result


def check_parse_counts(cs, spec: dict, files: dict, manifest: dict, tracer: None) -> dict:
    """parse_log's skipped-row and record counts, which the reduce CLI does not print."""
    expected = manifest["expected"]
    parsed = cs.parse_log(files["log"])
    if (parsed.skipped, len(parsed.records)) == (expected["rows_skipped"], expected["records"]):
        return {"failures": []}
    return {
        "failures": [
            f"parse_log skipped {parsed.skipped} rows and kept {len(parsed.records)} records, "
            f"expected {expected['rows_skipped']} and {expected['records']}"
        ]
    }


def run_eval_reduced(cs, spec: dict, files: dict, manifest: dict, tracer: Tracer | None) -> dict:
    # Set-up ends when the reduced dataset is in memory: the first fold can start.
    out = spec["scratch"] / "report.json"
    argv = ["eval", "--reduced", files["reduced"], "--folds", str(manifest["descriptors"]["folds"])]
    argv += ["--seed", str(manifest["seed"]), "--out", str(out)]
    result = run_cli(spec, argv, ("cosuggest.cli", "read_reduced_ndjson"), tracer)
    result["failures"] = failures = []
    rc = result.pop("rc")
    if rc != 0:
        failures.append(f"eval exited {rc}")
    elif not spec["setup_only"]:
        report = json.loads(out.read_text(encoding="utf-8"))
        if oracle.report_digest(report) != manifest["expected"]["report_digest"]:
            failures.append("per-fold metrics differ from the oracle")
    return result


def run_suggest_online(cs, spec: dict, files: dict, manifest: dict, tracer: Tracer | None) -> dict:
    if tracer:
        tracer.install(TARGETS)
    with tracer.span("bench.setup") if tracer else nullcontext():
        start = perf_counter_ns()
        ont = cs.subset_by_facet(cs.load_ontology(files["ontology"]), {EXCLUDED_FACET})
        matcher = cs.ConceptMatcher.from_ontology(ont, lexicon=cs.load_lexicon(files["lexicon"]))
        clusters = cs.read_clusters_json(files["clusters"])[0]
        setups = [_seconds_since(start)]
    if spec["setup_only"]:
        if tracer:
            tracer.uninstall()
        return {"setups": setups, "peak_rss_mb": _peak_rss_mb(), "failures": []}
    match_query, suggest = cs.match_query, cs.suggest
    strategies = [cs.Strategy(name) for name in oracle.STRATEGIES]
    queries = json.loads(Path(files["queries"]).read_text(encoding="utf-8"))

    answers: list = []
    latencies: list[int] = []
    errors: list[str] = []
    with tracer.span("bench.requests") if tracer else nullcontext():
        loop_start = perf_counter_ns()
        for text in queries:
            sent = perf_counter_ns()
            try:
                context = match_query(matcher, text)
                answers.append((context, [suggest(clusters, context, s) for s in strategies]))
            except Exception as exc:  # a failed request is counted, the client goes on
                answers.append(None)
                errors.append(repr(exc))
            latencies.append(perf_counter_ns() - sent)
        loop = _seconds_since(loop_start)
    rss = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    expected = json.loads(Path(files["answers"]).read_text(encoding="utf-8"))
    wrong = 0
    for got, want in zip(answers, expected):
        if got is not None:
            context, results = got
            if oracle.answer(context, [(r.selected_clusters, r.suggested) for r in results]) != want:
                wrong += 1
    failures = errors[:3] + ([f"{wrong} answers differ from the oracle"] if wrong else [])
    latencies.sort()
    return {
        "setups": setups,
        "wall_s": loop,
        "job_s": loop,
        "latency_us": [_percentile(latencies, 0.5) / 1e3, _percentile(latencies, 0.99) / 1e3],
        "latency_samples": len(latencies),
        "requests": len(queries),
        "failed_requests": len(errors) + wrong,
        "peak_rss_mb": rss,
        "failures": failures,
    }


WORKLOADS = {
    "reduce-log": run_reduce_log,
    "eval-reduced": run_eval_reduced,
    "suggest-online": run_suggest_online,
    "reduce-log-check": check_parse_counts,
}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    spec["scratch"] = Path(spec["scratch"])
    inputs = Path(spec["inputs"])
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    files = {key: str(inputs / name) for key, name in manifest["files"].items()}

    import cosuggest as cs

    source = Path(cs.__file__).resolve()
    if Path(spec["src"]).resolve() not in source.parents:
        raise SystemExit(f"imported cosuggest from {source}, not from the checkout's src/")
    tracer = Tracer() if spec["trace"] else None
    result = WORKLOADS[spec["workload"]](cs, spec, files, manifest, tracer)
    result.setdefault("missing", [])
    if tracer:
        layers = layer_metrics(tracer)
        if spec["workload"] == "reduce-log":
            with open(files["log"], encoding="utf-8") as handle:
                layers["log_pipeline.rows_read"] = sum(1 for line in handle if line.strip()) - 1
        result["layers"] = layers
        result["missing"] += [f"missing target {m}" for m in tracer.missing] + tracer.observer_errors
        trace = {"spans": tracer.spans, "hot": tracer.hot, "counters": tracer.counters, "missing": result["missing"]}
        Path(spec["trace_out"]).write_text(json.dumps(trace) + "\n", encoding="utf-8")
    Path(argv[1]).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
