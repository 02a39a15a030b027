"""Every function the benchmark's tracer binds must still exist, and its
observer must still read the program's results.

``perfbench/tracing.py`` wraps functions by (module, attribute path); a
rename that drops one silently removes a per-layer metric, or, for the
set-up marks, the end-to-end ``setup_s``/``job_s``/``throughput_per_s``.
An observer that no longer fits a result (a renamed field) is only logged,
so the traced job still succeeds.
"""

import importlib
import sys
from pathlib import Path

import cosuggest
from cosuggest.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def _tracing():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory untouched
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return tracing


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_benchmark_target_resolves():
    missing = []
    for module_name, attr, *_ in _tracing().TARGETS:
        try:
            target = _resolve(module_name, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        assert callable(target), f"{module_name}.{attr}"
    assert missing == []


def test_every_observer_reads_the_results_it_is_given(tmp_path, capsys):
    tracing = _tracing()
    ontology, lexicon = str(DATA / "city_ontology.json"), str(DATA / "lexicon.json")
    reduced, graph = tmp_path / "reduced.ndjson", tmp_path / "graph.tsv"
    clusters = tmp_path / "clusters.json"
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert main(["reduce", "--log", str(DATA / "search_log.tsv"), "--ontology", ontology,
                     "--lexicon", lexicon, "--out", str(reduced)]) == 0
        assert main(["eval", "--reduced", str(reduced), "--folds", "5",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert main(["graph", "--reduced", str(reduced), "--out", str(graph)]) == 0
        assert main(["cluster", "--graph", str(graph), "--out", str(clusters)]) == 0
        ont = cosuggest.subset_by_facet(cosuggest.load_ontology(ontology), {"administrative"})
        matcher = cosuggest.ConceptMatcher.from_ontology(ont, cosuggest.load_lexicon(lexicon))
        context = cosuggest.match_query(matcher, "museum near the beach")
        learned = cosuggest.read_clusters_json(clusters)[0]
        cosuggest.suggest(learned, context, cosuggest.Strategy.SLACK)
    finally:
        tracer.uninstall()
    assert tracer.observer_errors == []
    assert tracer.missing == []
    # Every observer was handed at least one result.
    observed = {name for *_, name, _, observe in tracing.TARGETS if observe is not None}
    ran = {span["name"] for span in tracer.spans}
    ran |= {name for name, (calls, _) in tracer.hot.items() if calls}
    assert observed <= ran
