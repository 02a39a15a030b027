"""Untimed preparation of one workload's inputs and expected outputs.

Usage: python3 perfbench/prepare.py <workload> <seed> <out-dir>

Writes the generated inputs into <out-dir>, computes the oracle's expected
results and the workload descriptors, and writes ``manifest.json`` last, so
a directory without a manifest is an unfinished preparation.  The only
call into cosuggest is the ``reduce`` stage that turns the eval-reduced log
into the reduced artifact the eval job reads.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import gen
import oracle

EVAL_FOLDS = 10
FILLER_WORDS = 20000

# Sizes and input shapes of each workload; see README.md for why.
REDUCE_LOG = dict(
    classes=2000,
    log=gen.LogParams(events=175000, concept_session_share=0.2, plain_pool=90000, zipf_s=0.9),
)
EVAL_REDUCED = dict(
    classes=500,
    log=gen.LogParams(
        events=188000,
        concept_session_share=1.0,
        length_weights=(10, 30, 25, 15, 12, 8),
        click_extra_weights=(90, 10, 0),
        malformed_share=0.0,
    ),
)
SUGGEST_ONLINE = dict(classes=4000, clusters=60, queries=50000)


def _write_inputs(out: Path, ont: gen.GenOntology) -> dict:
    gen.write_json(out / "ontology.json", ont.payload)
    gen.write_json(out / "lexicon.json", ont.lexicon)
    return {"ontology": "ontology.json", "lexicon": "lexicon.json"}


def _log_descriptors(log: gen.GenLog, kept, total_sessions: int) -> dict:
    texts = [text for _, text, _ in log.events]
    return {
        "log_rows": len(log.rows),
        "malformed_rows": log.malformed,
        "query_records": len(log.events),
        "distinct_query_share": len(set(texts)) / len(texts),
        "sessions": total_sessions,
        "reduced_sessions": len(kept),
        "eligible_sessions": sum(1 for s in kept if len(s[2]) >= 2),
    }


def prepare_reduce_log(rng: random.Random, out: Path) -> dict:
    vocab = gen.Vocabulary(FILLER_WORDS)
    ont = gen.make_ontology(rng, vocab, REDUCE_LOG["classes"])
    log = gen.make_log(rng, vocab, ont, REDUCE_LOG["log"])
    files = _write_inputs(out, ont)
    gen.write_log(out / "log.tsv", log)
    table = oracle.phrase_table(ont.payload, ont.lexicon)
    kept, total = oracle.reduce_events(table, log.events)
    descriptors = _log_descriptors(log, kept, total)
    descriptors.update(ontology_classes=REDUCE_LOG["classes"], index_phrases=len(table))
    return {
        "files": dict(files, log="log.tsv"),
        "items": len(log.rows),
        "expected": {
            "rows_skipped": log.malformed,
            "records": len(log.events),
            "reduced_digest": oracle.sessions_digest(kept),
        },
        "descriptors": descriptors,
    }


def _graph_descriptors(sessions) -> dict:
    """Size of the pruned co-occurrence graph of the whole reduced dataset."""
    counts = Counter(p for s in sessions for p in oracle.session_pairs(s))
    edges = {p: w for p, w in counts.items() if w >= oracle.PRUNE_MIN_WEIGHT}
    return {"graph_nodes": len({n for p in edges for n in p}), "graph_edges": len(edges)}


def prepare_eval_reduced(rng: random.Random, seed: int, out: Path) -> dict:
    vocab = gen.Vocabulary(FILLER_WORDS)
    ont = gen.make_ontology(rng, vocab, EVAL_REDUCED["classes"])
    log = gen.make_log(rng, vocab, ont, EVAL_REDUCED["log"])
    files = _write_inputs(out, ont)
    gen.write_log(out / "log.tsv", log)
    kept, total = oracle.reduce_events(oracle.phrase_table(ont.payload, ont.lexicon), log.events)
    descriptors = _log_descriptors(log, kept, total)
    reduced_digest = oracle.sessions_digest(kept)
    evaluation = oracle.evaluate(kept, EVAL_FOLDS, seed)
    nodes, edges, clusters = zip(*evaluation["graphs"])
    descriptors.update(
        _graph_descriptors(kept),
        folds=EVAL_FOLDS,
        fold_graph_nodes_mean=sum(nodes) / len(nodes),
        fold_graph_edges_mean=sum(edges) / len(edges),
        fold_clusters_mean=sum(clusters) / len(clusters),
    )
    del log, kept

    from cosuggest.cli import main

    argv = ["reduce", "--log", str(out / "log.tsv"), "--ontology", str(out / files["ontology"])]
    argv += ["--lexicon", str(out / files["lexicon"]), "--out", str(out / "reduced.ndjson")]
    if main(argv) != 0:
        raise SystemExit("eval-reduced preparation: the reduce stage failed")
    if oracle.sessions_digest(oracle.parse_reduced(out / "reduced.ndjson")) != reduced_digest:
        raise SystemExit("eval-reduced preparation: reduced artifact differs from the oracle")
    (out / "log.tsv").unlink()
    return {
        "files": {"reduced": "reduced.ndjson"},
        "items": descriptors["reduced_sessions"],
        "expected": {"report_digest": oracle.eval_digest(evaluation["folds"])},
        "descriptors": descriptors,
    }


def prepare_suggest_online(rng: random.Random, out: Path) -> dict:
    vocab = gen.Vocabulary(FILLER_WORDS)
    ont = gen.make_ontology(rng, vocab, SUGGEST_ONLINE["classes"])
    clusters, queries = gen.make_online(rng, vocab, ont, SUGGEST_ONLINE["clusters"], SUGGEST_ONLINE["queries"])
    files = _write_inputs(out, ont)
    gen.write_json(out / "clusters.json", {"clusters": clusters, "config": {}, "converged": True, "iterations": 0})
    gen.write_json(out / "queries.json", queries)
    table = oracle.phrase_table(ont.payload, ont.lexicon)
    planted = [(c["id"], frozenset(c["members"])) for c in clusters]
    answers = []
    for text in queries:
        context = oracle.match(table, text)
        answers.append(oracle.answer(context, [oracle.suggest(planted, context, s) for s in oracle.STRATEGIES]))
    gen.write_json(out / "answers.json", answers)
    return {
        "files": dict(files, clusters="clusters.json", queries="queries.json", answers="answers.json"),
        "items": len(queries),
        "expected": {},
        "descriptors": {
            "ontology_classes": SUGGEST_ONLINE["classes"],
            "index_phrases": len(table),
            "clusters": len(clusters),
            "requests": len(queries),
            "distinct_query_share": len(set(queries)) / len(queries),
            "matched_query_share": sum(1 for a in answers if a[0]) / len(answers),
        },
    }


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reduce-log":
        manifest = prepare_reduce_log(rng, out)
    elif workload == "eval-reduced":
        manifest = prepare_eval_reduced(rng, seed, out)
    elif workload == "suggest-online":
        manifest = prepare_suggest_online(rng, out)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
