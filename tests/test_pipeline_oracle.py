"""The whole pipeline against the benchmark's brute-force oracle, on many
small seeded corpora.

``perfbench/oracle.py`` is a second implementation of the pipeline on plain
data.  Each corpus here comes from ``perfbench/gen.py``, goes through
``cosuggest reduce`` and then ``cosuggest eval --reduced``, and must give
the oracle's reduced sessions and per-fold metrics.  The grid reaches users
with 10 or more sessions, where the order of session ids (``u#10`` before
``u#2``) differs from their order in the file.
"""

import json
import random
import sys
from pathlib import Path

from cosuggest.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = range(100, 164)


def _perfbench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory untouched
    sys.path.insert(0, str(PERFBENCH))
    try:
        import gen
        import oracle
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return gen, oracle


def _corpus(gen, seed):
    """A seeded ontology, log and fold count drawn from the grid."""
    rng = random.Random(seed)
    ont = gen.make_ontology(rng, gen.Vocabulary(400), rng.randint(30, 120))
    topic_size = rng.randint(2, 6)
    params = gen.LogParams(
        events=rng.randint(200, 1500),
        concept_session_share=rng.uniform(0.5, 1.0),
        topics=min(rng.randint(2, 8), len(ont.kept_ids()) // topic_size),
        topic_size=topic_size,
        topic_pool=rng.randint(5, 30),
        plain_pool=rng.randint(20, 200),
        sessions_per_user=(1, rng.randint(3, 12)),
        topic_query_share=rng.uniform(0.3, 1.0),
        drift_share=rng.uniform(0.05, 0.9),
    )
    return ont, gen.make_log(rng, gen.Vocabulary(400), ont, params), rng.randint(2, 5)


def test_reduce_and_eval_agree_with_the_benchmark_oracle(tmp_path, capsys):
    gen, oracle = _perfbench()
    compared = 0
    many_sessions = 0
    for seed in SEEDS:
        ont, log, folds = _corpus(gen, seed)
        files = {name: tmp_path / f"{seed}.{name}"
                 for name in ("ontology", "lexicon", "log", "reduced", "report")}
        gen.write_json(files["ontology"], ont.payload)
        gen.write_json(files["lexicon"], ont.lexicon)
        gen.write_log(files["log"], log)
        kept, _ = oracle.reduce_events(oracle.phrase_table(ont.payload, ont.lexicon), log.events)
        assert main(["reduce", "--log", str(files["log"]), "--ontology", str(files["ontology"]),
                     "--lexicon", str(files["lexicon"]), "--out", str(files["reduced"])]) == 0
        assert oracle.parse_reduced(files["reduced"]) == kept, seed
        many_sessions += any(sid.endswith("#10") for sid, _, _ in kept)
        if sum(len(queries) >= 2 for _, _, queries in kept) < folds:
            continue  # too few sessions to score in every fold
        assert main(["eval", "--reduced", str(files["reduced"]), "--folds", str(folds),
                     "--seed", str(seed), "--out", str(files["report"])]) == 0
        report = json.loads(files["report"].read_text(encoding="utf-8"))
        want = oracle.eval_digest(oracle.evaluate(kept, folds, seed)["folds"])
        assert oracle.report_digest(report) == want, seed
        compared += 1
    capsys.readouterr()
    assert compared >= 60 and many_sessions
