"""Golden bytes: the demo-corpus artifacts of every stage, pinned by SHA-256.

A refactor must leave these digests unchanged; a change that alters them
alters the pipeline's output and has to say so by updating the pins.
"""

import hashlib
import os
from pathlib import Path

import pytest

from cosuggest.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

GOLDEN = {
    "reduced.ndjson": "93376848b013a3d701539a26e91eec971182c073e397091b03676308d1d5433a",
    "reduced.ndjson.meta.json": "44bd0a6726121a3e9cca6d8ac37a78a579194af75fc8720e461cb6ac485789bb",
    "graph.tsv": "32404482d9036fa5375fd619a782ae9d98f232c0d07b610fc4654793d1a8f00b",
    "graph.tsv.meta.json": "96e9c6e137a474b0eabf18e51d23208cfd36a1dec3105838a451c2755f77f86c",
    "clusters.json": "ccfa8aa46ca50a90da7e262c95c09da1ca93755b1299016cee8320d922b5d33c",
    "report.json": "9237ac0a7c55d3fa2d1f53ad8961d699a8ddc44b6882d1e733d22772cbeac466",
    "report.json.meta.json": "ba578a0a9ab040f08e3a5dd53eadf068cafdf97137b87d2e6a012a208f5f8c86",
    "report.csv": "3073e6344f9329712b1463f66e534c2d908ea7549d18259b985353fea64dcf08",
    "report.csv.meta.json": "ba578a0a9ab040f08e3a5dd53eadf068cafdf97137b87d2e6a012a208f5f8c86",
    "report.f1_by_length.slack.csv": "09d94ed47855fb93680b76ad7654745e73a297092e30c533cb96b263633daeb4",
    "report.f1_by_length.slack-selective.csv": "7c97f358d7722d7ed4b1d1c6052905d30e8c61fb9e337b4eb27c3ba7e68db6e5",
    "report.f1_by_length.strict.csv": "a0e8955394b8cb531d6e1e3608ee774b079bf165755b0341d6e8743be8970842",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    mp = pytest.MonkeyPatch()
    for key in [k for k in os.environ if k.startswith("COSUGGEST_")]:
        mp.delenv(key)
    reduced = str(out / "reduced.ndjson")
    inputs = ["--log", str(DATA / "search_log.tsv"), "--ontology", str(DATA / "city_ontology.json")]
    evaluate = ["eval", "--reduced", reduced, "--folds", "3"]
    runs = [
        ["reduce", *inputs, "--lexicon", str(DATA / "lexicon.json"), "--out", reduced],
        ["graph", "--reduced", reduced, "--out", str(out / "graph.tsv")],
        ["cluster", "--graph", str(out / "graph.tsv"), "--out", str(out / "clusters.json")],
        [*evaluate, "--out", str(out / "report.json")],
        [*evaluate, "--format", "csv", "--out", str(out / "report.csv")],
    ]
    try:
        for argv in runs:
            assert main(argv) == 0, argv
    finally:
        mp.undo()
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_artifact_bytes_are_pinned(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_no_unpinned_artifacts(artifacts):
    assert sorted(p.name for p in artifacts.iterdir()) == sorted(GOLDEN)
