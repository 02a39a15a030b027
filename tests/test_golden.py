"""Golden bytes: the demo-corpus artifacts and stdout of every stage, pinned by SHA-256.

A refactor must leave these digests unchanged; a change that alters them
alters the pipeline's output and has to say so by updating the pins.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest

from cosuggest.cli import main
from cosuggest.config import PipelineConfig
from cosuggest.evaluation import run_experiment_on_dataset

from conftest import topic_dataset

TESTS = Path(__file__).resolve().parent
DATA = TESTS.parent / "demos" / "data"

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


STDOUT_GOLDEN = {
    "ont-metrics-json": "099c43aee78851a2aa51bbe84d7e3984e9f2b8ac703e524cd9467849ace5b14f",
    "ont-metrics-text": "91df5a90627a78189f4230295666cda678188b99c2c683986efbe87ad2dd7ceb",
    "suggest": "d008c08d160ea593ec552d9ff3d6c3034c370bbe79b7aec83430d32852b4e219",
    "eval-slack-csv": "64412c41c7ab6025328c855d18a9887f2a1445f095293a13c598b2a0095eae75",
}

# ``run_experiment_on_dataset`` over ``topic_dataset(2024, 2000)``: 40
# concepts, empty first-query contexts, and hundreds of weight-1 pairs, so
# held-out sessions take training edges to 0 and contexts repeat in a fold.
MID_SIZE_REPORT = "b13baff941974e63439481973ed6f75697e7379c41e098e673732f0fc462269b"


@contextmanager
def _clean_env():
    """Run with every ``COSUGGEST_*`` variable cleared, so only defaults apply."""
    with pytest.MonkeyPatch.context() as mp:
        for key in [k for k in os.environ if k.startswith("COSUGGEST_")]:
            mp.delenv(key)
        yield


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
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
    with _clean_env():
        for argv in runs:
            assert main(argv) == 0, argv
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_artifact_bytes_are_pinned(artifacts, name):
    digest = hashlib.sha256((artifacts / name).read_bytes()).hexdigest()
    assert digest == GOLDEN[name]


def test_no_unpinned_artifacts(artifacts):
    assert sorted(p.name for p in artifacts.iterdir()) == sorted(GOLDEN)


def _stdout_argv(name, artifacts):
    ontology = ["--ontology", str(DATA / "city_ontology.json")]
    return {
        "ont-metrics-json": ["ont-metrics", *ontology, "--format", "json"],
        "ont-metrics-text": ["ont-metrics", *ontology],
        "suggest": [
            "suggest", *ontology, "--lexicon", str(DATA / "lexicon.json"),
            "--clusters", str(artifacts / "clusters.json"), "--query", "museum near the beach",
        ],
        "eval-slack-csv": [
            "eval", "--reduced", str(artifacts / "reduced.ndjson"), "--folds", "3",
            "--strategy", "slack", "--format", "csv",
        ],
    }[name]


@pytest.mark.parametrize("name", sorted(STDOUT_GOLDEN))
def test_demo_stdout_bytes_are_pinned(artifacts, name):
    buffer = io.StringIO()
    with _clean_env(), redirect_stdout(buffer):
        assert main(_stdout_argv(name, artifacts)) == 0
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == STDOUT_GOLDEN[name]


def mid_size_report_text() -> str:
    config = PipelineConfig(prune_min_weight=2)
    report = run_experiment_on_dataset(topic_dataset(2024, 2000), config)
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def test_mid_size_report_bytes_are_pinned():
    text = mid_size_report_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MID_SIZE_REPORT


@pytest.mark.parametrize("hash_seed", ["1", "987"])
def test_pins_hold_in_fresh_processes_under_other_hash_seeds(artifacts, hash_seed):
    """String hashing is randomized per process; no output may depend on it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("COSUGGEST_")}
    env["PYTHONHASHSEED"] = hash_seed
    paths = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    runs = {
        MID_SIZE_REPORT: [
            "-c", "import sys, test_golden; sys.stdout.write(test_golden.mid_size_report_text())",
        ],
        STDOUT_GOLDEN["eval-slack-csv"]: [
            "-m", "cosuggest.cli", *_stdout_argv("eval-slack-csv", artifacts),
        ],
    }
    for pin, args in runs.items():
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
        assert hashlib.sha256(done.stdout).hexdigest() == pin, args
