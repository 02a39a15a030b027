import json

import pytest

from cosuggest.cli import main
from cosuggest.config import (
    PipelineConfig,
    config_hash,
    env_overrides,
    load_config_file,
    resolve_config,
)

from conftest import CITY_ONTOLOGY, write_log


@pytest.fixture
def ontology_file(tmp_path):
    path = tmp_path / "ontology.json"
    path.write_text(json.dumps(CITY_ONTOLOGY), encoding="utf-8")
    return path


@pytest.fixture
def log_file(tmp_path):
    """Engineered log: park/beach and museum/library co-occur heavily."""
    rows = []
    for i in range(20):
        rows.append((f"t{i}", "park beach", "2006-03-01 09:00:00", "", ""))
        rows.append((f"m{i}", "museum library", "2006-03-01 09:00:00", "", ""))
    for i in range(3):
        rows.append((f"e{i}", "park", "2006-03-01 09:00:00", "", ""))
        rows.append((f"e{i}", "beach", "2006-03-01 09:05:00", "", ""))
        rows.append((f"f{i}", "museum", "2006-03-01 09:00:00", "", ""))
        rows.append((f"f{i}", "library", "2006-03-01 09:05:00", "", ""))
    path = tmp_path / "queries.tsv"
    write_log(path, rows)
    return path


# ------------------------------------------------------------------ config

def test_config_file_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 7, "excluded_facets": ["administrative", "x"]}')
    values = load_config_file(path)
    assert values == {"seed": 7, "excluded_facets": ("administrative", "x")}


def test_config_file_key_value(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("# comment\nseed=9\ngap_minutes = 15\nexcluded_facets=a,b\n")
    values = load_config_file(path)
    assert values == {"seed": 9, "gap_minutes": 15, "excluded_facets": ("a", "b")}


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("bogus=1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(path)


def test_env_overrides():
    values = env_overrides({"COSUGGEST_SEED": "11", "COSUGGEST_FOLDS": "4", "PATH": "/bin"})
    assert values == {"seed": 11, "folds": 4}


def test_resolution_precedence(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("seed=1\nfolds=3\ngap_minutes=10\n")
    config = resolve_config(
        config_file=path,
        environ={"COSUGGEST_SEED": "2", "COSUGGEST_FOLDS": "4"},
        cli_values={"seed": 5},
    )
    assert config.seed == 5          # CLI beats env
    assert config.folds == 4         # env beats file
    assert config.gap_minutes == 10  # file beats default
    assert config.prune_min_weight == 2


def test_config_validation_ranges():
    with pytest.raises(ValueError):
        PipelineConfig(gap_minutes=0)
    with pytest.raises(ValueError):
        PipelineConfig(folds=1)
    with pytest.raises(ValueError):
        PipelineConfig(format="xml")


def test_config_hash_ignores_runtime_knobs():
    a = PipelineConfig(out="x.json")
    b = PipelineConfig(out="y.csv", format="csv")
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(PipelineConfig(seed=43))


def test_threads_setting_is_gone(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("threads=2\n")
    with pytest.raises(ValueError, match="unknown config key 'threads'"):
        load_config_file(path)
    assert env_overrides({"COSUGGEST_THREADS": "2"}) == {}
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--reduced", "x.ndjson", "--threads", "2"])
    assert exc.value.code == 2


# ------------------------------------------------------------- ont-metrics

def test_ont_metrics_text(ontology_file, capsys):
    assert main(["ont-metrics", "--ontology", str(ontology_file)]) == 0
    out = capsys.readouterr().out
    assert "classes" in out and "subclass relations" in out
    assert "administrative" in out


def test_ont_metrics_json(ontology_file, capsys):
    code = main(["ont-metrics", "--ontology", str(ontology_file), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["full"]["class_count"] == 6
    assert payload["subset"]["class_count"] == 5  # district excluded by default
    assert payload["full"]["subclass_relation_count"] == 6
    assert payload["full"]["longest_root_to_leaf_path"] == 1


def test_missing_ontology_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["ont-metrics", "--ontology", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_invalid_ontology_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"root": "r", "classes": [
        {"id": "r", "label": "r", "parents": []},
        {"id": "a", "label": "a", "parents": ["ghost"]},
    ]}))
    assert main(["ont-metrics", "--ontology", str(bad)]) == 1
    assert "ghost" in capsys.readouterr().err


# ------------------------------------------------------------------ stages

def test_stage_pipeline_and_fused_eval_agree(ontology_file, log_file, tmp_path, capsys):
    reduced = tmp_path / "reduced.ndjson"
    graph = tmp_path / "graph.tsv"
    clusters = tmp_path / "clusters.json"
    staged = tmp_path / "staged.json"
    fused = tmp_path / "fused.json"

    assert main([
        "reduce", "--log", str(log_file), "--ontology", str(ontology_file),
        "--out", str(reduced),
    ]) == 0
    assert reduced.exists() and (tmp_path / "reduced.ndjson.meta.json").exists()

    assert main(["graph", "--reduced", str(reduced), "--out", str(graph)]) == 0
    assert "nodes" in capsys.readouterr().out

    assert main(["cluster", "--graph", str(graph), "--out", str(clusters)]) == 0
    payload = json.loads(clusters.read_text())
    members = {tuple(sorted(c["members"])) for c in payload["clusters"]}
    assert members == {("beach", "park"), ("library", "museum")}
    assert payload["provenance"]["seed"] == 42

    assert main([
        "eval", "--reduced", str(reduced), "--folds", "2", "--out", str(staged),
    ]) == 0
    assert main([
        "eval", "--log", str(log_file), "--ontology", str(ontology_file),
        "--folds", "2", "--out", str(fused),
    ]) == 0
    assert staged.read_bytes() == fused.read_bytes()

    report = json.loads(staged.read_text())
    assert report["strategies"]["slack"]["summary"]["recall"] == 1.0
    assert report["strategies"]["slack"]["summary"]["precision"] == 1.0


def test_eval_repeat_runs_and_threads_are_byte_identical(
    ontology_file, log_file, tmp_path
):
    # Folds run sequentially; the name keeps the test's id stable.
    outputs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.json"
        assert main([
            "eval", "--log", str(log_file), "--ontology", str(ontology_file),
            "--folds", "2", "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_eval_csv_format(ontology_file, log_file, tmp_path):
    out = tmp_path / "report.csv"
    assert main([
        "eval", "--log", str(log_file), "--ontology", str(ontology_file),
        "--folds", "2", "--format", "csv", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith(
        "strategy,fold,richness_min,richness_max,richness_mean,recall,precision,f1"
    )
    assert any(line.startswith("slack,mean,") for line in lines)
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies.index("slack") < strategies.index("slack-selective") < strategies.index("strict")
    side = tmp_path / "report.f1_by_length.slack.csv"
    assert side.read_text().splitlines()[0] == "length,mean_f1,n"


def test_eval_single_strategy_filter(ontology_file, log_file, tmp_path, capsys):
    assert main([
        "eval", "--log", str(log_file), "--ontology", str(ontology_file),
        "--folds", "2", "--strategy", "strict",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["strategies"]) == ["strict"]


def test_eval_requires_inputs(capsys):
    assert main(["eval"]) == 2
    assert "requires" in capsys.readouterr().err


def test_cluster_on_empty_graph_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main(["cluster", "--graph", str(empty), "--out", str(tmp_path / "c.json")]) == 1
    assert "empty graph" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_suggest_one_shot(ontology_file, log_file, tmp_path, capsys):
    reduced = tmp_path / "r.ndjson"
    graph = tmp_path / "g.tsv"
    clusters = tmp_path / "c.json"
    main(["reduce", "--log", str(log_file), "--ontology", str(ontology_file), "--out", str(reduced)])
    main(["graph", "--reduced", str(reduced), "--out", str(graph)])
    main(["cluster", "--graph", str(graph), "--out", str(clusters)])
    capsys.readouterr()

    assert main([
        "suggest", "--ontology", str(ontology_file), "--clusters", str(clusters),
        "--query", "parks and playgrounds",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["context"] == ["park"]
    assert payload["suggestions"]["slack"] == ["beach"]
    assert payload["suggestions"]["slack-selective"] == ["beach"]
    assert payload["suggestions"]["strict"] == ["beach"]


def test_rerun_reproduces_identical_artifacts(ontology_file, log_file, tmp_path):
    for name in ("one", "two"):
        main([
            "reduce", "--log", str(log_file), "--ontology", str(ontology_file),
            "--out", str(tmp_path / f"{name}.ndjson"),
        ])
    assert (tmp_path / "one.ndjson").read_bytes() == (tmp_path / "two.ndjson").read_bytes()
    assert (
        (tmp_path / "one.ndjson.meta.json").read_bytes()
        == (tmp_path / "two.ndjson.meta.json").read_bytes()
    )


def test_env_override_changes_seed(ontology_file, log_file, tmp_path, monkeypatch):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    main(["eval", "--log", str(log_file), "--ontology", str(ontology_file),
          "--folds", "2", "--out", str(out_a)])
    monkeypatch.setenv("COSUGGEST_SEED", "7")
    main(["eval", "--log", str(log_file), "--ontology", str(ontology_file),
          "--folds", "2", "--out", str(out_b)])
    assert json.loads(out_a.read_text())["config"]["seed"] == 42
    assert json.loads(out_b.read_text())["config"]["seed"] == 7


def test_config_file_flag(ontology_file, log_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds=2\nseed=5\n")
    assert main([
        "eval", "--config", str(cfg), "--log", str(log_file),
        "--ontology", str(ontology_file),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["folds"] == 2
    assert payload["config"]["seed"] == 5


def test_usage_error_on_bad_flag_value(ontology_file):
    # argparse exits the process directly with the usage exit code
    with pytest.raises(SystemExit) as excinfo:
        main(["ont-metrics", "--ontology", str(ontology_file), "--seed", "x"])
    assert excinfo.value.code == 2


def test_reduce_requires_out(ontology_file, log_file, capsys):
    assert main(["reduce", "--log", str(log_file), "--ontology", str(ontology_file)]) == 2


# --------------------------------------------------------- strict readers

GOOD_SESSION = (
    '{"queries": [{"concepts": ["park"], "text": "park", "ts": "2006-03-01 09:00:00"}],'
    ' "session_id": "u1#1", "user": "u1"}'
)


@pytest.mark.parametrize(
    "name, text, argv, where",
    [
        (
            "no_queries.ndjson",
            GOOD_SESSION + '\n{"session_id": "u2#1", "user": "u2"}\n',
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2:",
        ),
        (
            "duplicate.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":2:",
        ),
        (
            "bad_weight.tsv",
            "beach\tpark\t3\nlibrary\tmuseum\tmany\n",
            ["cluster", "--out", "{tmp}/clusters.json", "--graph"],
            ":2:",
        ),
        (
            "no_id.json",
            '{"clusters": [{"id": 0, "members": ["park"]}, {"members": ["beach"]}]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": clusters[1]:",
        ),
    ],
    ids=[
        "reduced-missing-queries",
        "reduced-duplicate-session",
        "graph-bad-weight",
        "clusters-missing-id",
    ],
)
def test_malformed_artifact_exits_1_with_location(
    tmp_path, ontology_file, capsys, name, text, argv, where
):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    argv = [a.format(tmp=tmp_path, ontology=ontology_file) for a in argv] + [str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{path}{where}" in err
    assert "Traceback" not in err
