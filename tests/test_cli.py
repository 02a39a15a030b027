import argparse
import gc
import json
import random
import shutil
from codecs import BOM_UTF8
from datetime import datetime, timedelta
from pathlib import Path

import pytest

import cosuggest.cli
import cosuggest.evaluation
from cosuggest.cli import build_parser, main
from cosuggest.config import (
    MAX_GAP_MINUTES,
    PipelineConfig,
    config_hash,
    env_overrides,
    load_config_file,
    resolve_config,
)
from cosuggest.cooccurrence import read_graph_tsv
from cosuggest.copra import read_clusters_json
from cosuggest.evaluation import make_folds
from cosuggest.log_pipeline import parse_log, read_reduced_ndjson, session_length_stats
from cosuggest.matching import load_lexicon
from cosuggest.ontology import load_ontology

from conftest import CITY_ONTOLOGY, DEEP_JSON, TWO_LINE_MERGE, write_log

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


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
    path.write_text('{"seed": 7, "excluded_facets": ["administrative", "x"]}', encoding="utf-8")
    values = load_config_file(path)
    assert values == {"seed": 7, "excluded_facets": ("administrative", "x")}


def test_config_file_key_value(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("# comment\nseed=9\ngap_minutes = 15\nexcluded_facets=a,b\n", encoding="utf-8")
    values = load_config_file(path)
    assert values == {"seed": 9, "gap_minutes": 15, "excluded_facets": ("a", "b")}


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("bogus=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(path)
    for value in ("[3]", "true", "{}", "2.5"):
        path.write_text(f'{{"folds": {value}}}', encoding="utf-8")
        with pytest.raises(ValueError, match="folds"):
            load_config_file(path)


def test_mistyped_config_values_name_the_key(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("folds=abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="folds must be an integer, got 'abc'"):
        load_config_file(path)
    with pytest.raises(ValueError, match="folds must be an integer, got 'abc'"):
        env_overrides({"COSUGGEST_FOLDS": "abc"})
    path.write_text('{"excluded_facets": [1, {}]}', encoding="utf-8")
    with pytest.raises(ValueError, match="excluded_facets must be a list of strings"):
        load_config_file(path)
    path.write_text('{"excluded_facets": ["administrative", "natural"]}', encoding="utf-8")
    assert load_config_file(path) == {"excluded_facets": ("administrative", "natural")}


def test_env_overrides():
    values = env_overrides({"COSUGGEST_SEED": "11", "COSUGGEST_FOLDS": "4", "PATH": "/bin"})
    assert values == {"seed": 11, "folds": 4}


def test_resolution_precedence(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("seed=1\nfolds=3\ngap_minutes=10\n", encoding="utf-8")
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
    assert PipelineConfig(gap_minutes=MAX_GAP_MINUTES).gap_minutes == MAX_GAP_MINUTES
    assert timedelta(minutes=MAX_GAP_MINUTES) <= timedelta.max
    with pytest.raises(ValueError, match="gap_minutes must be at most"):
        PipelineConfig(gap_minutes=MAX_GAP_MINUTES + 1)
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
    path.write_text("threads=2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key 'threads'"):
        load_config_file(path)
    assert env_overrides({"COSUGGEST_THREADS": "2"}) == {}
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--reduced", "x.ndjson", "--threads", "2"])
    assert exc.value.code == 2


# ------------------------------------------------------------- CLI surface

COMMON = ["-h", "--help", "--config", "--seed"]
ONTOLOGY = ["--ontology", "--exclude-facet", "--lexicon"]
# Per subcommand: every option string it accepts, and the choices of each
# option that has them.  Written out so that no refactor drops or renames one.
CLI_SURFACE = {
    "ont-metrics": (
        [*COMMON, *ONTOLOGY, "--format"],
        {"--format": ["text", "json"]},
    ),
    "reduce": (
        [*COMMON, *ONTOLOGY, "--log", "--gap-minutes", "--out"],
        {},
    ),
    "graph": (
        [*COMMON, "--reduced", "--prune-min-weight", "--out"],
        {},
    ),
    "cluster": (
        [*COMMON, "--graph", "--copra-v", "--copra-max-iter", "--out"],
        {},
    ),
    "eval": (
        [
            *COMMON, *ONTOLOGY, "--log", "--reduced", "--gap-minutes", "--prune-min-weight",
            "--copra-v", "--copra-max-iter", "--folds", "--strategy",
            "--empty-suggestion-precision", "--out", "--format",
        ],
        {
            "--strategy": ["slack", "slack-selective", "strict", "all"],
            "--empty-suggestion-precision": ["exclude", "zero", "one"],
            "--format": ["json", "csv"],
        },
    ),
    "suggest": (
        [*COMMON, *ONTOLOGY, "--clusters", "--query"],
        {},
    ),
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(CLI_SURFACE)
    for name, sub in commands.choices.items():
        options, choices = CLI_SURFACE[name]
        assert [o for action in sub._actions for o in action.option_strings] == options, name
        assert {
            action.option_strings[-1]: list(action.choices)
            for action in sub._actions
            if action.choices is not None
        } == choices, name


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
    ]}), encoding="utf-8")
    assert main(["ont-metrics", "--ontology", str(bad)]) == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, command",
    [
        ("label", 5, "reduce"),
        ("annotations", 7, "reduce"),
        ("annotations", 7, "ont-metrics"),
        ("annotations", None, "ont-metrics"),
    ],
)
def test_mistyped_ontology_field_exits_1(tmp_path, log_file, capsys, field, value, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"root": "r", "classes": [
        {"id": "r", "label": "r", "parents": []},
        {"id": "a", "label": "a", "parents": ["r"], field: value},
    ]}), encoding="utf-8")
    argv = [command, "--ontology", str(bad)]
    if command == "reduce":
        argv += ["--log", str(log_file), "--out", str(tmp_path / "reduced.ndjson")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"class 'a': '{field}' must be a" in err
    assert "Traceback" not in err


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
    payload = json.loads(clusters.read_text(encoding="utf-8"))
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

    report = json.loads(staged.read_text(encoding="utf-8"))
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
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(
        "strategy,fold,richness_min,richness_max,richness_mean,recall,precision,f1"
    )
    assert any(line.startswith("slack,mean,") for line in lines)
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies.index("slack") < strategies.index("slack-selective") < strategies.index("strict")
    side = tmp_path / "report.f1_by_length.slack.csv"
    assert side.read_text(encoding="utf-8").splitlines()[0] == "length,mean_f1,n"


def test_eval_single_strategy_filter(ontology_file, log_file, tmp_path, capsys):
    assert main([
        "eval", "--log", str(log_file), "--ontology", str(ontology_file),
        "--folds", "2", "--strategy", "strict",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["strategies"]) == ["strict"]


def test_eval_single_strategy_scores_only_that_strategy(
    ontology_file, log_file, monkeypatch, capsys
):
    real_suggest = cosuggest.evaluation.suggest
    strategies = []

    def counting_suggest(clusters, context, strategy):
        strategies.append(strategy.value)
        return real_suggest(clusters, context, strategy)

    monkeypatch.setattr(cosuggest.evaluation, "suggest", counting_suggest)
    argv = ["eval", "--log", str(log_file), "--ontology", str(ontology_file), "--folds", "2"]
    assert main([*argv, "--strategy", "all"]) == 0
    every = list(strategies)
    strategies.clear()
    assert main([*argv, "--strategy", "slack"]) == 0
    capsys.readouterr()
    assert strategies and set(strategies) == {"slack"}
    assert 3 * len(strategies) == len(every)


def test_eval_requires_inputs(capsys):
    assert main(["eval"]) == 2
    assert "requires" in capsys.readouterr().err


def test_cluster_on_empty_graph_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
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
    assert json.loads(out_a.read_text(encoding="utf-8"))["config"]["seed"] == 42
    assert json.loads(out_b.read_text(encoding="utf-8"))["config"]["seed"] == 7


def test_config_file_flag(ontology_file, log_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds=2\nseed=5\n", encoding="utf-8")
    assert main([
        "eval", "--config", str(cfg), "--log", str(log_file),
        "--ontology", str(ontology_file),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["folds"] == 2
    assert payload["config"]["seed"] == 5
    broken = tmp_path / "run.json"
    broken.write_text('{"folds": 2,\n', encoding="utf-8")
    assert main(["eval", "--config", str(broken), "--log", str(log_file)]) == 2
    assert f"cannot parse config file {broken}: " in capsys.readouterr().err
    not_utf8 = tmp_path / "run.ini"
    not_utf8.write_bytes(b"folds=2\n" * 1200 + b"seed=\xff\n")
    assert main(["eval", "--config", str(not_utf8), "--log", str(log_file)]) == 2
    assert f"cannot read config file {not_utf8}: 'utf-8' codec" in capsys.readouterr().err


def test_deeply_nested_config_file_exits_2(log_file, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"seed": ' + DEEP_JSON + "}", encoding="utf-8")
    assert main(["eval", "--config", str(deep), "--log", str(log_file)]) == 2
    assert f"cannot parse config file {deep}: " in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config-file", "environment"])
def test_gap_too_long_for_a_timedelta_exits_2(
    ontology_file, log_file, tmp_path, monkeypatch, capsys, source
):
    gap = "100000000000000"
    argv = ["reduce", "--log", str(log_file), "--ontology", str(ontology_file),
            "--out", str(tmp_path / "reduced.ndjson")]
    if source == "flag":
        argv += ["--gap-minutes", gap]
    elif source == "config-file":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"gap_minutes={gap}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("COSUGGEST_GAP_MINUTES", gap)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"reduce: gap_minutes must be at most {MAX_GAP_MINUTES}" in err
    assert "Traceback" not in err


def test_usage_error_on_bad_flag_value(ontology_file):
    # argparse exits the process directly with the usage exit code
    with pytest.raises(SystemExit) as excinfo:
        main(["ont-metrics", "--ontology", str(ontology_file), "--seed", "x"])
    assert excinfo.value.code == 2


def test_reduce_requires_out(ontology_file, log_file, capsys):
    assert main(["reduce", "--log", str(log_file), "--ontology", str(ontology_file)]) == 2


def test_lexicon_entries_of_excluded_classes_are_dropped(tmp_path):
    demo = Path(__file__).resolve().parent.parent / "demos" / "data"
    lexicon = json.loads((demo / "lexicon.json").read_text(encoding="utf-8"))
    extended = tmp_path / "extended.json"
    extended.write_text(json.dumps({**lexicon, "district": ["quarter"]}), encoding="utf-8")
    inputs = ["reduce", "--log", str(demo / "search_log.tsv"),
              "--ontology", str(demo / "city_ontology.json")]
    outputs = []
    for name, path in (("plain", demo / "lexicon.json"), ("extended", extended)):
        out = tmp_path / f"{name}.ndjson"
        assert main([*inputs, "--exclude-facet", "administrative",
                     "--lexicon", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({**lexicon, "distrct": ["quarter"]}), encoding="utf-8")
    assert main([*inputs, "--lexicon", str(typo), "--out", str(tmp_path / "typo.ndjson")]) == 1


# --------------------------------------------------------- strict readers

GOOD_SESSION = (
    '{"queries": [{"concepts": ["park"], "text": "park", "ts": "2006-03-01 09:00:00"}],'
    ' "session_id": "u1#1", "user": "u1"}'
)
# A byte that is not UTF-8, on a line past the first 8 KiB of its file: a
# reader that decodes in chunks would blame the wrong line.
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"
SESSIONS_THEN_BAD_BYTE = (
    "".join(GOOD_SESSION.replace("u1#1", f"u1#{i}") + "\n" for i in range(100)).encode()
    + GOOD_SESSION.replace("u1#1", "u1#100").encode().replace(b'"park"', b'"p\xffrk"', 1)
    + b"\n"
)
_PARK = next(c for c in CITY_ONTOLOGY["classes"] if c["id"] == "park")


def _with_class(*extra):
    """The city ontology with the given class objects appended."""
    return {**CITY_ONTOLOGY, "classes": CITY_ONTOLOGY["classes"] + list(extra)}


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
        (
            "concepts_string.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION.replace('["park"]', '"park"').replace("u1", "u2") + "\n",
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2:",
        ),
        (
            "empty_queries.ndjson",
            GOOD_SESSION + '\n{"queries": [], "session_id": "u2#1", "user": "u2"}\n',
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2:",
        ),
        (
            "repeated_pair.tsv",
            "a\tb\t3\nb\ta\t2\na\tb\t1\n",
            ["cluster", "--out", "{tmp}/clusters.json", "--graph"],
            ":2:",
        ),
        (
            "members_string.json",
            '{"clusters": [{"id": 0, "members": ["park"]}, {"id": 1, "members": "park"}]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": clusters[1]:",
        ),
        (
            "duplicate_id.json",
            '{"clusters": [{"id": 0, "members": ["park"]}, {"id": 0, "members": ["beach"]}]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": clusters[1]:",
        ),
        (
            "session_id_number.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION.replace('"u1#1"', "7").replace('"u1"', '"u2"') + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":2:",
        ),
        (
            "user_number.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION.replace("u1#1", "u2#1").replace('"u1"', "7") + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":2:",
        ),
        (
            "concept_number.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION.replace('["park"]', '["park", 3]').replace("u1", "u2") + "\n",
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2:",
        ),
        (
            "id_string.json",
            '{"clusters": [{"id": 0, "members": ["park"]}, {"id": "x", "members": ["park", "beach"]}]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": clusters[1]:",
        ),
        (
            "id_true.json",
            '{"clusters": [{"id": 0, "members": ["park"]}, {"id": true, "members": ["park", "beach"]}]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": clusters[1]:",
        ),
        (
            "member_number.json",
            '{"clusters": [{"id": 0, "members": ["park"]}, {"id": 1, "members": ["park", 5]}]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": clusters[1]:",
        ),
        (
            "text_number.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION.replace('"text": "park"', '"text": 5').replace("u1", "u2") + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":2:",
        ),
        (
            "bad_timestamp.ndjson",
            GOOD_SESSION.replace("2006-03-01 09:00:00", "2006-13-01 09:00:00") + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":1:",
        ),
        (
            "timestamp_number.ndjson",
            GOOD_SESSION.replace('"2006-03-01 09:00:00"', "5") + "\n",
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":1:",
        ),
        (
            "no_ts.ndjson",
            GOOD_SESSION.replace(', "ts": "2006-03-01 09:00:00"', "") + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":1:",
        ),
        (
            "lexicon.json",
            '{"park": ["green space"],}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park",
             "--clusters", "{tmp}/clusters.json", "--lexicon"],
            # CPython words the JSON error, and places its column, per version.
            ("cannot parse lexicon file {path}: ", ": line 1 column "),
        ),
        (
            "lexicon_entry.json",
            '{"park": "green space"}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park",
             "--clusters", "{tmp}/clusters.json", "--lexicon"],
            ": entry 'park' must be a list",
        ),
        (
            "not_utf8.ndjson",
            SESSIONS_THEN_BAD_BYTE,
            ["eval", "--folds", "2", "--reduced"],
            ":101: " + NOT_UTF8,
        ),
        (
            "not_utf8.tsv",
            "".join(f"a{i:04d}\tb{i:04d}\t3\n" for i in range(1000)).encode() + b"x\xff\ty\t3\n",
            ["cluster", "--out", "{tmp}/clusters.json", "--graph"],
            ":1001: " + NOT_UTF8,
        ),
        (
            "not_utf8_log.tsv",
            b"AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
            + b"1\tpark\t2006-03-01 09:00:00\t\t\n" * 400
            + b"1\tp\xffrk\t2006-03-01 09:05:00\t\t\n",
            ["reduce", "--ontology", "{ontology}", "--out", "{tmp}/reduced.ndjson", "--log"],
            ": " + NOT_UTF8,
        ),
        (
            "not_utf8_ontology.json",
            b'{"root": "root",' + b" " * 9000 + b'"classes": ["\xff"]}',
            ["ont-metrics", "--ontology"],
            ("cannot parse ontology file {path}: " + NOT_UTF8,),
        ),
        (
            "not_utf8_lexicon.json",
            b'{"park": ["' + b"green " * 1500 + b'\xff"]}',
            ["reduce", "--ontology", "{ontology}", "--log", "{data}/search_log.tsv",
             "--out", "{tmp}/reduced.ndjson", "--lexicon"],
            ("cannot parse lexicon file {path}: " + NOT_UTF8,),
        ),
        (
            "extra_data.ndjson",
            GOOD_SESSION + "\n" + GOOD_SESSION.replace("u1", "u2") + ' {"user": "u3"}\n',
            ["eval", "--folds", "2", "--reduced"],
            ":2:",
        ),
        (
            "array_line.ndjson",
            GOOD_SESSION + "\n[" + GOOD_SESSION.replace("u1", "u2") + "]\n",
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2: session must be a JSON object",
        ),
        (
            "queries_number.ndjson",
            GOOD_SESSION + '\n{"queries": 5, "session_id": "u2#1", "user": "u2"}\n',
            ["eval", "--folds", "2", "--reduced"],
            ":2: queries must be a list",
        ),
        (
            "query_string.ndjson",
            GOOD_SESSION + '\n{"queries": ["park"], "session_id": "u2#1", "user": "u2"}\n',
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2: each query must be a JSON object",
        ),
        (
            "query_object.ndjson",
            GOOD_SESSION + '\n{"queries": {"text": "x"}, "session_id": "u2#1", "user": "u2"}\n',
            ["eval", "--folds", "2", "--reduced"],
            ":2: queries must be a list",
        ),
        (
            "string_line.ndjson",
            GOOD_SESSION + '\n"u2#1"\n',
            ["graph", "--out", "{tmp}/graph.tsv", "--reduced"],
            ":2: session must be a JSON object",
        ),
        (
            "duplicate_id.json",
            json.dumps(_with_class(_PARK)),
            ["ont-metrics", "--ontology"],
            ": duplicate class id 'park'",
        ),
        (
            "bad_lemma.json",
            json.dumps(_with_class({**_PARK, "id": "lawn", "annotations": [
                {"surface": "Lawn", "lemmas": ["Lawn"]}]})),
            ["ont-metrics", "--ontology"],
            ": class 'lawn': lemma 'Lawn' must be lowercase without whitespace",
        ),
        (
            "cycle.json",
            json.dumps(_with_class({**_PARK, "id": "a", "parents": ["b"]},
                                   {**_PARK, "id": "b", "parents": ["a"]})),
            ["ont-metrics", "--ontology"],
            ": cycle or unreachable classes detected: ['a', 'b']",
        ),
        (
            "dangling_parent.json",
            json.dumps(_with_class({**_PARK, "id": "lawn", "parents": ["nowhere"]})),
            ["ont-metrics", "--ontology"],
            ": class 'lawn' references undefined parent 'nowhere'",
        ),
        (
            "lexicon_root.json",
            '{"park": ["green space"], "thing": ["anything at all"]}\n',
            ["reduce", "--ontology", "{ontology}", "--log", "{data}/search_log.tsv",
             "--out", "{tmp}/reduced.ndjson", "--lexicon"],
            ": lexicon maps the root class 'thing', which is never indexed",
        ),
        (
            "lexicon_undefined.json",
            '{"park": ["green space"], "nope": ["x"], "gone": ["y"]}\n',
            ["suggest", "--ontology", "{ontology}", "--query", "park",
             "--clusters", "{tmp}/clusters.json", "--lexicon"],
            ": lexicon references undefined classes: ['gone', 'nope']",
        ),
        (
            "two_line_merge.ndjson",
            "".join(line + "\n" for line in TWO_LINE_MERGE),
            ["eval", "--folds", "2", "--reduced"],
            ":1: Extra data",
        ),
        (
            "deep.ndjson",
            GOOD_SESSION + "\n" + DEEP_JSON + "\n",
            ["eval", "--folds", "2", "--reduced"],
            ":2: ",
        ),
        (
            "deep_clusters.json",
            DEEP_JSON,
            ["suggest", "--ontology", "{ontology}", "--query", "park", "--clusters"],
            ": top level: ",
        ),
        (
            "deep_ontology.json",
            DEEP_JSON,
            ["ont-metrics", "--ontology"],
            ("cannot parse ontology file {path}: ",),
        ),
        (
            "deep_lexicon.json",
            '{"park": ' + DEEP_JSON + "}",
            ["reduce", "--ontology", "{ontology}", "--log", "{data}/search_log.tsv",
             "--out", "{tmp}/reduced.ndjson", "--lexicon"],
            ("cannot parse lexicon file {path}: ",),
        ),
    ],
    ids=[
        "reduced-missing-queries",
        "reduced-duplicate-session",
        "graph-bad-weight",
        "clusters-missing-id",
        "reduced-concepts-not-a-list",
        "reduced-empty-queries",
        "graph-repeated-pair",
        "clusters-members-not-a-list",
        "clusters-duplicate-id",
        "reduced-session-id-not-a-string",
        "reduced-user-not-a-string",
        "reduced-concept-not-a-string",
        "clusters-id-a-string",
        "clusters-id-a-boolean",
        "clusters-member-not-a-string",
        "reduced-query-text-not-a-string",
        "reduced-bad-timestamp",
        "reduced-timestamp-not-a-string",
        "reduced-query-missing-ts",
        "lexicon-not-json",
        "lexicon-entry-not-a-list",
        "reduced-not-utf8",
        "graph-not-utf8",
        "log-not-utf8",
        "ontology-not-utf8",
        "lexicon-not-utf8",
        "reduced-extra-data",
        "reduced-line-is-an-array",
        "reduced-queries-a-number",
        "reduced-query-a-string",
        "reduced-queries-an-object",
        "reduced-line-is-a-string",
        "ontology-duplicate-id",
        "ontology-bad-lemma",
        "ontology-cycle",
        "ontology-dangling-parent",
        "lexicon-maps-the-root",
        "lexicon-undefined-classes",
        "reduced-two-line-merge",
        "reduced-deep-nesting",
        "clusters-deep-nesting",
        "ontology-deep-nesting",
        "lexicon-deep-nesting",
    ],
)
def test_malformed_artifact_exits_1_with_location(
    tmp_path, ontology_file, capsys, name, text, argv, where
):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    argv = [a.format(tmp=tmp_path, ontology=ontology_file, data=DATA) for a in argv]
    argv.append(str(path))
    assert main(argv) == 1
    err = capsys.readouterr().err
    # A string follows the path; a tuple lists parts of the message around it.
    for part in where if isinstance(where, tuple) else ("{path}" + where,):
        assert part.format(path=path) in err
    assert "Traceback" not in err


def test_graph_with_a_tab_in_a_concept_id_exits_1_and_writes_nothing(tmp_path, capsys):
    lawn = {**_PARK, "id": "a\tb", "annotations": [{"surface": "lawn", "lemmas": ["lawn"]}]}
    ontology = tmp_path / "ontology.json"
    ontology.write_text(json.dumps(_with_class(lawn)), encoding="utf-8")
    log = tmp_path / "log.tsv"
    write_log(log, [(user, "lawn park", "2006-03-01 09:00:00", "", "") for user in ("u1", "u2")])
    reduced, graph = tmp_path / "reduced.ndjson", tmp_path / "graph.tsv"
    assert main(["reduce", "--log", str(log), "--ontology", str(ontology), "--out", str(reduced)]) == 0
    assert main(["graph", "--reduced", str(reduced), "--out", str(graph)]) == 1
    err = capsys.readouterr().err
    assert "graph: cannot write edge 'a\\tb' 'park' with weight 2" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "log.tsv", "ontology.json", "reduced.ndjson", "reduced.ndjson.meta.json"
    ]


@pytest.fixture(scope="module")
def demo_inputs(tmp_path_factory):
    """The demo corpus, its reduced file, graph and clusters, and two config files."""
    out = tmp_path_factory.mktemp("demo-inputs")
    for path in DATA.iterdir():
        shutil.copy(path, out)
    argvs = _stage_argvs(out / "search_log.tsv", out)
    for command in ("reduce", "graph", "cluster"):
        assert main(argvs[command]) == 0
    (out / "run.json").write_text('{"seed": 7, "gap_minutes": 15}', encoding="utf-8")
    (out / "run.cfg").write_text("seed=7\ngap_minutes=15\n", encoding="utf-8")
    return out


@pytest.mark.parametrize(
    "reader, name",
    [
        (parse_log, "search_log.tsv"),
        (load_ontology, "city_ontology.json"),
        (load_lexicon, "lexicon.json"),
        (read_reduced_ndjson, "reduced.ndjson"),
        (read_graph_tsv, "graph.tsv"),
        (read_clusters_json, "clusters.json"),
        (load_config_file, "run.json"),
        (load_config_file, "run.cfg"),
    ],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_leading_byte_order_mark_is_dropped(demo_inputs, tmp_path, reader, name):
    marked = tmp_path / name
    marked.write_bytes(BOM_UTF8 + (demo_inputs / name).read_bytes())
    assert reader(marked) == reader(demo_inputs / name)


@pytest.mark.parametrize("command, out", [("eval", "report.json"), ("graph", "graph.tsv")])
def test_eval_and_graph_read_the_reduced_file_once_without_queries(
    demo_inputs, tmp_path, monkeypatch, capsys, command, out
):
    # The read is the benchmark's set-up mark of `eval --reduced`: one call.
    read, calls = cosuggest.cli.read_reduced_ndjson, []

    def recorded(*args, **kwargs):
        calls.append(read(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cosuggest.cli, "read_reduced_ndjson", recorded)
    reduced = str(demo_inputs / "reduced.ndjson")
    assert main([command, "--reduced", reduced, "--out", str(tmp_path / out)]) == 0
    [dataset] = calls
    assert dataset.sessions
    assert {(s.texts, s.timestamps) for s in dataset.sessions} == {((), ())}


def test_concept_only_read_measures_the_demo_dataset_alike(demo_inputs):
    full = read_reduced_ndjson(demo_inputs / "reduced.ndjson")
    lean = read_reduced_ndjson(demo_inputs / "reduced.ndjson", queries=False)
    assert lean.stats == full.stats
    assert session_length_stats(lean) == session_length_stats(full)

    def fold_ids(ds, k, seed):
        return [[s.session_id for s in fold] for fold in make_folds(ds, k, seed)]

    for k, seed in ((3, 42), (5, 7)):
        assert fold_ids(lean, k, seed) == fold_ids(full, k, seed)


# ------------------------------------------------------ garbage collector

@pytest.fixture
def gc_state():
    """Start with the collector on; leave it as the test found it."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def _stage_argvs(log, tmp_path):
    ontology, lexicon = str(DATA / "city_ontology.json"), str(DATA / "lexicon.json")
    reduced, graph = tmp_path / "reduced.ndjson", tmp_path / "graph.tsv"
    return {
        "reduce": ["reduce", "--log", str(log), "--ontology", ontology,
                   "--lexicon", lexicon, "--out", str(reduced)],
        "graph": ["graph", "--reduced", str(reduced), "--out", str(graph)],
        "cluster": ["cluster", "--graph", str(graph), "--out", str(tmp_path / "clusters.json")],
        "eval": ["eval", "--reduced", str(reduced), "--folds", "5",
                 "--out", str(tmp_path / "report.json")],
    }


def test_main_reenables_gc_after_every_exit(gc_state, tmp_path, monkeypatch, capsys):
    argvs = _stage_argvs(DATA / "search_log.tsv", tmp_path)
    for command, argv in argvs.items():
        assert main(argv) == 0, command
        assert gc.isenabled(), command
    assert main(["eval"]) == 2
    assert gc.isenabled()
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{}\n", encoding="utf-8")
    assert main(["graph", "--reduced", str(bad), "--out", str(tmp_path / "g.tsv")]) == 1
    assert gc.isenabled()

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cosuggest.cli, "run_experiment_on_dataset", boom)
    with pytest.raises(RuntimeError, match="boom"):
        main(argvs["eval"])
    assert gc.isenabled()


def test_main_leaves_a_disabled_gc_disabled(gc_state, tmp_path, capsys):
    gc.disable()
    argvs = _stage_argvs(DATA / "search_log.tsv", tmp_path)
    assert main(argvs["reduce"]) == 0
    assert not gc.isenabled()
    assert main(["eval"]) == 2
    assert not gc.isenabled()


@pytest.mark.parametrize(
    "handler, argv",
    [
        ("cmd_reduce", ["reduce"]),
        ("cmd_graph", ["graph"]),
        ("cmd_cluster", ["cluster"]),
        ("cmd_eval", ["eval"]),
        ("cmd_suggest", ["suggest", "--query", "parks"]),
        ("cmd_ont_metrics", ["ont-metrics"]),
    ],
)
def test_every_handler_runs_with_gc_paused(gc_state, monkeypatch, handler, argv):
    seen = []

    def spy(args, config):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cosuggest.cli, handler, spy)
    assert main(argv) == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_keep_the_callers_gc_state(gc_state, tmp_path, enabled):
    if not enabled:
        gc.disable()
    config = PipelineConfig(
        log_path=str(DATA / "search_log.tsv"),
        ontology_path=str(DATA / "city_ontology.json"),
        lexicon_path=str(DATA / "lexicon.json"),
        folds=5,
    )
    ds = cosuggest.evaluation.reduce_from_config(config)
    assert gc.isenabled() is enabled
    cosuggest.evaluation.run_experiment_on_dataset(ds, config)
    assert gc.isenabled() is enabled
    # The online path: what `suggest` loads before it answers.
    ont = cosuggest.load_ontology(config.ontology_path)
    assert gc.isenabled() is enabled
    ont = cosuggest.subset_by_facet(ont, {"administrative"})
    assert gc.isenabled() is enabled
    cosuggest.ConceptMatcher.from_ontology(ont)
    assert gc.isenabled() is enabled
    clusters = tmp_path / "clusters.json"
    clusters.write_text('{"clusters": [{"id": 0, "members": ["park"]}]}', encoding="utf-8")
    cosuggest.read_clusters_json(clusters)
    assert gc.isenabled() is enabled


def _seeded_log(path, seed, n_rows):
    """A log of ``n_rows`` demo query texts by random users at random times."""
    lines = (DATA / "search_log.tsv").read_text(encoding="utf-8").splitlines()
    texts = sorted({line.split("\t")[1] for line in lines[1:]})
    rng = random.Random(seed)
    rows = []
    for i in range(n_rows):
        stamp = datetime(2006, 3, 1) + timedelta(minutes=3 * i + rng.randrange(60))
        rows.append((f"u{rng.randrange(n_rows // 6)}", rng.choice(texts), str(stamp), "", ""))
    write_log(path, rows)


def _seeded_ontology(path, seed, n_extra):
    """The demo ontology plus ``n_extra`` random classes under it, each with
    phrases of its own, so the demo queries match what they matched before."""
    payload = json.loads((DATA / "city_ontology.json").read_text(encoding="utf-8"))
    classes = payload["classes"]
    rng = random.Random(seed)
    for i in range(n_extra):
        parents = rng.sample([c["id"] for c in classes[-200:]], rng.randint(1, 2))
        classes.append({
            "id": f"x{i}", "label": f"Extra {i}", "parents": parents,
            "facet": rng.choice([None, "natural", "artificial", "administrative"]),
            "annotations": [{"surface": f"x{i} y", "lemmas": [f"x{i}", "y"]}],
        })
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_batch_stages_leave_no_garbage_that_grows_with_input(gc_state, tmp_path, capsys):
    """With the collector paused, what a stage leaves for it must not scale."""

    def garbage_per_stage(log, ontology, workdir):
        workdir.mkdir()
        argvs = _stage_argvs(log, workdir)
        argvs["suggest"] = ["suggest", "--ontology", str(ontology), "--lexicon",
                            str(DATA / "lexicon.json"), "--clusters",
                            str(workdir / "clusters.json"), "--query", "parks and playgrounds"]
        argvs["ont-metrics"] = ["ont-metrics", "--ontology", str(ontology)]
        found = {}
        for command, argv in argvs.items():
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0, command
                found[command] = gc.collect()
            finally:
                gc.enable()
        sessions = len((workdir / "reduced.ndjson").read_text(encoding="utf-8").splitlines())
        return found, sessions

    demo_ontology = DATA / "city_ontology.json"
    small, small_sessions = garbage_per_stage(
        DATA / "search_log.tsv", demo_ontology, tmp_path / "demo"
    )
    big_log, big_ontology = tmp_path / "big.tsv", tmp_path / "big_ontology.json"
    _seeded_log(big_log, seed=5, n_rows=400)
    _seeded_ontology(big_ontology, seed=5, n_extra=1000)
    big, big_sessions = garbage_per_stage(big_log, big_ontology, tmp_path / "big")
    assert big_sessions >= 4 * small_sessions
    n_classes = [len(json.loads(p.read_text(encoding="utf-8"))["classes"])
                 for p in (demo_ontology, big_ontology)]
    assert n_classes[1] >= 50 * n_classes[0]
    assert big == small
