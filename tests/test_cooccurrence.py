import random
from itertools import combinations

import pytest

from cosuggest.cooccurrence import (
    CooccurrenceGraph,
    build_graph,
    prune,
    read_graph_tsv,
    write_graph_tsv,
)

from conftest import make_dataset


def test_build_graph_counts_session_pairs():
    ds = make_dataset(
        {
            "u1#1": [{"A", "B"}],
            "u2#1": [{"A"}, {"B"}],
            "u3#1": [{"A", "C"}],
        }
    )
    g = build_graph(ds.sessions)
    assert g.weight("A", "B") == 2
    assert g.weight("A", "C") == 1
    assert g.weight("B", "C") == 0


def test_single_concept_session_contributes_nothing():
    g = build_graph(make_dataset({"u1#1": [{"A"}]}).sessions)
    assert g.nodes == set() and g.edges == {}


def test_repeated_concept_no_self_loop():
    g = build_graph(make_dataset({"u1#1": [{"A"}, {"A"}]}).sessions)
    assert g.edges == {}
    with pytest.raises(ValueError):
        CooccurrenceGraph().add_edge("A", "A")


def test_edge_weight_symmetric_storage():
    g = CooccurrenceGraph()
    g.add_edge("B", "A")
    assert g.weight("A", "B") == 1
    assert ("A", "B") in g.edges


def test_prune_identity_at_one():
    g = build_graph(make_dataset({"u1#1": [{"A", "B"}], "u2#1": [{"A", "C"}]}).sessions)
    pruned = prune(g, 1)
    assert pruned.edges == g.edges and pruned.nodes == g.nodes


def test_prune_threshold_removes_edge_and_isolated_node():
    ds = make_dataset({"u1#1": [{"A", "B"}], "u2#1": [{"A", "B"}], "u3#1": [{"A", "C"}]})
    pruned = prune(build_graph(ds.sessions), 2)
    assert pruned.edges == {("A", "B"): 2}
    assert pruned.nodes == {"A", "B"}


def test_prune_everything():
    g = build_graph(make_dataset({"u1#1": [{"A", "B"}]}).sessions)
    pruned = prune(g, 99)
    assert pruned.nodes == set() and pruned.edges == {}


def test_prune_rejects_bad_threshold():
    with pytest.raises(ValueError):
        prune(CooccurrenceGraph(), 0)


def _random_sessions(rng: random.Random, n_sessions: int):
    universe = [f"c{i}" for i in range(10)]
    data = {}
    for i in range(n_sessions):
        n_queries = rng.randint(1, 4)
        data[f"u{i}#1"] = [
            set(rng.sample(universe, rng.randint(0, 3))) for _ in range(n_queries)
        ]
    return make_dataset(data).sessions


def test_weights_match_brute_force_on_random_sessions():
    rng = random.Random(42)
    sessions = _random_sessions(rng, 200)
    g = build_graph(sessions)
    unions = {s.session_id: set().union(*s.concepts) for s in sessions}
    universe = sorted({c for u in unions.values() for c in u})
    for x, y in combinations(universe, 2):
        expected = sum(1 for u in unions.values() if x in u and y in u)
        assert g.weight(x, y) == expected


def test_prune_idempotent_for_thresholds_one_to_five():
    g = build_graph(_random_sessions(random.Random(7), 120))
    for threshold in range(1, 6):
        once = prune(g, threshold)
        twice = prune(once, threshold)
        assert once.edges == twice.edges and once.nodes == twice.nodes


def test_graph_tsv_roundtrip(tmp_path):
    g = build_graph(_random_sessions(random.Random(3), 50))
    path = tmp_path / "graph.tsv"
    write_graph_tsv(g, path)
    loaded = read_graph_tsv(path)
    assert loaded.edges == g.edges and loaded.nodes == g.nodes
    write_graph_tsv(g, tmp_path / "again.tsv")
    assert path.read_bytes() == (tmp_path / "again.tsv").read_bytes()


def test_graph_tsv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("A\tB\n", encoding="utf-8")
    with pytest.raises(ValueError, match="3 tab-separated"):
        read_graph_tsv(path)
