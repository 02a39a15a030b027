import random
import re
from itertools import combinations

import pytest

from cosuggest.cooccurrence import (
    CooccurrenceGraph,
    build_graph,
    prune,
    read_graph_tsv,
    write_graph_tsv,
)

from cosuggest.evaluation import make_folds

from conftest import make_dataset, topic_dataset


def test_build_graph_counts_session_pairs():
    ds = make_dataset(
        {
            "u1#1": [{"A", "B"}],
            "u2#1": [{"A"}, {"B"}],
            "u3#1": [{"A", "C"}],
        }
    )
    g = build_graph(ds.sessions)
    assert g.edges == {("A", "B"): 2, ("A", "C"): 1}


def test_single_concept_session_contributes_nothing():
    g = build_graph(make_dataset({"u1#1": [{"A"}]}).sessions)
    assert g.nodes == set() and g.edges == {}


def test_repeated_concept_no_self_loop():
    g = build_graph(make_dataset({"u1#1": [{"A"}, {"A"}]}).sessions)
    assert g.edges == {}


def test_edge_weight_symmetric_storage():
    g = build_graph(make_dataset({"u1#1": [{"B"}, {"A"}]}).sessions)
    assert g.edges == {("A", "B"): 1}


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
        assert g.edges.get((x, y), 0) == expected


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


def test_full_minus_fold_graph_equals_training_graph():
    zeroed_edges = vanished_nodes = 0
    for seed in range(24):
        ds = topic_dataset(seed, 30 + 5 * seed)
        full = build_graph(ds.sessions)
        for test_sessions in make_folds(ds, 3 + seed % 4, seed):
            test_ids = {s.session_id for s in test_sessions}
            held_out = build_graph(test_sessions)
            rebuilt = build_graph(s for s in ds.sessions if s.session_id not in test_ids)
            train = full - held_out
            assert train.edges == rebuilt.edges and train.nodes == rebuilt.nodes
            zeroed_edges += len(set(full.edges) - set(train.edges))
            vanished_nodes += len(full.nodes - train.nodes)
    assert zeroed_edges and vanished_nodes  # both cases were exercised


def test_subtracting_a_graph_that_is_not_a_subset_raises():
    g = build_graph(make_dataset({"u1#1": [{"A", "B"}], "u2#1": [{"A", "B", "C"}]}).sessions)
    heavier = CooccurrenceGraph({("A", "B"): 3})
    missing = CooccurrenceGraph({("B", "D"): 1})
    for other in (heavier, missing):
        with pytest.raises(ValueError):
            g - other
    assert (g - g).edges == {} and (g - g).nodes == set()


def test_fold_graphs_plus_never_held_out_sessions_sum_to_full_graph():
    """Each session counted once, in its fold's graph or, never held out, in the rest."""
    single_query_pairs = 0
    for seed in range(24):
        ds = topic_dataset(seed, 30 + 5 * seed)
        folds = make_folds(ds, 3 + seed % 4, seed)
        held_ids = {s.session_id for fold in folds for s in fold}
        never_held_out = [s for s in ds.sessions if s.session_id not in held_ids]
        single_query_pairs += sum(
            len(s.texts) == 1 and len(s.concepts[0]) >= 2 for s in never_held_out
        )
        total = build_graph(never_held_out)
        for test_sessions in folds:
            total = total + build_graph(test_sessions)
        full = build_graph(ds.sessions)
        assert total.edges == full.edges and total.nodes == full.nodes
    assert single_query_pairs  # sessions that are never held out added edges


def test_adding_graphs_adds_weights():
    a = build_graph(make_dataset({"u1#1": [{"A", "B"}], "u2#1": [{"A", "B", "C"}]}).sessions)
    b = CooccurrenceGraph({("A", "B"): 3, ("C", "D"): 1})
    a_edges, b_edges = dict(a.edges), dict(b.edges)
    total = a + b
    assert total.edges == {("A", "B"): 5, ("A", "C"): 1, ("B", "C"): 1, ("C", "D"): 1}
    assert total.nodes == {"A", "B", "C", "D"}
    assert (b + a).edges == total.edges
    assert a.edges == a_edges and b.edges == b_edges  # operands left alone
    assert (a + CooccurrenceGraph()).edges == a.edges
    assert (CooccurrenceGraph() + CooccurrenceGraph()).edges == {}
    assert (total - b).edges == a.edges and (total - a).edges == b.edges


def test_sum_of_random_session_graphs_equals_graph_of_their_union():
    rng = random.Random(11)
    sessions = _random_sessions(rng, 150)
    cut = sorted(rng.sample(range(len(sessions)), 4))
    parts = [sessions[a:b] for a, b in zip([0, *cut], [*cut, len(sessions)])]
    total = sum((build_graph(part) for part in parts), CooccurrenceGraph())
    assert total.edges == build_graph(sessions).edges


def _mutate_graph_lines(rng, lines):
    """Duplicate or reorder rows, or add a blank line, a CR, a field, or
    drop the last line feed."""
    kind = rng.randrange(6)
    if kind == 0:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif kind == 1:
        lines.reverse()
    elif kind == 2:
        lines.append("\n")
    elif kind == 3:
        lines[-1] = lines[-1].rstrip("\n")
    elif kind == 4:
        lines[0] = lines[0].replace("\n", "\r\n")
    else:
        lines[0] += "\t"


# Characters put at a random place of a random line: each gives a file that
# must be rejected or read as a graph that writes back to the same bytes.
GRAPH_NOISE = ("\t", "\r", " ", "0", "_", "+", "a", "z", "\x85", " ", "３")


def test_graph_tsv_reader_accepts_only_what_the_writer_writes(tmp_path):
    path, again = tmp_path / "graph.tsv", tmp_path / "again.tsv"
    rejected = rewritten = 0
    for seed in range(300):
        rng = random.Random(seed)
        write_graph_tsv(build_graph(_random_sessions(rng, 12)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True) or ["a\tb\t1\n"]
        if rng.random() < 0.4:
            _mutate_graph_lines(rng, lines)
        else:
            at = rng.randrange(len(lines))
            cut = rng.randrange(len(lines[at]) + 1)
            lines[at] = lines[at][:cut] + rng.choice(GRAPH_NOISE) + lines[at][cut:]
        data = "".join(lines).encode()
        path.write_bytes(data)
        try:
            graph = read_graph_tsv(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
            rejected += 1
            continue
        write_graph_tsv(graph, again)
        assert again.read_bytes() == data
        rewritten += 1
    assert rejected > 100 and rewritten > 20


@pytest.mark.parametrize(
    "text",
    [
        "\tc\t2\n",  # an empty id
        "a\tb\t 3\n",
        "a\tb\t1_0\n",
        "a\tb\t03\n",
        "a\tb\t0\n",
        "a\tb\t３\n",
        "b\ta\t1\n",  # a pair out of order
        "a\tb\t1\na\tb\t2\n",  # a pair twice
        "a\tc\t1\na\tb\t1\n",  # rows out of order
        "a\tb\t1\n\n",
        "a\tb\t1\r\n",
        "a\tb\t1",
    ],
)
def test_graph_tsv_rejects_what_no_writer_writes(tmp_path, text):
    path = tmp_path / "graph.tsv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:\d+: "):
        read_graph_tsv(path)


def test_graph_writer_refuses_what_the_reader_cannot_read_back(tmp_path):
    path = tmp_path / "graph.tsv"
    refused = written = 0
    for seed in range(300):
        rng = random.Random(seed)
        edges = {}
        for _ in range(rng.randint(1, 3)):
            pair = rng.sample(("a", "b", "é", "x") + rng.choice(((), ("", "a\tb", "c\r", "d\n"))), 2)
            if rng.random() < 0.8:
                pair.sort()
            edges[tuple(pair)] = rng.choice((1, 2, 3, 0, -1) if rng.random() < 0.2 else (1, 2, 3))
        try:
            write_graph_tsv(CooccurrenceGraph(edges), path)
        except ValueError as exc:
            assert str(exc).startswith("cannot write edge ")
            refused += 1
            continue
        assert read_graph_tsv(path).edges == edges
        written += 1
    assert written > 20 and refused > 20
