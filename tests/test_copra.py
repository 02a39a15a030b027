import dataclasses
import json
import re
import random
from itertools import combinations

import pytest

from cosuggest.cooccurrence import CooccurrenceGraph
from cosuggest.copra import (
    ClusterStats,
    ConceptCluster,
    ConceptClusters,
    CopraConfig,
    CopraResult,
    cluster_stats,
    copra_cluster,
    read_clusters_json,
    write_clusters_json,
)


def _clique_graph(*cliques: tuple[str, ...]) -> CooccurrenceGraph:
    return CooccurrenceGraph(
        {pair: 1 for clique in cliques for pair in combinations(sorted(clique), 2)}
    )


def _member_sets(result):
    return {tuple(sorted(c.members)) for c in result.clusters}


# ------------------------------------------------------------ small goldens

def test_single_edge_one_cluster():
    for seed in range(20):
        g = CooccurrenceGraph({("A", "B"): 1})
        result = copra_cluster(g, CopraConfig(v=1, seed=seed))
        assert _member_sets(result) == {("A", "B")}
        assert result.converged


def _modularity(partition: list[set[str]], g: CooccurrenceGraph) -> float:
    m = sum(g.edges.values())
    degree = {n: 0 for n in g.nodes}
    for (a, b), w in g.edges.items():
        degree[a] += w
        degree[b] += w
    q = 0.0
    for community in partition:
        internal = sum(
            w for (a, b), w in g.edges.items() if a in community and b in community
        )
        total_degree = sum(degree[n] for n in community)
        q += internal / m - (total_degree / (2 * m)) ** 2
    return q


def _all_partitions(items: list[str]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] | {head}] + partition[i + 1:]
        yield partition + [{head}]


def test_two_triangles_match_max_modularity_partition():
    g = _clique_graph(("a", "b", "c"), ("d", "e", "f"))
    # Exhaustive oracle: the max-modularity partition of the 6 nodes.
    best = max(_all_partitions(sorted(g.nodes)), key=lambda p: _modularity(p, g))
    expected = {tuple(sorted(c)) for c in best}
    assert expected == {("a", "b", "c"), ("d", "e", "f")}

    result = copra_cluster(g, CopraConfig(v=1, seed=0))
    assert _member_sets(result) == expected


def test_bridge_with_overlap_budget_two():
    g = _clique_graph(("a", "b", "c"), ("d", "e", "f"))
    g.edges["c", "d"] = 1
    result = copra_cluster(g, CopraConfig(v=2, seed=7))
    membership: dict[str, int] = {}
    for cluster in result.clusters:
        for node in cluster.members:
            membership[node] = membership.get(node, 0) + 1
    assert set(membership) == set(g.nodes)
    assert all(1 <= count <= 2 for count in membership.values())


# ------------------------------------------------------------- invariants

def test_disjoint_cliques_recovered_for_many_seeds():
    for k in (3, 4, 5):
        left = tuple(f"l{i}" for i in range(k))
        right = tuple(f"r{i}" for i in range(k))
        for seed in range(50):
            g = _clique_graph(left, right)
            result = copra_cluster(g, CopraConfig(v=1, max_iterations=100, seed=seed))
            assert _member_sets(result) == {tuple(sorted(left)), tuple(sorted(right))}, (
                f"k={k} seed={seed}"
            )
            assert result.converged


def test_coefficients_sum_to_one_every_iteration():
    g = _clique_graph(("a", "b", "c", "d"), ("e", "f", "g"))
    g.edges["d", "e"] = 1
    deviations = []

    def check(iteration, labels):
        for vertex, vertex_labels in labels.items():
            deviations.append(abs(sum(vertex_labels.values()) - 1.0))

    copra_cluster(g, CopraConfig(v=2, seed=3), on_iteration=check)
    assert deviations and max(deviations) < 1e-9


def test_every_vertex_in_at_most_v_clusters():
    rng = random.Random(9)
    for trial in range(20):
        nodes = [f"n{i}" for i in range(rng.randint(4, 12))]
        g = CooccurrenceGraph(
            {pair: rng.randint(1, 4) for pair in combinations(nodes, 2) if rng.random() < 0.4}
        )
        if not g.nodes:
            continue
        for v in (1, 2, 3):
            result = copra_cluster(g, CopraConfig(v=v, seed=trial))
            counts: dict[str, int] = {}
            for cluster in result.clusters:
                for node in cluster.members:
                    counts[node] = counts.get(node, 0) + 1
            assert set(counts) == set(g.nodes)
            assert all(1 <= c <= v for c in counts.values())


def test_fixed_seed_is_bit_for_bit_deterministic():
    g = _clique_graph(("a", "b", "c"), ("c", "d", "e"))
    first = copra_cluster(g, CopraConfig(v=2, seed=123))
    second = copra_cluster(g, CopraConfig(v=2, seed=123))
    assert first.clusters == second.clusters
    assert first.iterations == second.iterations
    assert first.converged == second.converged


def test_nonconvergence_reports_flag():
    g = _clique_graph(("a", "b", "c"))
    result = copra_cluster(g, CopraConfig(v=1, max_iterations=1, seed=0))
    assert result.iterations == 1
    assert result.converged is False
    assert result.clusters  # current state still returned


def test_empty_graph_rejected():
    with pytest.raises(ValueError, match="empty graph"):
        copra_cluster(CooccurrenceGraph(), CopraConfig())


def test_subset_clusters_absorbed():
    # Every cluster in the output must not be a strict subset of another.
    rng = random.Random(31)
    for trial in range(10):
        nodes = [f"n{i}" for i in range(8)]
        g = CooccurrenceGraph({pair: 1 for pair in combinations(nodes, 2) if rng.random() < 0.5})
        if not g.nodes:
            continue
        result = copra_cluster(g, CopraConfig(v=3, seed=trial))
        members = [c.members for c in result.clusters]
        for x in members:
            assert not any(x < y for y in members)


def test_config_validation():
    with pytest.raises(ValueError):
        CopraConfig(v=0)
    with pytest.raises(ValueError):
        CopraConfig(max_iterations=0)


# ------------------------------------------------------------- statistics

def test_cluster_stats_empty():
    assert cluster_stats(ConceptClusters()) == ClusterStats(0, 0, 0, 0.0, 0)


def test_cluster_stats_overlap():
    clusters = ConceptClusters(
        [ConceptCluster(0, frozenset({"A", "B"})), ConceptCluster(1, frozenset({"B", "C"}))]
    )
    stats = cluster_stats(clusters)
    assert stats.count == 2
    assert stats.size_mean == pytest.approx(2.0)
    assert stats.overlap_count == 1

    # Oracle: count each concept's clusters directly, over random overlapping clusters.
    rng = random.Random(17)
    concepts = [f"c{i}" for i in range(30)]
    for _ in range(200):
        clusters = ConceptClusters(
            ConceptCluster(i, frozenset(rng.sample(concepts, rng.randint(1, 8))))
            for i in range(rng.randint(1, 12))
        )
        homes = {c: sum(c in cluster.members for cluster in clusters) for c in concepts}
        stats = cluster_stats(clusters)
        assert stats.overlap_count == sum(1 for n in homes.values() if n > 1)
        assert stats.count == len(clusters)
        assert stats.size_max == max(len(cluster.members) for cluster in clusters)


def test_clusters_json_roundtrip(tmp_path):
    g = _clique_graph(("a", "b", "c"), ("d", "e", "f"))
    cfg = CopraConfig(v=1, seed=5)
    result = copra_cluster(g, cfg)
    path = tmp_path / "clusters.json"
    write_clusters_json(result, cfg, path)
    clusters, payload = read_clusters_json(path)
    assert clusters == result.clusters
    assert payload["config"] == {"v": 1, "max_iterations": 100, "seed": 5}
    assert payload["converged"] == result.converged
    assert payload["iterations"] == result.iterations


def test_result_converts_with_asdict():
    result = copra_cluster(_clique_graph(("a", "b", "c"), ("x", "y", "z")), CopraConfig(seed=1))
    payload = dataclasses.asdict(result)
    assert list(payload["clusters"]) == [
        {"id": 0, "members": frozenset({"a", "b", "c"})},
        {"id": 1, "members": frozenset({"x", "y", "z"})},
    ]
    assert result.clusters.postings["y"] == [1]


def _mutate_clusters(rng, payload):
    clusters = payload["clusters"]
    cluster = rng.choice(clusters)
    kind = rng.randrange(8)
    if kind == 0:
        cluster[rng.choice(("extra", "Id", "size"))] = 1
    elif kind == 1:
        del cluster[rng.choice(("id", "members"))]
    elif kind == 2:
        cluster["id"] = rng.choice((cluster["id"] + 1, -1, True, 0.0, str(cluster["id"])))
    elif kind == 3:
        cluster["members"] = cluster["members"][::-1] + rng.choice(([], ["a"]))
    elif kind == 4:
        cluster["members"] = cluster["members"] + cluster["members"][-1:]
    elif kind == 5:
        cluster["members"] = rng.choice(("a", None, [1], {"a": 1}))
    elif kind == 6:
        clusters.reverse()
    return json.dumps(payload, indent=rng.choice((None, 2)), sort_keys=rng.random() < 0.5)


def test_clusters_json_reader_accepts_only_what_the_writer_writes(tmp_path):
    path = tmp_path / "clusters.json"
    rejected = rewritten = 0
    for seed in range(200):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(3, 9))]
        g = CooccurrenceGraph({pair: 1 for pair in combinations(nodes, 2) if rng.random() < 0.5})
        if not g.edges:
            continue
        cfg = CopraConfig(v=rng.randint(1, 3), seed=seed)
        result = copra_cluster(g, cfg)
        write_clusters_json(result, cfg, path)
        written = path.read_bytes()
        clusters, payload = read_clusters_json(path)
        # What the writer wrote reads back, and writes again to the same bytes.
        result = CopraResult(clusters, payload["converged"], payload["iterations"])
        write_clusters_json(result, CopraConfig(**payload["config"]), path)
        assert path.read_bytes() == written
        text = _mutate_clusters(rng, json.loads(written))
        path.write_text(text, encoding="utf-8")
        try:
            clusters, _ = read_clusters_json(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}: clusters\[\d+\]: ", str(exc))
            rejected += 1
            continue
        # Accepted: the clusters are the same JSON value that was read.
        rewrite = [{"id": c.id, "members": sorted(c.members)} for c in clusters]
        assert rewrite == json.loads(text)["clusters"]
        rewritten += 1
    assert rejected > 50 and rewritten > 5
