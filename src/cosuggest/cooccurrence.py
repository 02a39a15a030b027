"""Session-level concept co-occurrence graph: construction and pruning.

Edges are undirected; the weight of an edge counts the sessions in which
both endpoint concepts were referenced (anywhere within the session).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from cosuggest.log_pipeline import SearchSession


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass
class CooccurrenceGraph:
    """Undirected weighted graph over concept ids; pairs stored canonically."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def weight(self, a: str, b: str) -> int:
        return self.edges.get(_pair(a, b), 0)

    def add_edge(self, a: str, b: str, weight: int = 1) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r} is not allowed")
        if weight < 1:
            raise ValueError("edge weight must be >= 1")
        self.nodes.add(a)
        self.nodes.add(b)
        key = _pair(a, b)
        self.edges[key] = self.edges.get(key, 0) + weight

    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        """Neighbor lists sorted by neighbor id, for deterministic iteration."""
        adj: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nodes}
        for (a, b), w in self.edges.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        for lst in adj.values():
            lst.sort()
        return adj

    def __len__(self) -> int:
        return len(self.nodes)


def build_graph(sessions: Iterable[SearchSession]) -> CooccurrenceGraph:
    """Accumulate +1 per session onto every unordered pair of its distinct concepts.

    Sessions referencing fewer than two distinct concepts contribute nothing;
    duplicate references within a session count once (no self-loops).
    """
    graph = CooccurrenceGraph()
    for session in sessions:
        for a, b in combinations(sorted(set().union(*session.concepts)), 2):
            graph.add_edge(a, b)
    return graph


def prune(g: CooccurrenceGraph, min_weight: int) -> CooccurrenceGraph:
    """Drop edges lighter than ``min_weight``, then drop isolated nodes."""
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    kept = {pair: w for pair, w in g.edges.items() if w >= min_weight}
    nodes = {n for pair in kept for n in pair}
    return CooccurrenceGraph(nodes=nodes, edges=kept)


def write_graph_tsv(g: CooccurrenceGraph, path: str | Path) -> None:
    """Dump edges as ``concept_a\\tconcept_b\\tweight``, sorted for stable bytes."""
    with open(path, "w", encoding="utf-8") as handle:
        for (a, b) in sorted(g.edges):
            handle.write(f"{a}\t{b}\t{g.edges[(a, b)]}\n")


def read_graph_tsv(path: str | Path) -> CooccurrenceGraph:
    graph = CooccurrenceGraph()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            a, b, raw_w = fields
            try:
                graph.add_edge(a, b, int(raw_w))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return graph
