"""Session-level concept co-occurrence graph: construction and pruning.

Edges are undirected; the weight of an edge counts the sessions in which
both endpoint concepts were referenced (anywhere within the session).
"""

from __future__ import annotations

from codecs import BOM_UTF8
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from cosuggest.log_pipeline import SearchSession


@dataclass
class CooccurrenceGraph:
    """Undirected weighted graph over concept ids; each pair ``(a, b)`` has ``a < b``.

    A graph is its edge weights: its nodes are the endpoints of its edges,
    so it never holds an isolated node.
    """

    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def nodes(self) -> set[str]:
        return {n for pair in self.edges for n in pair}

    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        """Neighbor lists sorted by neighbor id, for deterministic iteration."""
        adj: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nodes}
        for (a, b), w in self.edges.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        for lst in adj.values():
            lst.sort()
        return adj

    def __add__(self, other: "CooccurrenceGraph") -> "CooccurrenceGraph":
        """Weights of ``self`` plus those of ``other``, e.g. two disjoint sets of sessions.

        The sum of the graphs of disjoint session sets is the graph of their union.
        """
        edges = dict(self.edges)
        for pair, w in other.edges.items():
            edges[pair] = edges.get(pair, 0) + w
        return CooccurrenceGraph(edges)

    def __sub__(self, other: "CooccurrenceGraph") -> "CooccurrenceGraph":
        """Weights of ``self`` minus those of ``other``, e.g. all sessions minus a fold.

        Edges that reach 0 are dropped, so their endpoints go too unless another
        edge keeps them, as :func:`build_graph` of the difference would give.
        Raises ``ValueError`` when an edge of ``other`` outweighs ``self``'s.
        """
        edges = dict(self.edges)
        for pair, w in other.edges.items():
            left = edges.get(pair, 0) - w
            if left < 0:
                raise ValueError(f"cannot subtract weight {w} from edge {pair!r}")
            if left:
                edges[pair] = left
            else:
                del edges[pair]
        return CooccurrenceGraph(edges)


def build_graph(sessions: Iterable[SearchSession]) -> CooccurrenceGraph:
    """Accumulate +1 per session onto every unordered pair of its distinct concepts.

    Sessions referencing fewer than two distinct concepts contribute nothing;
    duplicate references within a session count once (no self-loops).
    """
    counts: Counter[tuple[str, str]] = Counter()
    for session in sessions:
        counts.update(combinations(sorted(set().union(*session.concepts)), 2))
    return CooccurrenceGraph(dict(counts))


def prune(g: CooccurrenceGraph, min_weight: int) -> CooccurrenceGraph:
    """Drop edges lighter than ``min_weight``; nodes left without an edge go too."""
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    return CooccurrenceGraph({pair: w for pair, w in g.edges.items() if w >= min_weight})


def write_graph_tsv(g: CooccurrenceGraph, path: str | Path) -> None:
    """Dump edges as ``concept_a\\tconcept_b\\tweight``, sorted for stable bytes.

    An edge that :func:`read_graph_tsv` could not read back raises
    ``ValueError`` naming it, before the file is opened: ids that are empty,
    not in order ``a < b``, or hold a tab, CR or LF, or a weight below 1.
    """
    rows = []
    for (a, b), w in sorted(g.edges.items()):
        if not ("" < a < b and set(a + b).isdisjoint("\t\r\n") and type(w) is int and w > 0):
            raise ValueError(f"cannot write edge {a!r} {b!r} with weight {w!r}")
        rows.append(f"{a}\t{b}\t{w}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(rows)


def read_graph_tsv(path: str | Path) -> CooccurrenceGraph:
    """Inverse of :func:`write_graph_tsv`, byte for byte.

    Each line must be ``a\\tb\\tw\\n`` with ``"" < a < b``, the pairs
    strictly ascending, and ``w`` ASCII digits without a leading zero.  Any
    other line (a blank line, a CR, a missing last line feed, or bytes that
    are not UTF-8 included) raises ``ValueError`` naming ``path:line``.  A
    leading UTF-8 byte order mark is dropped.
    """
    edges: dict[tuple[str, str], int] = {}
    last = ("", "")
    with open(path, "rb") as handle:  # decoded line by line, to name the bad one
        if handle.peek(len(BOM_UTF8)).startswith(BOM_UTF8):
            handle.read(len(BOM_UTF8))
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.endswith("\n") or "\r" in line:
                    raise ValueError("a row must end in a line feed and hold no CR")
                fields = line[:-1].split("\t")
                if len(fields) != 3:
                    raise ValueError("expected 3 tab-separated fields")
                a, b, w = fields
                if not ("" < a < b and last < (a, b)):
                    raise ValueError(f"expected ids '' < a < b after pair {last}, got {(a, b)}")
                if not (w.isascii() and w.isdigit() and w[0] != "0"):
                    raise ValueError(f"weight must be a positive integer, got {w!r}")
                edges[a, b] = int(w)  # past sys.get_int_max_str_digits() raises ValueError
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            last = (a, b)
    return CooccurrenceGraph(edges)
