"""Overlapping community detection by label propagation with belonging coefficients.

Every vertex carries up to ``v`` community labels with coefficients summing
to 1.  Each synchronous iteration replaces a vertex's labels with the
edge-weight-weighted average of its neighbors' labels; labels whose
coefficient drops below ``1/v`` are deleted and the rest renormalized.
When every label falls below the threshold, one maximal label is kept,
with ties broken by a random draw derived from (seed, iteration, vertex)
so results are reproducible and independent of any parallel schedule.

Two implementation choices stabilize the synchronous updates:

* the vertex's own previous labels participate in the average through an
  implicit self-loop weighted like the vertex's strongest incident edge,
  which damps the label-swapping oscillation that pure neighbor averaging
  exhibits on symmetric graphs, at any edge-weight scale;
* iteration stops only at a genuine fixed point: the label state repeated
  exactly and no random tie-break was consulted, so every future
  iteration would be identical.  Otherwise it stops at ``max_iterations``
  with ``converged=False``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Callable

from cosuggest.cooccurrence import CooccurrenceGraph

Labels = dict[str, dict[str, float]]


@dataclass(frozen=True)
class CopraConfig:
    v: int = 2
    max_iterations: int = 100
    seed: int = 42

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError("v must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def to_dict(self) -> dict:
        return {"v": self.v, "max_iterations": self.max_iterations, "seed": self.seed}


@dataclass(frozen=True)
class ConceptCluster:
    id: int
    members: frozenset[str]


@dataclass
class CopraResult:
    clusters: list[ConceptCluster]
    converged: bool
    iterations: int


def _tie_index(seed: int, iteration: int, vertex: str, n: int) -> int:
    """Stable tie-break draw in [0, n); independent of hash randomization."""
    digest = hashlib.blake2b(
        f"{seed}|{iteration}|{vertex}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n


def copra_cluster(
    g: CooccurrenceGraph,
    cfg: CopraConfig,
    on_iteration: Callable[[int, Labels], None] | None = None,
) -> CopraResult:
    """Detect overlapping communities; every vertex ends in 1..v clusters.

    ``on_iteration`` is called with (iteration number, label state) after
    each synchronous step, before the termination check; the state must be
    treated as read-only.  Raises ``ValueError`` on an empty graph.
    """
    if not g.nodes:
        raise ValueError("empty graph: nothing to cluster")

    vertices = sorted(g.nodes)
    adjacency = g.adjacency()
    self_weight = {
        v: float(max((w for _, w in adjacency[v]), default=1)) for v in vertices
    }
    threshold = 1.0 / cfg.v
    labels: Labels = {v: {v: 1.0} for v in vertices}

    converged = False
    iterations = 0
    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        used_random = False
        new_labels: Labels = {}
        for vertex in vertices:
            acc: dict[str, float] = {}
            own_weight = self_weight[vertex]
            total_weight = own_weight
            for label, coeff in labels[vertex].items():
                acc[label] = acc.get(label, 0.0) + own_weight * coeff
            for neighbor, weight in adjacency[vertex]:
                total_weight += weight
                for label, coeff in labels[neighbor].items():
                    acc[label] = acc.get(label, 0.0) + weight * coeff
            for label in acc:
                acc[label] /= total_weight

            kept = {label: c for label, c in acc.items() if c >= threshold}
            if not kept:
                best = max(acc.values())
                candidates = sorted(label for label, c in acc.items() if c == best)
                if len(candidates) > 1:
                    used_random = True
                    choice = candidates[_tie_index(cfg.seed, iteration, vertex, len(candidates))]
                else:
                    choice = candidates[0]
                kept = {choice: acc[choice]}
            norm = sum(kept.values())
            new_labels[vertex] = {label: c / norm for label, c in kept.items()}

        if on_iteration is not None:
            on_iteration(iteration, new_labels)
        if not used_random and new_labels == labels:
            converged = True
            break
        labels = new_labels

    communities: dict[str, set[str]] = {}
    for vertex, vertex_labels in labels.items():
        for label in vertex_labels:
            communities.setdefault(label, set()).add(vertex)

    member_sets = {frozenset(members) for members in communities.values()}
    survivors = [
        members
        for members in member_sets
        if not any(members < other for other in member_sets)
    ]
    survivors.sort(key=lambda members: tuple(sorted(members)))
    clusters = [ConceptCluster(id=i, members=m) for i, m in enumerate(survivors)]
    return CopraResult(clusters=clusters, converged=converged, iterations=iterations)


@dataclass(frozen=True)
class ClusterStats:
    count: int
    size_min: int
    size_max: int
    size_mean: float
    overlap_count: int

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "size_min": self.size_min,
            "size_max": self.size_max,
            "size_mean": self.size_mean,
            "overlap_count": self.overlap_count,
        }


def cluster_stats(clusters: list[ConceptCluster]) -> ClusterStats:
    """Cluster count, size spread, and how many concepts sit in >1 cluster."""
    if not clusters:
        return ClusterStats(0, 0, 0, 0.0, 0)
    sizes = [len(c.members) for c in clusters]
    seen: dict[str, int] = {}
    for cluster in clusters:
        for concept in cluster.members:
            seen[concept] = seen.get(concept, 0) + 1
    return ClusterStats(
        count=len(clusters),
        size_min=min(sizes),
        size_max=max(sizes),
        size_mean=fmean(sizes),
        overlap_count=sum(1 for n in seen.values() if n > 1),
    )


def write_clusters_json(
    result: CopraResult,
    cfg: CopraConfig,
    path: str | Path,
    provenance: dict | None = None,
) -> None:
    payload = {
        "config": cfg.to_dict(),
        "clusters": [
            {"id": c.id, "members": sorted(c.members)} for c in result.clusters
        ],
        "converged": result.converged,
        "iterations": result.iterations,
    }
    if provenance is not None:
        payload["provenance"] = provenance
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_clusters_json(path: str | Path) -> tuple[list[ConceptCluster], dict]:
    """Inverse of :func:`write_clusters_json`; malformed input raises
    ``ValueError`` naming the file and the offending ``clusters[i]``."""
    where = "top level"
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        clusters = []
        for i, raw in enumerate(payload["clusters"]):
            where = f"clusters[{i}]"
            clusters.append(ConceptCluster(id=raw["id"], members=frozenset(raw["members"])))
    except KeyError as exc:
        raise ValueError(f"{path}: {where}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {where}: {exc}") from exc
    return clusters, payload
