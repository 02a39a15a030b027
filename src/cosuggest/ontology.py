"""Annotated concept ontologies: loading, validation, subsetting and structure metrics.

An ontology is a rooted DAG of classes.  Each class may carry a facet tag
(e.g. "natural", "artificial", "administrative") and a list of annotation
phrases whose lemma sequences drive query-to-concept matching.

File format (UTF-8 JSON, ids case-sensitive)::

    {
      "root": "<id>",
      "classes": [
        {
          "id": str,
          "label": str,
          "parents": [str],
          "facet": str | null,
          "annotations": [{"surface": str, "lemmas": [str]}]
        },
        ...
      ]
    }

The root class is the only class with an empty parent list.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean


class OntologyError(ValueError):
    """Ontology file is malformed or violates a structural invariant."""


@dataclass(frozen=True)
class AnnotationPhrase:
    """A phrase attached to a class: original surface form plus its lemma tokens."""

    surface: str
    lemmas: tuple[str, ...]


@dataclass(frozen=True)
class OntClass:
    id: str
    label: str
    parent_ids: frozenset[str]
    annotations: tuple[AnnotationPhrase, ...] = ()
    facet_tag: str | None = None


@dataclass(frozen=True)
class Ontology:
    """Immutable rooted DAG of classes, keyed by class id."""

    root_id: str
    classes: dict[str, OntClass]

    def child_map(self) -> dict[str, set[str]]:
        """Map every class id to the ids of its direct subclasses."""
        children: dict[str, set[str]] = {cid: set() for cid in self.classes}
        for cls in self.classes.values():
            for pid in cls.parent_ids:
                children[pid].add(cls.id)
        return children


@dataclass(frozen=True)
class OntologyMetrics:
    """Structural summary of an ontology.

    class_count excludes the root.  subclass_relation_count counts every
    child-to-parent link (multi-parent classes contribute one per parent).
    longest_root_to_leaf_path is measured in edges.  mean_node_degree is
    the mean, over non-root classes, of in-degree plus out-degree in the
    subclass graph; 0.0 when the ontology has only a root.
    """

    class_count: int
    subclass_relation_count: int
    longest_root_to_leaf_path: int
    mean_node_degree: float

    def to_dict(self) -> dict:
        return {
            "class_count": self.class_count,
            "subclass_relation_count": self.subclass_relation_count,
            "longest_root_to_leaf_path": self.longest_root_to_leaf_path,
            "mean_node_degree": self.mean_node_degree,
        }


def _parse_annotation(raw: object, class_id: str) -> AnnotationPhrase:
    if not isinstance(raw, dict):
        raise OntologyError(f"class {class_id!r}: annotation must be an object")
    surface = raw.get("surface")
    lemmas = raw.get("lemmas")
    if not isinstance(surface, str):
        raise OntologyError(f"class {class_id!r}: annotation surface must be a string")
    if not isinstance(lemmas, list) or not lemmas:
        raise OntologyError(f"class {class_id!r}: annotation lemmas must be a non-empty list")
    for tok in lemmas:
        if not isinstance(tok, str) or not tok:
            raise OntologyError(f"class {class_id!r}: empty lemma token")
        if tok != tok.lower() or any(ch.isspace() for ch in tok):
            raise OntologyError(
                f"class {class_id!r}: lemma {tok!r} must be lowercase without whitespace"
            )
    return AnnotationPhrase(surface=surface, lemmas=tuple(lemmas))


def ontology_from_dict(payload: object) -> Ontology:
    """Build and validate an :class:`Ontology` from parsed JSON data."""
    if not isinstance(payload, dict):
        raise OntologyError("ontology payload must be a JSON object")
    root_id = payload.get("root")
    if not isinstance(root_id, str) or not root_id:
        raise OntologyError("missing or invalid 'root' id")
    raw_classes = payload.get("classes")
    if not isinstance(raw_classes, list):
        raise OntologyError("'classes' must be a list")

    classes: dict[str, OntClass] = {}
    for raw in raw_classes:
        if not isinstance(raw, dict):
            raise OntologyError("each class must be a JSON object")
        cid = raw.get("id")
        if not isinstance(cid, str) or not cid:
            raise OntologyError("class id must be a non-empty string")
        if cid in classes:
            raise OntologyError(f"duplicate class id {cid!r}")
        parents = raw.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise OntologyError(f"class {cid!r}: 'parents' must be a list of ids")
        facet = raw.get("facet")
        if facet is not None and not isinstance(facet, str):
            raise OntologyError(f"class {cid!r}: 'facet' must be a string or null")
        annotations = tuple(
            _parse_annotation(a, cid) for a in raw.get("annotations", [])
        )
        classes[cid] = OntClass(
            id=cid,
            label=raw.get("label", cid),
            parent_ids=frozenset(parents),
            annotations=annotations,
            facet_tag=facet,
        )

    ont = Ontology(root_id=root_id, classes=classes)
    validate_ontology(ont)
    return ont


def validate_ontology(ont: Ontology) -> None:
    """Raise :class:`OntologyError` on any structural invariant violation."""
    if ont.root_id not in ont.classes:
        raise OntologyError(f"root id {ont.root_id!r} is not a defined class")
    for cls in ont.classes.values():
        if cls.id == ont.root_id:
            if cls.parent_ids:
                raise OntologyError(f"root class {cls.id!r} must not have parents")
            continue
        if not cls.parent_ids:
            raise OntologyError(f"class {cls.id!r} has no parents but is not the root")
        for pid in cls.parent_ids:
            if pid not in ont.classes:
                raise OntologyError(f"class {cls.id!r} references undefined parent {pid!r}")

    # Acyclicity: peel classes whose parents are all peeled, starting at the root.
    remaining = {cid: set(c.parent_ids) for cid, c in ont.classes.items()}
    queue = deque([ont.root_id])
    done: set[str] = set()
    children = ont.child_map()
    while queue:
        cid = queue.popleft()
        done.add(cid)
        for child in children[cid]:
            remaining[child].discard(cid)
            if not remaining[child] and child not in done:
                queue.append(child)
    if len(done) != len(ont.classes):
        stuck = sorted(set(ont.classes) - done)
        raise OntologyError(f"cycle or unreachable classes detected: {stuck}")


def load_ontology(path: str | Path) -> Ontology:
    """Load and validate an ontology JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise OntologyError(f"cannot parse ontology file {path}: {exc}") from exc
    return ontology_from_dict(payload)


def ontology_to_dict(ont: Ontology) -> dict:
    """Serialize to the JSON schema; classes sorted by id for stable output."""
    return {
        "root": ont.root_id,
        "classes": [
            {
                "id": cls.id,
                "label": cls.label,
                "parents": sorted(cls.parent_ids),
                "facet": cls.facet_tag,
                "annotations": [
                    {"surface": a.surface, "lemmas": list(a.lemmas)}
                    for a in cls.annotations
                ],
            }
            for cls in sorted(ont.classes.values(), key=lambda c: c.id)
        ],
    }


def save_ontology(ont: Ontology, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(ontology_to_dict(ont), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def subset_by_facet(ont: Ontology, excluded_facets: set[str] | frozenset[str]) -> Ontology:
    """Drop classes whose facet tag is excluded; keep the root unconditionally.

    Kept classes that lose all their parents are reattached directly to the
    root, so every surviving subtree stays reachable and matchable.
    """
    if not excluded_facets:
        return ont
    kept = {
        cid
        for cid, cls in ont.classes.items()
        if cid == ont.root_id or cls.facet_tag not in excluded_facets
    }
    classes: dict[str, OntClass] = {}
    for cid, cls in ont.classes.items():  # original order: deterministic output
        if cid not in kept:
            continue
        if cid == ont.root_id:
            classes[cid] = cls
            continue
        parents = frozenset(p for p in cls.parent_ids if p in kept)
        if not parents:
            parents = frozenset({ont.root_id})
        classes[cid] = OntClass(
            id=cls.id,
            label=cls.label,
            parent_ids=parents,
            annotations=cls.annotations,
            facet_tag=cls.facet_tag,
        )
    result = Ontology(root_id=ont.root_id, classes=classes)
    validate_ontology(result)
    return result


def compute_metrics(ont: Ontology) -> OntologyMetrics:
    """Compute the structure metrics used to compare ontology granularity."""
    non_root = [c for c in ont.classes.values() if c.id != ont.root_id]
    relation_count = sum(len(c.parent_ids) for c in ont.classes.values())

    # Longest root-to-leaf path in edges: DP over a topological peel.
    children = ont.child_map()
    pending = {cid: len(c.parent_ids) for cid, c in ont.classes.items()}
    depth = {ont.root_id: 0}
    queue = deque([ont.root_id])
    while queue:
        cid = queue.popleft()
        for child in children[cid]:
            depth[child] = max(depth.get(child, 0), depth[cid] + 1)
            pending[child] -= 1
            if pending[child] == 0:
                queue.append(child)
    longest = max(depth.values()) if depth else 0

    if non_root:
        degrees = [len(c.parent_ids) + len(children[c.id]) for c in non_root]
        mean_degree = fmean(degrees)
    else:
        mean_degree = 0.0

    return OntologyMetrics(
        class_count=len(non_root),
        subclass_relation_count=relation_count,
        longest_root_to_leaf_path=longest,
        mean_node_degree=mean_degree,
    )
