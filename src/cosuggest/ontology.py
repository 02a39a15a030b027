"""Annotated concept ontologies: loading, validation, subsetting and structure metrics.

An ontology is a rooted DAG of classes.  Each class may carry a facet tag
(e.g. "natural", "artificial", "administrative") and a list of annotation
phrases whose lemma sequences drive query-to-concept matching.  The loader
checks each phrase's ``surface`` but keeps only its lemmas.

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
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean


class OntologyError(ValueError):
    """Ontology file is malformed or violates a structural invariant."""


@dataclass(frozen=True)
class OntClass:
    id: str
    label: str
    parent_ids: frozenset[str]
    annotations: tuple[tuple[str, ...], ...] = ()
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


def _parse_annotation(raw: object, class_id: str) -> tuple[str, ...]:
    if not isinstance(raw, dict):
        raise OntologyError(f"class {class_id!r}: annotation must be an object")
    lemmas = raw.get("lemmas")
    if not isinstance(raw.get("surface"), str):
        raise OntologyError(f"class {class_id!r}: annotation surface must be a string")
    if not isinstance(lemmas, list) or not lemmas:
        raise OntologyError(f"class {class_id!r}: annotation lemmas must be a non-empty list")
    # split() cuts where isspace() holds, so the tokens split back out of their
    # join only when each is a non-empty string without whitespace (str() of a
    # non-string never equals it); lower() changes the join only where it
    # changes a token.  The loop below names the first bad token.
    joined = " ".join(map(str, lemmas))
    if joined.split() != lemmas or joined != joined.lower():
        for tok in lemmas:
            if not isinstance(tok, str):
                raise OntologyError(
                    f"class {class_id!r}: lemma {tok!r} must be a non-empty string"
                )
            if not tok:
                raise OntologyError(f"class {class_id!r}: empty lemma token")
            if tok != tok.lower() or any(ch.isspace() for ch in tok):
                raise OntologyError(
                    f"class {class_id!r}: lemma {tok!r} must be lowercase without whitespace"
                )
    return tuple(lemmas)


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
        label = raw.get("label", cid)
        if not isinstance(label, str):
            raise OntologyError(f"class {cid!r}: 'label' must be a string")
        raw_annotations = raw.get("annotations", [])
        if not isinstance(raw_annotations, list):
            raise OntologyError(f"class {cid!r}: 'annotations' must be a list")
        annotations = tuple([_parse_annotation(a, cid) for a in raw_annotations])
        classes[cid] = OntClass(cid, label, frozenset(parents), annotations, facet)

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

    order = _peel_order(ont, ont.child_map())
    if len(order) != len(ont.classes):
        stuck = sorted(set(ont.classes) - set(order))
        raise OntologyError(f"cycle or unreachable classes detected: {stuck}")


def _peel_order(ont: Ontology, children: dict[str, set[str]]) -> list[str]:
    """Class ids in topological order: the root, then each class once all its
    parents are peeled.  Classes on a cycle or cut off from the root are missing."""
    pending = {cid: len(c.parent_ids) for cid, c in ont.classes.items()}
    order = [ont.root_id]
    for cid in order:  # the loop visits the classes it appends
        for child in children[cid]:
            pending[child] -= 1
            if pending[child] == 0:
                order.append(child)
    return order


def load_ontology(path: str | Path) -> Ontology:
    """Load and validate an ontology JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (RecursionError, ValueError) as exc:  # not JSON, nested too deep, or not UTF-8
        raise OntologyError(f"cannot parse ontology file {path}: {exc}") from exc
    try:
        return ontology_from_dict(payload)
    except OntologyError as exc:
        raise OntologyError(f"{path}: {exc}") from exc


def subset_by_facet(ont: Ontology, excluded_facets: set[str] | frozenset[str]) -> Ontology:
    """Drop classes whose facet tag is excluded; keep the root unconditionally.

    Kept classes that lose all their parents are reattached directly to the
    root, so every surviving subtree stays reachable and matchable.  ``ont``
    must be valid, as :func:`load_ontology` returns it; the subset of a valid
    ontology is valid by construction, so it is not checked again.
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
        if cid != ont.root_id:
            parents = cls.parent_ids & kept or frozenset({ont.root_id})
            if parents != cls.parent_ids:  # a class whose parents all stay is kept as is
                cls = OntClass(cid, cls.label, parents, cls.annotations, cls.facet_tag)
        classes[cid] = cls
    return Ontology(root_id=ont.root_id, classes=classes)


def compute_metrics(ont: Ontology) -> OntologyMetrics:
    """Compute the structure metrics used to compare ontology granularity."""
    non_root = [c for c in ont.classes.values() if c.id != ont.root_id]
    relation_count = sum(len(c.parent_ids) for c in ont.classes.values())

    # Longest root-to-leaf path in edges: DP over the topological peel.
    children = ont.child_map()
    depth = dict.fromkeys(_peel_order(ont, children), 0)
    for cid in depth:
        for child in children[cid]:
            depth[child] = max(depth[child], depth[cid] + 1)
    longest = max(depth.values())

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
