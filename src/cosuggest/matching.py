"""Free-text query to ontology concept matching.

Queries are normalized by a deterministic rule-based lemmatizer (no
external services), then matched against the lemma sequences of class
annotations: a class matches when one of its phrases occurs as a
contiguous token subsequence of the normalized query.  Overlapping
phrase matches all fire; the result is the union of owning classes.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from cosuggest.ontology import AnnotationPhrase, OntClass, Ontology

log = logging.getLogger(__name__)

_NON_ALNUM = re.compile(r"[^a-z0-9]+")

# Consonants that, doubled before "-ing", collapse to one (shopping -> shop).
_DOUBLED = {"bb", "dd", "gg", "mm", "nn", "pp", "rr", "tt"}


def _strip_suffix(token: str) -> str:
    """Fixed suffix rule table: plural and progressive forms only."""
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("es") and len(token) > 4 and token[-4:-2] in {"ch", "sh", "ss"}:
        return token[:-2]
    if token.endswith(("xes", "zes")) and len(token) > 4:
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and len(token) > 3:
        return token[:-1]
    if token.endswith("ing") and len(token) > 5:
        stem = token[:-3]
        if stem[-2:] in _DOUBLED:
            stem = stem[:-1]
        return stem
    return token


def normalize(text: str) -> list[str]:
    """Lowercase, strip punctuation, tokenize, and reduce plural/-ing suffixes.

    Deterministic and dependency-free; stands in for a full lemmatizer.
    Empty input yields an empty list.
    """
    lowered = text.lower()
    tokens = [t for t in _NON_ALNUM.split(lowered) if t]
    return [_strip_suffix(t) for t in tokens]


@dataclass(frozen=True)
class LemmaIndex:
    """Lemma-sequence phrases mapped to the ids of the classes owning them.

    One phrase may map to several classes (collisions are preserved).
    ``unannotated_class_ids`` lists classes that contributed no annotation
    phrase; without an indexed label they can never match a query.
    """

    phrases: dict[tuple[str, ...], frozenset[str]]
    unannotated_class_ids: frozenset[str] = frozenset()

    def __len__(self) -> int:
        return len(self.phrases)


def build_lemma_index(ont: Ontology, include_labels: bool = True) -> LemmaIndex:
    """Index every annotation lemma sequence of every non-root class.

    Stored lemmas are passed through :func:`normalize` so both sides of a
    match share one normal form (a data file saying "shopping" meets query
    tokens reduced to "shop").  With ``include_labels`` (the default) each
    class label is normalized and indexed as one additional phrase, so
    label-only classes stay matchable.  Classes without annotations are
    reported at warning level.
    """
    phrases: dict[tuple[str, ...], set[str]] = {}
    unannotated: set[str] = set()

    def add(phrase: tuple[str, ...], class_id: str) -> None:
        if phrase:
            phrases.setdefault(phrase, set()).add(class_id)

    for cls in ont.classes.values():
        if cls.id == ont.root_id:
            continue
        if not cls.annotations:
            unannotated.add(cls.id)
        for ann in cls.annotations:
            add(tuple(normalize(" ".join(ann.lemmas))), cls.id)
        if include_labels:
            add(tuple(normalize(cls.label)), cls.id)

    if unannotated:
        log.warning(
            "%d classes have no annotations and match through labels only: %s",
            len(unannotated),
            ", ".join(sorted(unannotated)),
        )
    return LemmaIndex(
        phrases={p: frozenset(ids) for p, ids in phrases.items()},
        unannotated_class_ids=frozenset(unannotated),
    )


def load_lexicon(path: str | Path) -> dict[str, list[str]]:
    """Load a synonym lexicon: JSON object mapping class id to phrase list."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"lexicon {path} must be a JSON object")
    lexicon: dict[str, list[str]] = {}
    for cid, phrases in payload.items():
        if not isinstance(phrases, list) or not all(isinstance(p, str) for p in phrases):
            raise ValueError(f"lexicon entry {cid!r} must be a list of phrase strings")
        lexicon[cid] = phrases
    return lexicon


def merge_lexicon(ont: Ontology, lexicon: dict[str, list[str]]) -> Ontology:
    """Return a copy of the ontology with lexicon phrases added as annotations.

    Phrases are normalized into lemma sequences.  Unknown class ids raise.
    """
    unknown = sorted(set(lexicon) - set(ont.classes))
    if unknown:
        raise ValueError(f"lexicon references undefined classes: {unknown}")
    classes = dict(ont.classes)
    for cid, surfaces in lexicon.items():
        cls = classes[cid]
        extra = tuple(
            AnnotationPhrase(surface=s, lemmas=tuple(normalize(s)))
            for s in surfaces
            if normalize(s)
        )
        classes[cid] = OntClass(
            id=cls.id,
            label=cls.label,
            parent_ids=cls.parent_ids,
            annotations=cls.annotations + extra,
            facet_tag=cls.facet_tag,
        )
    return Ontology(root_id=ont.root_id, classes=classes)


@dataclass(frozen=True)
class ConceptMatcher:
    """Immutable matcher over a built lemma index."""

    index: LemmaIndex

    @classmethod
    def from_ontology(
        cls,
        ont: Ontology,
        lexicon: dict[str, list[str]] | None = None,
        include_labels: bool = True,
    ) -> "ConceptMatcher":
        if lexicon:
            ont = merge_lexicon(ont, lexicon)
        return cls(index=build_lemma_index(ont, include_labels=include_labels))


def match_query(matcher: ConceptMatcher, query_text: str) -> frozenset[str]:
    """Concepts whose phrases occur contiguously in the normalized query.

    Longer matches do not suppress shorter ones; every matching phrase
    contributes its owning classes.
    """
    tokens = normalize(query_text)
    if not tokens:
        return frozenset()
    hits: set[str] = set()
    n = len(tokens)
    for start in range(n):
        for end in range(start + 1, n + 1):
            ids = matcher.index.phrases.get(tuple(tokens[start:end]))
            if ids:
                hits.update(ids)
    return frozenset(hits)
