"""Free-text query to ontology concept matching.

Queries are normalized by a deterministic rule-based lemmatizer (no
external services), then matched against the lemma sequences of class
annotations: a class matches when one of its phrases occurs as a
contiguous token subsequence of the normalized query.  Overlapping
phrase matches all fire; the result is the union of owning classes.

Tokens are the runs of ASCII letters and digits in the lowercased text;
every other character separates them.  Every suffix rule needs a token
ending in ``s`` or ``g``, so any other token is already in normal form and
skips the rule table.

The matcher's ``starts`` map gives, for each token that begins an indexed
phrase, the lengths of the phrases it begins.  So ``match_query`` looks up
only windows that start at such a token and have one of its lengths; a
token that occurs only inside phrases starts no window.  Every phrase
that one class alone owns maps to that class's one set in the index, and a
query that matches one phrase gets that set itself, not a copy, so callers
that keep results hold one set per owning class or union, not one per
phrase or query.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from cosuggest.ontology import Ontology

log = logging.getLogger(__name__)

_TOKEN = re.compile(r"[a-z0-9]+")

# Consonants that, doubled before "-ing", collapse to one (shopping -> shop).
_DOUBLED = {"bb", "dd", "gg", "mm", "nn", "pp", "rr", "tt"}


def _strip_suffix(token: str) -> str:
    """Fixed suffix rule table: plural and progressive forms only.

    Each rule that shortens the token applies the table again to what is
    left ("buildings" -> "building" -> "build"), so the result is a fixed
    point: normalizing a normalized token changes nothing.
    """
    if token.endswith("ies") and len(token) > 4:
        return _strip_suffix(token[:-3] + "y")
    if token.endswith("es") and len(token) > 4 and token[-4:-2] in {"ch", "sh", "ss"}:
        return _strip_suffix(token[:-2])
    if token.endswith(("xes", "zes")) and len(token) > 4:
        return _strip_suffix(token[:-2])
    if token.endswith("s") and not token.endswith("ss") and len(token) > 3:
        return _strip_suffix(token[:-1])
    if token.endswith("ing") and len(token) > 5:
        stem = token[:-3]
        if stem[-2:] in _DOUBLED:
            stem = stem[:-1]
        return _strip_suffix(stem)
    return token


def normalize(text: str) -> list[str]:
    """Lowercase, strip punctuation, tokenize, and reduce plural/-ing suffixes.

    Deterministic and dependency-free; stands in for a full lemmatizer.
    Only ASCII letters and digits make tokens ("Café" gives ``["caf"]``).
    Empty input yields an empty list.
    """
    return [
        _strip_suffix(t) if t[-1] in "sg" else t  # no rule fits any other ending
        for t in _TOKEN.findall(text.lower())
    ]


def load_lexicon(path: str | Path) -> dict[str, list[str]]:
    """Load a synonym lexicon: JSON object mapping class id to phrase list."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (RecursionError, ValueError) as exc:  # not JSON, nested too deep, or not UTF-8
        raise ValueError(f"cannot parse lexicon file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"lexicon {path} must be a JSON object")
    lexicon: dict[str, list[str]] = {}
    for cid, phrases in payload.items():
        if not isinstance(phrases, list) or not all(isinstance(p, str) for p in phrases):
            raise ValueError(f"lexicon {path}: entry {cid!r} must be a list of phrase strings")
        lexicon[cid] = phrases
    return lexicon


@dataclass(frozen=True)
class ConceptMatcher:
    """Matcher over a built lemma index (phrase -> owning class ids).

    ``starts`` maps the first token of each indexed phrase to the sorted
    lengths of the indexed phrases it begins, derived from ``index`` on first
    use and then kept.  An empty phrase can never match and has no entry.
    """

    index: dict[tuple[str, ...], frozenset[str]]

    @cached_property
    def starts(self) -> dict[str, tuple[int, ...]]:
        lengths: dict[str, set[int]] = {}
        for phrase in self.index:
            if phrase:
                lengths.setdefault(phrase[0], set()).add(len(phrase))
        return {token: tuple(sorted(ns)) for token, ns in lengths.items()}

    @classmethod
    def from_ontology(
        cls, ont: Ontology, lexicon: dict[str, list[str]] | None = None
    ) -> "ConceptMatcher":
        """Index every phrase of every non-root class under its owners.

        Annotation lemmas, lexicon surface phrases (``lexicon`` maps class id
        to phrases) and the class label are indexed, each passed through
        :func:`normalize` once so both sides of a match share one normal form
        (a data file saying "shopping" meets query tokens reduced to "shop").
        One phrase may map to several classes (collisions are preserved).
        The phrases that one class alone owns share one set, its owner set;
        a phrase several classes own gets a set of its own.  A lexicon entry
        for the root, which is never indexed, or for an undefined class
        raises ``ValueError``.  Classes with no annotation or lexicon phrase
        that normalizes to a token, matchable through their label only, are
        reported at warning level, and those whose label normalizes to no
        token either, which can never match, in a second warning.
        """
        lexicon = lexicon or {}
        unknown = sorted(set(lexicon) - set(ont.classes))
        if unknown:
            raise ValueError(f"lexicon references undefined classes: {unknown}")
        if ont.root_id in lexicon:
            raise ValueError(
                f"lexicon maps the root class {ont.root_id!r}, which is never indexed"
            )
        index: dict[tuple[str, ...], frozenset[str]] = {}
        unannotated: set[str] = set()
        unmatchable: set[str] = set()

        def add(text: str, owner: frozenset[str]) -> bool:
            phrase = tuple(normalize(text))
            if phrase:  # a phrase that several classes own gets their union
                ids = index.get(phrase, owner)
                index[phrase] = ids if owner <= ids else ids | owner
            return bool(phrase)

        for c in ont.classes.values():
            if c.id == ont.root_id:
                continue
            owner = frozenset((c.id,))  # shared by the phrases only this class owns
            indexed = False  # whether an annotation or lexicon phrase has a token
            for text in (*map(" ".join, c.annotations), *lexicon.get(c.id, ())):
                indexed = add(text, owner) or indexed
            label_indexed = add(c.label, owner)
            if not indexed:
                (unannotated if label_indexed else unmatchable).add(c.id)

        for ids, what in (
            (
                unannotated,
                "match through labels only, as no annotation or lexicon phrase of theirs"
                " normalizes to a token",
            ),
            (unmatchable, "can never match, as not even their label normalizes to a token"),
        ):
            if ids:
                log.warning("%d classes %s: %s", len(ids), what, ", ".join(sorted(ids)))
        return cls(index=index)


# Every query that matches nothing shares one set, as every query that matches
# one phrase shares that phrase's set in the index (one per owning class for
# the phrases of a single class): callers that keep the results (a memo over a
# log's query texts) then hold one object per distinct result, not one per query.
_NOTHING: frozenset[str] = frozenset()


def match_query(matcher: ConceptMatcher, query_text: str) -> frozenset[str]:
    """Concepts whose phrases occur contiguously in the normalized query.

    Longer matches do not suppress shorter ones; every matching phrase
    contributes its owning classes.  A query that matches one phrase gets
    that phrase's set from ``matcher.index`` itself, which every phrase of
    the same sole owner shares, and a query that matches nothing gets the
    shared empty set.
    """
    index, starts = matcher.index, matcher.starts
    tokens = normalize(query_text)
    end = len(tokens)
    found = []
    for i, token in enumerate(tokens):
        for n in starts.get(token, ()):
            if i + n > end:  # lengths ascend; a cut-off window repeats a shorter one
                break
            ids = index.get(tuple(tokens[i : i + n]))
            if ids:
                found.append(ids)
    if not found:
        return _NOTHING
    return found[0] if len(found) == 1 else found[0].union(*found[1:])
