"""Concept suggestion strategies over co-occurrence clusters.

Given the set of concepts already observed in a session (the context),
each strategy selects clusters and suggests their members minus the
context.  Already-observed concepts are never suggested.

* SLACK selects every cluster sharing at least one concept with the
  context and suggests the union of their members.
* SLACK_SELECTIVE selects only the single best-matching cluster, where
  the match degree of a cluster is the size of its intersection with the
  context; ties go to the smallest cluster id (then the earliest cluster).
* STRICT suggests only on unanimous evidence: every cluster that overlaps
  the context must contain all of it.  If any overlapping cluster matches
  the context only partially, nothing is suggested.  (With a one-concept
  context this coincides with SLACK; with larger contexts it is the most
  conservative of the three.)

The clusters come as a :class:`~cosuggest.copra.ConceptClusters` (wrap a
plain list with ``ConceptClusters(clusters)``).  Each strategy reads the
clusters that share concepts with the context, and how many, from the
collection's concept -> clusters index, so a call costs in proportion to
the clusters the context touches, not to all clusters.  The collection
also keeps every answer given (``ConceptClusters.answers``): a context
asked again under the same strategy gets the stored result, the same
object, without recomputation.  Results are immutable, so sharing them is
safe.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from cosuggest.copra import ConceptClusters


class Strategy(Enum):
    SLACK = "slack"
    SLACK_SELECTIVE = "slack-selective"
    STRICT = "strict"

    # Members are singletons and compare by identity, so they may hash by it:
    # the memo key (strategy, context) then hashes in C, not in Enum.__hash__.
    __hash__ = object.__hash__


class SuggestionResult(NamedTuple):
    selected_clusters: tuple[int, ...]
    suggested: frozenset[str]


# Every empty answer shares one set: callers that keep their answers (the
# scoring loop, a client's log) then hold one object, not one per call.
_NOTHING: frozenset[str] = frozenset()


def suggest(
    clusters: ConceptClusters,
    context: frozenset[str] | set[str],
    strategy: Strategy,
) -> SuggestionResult:
    """Select clusters matching the context and suggest their unseen members.

    Pure function: identical inputs yield equal outputs.  An empty context,
    or a context no cluster intersects, yields no suggestions.  Asking the
    same ``clusters`` the same context (as a ``set`` or a ``frozenset``)
    under the same strategy again returns the same result object.
    """
    context = frozenset(context)
    answers = clusters.answers
    key = (strategy, context)
    result = answers.get(key)
    if result is None:
        result = answers[key] = _answer(clusters, context, strategy)
    return result


def _answer(
    clusters: ConceptClusters, context: frozenset[str], strategy: Strategy
) -> SuggestionResult:
    postings = clusters.postings
    overlap: dict[int, int] = {}  # position of each touched cluster -> shared concepts
    for concept in context:
        for position in postings.get(concept, ()):
            overlap[position] = overlap.get(position, 0) + 1

    if strategy is Strategy.SLACK:
        selected = overlap
    elif strategy is Strategy.SLACK_SELECTIVE:
        best = min(overlap, key=lambda p: (-overlap[p], clusters[p].id, p), default=None)
        selected = () if best is None else (best,)
    elif strategy is Strategy.STRICT:
        whole = len(context)
        selected = overlap if all(n == whole for n in overlap.values()) else ()
    else:
        raise ValueError(f"unhandled strategy {strategy!r}")

    picked = [clusters[p] for p in selected]
    if not picked:
        return SuggestionResult((), _NOTHING)
    # A set difference grows its table by insertion (a five-concept answer
    # gets 32 slots); copying it into the frozenset sizes the table to fit.
    return SuggestionResult(
        tuple(sorted([c.id for c in picked])),
        frozenset(set().union(*[c.members for c in picked]) - context),
    )
