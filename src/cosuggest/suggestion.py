"""Concept suggestion strategies over co-occurrence clusters.

Given the set of concepts already observed in a session (the context),
each strategy selects clusters and suggests their members minus the
context.  Already-observed concepts are never suggested.

* SLACK selects every cluster sharing at least one concept with the
  context and suggests the union of their members.
* SLACK_SELECTIVE selects only the single best-matching cluster, where
  the match degree of a cluster is the size of its intersection with the
  context; ties go to the smallest cluster id.
* STRICT suggests only on unanimous evidence: every cluster that overlaps
  the context must contain all of it.  If any overlapping cluster matches
  the context only partially, nothing is suggested.  (With a one-concept
  context this coincides with SLACK; with larger contexts it is the most
  conservative of the three.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from cosuggest.copra import ConceptCluster


class Strategy(Enum):
    SLACK = "slack"
    SLACK_SELECTIVE = "slack-selective"
    STRICT = "strict"


@dataclass(frozen=True)
class SuggestionResult:
    selected_clusters: tuple[int, ...]
    suggested: frozenset[str]
    context: frozenset[str]


def _result(
    selected: list[ConceptCluster], context: frozenset[str]
) -> SuggestionResult:
    suggested: set[str] = set()
    for cluster in selected:
        suggested.update(cluster.members)
    suggested -= context
    return SuggestionResult(
        selected_clusters=tuple(sorted(c.id for c in selected)),
        suggested=frozenset(suggested),
        context=context,
    )


def suggest(
    clusters: list[ConceptCluster],
    context: frozenset[str] | set[str],
    strategy: Strategy,
) -> SuggestionResult:
    """Select clusters matching the context and suggest their unseen members.

    Pure function: identical inputs yield identical outputs.  An empty
    context, or a context no cluster intersects, yields no suggestions.
    """
    context = frozenset(context)
    if not context:
        return _result([], context)

    touching = [c for c in clusters if c.members & context]
    if not touching:
        return _result([], context)

    if strategy is Strategy.SLACK:
        return _result(touching, context)

    if strategy is Strategy.SLACK_SELECTIVE:
        best = min(touching, key=lambda c: (-len(c.members & context), c.id))
        return _result([best], context)

    if strategy is Strategy.STRICT:
        if all(context <= c.members for c in touching):
            return _result(touching, context)
        return _result([], context)

    raise ValueError(f"unhandled strategy {strategy!r}")
