"""Shared fixtures: a small geographic ontology, query-log builders and a
per-session scoring oracle."""

from __future__ import annotations

import random
from collections.abc import Sequence
from datetime import datetime, timedelta

import pytest

from cosuggest.copra import ConceptClusters
from cosuggest.evaluation import SessionOutcome, _context_and_truth
from cosuggest.log_pipeline import QueryRecord, ReducedDataset, SearchSession
from cosuggest.ontology import Ontology, ontology_from_dict
from cosuggest.suggestion import Strategy, suggest

CITY_ONTOLOGY = {
    "root": "thing",
    "classes": [
        {"id": "thing", "label": "Thing", "parents": [], "facet": None, "annotations": []},
        {
            "id": "park",
            "label": "Park",
            "parents": ["thing"],
            "facet": "natural",
            "annotations": [
                {"surface": "park", "lemmas": ["park"]},
                {"surface": "public garden", "lemmas": ["public", "garden"]},
            ],
        },
        {
            "id": "beach",
            "label": "Beach",
            "parents": ["thing"],
            "facet": "natural",
            "annotations": [{"surface": "beach", "lemmas": ["beach"]}],
        },
        {
            "id": "museum",
            "label": "Museum",
            "parents": ["thing"],
            "facet": "artificial",
            "annotations": [{"surface": "museum", "lemmas": ["museum"]}],
        },
        {
            "id": "library",
            "label": "Library",
            "parents": ["thing"],
            "facet": "artificial",
            "annotations": [{"surface": "library", "lemmas": ["library"]}],
        },
        {
            "id": "mall",
            "label": "Mall",
            "parents": ["thing"],
            "facet": "artificial",
            "annotations": [
                {"surface": "shopping mall", "lemmas": ["shopping", "mall"]},
                {"surface": "mall", "lemmas": ["mall"]},
            ],
        },
        {
            "id": "district",
            "label": "District",
            "parents": ["thing"],
            "facet": "administrative",
            "annotations": [{"surface": "district", "lemmas": ["district"]}],
        },
    ],
}


@pytest.fixture
def city_ontology() -> Ontology:
    return ontology_from_dict(CITY_ONTOLOGY)


def make_records(user_id: str, texts_and_minutes: list[tuple[str, int]]) -> list[QueryRecord]:
    """Records for one user at minute offsets from a fixed base instant."""
    base = datetime(2006, 3, 1, 9, 0, 0)
    return [
        QueryRecord(user_id=user_id, query_text=text, timestamp=base + timedelta(minutes=m))
        for text, m in texts_and_minutes
    ]


def make_session(
    session_id: str, user_id: str, texts: list[str], concepts: list[set[str]] = ()
) -> SearchSession:
    records = make_records(user_id, [(t, 5 * i) for i, t in enumerate(texts)])
    return SearchSession(
        session_id, user_id, tuple(records), tuple(frozenset(c) for c in concepts)
    )


def make_dataset(session_concepts: dict[str, list[set[str]]]) -> ReducedDataset:
    """Synthetic reduced dataset from session-id -> per-query concept sets."""
    sessions = []
    for sid, per_query in session_concepts.items():
        texts = [f"query {i}" for i in range(len(per_query))]
        sessions.append(make_session(sid, sid.split("#")[0], texts, per_query))
    return ReducedDataset(sessions)


def write_log(path, rows: list[tuple[str, str, str, str, str]]) -> None:
    """Write a TSV query log with the standard header."""
    lines = ["AnonID\tQuery\tQueryTime\tItemRank\tClickURL"]
    lines += ["\t".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def topic_dataset(
    seed: int, n_sessions: int, n_topics: int = 8, topic_size: int = 5
) -> ReducedDataset:
    """Seeded sessions that mostly stay inside one topic of concepts.

    About one first query in eight matches nothing (an empty context), and
    about one query in twenty also names a concept of another topic, so
    rare pairs exist whose weight a single held-out session can take to 0.
    """
    rng = random.Random(seed)
    universe = [f"c{i:02d}" for i in range(n_topics * topic_size)]
    topics = [universe[t * topic_size : (t + 1) * topic_size] for t in range(n_topics)]
    data = {}
    for i in range(n_sessions):
        topic = rng.choice(topics)
        per_query = []
        for q in range(rng.choice((1, 2, 2, 3, 3, 4, 5))):
            if q == 0 and rng.random() < 0.125:
                per_query.append(set())
                continue
            concepts = set(rng.sample(topic, rng.randint(1, 2)))
            if rng.random() < 0.05:
                concepts.add(rng.choice(universe))
            per_query.append(concepts)
        if not any(per_query):
            per_query.append({rng.choice(topic)})
        data[f"u{i:04d}#1"] = per_query
    return make_dataset(data)


def session_outcome(
    session_length: int, ground_truth: frozenset[str], suggested: frozenset[str]
) -> SessionOutcome:
    """One session's hits and F1, scored on its own: the oracle for the column
    scoring of the fold loop, with the same float expressions."""
    hits = len(suggested & ground_truth)
    if hits:
        precision, recall = hits / len(suggested), hits / len(ground_truth)
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return SessionOutcome(session_length, ground_truth, suggested, hits, f1)


def outcome_from_concept_sets(
    concept_sets: Sequence[frozenset[str]],
    clusters: ConceptClusters,
    strategy: Strategy,
) -> SessionOutcome:
    """Score one session on its own from its per-query concept sets.

    The first query's concepts are the context.  The oracle for the fold
    loop, which scores each distinct context once and shares the answer.
    """
    context, ground_truth = _context_and_truth(concept_sets)
    suggested = suggest(clusters, context, strategy).suggested
    return session_outcome(len(concept_sets), ground_truth, suggested)
