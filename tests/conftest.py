"""Shared fixtures: a small geographic ontology and query-log builders."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from cosuggest.log_pipeline import QueryRecord, ReducedDataset, SearchSession
from cosuggest.ontology import Ontology, ontology_from_dict

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
