"""Shared fixtures: a small geographic ontology, query-log builders, a
per-session scoring oracle and a per-line reduced-file reader."""

from __future__ import annotations

import json
import random
from codecs import BOM_UTF8
from collections.abc import Sequence
from datetime import datetime, timedelta
from statistics import fmean
from typing import NamedTuple

import pytest

from cosuggest.copra import ConceptClusters
from cosuggest.evaluation import FoldMetrics, LengthF1, _context_and_truth, _score_columns
from cosuggest.log_pipeline import ReducedDataset, SearchSession
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


BASE_TIME = datetime(2006, 3, 1, 9, 0, 0)


def make_records(
    user_id: str, texts_and_minutes: list[tuple[str, int]]
) -> list[tuple[str, str, datetime]]:
    """``(user, text, timestamp)`` triples for one user at minute offsets
    from a fixed base instant."""
    return [(user_id, text, BASE_TIME + timedelta(minutes=m)) for text, m in texts_and_minutes]


def make_session(
    session_id: str, user_id: str, texts: list[str], concepts: list[set[str]] = ()
) -> SearchSession:
    return SearchSession(
        session_id,
        user_id,
        tuple(texts),
        tuple(BASE_TIME + timedelta(minutes=5 * i) for i in range(len(texts))),
        tuple(frozenset(c) for c in concepts),
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


# Two reduced-file lines that are each malformed ("Extra data", then a lone
# query) but that, joined into one JSON array, would read as two valid sessions.
TWO_LINE_MERGE = (
    '{"queries": [{"concepts": ["park"], "text": "a", "ts": "2006-03-01 09:00:00"}],'
    ' "session_id": "u1#1", "user": "u1"}, {"session_id": "u2#1", "user": "u2",'
    ' "queries": [{"concepts": ["park"], "text": "b", "ts": "2006-03-01 09:01:00"}',
    '{"concepts": [], "text": "c", "ts": "2006-03-01 09:05:00"}]}',
)
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # nested past the json decoder's recursion limit


def _oracle_session(
    payload: object,
    interned: dict[tuple[str, ...], frozenset[str]],
    strings: dict[str, str],
) -> SearchSession:
    """One decoded reduced-file line checked field by field, in the order
    of the line's parts; a missing field raises ``KeyError``.  A stamp is
    valid when ``strptime`` reads it and ``isoformat`` writes it back the
    same, and a concept list when it equals its own sorted set."""
    if type(payload) is not dict:
        raise ValueError("session must be a JSON object")
    for key in ("session_id", "user"):
        if not isinstance(payload[key], str):
            raise ValueError(f"{key} must be a string, got {payload[key]!r}")
    queries = payload["queries"]
    if set(payload) != {"session_id", "user", "queries"}:
        raise ValueError("a session has only the fields queries, session_id and user")
    if type(queries) is not list:
        raise ValueError("queries must be a list")
    if not queries:
        raise ValueError("session has no queries")
    if not all(type(q) is dict for q in queries):
        raise ValueError("each query must be a JSON object")
    columns = {}
    for key in ("text", "ts"):
        columns[key] = [q[key] for q in queries]
        for value in columns[key]:
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
    timestamps = []
    for raw in columns["ts"]:
        try:
            stamp = datetime.strptime(raw, "%Y-%m-%d %H:%M:%S")
        except ValueError:
            stamp = None
        if stamp is None or stamp.isoformat(" ") != raw:
            raise ValueError(f"ts must be YYYY-MM-DD HH:MM:SS times, got {columns['ts']!r}")
        timestamps.append(stamp)
    lists = [q["concepts"] for q in queries]
    if any(set(q) != {"text", "ts", "concepts"} for q in queries):
        raise ValueError("a query has only the fields concepts, text and ts")
    if not all(isinstance(raw, list) for raw in lists):
        raise ValueError("concepts must be a list")
    for raw in lists:
        if not all(isinstance(concept, str) for concept in raw):
            raise ValueError(f"concepts must be strings, got {raw!r}")
    for raw in lists:
        if raw != sorted(set(raw)):
            raise ValueError(f"concepts must be sorted and distinct, got {raw!r}")
    concepts = tuple([interned.setdefault(tuple(raw), frozenset(raw)) for raw in lists])
    share = strings.setdefault
    texts = columns["text"]
    return SearchSession(
        payload["session_id"],
        share(payload["user"], payload["user"]),
        tuple(map(share, texts, texts)),
        tuple(timestamps),
        concepts,
    )


def read_reduced_per_line(path) -> ReducedDataset:
    """The reduced-file reader one line at a time: ``json.loads`` and the
    field-by-field checks of :func:`_oracle_session` on each line in turn.
    The oracle for ``read_reduced_ndjson``, which checks chunks of lines a
    column at a time: its sessions, its string and concept-set sharing, or
    its exact ``path:line`` message."""
    sessions: list[SearchSession] = []
    seen: set[str] = set()
    interned: dict[tuple[str, ...], frozenset[str]] = {}
    strings: dict[str, str] = {}
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if lineno == 1:
                raw = raw.removeprefix(BOM_UTF8)
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                session = _oracle_session(json.loads(line), interned, strings)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if session.session_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate session_id {session.session_id!r}")
            seen.add(session.session_id)
            sessions.append(session)
    return ReducedDataset(sessions)


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


class SessionOutcome(NamedTuple):
    """One session scored on its own."""

    session_length: int
    ground_truth: frozenset[str]
    suggested: frozenset[str]
    hits: int
    f1: float


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


def aggregate(
    outcomes: list[SessionOutcome],
    fold: int = 0,
    empty_suggestion_precision: str = "exclude",
) -> FoldMetrics:
    """Macro-average one (strategy, fold) batch of outcomes with the fold
    loop's column scoring, which reads only each outcome's two sets.

    Sessions with empty ground truth are excluded entirely; raises when no
    session is scorable.
    """
    scored = [o for o in outcomes if o.ground_truth]
    if not scored:
        raise ValueError("no session with non-empty ground truth to aggregate")
    truths = [o.ground_truth for o in scored]
    suggested = [o.suggested for o in scored]
    return _score_columns(truths, suggested, len(outcomes), fold, empty_suggestion_precision)[0]


def f1_by_length(outcomes: list[SessionOutcome]) -> list[LengthF1]:
    """Mean per-session F1 by session length, with group sizes, each F1
    recomputed from the outcome's two sets; empty ground truths are excluded."""
    groups: dict[int, list[float]] = {}
    for o in outcomes:
        if o.ground_truth:
            f1 = session_outcome(o.session_length, o.ground_truth, o.suggested).f1
            groups.setdefault(o.session_length, []).append(f1)
    return [LengthF1(length, fmean(vals), len(vals)) for length, vals in sorted(groups.items())]


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
