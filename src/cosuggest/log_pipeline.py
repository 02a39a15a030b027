"""Query-log parsing, temporal sessionization and dataset reduction.

Input logs are tab-separated UTF-8 files with the header
``AnonID\\tQuery\\tQueryTime\\tItemRank\\tClickURL``.  A query followed by
click-through events repeats its row with the click columns populated;
those rows collapse into a single record with ``clicked=True``.
Timestamps use the format ``YYYY-MM-DD HH:MM:SS`` in local log time.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from statistics import fmean, median_low, pstdev

from cosuggest.matching import ConceptMatcher, match_query

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
LOG_HEADER = ("AnonID", "Query", "QueryTime", "ItemRank", "ClickURL")


@dataclass(frozen=True)
class QueryRecord:
    user_id: str
    query_text: str
    timestamp: datetime
    clicked: bool = False


@dataclass(frozen=True)
class SearchSession:
    """A user's time-contiguous query sequence; queries sorted by timestamp.

    ``concepts`` holds the matched concept set of each query, aligned with
    ``queries``; it stays empty until :func:`reduce_dataset` fills it.
    """

    session_id: str
    user_id: str
    queries: tuple[QueryRecord, ...]
    concepts: tuple[frozenset[str], ...] = ()

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class SourceStats:
    queries: int
    sessions: int
    users: int

    def to_dict(self) -> dict:
        return {"queries": self.queries, "sessions": self.sessions, "users": self.users}


@dataclass
class ParseResult:
    """Deduplicated query records plus the count of skipped malformed rows."""

    records: list[QueryRecord]
    skipped: int


@dataclass
class ReducedDataset:
    """Sessions retained because at least one query matched a concept."""

    sessions: list[SearchSession]

    @property
    def stats(self) -> SourceStats:
        return SourceStats(
            queries=sum(len(s.queries) for s in self.sessions),
            sessions=len(self.sessions),
            users=len({s.user_id for s in self.sessions}),
        )


def parse_log(path: str | Path) -> ParseResult:
    """Parse a TSV query log into one record per (user, query, timestamp) triple.

    Rows carrying ItemRank/ClickURL mark their triple as clicked.  Malformed
    rows (too few columns, empty user id, unparseable timestamp) are skipped
    and counted.  First-seen order of triples is preserved.
    """
    dedup: dict[tuple[str, str, datetime], bool] = {}
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if first and not first.rstrip("\r\n").startswith(LOG_HEADER[0]):
            # Header missing: treat the first line as data.
            handle = _chain_line(first, handle)
        for line in handle:
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                skipped += 1
                continue
            user_id = fields[0].strip()
            query_text = fields[1]
            if not user_id:
                skipped += 1
                continue
            try:
                ts = datetime.strptime(fields[2].strip(), TIMESTAMP_FORMAT)
            except ValueError:
                skipped += 1
                continue
            clicked = any(f.strip() for f in fields[3:5])
            key = (user_id, query_text, ts)
            dedup[key] = dedup.get(key, False) or clicked
    records = [
        QueryRecord(user_id=u, query_text=q, timestamp=t, clicked=c)
        for (u, q, t), c in dedup.items()
    ]
    if skipped:
        log.info("parse_log: skipped %d malformed rows", skipped)
    return ParseResult(records=records, skipped=skipped)


def _chain_line(first: str, handle):
    yield first
    yield from handle


def split_sessions(records: list[QueryRecord] | ParseResult, gap: timedelta) -> list[SearchSession]:
    """Group records per user and split on inter-query gaps exceeding ``gap``.

    Sessions are returned ordered by user id then start time; session ids are
    ``<user>#<ordinal>`` with 1-based ordinals.  A gap exactly equal to the
    threshold stays within the session.
    """
    if gap <= timedelta(0):
        raise ValueError("gap must be positive")
    if isinstance(records, ParseResult):
        records = records.records
    by_user: dict[str, list[QueryRecord]] = {}
    for rec in records:
        by_user.setdefault(rec.user_id, []).append(rec)

    sessions: list[SearchSession] = []
    for user_id in sorted(by_user):
        stream = sorted(by_user[user_id], key=lambda r: r.timestamp)
        ordinal = 1
        current: list[QueryRecord] = []
        for rec in stream:
            if current and rec.timestamp - current[-1].timestamp > gap:
                sessions.append(
                    SearchSession(f"{user_id}#{ordinal}", user_id, tuple(current))
                )
                ordinal += 1
                current = []
            current.append(rec)
        if current:
            sessions.append(SearchSession(f"{user_id}#{ordinal}", user_id, tuple(current)))
    return sessions


def reduce_dataset(sessions: list[SearchSession], matcher: ConceptMatcher) -> ReducedDataset:
    """Keep sessions in which at least one query matches at least one concept.

    Every retained session comes back carrying its per-query concept sets.
    """
    retained: list[SearchSession] = []
    for session in sessions:
        per_query = [match_query(matcher, rec.query_text) for rec in session.queries]
        if any(per_query):
            retained.append(
                SearchSession(
                    session.session_id, session.user_id, session.queries, tuple(per_query)
                )
            )
    return ReducedDataset(retained)


@dataclass(frozen=True)
class LengthStats:
    """Queries-per-session distribution; median is the lower median."""

    min: int
    max: int
    mean: float
    median: int
    stdev: float
    histogram: dict[int, int]

    def to_dict(self) -> dict:
        return {
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "median": self.median,
            "stdev": self.stdev,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def session_length_stats(ds: ReducedDataset) -> LengthStats:
    """Distribution of session lengths; population stdev; errors on empty data."""
    if not ds.sessions:
        raise ValueError("cannot compute length statistics of an empty dataset")
    lengths = [len(s.queries) for s in ds.sessions]
    return LengthStats(
        min=min(lengths),
        max=max(lengths),
        mean=fmean(lengths),
        median=median_low(lengths),
        stdev=pstdev(lengths),
        histogram=dict(sorted(Counter(lengths).items())),
    )


def write_reduced_ndjson(ds: ReducedDataset, path: str | Path) -> None:
    """One session per line: {"session_id", "user", "queries": [{"text","ts","concepts"}]}."""
    with open(path, "w", encoding="utf-8") as handle:
        for session in ds.sessions:
            payload = {
                "session_id": session.session_id,
                "user": session.user_id,
                "queries": [
                    {
                        "text": rec.query_text,
                        "ts": rec.timestamp.strftime(TIMESTAMP_FORMAT),
                        "concepts": sorted(cset),
                    }
                    for rec, cset in zip(session.queries, session.concepts)
                ],
            }
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


def _session_from_json(payload: dict) -> SearchSession:
    user_id = payload["user"]
    queries = payload["queries"]
    records = tuple(
        QueryRecord(
            user_id=user_id,
            query_text=q["text"],
            timestamp=datetime.strptime(q["ts"], TIMESTAMP_FORMAT),
        )
        for q in queries
    )
    concepts = tuple(frozenset(q["concepts"]) for q in queries)
    return SearchSession(payload["session_id"], user_id, records, concepts)


def read_reduced_ndjson(path: str | Path) -> ReducedDataset:
    """Inverse of :func:`write_reduced_ndjson`; click flags are not round-tripped.

    A malformed line or a repeated session id raises ``ValueError`` naming
    ``path:line``.
    """
    sessions: list[SearchSession] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                session = _session_from_json(json.loads(line))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if session.session_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate session_id {session.session_id!r}")
            seen.add(session.session_id)
            sessions.append(session)
    return ReducedDataset(sessions)
