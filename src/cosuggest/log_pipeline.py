"""Query-log parsing, temporal sessionization and dataset reduction.

Input logs are tab-separated UTF-8 files with the header
``AnonID\\tQuery\\tQueryTime\\tItemRank\\tClickURL``.  A query followed by
click-through events repeats its row with the click columns populated;
those rows collapse into a single record, and the click columns are not
read.
Timestamps use the format ``YYYY-MM-DD HH:MM:SS`` in local log time.
"""

from __future__ import annotations

import json
import logging
from codecs import BOM_UTF8
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import accumulate, chain, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from statistics import fmean, median_low, pstdev

from cosuggest.matching import ConceptMatcher, match_query

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
LOG_HEADER = ("AnonID", "Query", "QueryTime", "ItemRank", "ClickURL")


@dataclass(frozen=True, slots=True)
class SearchSession:
    """A user's time-contiguous queries as aligned columns, sorted by timestamp.

    Entry i of ``texts``, ``timestamps`` and ``concepts`` belongs to the
    session's i-th query.  ``concepts`` holds each query's matched concept
    set; it stays empty until :func:`reduce_dataset` fills it.  A reduced
    session's length is ``len(concepts)``: a concept-only read
    (``read_reduced_ndjson(path, queries=False)``) leaves ``texts`` and
    ``timestamps`` empty.
    """

    session_id: str
    user_id: str
    texts: tuple[str, ...]
    timestamps: tuple[datetime, ...]
    concepts: tuple[frozenset[str], ...] = ()


@dataclass(frozen=True)
class SourceStats:
    queries: int
    sessions: int
    users: int


@dataclass
class ParseResult:
    """Distinct ``(user, text, timestamp)`` triples plus the count of skipped malformed rows."""

    records: list[tuple[str, str, datetime]]
    skipped: int


@dataclass
class ReducedDataset:
    """Sessions retained because at least one query matched a concept."""

    sessions: list[SearchSession]

    @property
    def stats(self) -> SourceStats:
        """Query, session and user counts; a session's queries are its concept sets."""
        return SourceStats(
            queries=sum(len(s.concepts) for s in self.sessions),
            sessions=len(self.sessions),
            users=len({s.user_id for s in self.sessions}),
        )


def parse_timestamp(text: str) -> datetime:
    """``datetime.strptime(text, TIMESTAMP_FORMAT)``, with a fast path.

    A stamp of exactly the ``YYYY-MM-DD HH:MM:SS`` shape goes through
    ``datetime.fromisoformat``; any other shape, or a stamp it rejects, goes
    to ``strptime``, which also accepts unpadded fields and non-ASCII digits.
    Either way the value, or the ``ValueError``, is ``strptime``'s.
    """
    if len(text) == 19 and text[4::3] == "-- ::":
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass
    return datetime.strptime(text, TIMESTAMP_FORMAT)


def parse_log(path: str | Path) -> ParseResult:
    """Parse a TSV query log into its distinct (user, text, timestamp) triples.

    Click rows repeat their query's triple and collapse into it.  Malformed
    rows (too few columns, empty user id, unparseable timestamp) are skipped
    and counted.  First-seen order of triples is preserved.  Equal user ids
    and equal query texts share one string object.  The first line is the
    header when its first field is exactly ``AnonID``; a leading UTF-8 byte
    order mark is dropped.  Bytes that are not UTF-8 raise ``ValueError``
    naming the file.
    """
    dedup: dict[tuple[str, str, datetime], None] = {}
    share = {}.setdefault  # each user id or query text -> the first equal string seen
    skipped = 0
    try:
        with open(path, encoding="utf-8-sig") as handle:
            first = handle.readline()
            if first and first.rstrip("\r\n").split("\t", 1)[0] != LOG_HEADER[0]:
                # Header missing: treat the first line as data.
                handle = chain((first,), handle)
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
                    ts = parse_timestamp(fields[2].strip())
                except ValueError:
                    skipped += 1
                    continue
                dedup[share(user_id, user_id), share(query_text, query_text), ts] = None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if skipped:
        log.info("parse_log: skipped %d malformed rows", skipped)
    return ParseResult(records=list(dedup), skipped=skipped)


def split_sessions(
    records: list[tuple[str, str, datetime]], gap: timedelta
) -> list[SearchSession]:
    """Group ``(user, text, timestamp)`` triples per user and split on gaps exceeding ``gap``.

    Sessions are returned ordered by user id then start time; session ids are
    ``<user>#<ordinal>`` with 1-based ordinals.  A gap exactly equal to the
    threshold stays within the session.  Queries of one user at the same
    timestamp keep the order in which they were given.
    """
    if gap <= timedelta(0):
        raise ValueError("gap must be positive")
    by_user: dict[str, list[tuple[str, str, datetime]]] = {}
    for record in records:
        by_user.setdefault(record[0], []).append(record)

    sessions: list[SearchSession] = []
    for user_id in sorted(by_user):
        _, texts, timestamps = zip(*sorted(by_user[user_id], key=itemgetter(2)))
        cuts = [i for i in range(1, len(timestamps)) if timestamps[i] - timestamps[i - 1] > gap]
        for ordinal, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(texts)]), start=1):
            sessions.append(
                SearchSession(f"{user_id}#{ordinal}", user_id, texts[lo:hi], timestamps[lo:hi])
            )
    return sessions


def reduce_dataset(sessions: list[SearchSession], matcher: ConceptMatcher) -> ReducedDataset:
    """Keep sessions in which at least one query matches at least one concept.

    Every retained session comes back carrying its per-query concept sets.
    Each distinct query text is matched once per call, and its repeats share
    that concept set.
    """
    memo: dict[str, frozenset[str]] = {}
    retained: list[SearchSession] = []
    for session in sessions:
        per_query = []
        for text in session.texts:
            concepts = memo.get(text)
            if concepts is None:
                concepts = memo[text] = match_query(matcher, text)
            per_query.append(concepts)
        if any(per_query):
            retained.append(
                SearchSession(
                    session.session_id,
                    session.user_id,
                    session.texts,
                    session.timestamps,
                    tuple(per_query),
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
    """Distribution of session lengths (``len(concepts)``); population stdev;
    errors on empty data."""
    if not ds.sessions:
        raise ValueError("cannot compute length statistics of an empty dataset")
    lengths = [len(s.concepts) for s in ds.sessions]
    return LengthStats(
        min=min(lengths),
        max=max(lengths),
        mean=fmean(lengths),
        median=median_low(lengths),
        stdev=pstdev(lengths),
        histogram=dict(sorted(Counter(lengths).items())),
    )


def write_reduced_ndjson(ds: ReducedDataset, path: str | Path) -> None:
    """One session per line: {"session_id", "user", "queries": [{"text","ts","concepts"}]}.

    A session that :func:`read_reduced_ndjson` would reject raises
    ``ValueError`` naming it: no queries, a repeated id, or a timestamp with
    microseconds or a time zone.  A session whose three query columns differ
    in length, as one of a concept-only read does, raises before anything is
    written.
    """
    for session in ds.sessions:
        if not len(session.texts) == len(session.timestamps) == len(session.concepts):
            raise ValueError(
                f"session {session.session_id!r} has {len(session.texts)} texts, "
                f"{len(session.timestamps)} stamps and {len(session.concepts)} concept sets"
            )
    seen: set[str] = set()
    with open(path, "w", encoding="utf-8") as handle:
        for session in ds.sessions:
            sid = session.session_id
            stamps = [ts.isoformat(" ") for ts in session.timestamps]
            queries = [
                {"text": text, "ts": ts, "concepts": sorted(cset)}
                for text, ts, cset in zip(session.texts, stamps, session.concepts)
            ]
            if not queries:
                raise ValueError(f"session {sid!r} has no queries")
            if sid in seen:
                raise ValueError(f"session {sid!r} is repeated")
            if len("".join(stamps)) != 19 * len(stamps):  # YYYY-MM-DD HH:MM:SS is 19 long
                raise ValueError(f"session {sid!r} has a stamp with microseconds or a time zone")
            seen.add(sid)
            payload = {"session_id": sid, "user": session.user_id, "queries": queries}
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


# Lines per chunk of the reduced reader.  One decoded chunk is held at a time:
# chunks of 100 lines raise the peak memory of an eval run by about 0.25 MiB
# over reading line by line, chunks of 1,000 by about 0.9 MiB.
_CHUNK_LINES = 100
# The json module's own C scanner: for a stripped line, scanning one value that
# ends at the line's end succeeds exactly when ``json.loads`` does, with the
# same value, without the wrapper's per-call cost.
_scan_json = json.JSONDecoder().scan_once
# Separator offsets of a YYYY-MM-DD HH:MM:SS stamp, the only shape the writer
# writes.
_STAMP_SEPARATORS = ((4, "-"), (7, "-"), (10, " "), (13, ":"), (16, ":"))


def _joined(column: list, key: str) -> str:
    """The column's values joined in one pass in C; each must be a string."""
    try:
        return "".join(column)
    except TypeError:
        bad = next(value for value in column if type(value) is not str)
        raise ValueError(f"{key} must be a string, got {bad!r}") from None


def _string_column(rows: list[dict], key: str) -> list[str]:
    """``row[key]`` of each row; each must be a string."""
    column = list(map(itemgetter(key), rows))
    _joined(column, key)
    return column


def _parse_stamps(queries: list[dict]) -> tuple[datetime, ...]:
    """The queries' ``ts`` strings, each of the writer's ``YYYY-MM-DD HH:MM:SS``
    shape, in one ``datetime.fromisoformat`` pass."""
    stamps = list(map(itemgetter("ts"), queries))
    joined = _joined(stamps, "ts")
    try:
        if {19}.issuperset(map(len, stamps)) and all(
            joined[offset::19] == separator * len(stamps)
            for offset, separator in _STAMP_SEPARATORS
        ):
            return tuple(map(datetime.fromisoformat, stamps))
    except ValueError:  # not a valid time
        pass
    raise ValueError(f"ts must be YYYY-MM-DD HH:MM:SS times, got {stamps!r}")


def _chunk_sessions(
    lines: list[bytes],
    seen: set[str],
    interned: dict[tuple[str, ...], frozenset[str]],
    strings: dict[str, str],
    keep_queries: bool,
) -> list[SearchSession]:
    """The sessions of raw reduced-file lines, checked a column at a time.

    All or none: a fault raises before ``seen``, ``interned`` or ``strings``
    change.  A missing field raises ``KeyError``, any other fault
    ``ValueError``, ``TypeError`` or ``RecursionError``.  The checks run in
    the order of a line's parts (the JSON, the session object, ``session_id``,
    ``user``, ``queries``, unexpected session fields, the query objects,
    texts, stamps, concepts, unexpected query fields, the concepts' order,
    and last a repeated id), so for a single line with one fault the message
    names that fault.

    Without ``keep_queries`` every check still runs, but each session gets
    empty ``texts`` and ``timestamps``, and no query text goes into
    ``strings``.
    """
    payloads = []
    for line in map(str.strip, map(bytes.decode, lines)):
        if line:
            try:
                payload, end = _scan_json(line, 0)
            except StopIteration:  # no JSON value at the start of the line
                end = None
            if end != len(line):
                payload = json.loads(line)  # raises the decoder's own message
            payloads.append(payload)
    if not {dict}.issuperset(map(type, payloads)):
        raise ValueError("session must be a JSON object")
    ids = _string_column(payloads, "session_id")
    users = _string_column(payloads, "user")
    per_session = list(map(itemgetter("queries"), payloads))
    if not {3}.issuperset(map(len, payloads)):  # every one of the 3 fields is there
        raise ValueError("a session has only the fields queries, session_id and user")
    if not {list}.issuperset(map(type, per_session)):
        raise ValueError("queries must be a list")
    if not all(per_session):
        raise ValueError("session has no queries")
    queries = list(chain.from_iterable(per_session))
    if not {dict}.issuperset(map(type, queries)):
        raise ValueError("each query must be a JSON object")
    texts = _string_column(queries, "text")
    timestamps = _parse_stamps(queries)
    lists = list(map(itemgetter("concepts"), queries))
    if not {3}.issuperset(map(len, queries)):
        raise ValueError("a query has only the fields concepts, text and ts")
    if not {list}.issuperset(map(type, lists)):
        raise ValueError("concepts must be a list")
    try:
        "".join(chain.from_iterable(lists))
    except TypeError:
        bad = next(raw for raw in lists if not {str}.issuperset(map(type, raw)))
        raise ValueError(f"concepts must be strings, got {bad!r}") from None
    keys = list(map(tuple, lists))
    fresh = set(keys).difference(interned)
    if not all(list(key) == sorted(set(key)) for key in fresh):
        bad = next(key for key in keys if list(key) != sorted(set(key)))
        raise ValueError(f"concepts must be sorted and distinct, got {list(bad)!r}")
    if len(set(ids)) != len(ids) or not seen.isdisjoint(ids):
        earlier: set[str] = set()
        for session_id in ids:
            if session_id in seen or session_id in earlier:
                raise ValueError(f"duplicate session_id {session_id!r}")
            earlier.add(session_id)

    interned.update(zip(fresh, map(frozenset, fresh)))
    concepts = tuple(map(interned.__getitem__, keys))
    share = strings.setdefault
    users = list(map(share, users, users))
    ends = list(accumulate(map(len, per_session)))
    spans = list(map(slice, chain((0,), ends), ends))
    if keep_queries:
        texts = tuple(map(share, texts, texts))
        columns = (map(texts.__getitem__, spans), map(timestamps.__getitem__, spans))
    else:
        columns = (repeat(()), repeat(()))
    sessions = list(map(SearchSession, ids, users, *columns, map(concepts.__getitem__, spans)))
    seen.update(ids)
    return sessions


def read_reduced_ndjson(path: str | Path, *, queries: bool = True) -> ReducedDataset:
    """Inverse of :func:`write_reduced_ndjson`, accepting exactly the sessions it writes.

    With ``queries=False`` each session keeps its id, user and concept sets
    only, and ``texts == timestamps == ()``; session lengths and counts come
    from ``concepts``.  Every check still runs, so such a read accepts and
    rejects exactly the files a full read does, with the same messages.

    The rule holds per JSON value: whitespace, escapes and key order inside
    a line are not checked.  Any other line, bytes that are not UTF-8
    included, raises ``ValueError`` naming ``path:line``.  A leading UTF-8
    byte order mark is dropped.  Equal concept lists share one set, and
    equal user ids and query texts share one string object.

    Lines are read ``_CHUNK_LINES`` at a time, and each chunk is checked a
    column at a time; a chunk with a fault is checked again one line at a
    time, only to name the bad line.
    """
    sessions: list[SearchSession] = []
    seen: set[str] = set()
    interned: dict[tuple[str, ...], frozenset[str]] = {}
    strings: dict[str, str] = {}  # each user id or kept query text -> the first equal string seen
    with open(path, "rb") as handle:  # decoded line by line, to name the bad one
        if handle.peek(len(BOM_UTF8)).startswith(BOM_UTF8):
            handle.read(len(BOM_UTF8))
        for first in count(1, _CHUNK_LINES):
            chunk = list(islice(handle, _CHUNK_LINES))
            if not chunk:
                break
            try:
                sessions += _chunk_sessions(chunk, seen, interned, strings, queries)
            except (KeyError, TypeError, ValueError, RecursionError):
                for lineno, line in enumerate(chunk, start=first):
                    try:
                        sessions += _chunk_sessions([line], seen, interned, strings, queries)
                    except KeyError as exc:
                        raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
                    except (TypeError, ValueError, RecursionError) as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return ReducedDataset(sessions)
