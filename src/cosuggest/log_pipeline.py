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
from itertools import chain
from operator import itemgetter
from pathlib import Path
from statistics import fmean, median_low, pstdev

from cosuggest.matching import ConceptMatcher, match_query

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
LOG_HEADER = ("AnonID", "Query", "QueryTime", "ItemRank", "ClickURL")


def _padded_time(text: str) -> datetime | None:
    """The time of a stamp of exactly the ``YYYY-MM-DD HH:MM:SS`` shape, the
    only one the reduced writer writes, or None for any other text or an
    invalid time."""
    if len(text) == 19 and text[4::3] == "-- ::":
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            pass
    return None


@dataclass(frozen=True, slots=True)
class SearchSession:
    """A user's time-contiguous queries as aligned columns, sorted by timestamp.

    Entry i of ``texts``, ``timestamps`` and ``concepts`` belongs to the
    session's i-th query.  ``concepts`` holds each query's matched concept
    set; it stays empty until :func:`reduce_dataset` fills it.  A session
    read by :func:`read_reduced_ndjson` has empty ``texts`` and
    ``timestamps``: the reader checks each line's texts and stamps and
    keeps only its concept sets, so a reduced session's length is
    ``len(concepts)``.
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

    A stamp that :func:`_padded_time` reads goes no further; any other
    goes to ``strptime``, which also accepts unpadded fields and non-ASCII
    digits.  Either way the value, or the ``ValueError``, is ``strptime``'s.
    """
    return _padded_time(text) or datetime.strptime(text, TIMESTAMP_FORMAT)


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
    ``ValueError`` naming it, before anything is written: query columns of
    different lengths (a session that :func:`read_reduced_ndjson` gives has
    no texts or stamps), no queries, a repeated id, or a timestamp with
    microseconds or a time zone.
    """
    seen: set[str] = set()
    for session in ds.sessions:
        sid = session.session_id
        if not len(session.texts) == len(session.timestamps) == len(session.concepts):
            raise ValueError(
                f"session {sid!r} has {len(session.texts)} texts, "
                f"{len(session.timestamps)} stamps and {len(session.concepts)} concept sets"
            )
        if not session.texts:
            raise ValueError(f"session {sid!r} has no queries")
        if sid in seen:
            raise ValueError(f"session {sid!r} is repeated")
        # isoformat(" ") is YYYY-MM-DD HH:MM:SS exactly for these stamps.
        if not all(ts.microsecond == 0 and ts.utcoffset() is None for ts in session.timestamps):
            raise ValueError(f"session {sid!r} has a stamp with microseconds or a time zone")
        seen.add(sid)
    with open(path, "w", encoding="utf-8") as handle:
        for session in ds.sessions:
            queries = [
                {"text": text, "ts": ts.isoformat(" "), "concepts": sorted(cset)}
                for text, ts, cset in zip(session.texts, session.timestamps, session.concepts)
            ]
            payload = {"session_id": session.session_id, "user": session.user_id, "queries": queries}
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


# The json module's own C scanner: for a stripped line, scanning one value that
# ends at the line's end succeeds exactly when ``json.loads`` does, with the
# same value, without the wrapper's per-call cost.
_scan_json = json.JSONDecoder().scan_once


def _reduced_session(
    line: str,
    seen: set[str],
    interned: dict[tuple[str, ...], frozenset[str]],
    users: dict[str, str],
) -> SearchSession:
    """The session of one stripped, non-blank reduced-file line.

    A missing field raises ``KeyError``, any other fault ``ValueError`` or
    ``RecursionError``.  The checks run in the order of the line's parts
    (the JSON, the session object, ``session_id``, ``user``, ``queries``,
    unexpected session fields, the query objects, then each query in turn:
    its fields, text, stamp, unexpected fields, concepts, their types and
    order; last a repeated id), so for a line with one fault the message
    names that fault.  Texts and stamps are checked but not kept.
    """
    try:
        payload, end = _scan_json(line, 0)
    except StopIteration:  # no JSON value at the start of the line
        end = None
    if end != len(line):
        payload = json.loads(line)  # raises the decoder's own message
    if type(payload) is not dict:
        raise ValueError("session must be a JSON object")
    session_id, user = payload["session_id"], payload["user"]
    if type(session_id) is not str:
        raise ValueError(f"session_id must be a string, got {session_id!r}")
    if type(user) is not str:
        raise ValueError(f"user must be a string, got {user!r}")
    queries = payload["queries"]
    if len(payload) != 3:  # every one of the 3 fields is there
        raise ValueError("a session has only the fields queries, session_id and user")
    if type(queries) is not list:
        raise ValueError("queries must be a list")
    if not queries:
        raise ValueError("session has no queries")
    if not {dict}.issuperset(map(type, queries)):
        raise ValueError("each query must be a JSON object")
    concepts = []
    for query in queries:
        text, stamp, raw = query["text"], query["ts"], query["concepts"]
        if type(text) is not str:
            raise ValueError(f"text must be a string, got {text!r}")
        if type(stamp) is not str:
            raise ValueError(f"ts must be a string, got {stamp!r}")
        if _padded_time(stamp) is None:
            stamps = [q["ts"] for q in queries]
            raise ValueError(f"ts must be YYYY-MM-DD HH:MM:SS times, got {stamps!r}")
        if len(query) != 3:
            raise ValueError("a query has only the fields concepts, text and ts")
        if type(raw) is not list:
            raise ValueError("concepts must be a list")
        try:
            "".join(raw)  # each concept is a string before the list is hashed
        except TypeError:
            raise ValueError(f"concepts must be strings, got {raw!r}") from None
        key = tuple(raw)
        cset = interned.get(key)
        if cset is None:
            if raw != sorted(set(raw)):
                raise ValueError(f"concepts must be sorted and distinct, got {raw!r}")
            cset = interned[key] = frozenset(key)
        concepts.append(cset)
    if session_id in seen:
        raise ValueError(f"duplicate session_id {session_id!r}")
    seen.add(session_id)
    return SearchSession(session_id, users.setdefault(user, user), (), (), tuple(concepts))


def read_reduced_ndjson(path: str | Path) -> ReducedDataset:
    """The sessions of a file that :func:`write_reduced_ndjson` writes, and of no other.

    Each session keeps its id, user and concept sets, and ``texts ==
    timestamps == ()``: every text and stamp is checked, but the program
    reads only the concepts, so session lengths and counts come from them.
    The rule holds per JSON value: whitespace, escapes and key order inside
    a line are not checked.  Lines are decoded and checked one at a time,
    and the first line that breaks the rule, bytes that are not UTF-8
    included, raises ``ValueError`` naming ``path:line``.  A leading UTF-8
    byte order mark is dropped.  Equal concept lists share one set, and
    equal user ids share one string object.
    """
    sessions: list[SearchSession] = []
    seen: set[str] = set()
    interned: dict[tuple[str, ...], frozenset[str]] = {}
    users: dict[str, str] = {}  # each user id -> the first equal string seen
    with open(path, "rb") as handle:  # decoded line by line, to name the bad one
        if handle.peek(len(BOM_UTF8)).startswith(BOM_UTF8):
            handle.read(len(BOM_UTF8))
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode().strip()
                if line:
                    sessions.append(_reduced_session(line, seen, interned, users))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return ReducedDataset(sessions)
