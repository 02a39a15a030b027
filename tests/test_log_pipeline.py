import gc
import json
import random
import tracemalloc
from codecs import BOM_UTF8
from collections import Counter
from datetime import datetime, timedelta, timezone
from itertools import product

import pytest

import cosuggest.log_pipeline
from cosuggest.log_pipeline import (
    TIMESTAMP_FORMAT,
    ReducedDataset,
    SearchSession,
    parse_log,
    parse_timestamp,
    read_reduced_ndjson,
    reduce_dataset,
    session_length_stats,
    split_sessions,
    write_reduced_ndjson,
)
from cosuggest.matching import _NOTHING, ConceptMatcher, match_query

from conftest import (
    DEEP_JSON,
    TWO_LINE_MERGE,
    make_dataset,
    make_records,
    read_reduced_per_line,
    write_log,
)

GAP_30 = timedelta(minutes=30)


def _ts(minute: int) -> str:
    return f"2006-03-01 09:{minute:02d}:00"


# ---------------------------------------------------------- parse_timestamp

def _strptime_or_error(text):
    try:
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError:
        return ValueError


def _parse_timestamp_or_error(text):
    try:
        return parse_timestamp(text)
    except ValueError:
        return ValueError


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def test_parse_timestamp_agrees_with_strptime():
    stamps = [
        "2006-03-01 12:00:00",
        "2006-3-1 1:2:3",
        "2006-03-01T12:00:00",
        "2006-03-01 12:00:00.5",
        "2006-03-01 12:00:00+01:00",
        "2006-02-30 12:00:00",
        "2006-03-01 24:00:00",
        "2006-03-01 12:00:60",
        "2006-03-01 12:00-00",
        "2006-13-01 12:00:00",
        "0000-03-01 12:00:00",
        "2006-03-01 12:00:0 ",
        "+006-03-01 12:00:00",
        "-006-03-01 12:00:00",
        "2006-03-01 12:00:00".translate(ARABIC_INDIC),
        "2006-03-01 12:00:00".translate(FULLWIDTH),
        "2006-03-01 12:00:0" + "5".translate(FULLWIDTH),
    ]
    # One- and two-character mutations of valid stamps, most of them 19 long.
    rng = random.Random(11)
    alphabet = "0123456789-: T+.Z" + "٣５"
    for _ in range(3000):
        valid = datetime(rng.randint(1, 2999), rng.randint(1, 12), rng.randint(1, 28),
                         rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59))
        chars = list(f"{valid.year:04d}-{valid:%m-%d %H:%M:%S}")
        for _ in range(rng.randint(0, 2)):
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
        stamps.append("".join(chars))
    for text in stamps:
        assert _parse_timestamp_or_error(text) == _strptime_or_error(text), text
    assert parse_timestamp("2006-3-1 1:2:3") == datetime(2006, 3, 1, 1, 2, 3)
    with pytest.raises(ValueError):
        parse_timestamp("2006-03-01 24:00:00")


def test_parse_timestamp_sends_only_other_shapes_to_strptime(monkeypatch):
    # The oracle above cannot see a fast path that is never taken.
    sent = []

    class Spy(datetime):
        @classmethod
        def strptime(cls, text, fmt):
            sent.append(text)
            return datetime.strptime(text, fmt)

    monkeypatch.setattr(cosuggest.log_pipeline, "datetime", Spy)
    stamps = ["2006-03-01 12:00:00", "0999-12-31 23:59:59", "2006-3-1 1:2:3", "2006-03-01T12:00:00"]
    with pytest.raises(ValueError):
        parse_timestamp(stamps.pop())
    assert [parse_timestamp(text) for text in stamps] == [
        datetime(2006, 3, 1, 12), datetime(999, 12, 31, 23, 59, 59), datetime(2006, 3, 1, 1, 2, 3)
    ]
    assert sent == ["2006-03-01T12:00:00", "2006-3-1 1:2:3"]


# ---------------------------------------------------------------- parse_log

def test_click_rows_collapse_into_one_record(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(
        path,
        [
            ("u1", "parks", _ts(0), "", ""),
            ("u1", "parks", _ts(0), "1", "http://example.org"),
        ],
    )
    result = parse_log(path)
    assert result.skipped == 0
    assert len(result.records) == 1


def test_row_without_timestamp_skipped(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(path, [("u1", "parks", "not a time", "", ""), ("u1", "beach", _ts(1), "", "")])
    result = parse_log(path)
    assert result.skipped == 1
    assert result.records == [("u1", "beach", datetime(2006, 3, 1, 9, 1))]


def test_empty_file_with_header(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(path, [])
    result = parse_log(path)
    assert result.records == []
    assert result.skipped == 0


def test_short_and_userless_rows_skipped(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text(
        "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
        "too-few-fields\n"
        f"\tno user\t{_ts(2)}\t\t\n"
        f"u9\tfine\t{_ts(3)}\t\t\n",
        encoding="utf-8",
    )
    result = parse_log(path)
    assert result.skipped == 2
    assert [user for user, _, _ in result.records] == ["u9"]


def test_same_query_at_different_times_kept(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(path, [("u1", "parks", _ts(0), "", ""), ("u1", "parks", _ts(9), "", "")])
    assert len(parse_log(path).records) == 2


def test_header_after_byte_order_mark_is_not_a_row(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(path, [("u1", "parks", _ts(0), "", "")])
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    result = parse_log(path)
    assert result.skipped == 0
    assert [(user, text) for user, text, _ in result.records] == [("u1", "parks")]


def test_headerless_log_keeps_a_first_user_named_like_the_header(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text(f"AnonID7\tparks\t{_ts(0)}\t\t\nu2\tbeach\t{_ts(1)}\t\t\n", encoding="utf-8")
    result = parse_log(path)
    assert result.skipped == 0
    assert [user for user, _, _ in result.records] == ["AnonID7", "u2"]


def test_missing_file_raises():
    with pytest.raises(OSError):
        parse_log("/nonexistent/query.log")


# ----------------------------------------------------------- split_sessions

def test_small_gap_single_session():
    records = make_records("u1", [("a", 0), ("b", 10)])
    sessions = split_sessions(records, GAP_30)
    assert len(sessions) == 1
    assert sessions[0].texts == ("a", "b")
    assert sessions[0].timestamps == (datetime(2006, 3, 1, 9, 0), datetime(2006, 3, 1, 9, 10))


def test_large_gap_splits():
    records = make_records("u1", [("a", 0), ("b", 40)])
    sessions = split_sessions(records, GAP_30)
    assert [s.session_id for s in sessions] == ["u1#1", "u1#2"]


def test_gap_exactly_at_threshold_stays_together():
    records = make_records("u1", [("a", 0), ("b", 30)])
    assert len(split_sessions(records, GAP_30)) == 1


def test_users_never_mix():
    records = make_records("u1", [("a", 0), ("b", 5)]) + make_records("u2", [("c", 2), ("d", 7)])
    random.Random(3).shuffle(records)
    owner = {text: user for user, text, _ in records}
    sessions = split_sessions(records, GAP_30)
    assert all(owner[text] == s.user_id for s in sessions for text in s.texts)
    assert {s.user_id for s in sessions} == {"u1", "u2"}


def test_sessions_preserve_user_stream():
    rng = random.Random(5)
    records = []
    for user in ["u1", "u2", "u3"]:
        minutes, m = [], 0
        for _ in range(rng.randint(1, 25)):
            minutes.append((f"q{m}", m))
            m += rng.randint(0, 90)
        records += make_records(user, minutes)
    sessions = split_sessions(records, GAP_30)
    for user in ["u1", "u2", "u3"]:
        original = sorted((r for r in records if r[0] == user), key=lambda r: r[2])
        rebuilt = [
            (user, text, ts)
            for s in sessions
            if s.user_id == user
            for text, ts in zip(s.texts, s.timestamps, strict=True)
        ]
        assert rebuilt == original


def _random_log(rng: random.Random) -> list[tuple[str, str, datetime]]:
    records = []
    for u in range(rng.randint(1, 8)):
        minutes, m = [], 0
        for q in range(rng.randint(1, 30)):
            minutes.append((f"q{q}", m))
            m += rng.randint(0, 80)
        records += make_records(f"u{u}", minutes)
    return records


def test_gap_monotonicity_over_random_logs():
    for seed in range(100):
        rng = random.Random(seed)
        records = _random_log(rng)
        g1 = rng.randint(1, 40)
        g2 = g1 + rng.randint(1, 40)
        n1 = len(split_sessions(records, timedelta(minutes=g1)))
        n2 = len(split_sessions(records, timedelta(minutes=g2)))
        assert n2 <= n1


def test_same_second_queries_keep_first_seen_order(tmp_path, city_ontology):
    """Only the timestamp orders a user's queries: a tie keeps the log's order."""
    log = tmp_path / "log.tsv"
    write_log(
        log,
        [
            ("u1", "park", _ts(5), "", ""),
            ("u1", "beach", _ts(5), "", ""),
            ("u1", "museum", _ts(0), "", ""),
            ("u1", "library", _ts(5), "", ""),
        ],
    )
    sessions = split_sessions(parse_log(log).records, GAP_30)
    order = ("museum", "park", "beach", "library")
    assert [s.texts for s in sessions] == [order]
    assert sessions[0].timestamps == tuple(
        datetime(2006, 3, 1, 9, 0 if text == "museum" else 5) for text in order
    )
    out = tmp_path / "reduced.ndjson"
    matcher = ConceptMatcher.from_ontology(city_ontology)
    write_reduced_ndjson(reduce_dataset(sessions, matcher), out)
    queries = json.loads(out.read_text(encoding="utf-8"))["queries"]
    assert [(q["text"], q["ts"]) for q in queries] == [
        ("museum", _ts(0)), ("park", _ts(5)), ("beach", _ts(5)), ("library", _ts(5)),
    ]


def test_nonpositive_gap_rejected():
    with pytest.raises(ValueError):
        split_sessions([], timedelta(0))


# ----------------------------------------------------------- reduce_dataset

@pytest.fixture
def tally_log(tmp_path):
    """5 users, 12 queries, 8 sessions; 6 sessions contain a concept match."""
    path = tmp_path / "tally.tsv"
    write_log(
        path,
        [
            # u1: three sessions (gaps 50min and 110min)
            ("u1", "park near me", "2006-03-01 09:00:00", "", ""),
            ("u1", "beach resort", "2006-03-01 09:10:00", "", ""),
            ("u1", "weather today", "2006-03-01 10:00:00", "", ""),   # no match
            ("u1", "library hours", "2006-03-01 12:00:00", "", ""),
            # u2: two sessions
            ("u2", "lasagna recipe", "2006-03-01 09:00:00", "", ""),  # no match
            ("u2", "best lasagna", "2006-03-01 09:05:00", "", ""),
            ("u2", "museum tickets", "2006-03-01 11:00:00", "", ""),
            ("u2", "museum cafe", "2006-03-01 11:10:00", "", ""),
            # u3, u4, u5: one session each
            ("u3", "shopping mall", "2006-03-01 09:00:00", "", ""),
            ("u4", "park", "2006-03-01 09:00:00", "", ""),
            ("u4", "dog park", "2006-03-01 09:20:00", "", ""),
            ("u5", "beach", "2006-03-01 09:00:00", "", ""),
        ],
    )
    return path


def test_reduce_tally_fixture(tally_log, city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    parsed = parse_log(tally_log)
    assert len(parsed.records) == 12
    sessions = split_sessions(parsed.records, GAP_30)
    assert len(sessions) == 8
    assert len({s.user_id for s in sessions}) == 5

    ds = reduce_dataset(sessions, matcher)
    # Hand tally: u1#1 (2 queries), u1#3 (1), u2#2 (2), u3#1 (1), u4#1 (2), u5#1 (1).
    assert ds.stats.sessions == 6
    assert ds.stats.queries == 9
    assert ds.stats.users == 5
    assert {s.session_id for s in ds.sessions} == {
        "u1#1", "u1#3", "u2#2", "u3#1", "u4#1", "u5#1",
    }
    concepts = {s.session_id: s.concepts for s in ds.sessions}
    assert concepts["u1#1"] == (frozenset({"park"}), frozenset({"beach"}))


def test_reduce_drops_matchless_sessions(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    sessions = split_sessions(make_records("u1", [("pasta", 0), ("pizza", 5)]), GAP_30)
    ds = reduce_dataset(sessions, matcher)
    assert ds.sessions == []


def test_reduce_keeps_partial_match_sessions(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    sessions = split_sessions(
        make_records("u1", [("pizza", 0), ("park", 5), ("pasta", 10)]), GAP_30
    )
    ds = reduce_dataset(sessions, matcher)
    assert len(ds.sessions) == 1
    assert ds.sessions[0].concepts == (frozenset(), frozenset({"park"}), frozenset())


def test_reduce_output_is_subset_of_input(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    rng = random.Random(17)
    words = ["park", "beach", "pizza", "news"]
    records = []
    for u in range(6):
        minutes, m = [], 0
        for _ in range(rng.randint(1, 10)):
            minutes.append((rng.choice(words), m))
            m += rng.randint(0, 70)
        records += make_records(f"u{u}", minutes)
    sessions = split_sessions(records, GAP_30)
    ds = reduce_dataset(sessions, matcher)
    def key(s):
        return (s.session_id, s.user_id, s.texts, s.timestamps)

    assert set(map(key, ds.sessions)) <= set(map(key, sessions))
    assert all(len(s.concepts) == len(s.texts) for s in ds.sessions)


def test_reduce_matches_each_distinct_text_once(city_ontology, monkeypatch):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    rng = random.Random(23)
    texts = ["park", "beach walk", "pizza", "news today", "museum cafe", "dog park", "tea"]
    records = []
    for u in range(12):
        m = 0
        stream = []
        for _ in range(rng.randint(1, 12)):
            stream.append((rng.choice(texts), m))
            m += rng.randint(0, 70)
        records += make_records(f"u{u}", stream)
    sessions = split_sessions(records, GAP_30)

    # Oracle: match every query on its own and keep sessions with any match.
    expected = []
    for s in sessions:
        per_query = tuple(match_query(matcher, text) for text in s.texts)
        if any(per_query):
            expected.append((s.session_id, s.user_id, s.texts, s.timestamps, per_query))

    calls = Counter()

    def counting(m, text):
        calls[text] += 1
        return match_query(m, text)

    monkeypatch.setattr(cosuggest.log_pipeline, "match_query", counting)
    ds = reduce_dataset(sessions, matcher)
    got = [(s.session_id, s.user_id, s.texts, s.timestamps, s.concepts) for s in ds.sessions]
    assert got == expected
    assert 0 < len(expected) < len(sessions)
    all_texts = [text for s in sessions for text in s.texts]
    assert len(all_texts) > len(set(all_texts))
    assert calls == Counter(set(all_texts))


def test_reduce_keeps_the_index_sets(city_ontology):
    # A text that matches one phrase carries that phrase's set from the index,
    # so the dataset holds one set per distinct phrase set, not one per text.
    matcher = ConceptMatcher.from_ontology(city_ontology)
    index = matcher.index
    records = make_records("u1", [("park near me", 0), ("dog park", 5), ("pizza", 10)])
    records += make_records("u2", [("public gardens", 0), ("park and beach", 5), ("parks", 10)])
    ds = reduce_dataset(split_sessions(records, GAP_30), matcher)
    by_text = {t: c for s in ds.sessions for t, c in zip(s.texts, s.concepts)}
    assert len(by_text) == 6
    for text in ("park near me", "dog park", "parks"):
        assert by_text[text] is index[("park",)], text
    assert by_text["public gardens"] is index[("public", "garden")]
    assert by_text["pizza"] is _NOTHING
    assert by_text["park and beach"] == {"park", "beach"}


# ----------------------------------------------------- session_length_stats

def test_length_stats_uniform():
    ds = make_dataset({f"u{i}#1": [{"a"}] for i in range(4)})
    stats = session_length_stats(ds)
    assert stats.mean == 1 and stats.median == 1 and stats.stdev == 0
    assert stats.histogram == {1: 4}


def test_length_stats_mixed():
    ds = make_dataset(
        {
            "u1#1": [{"a"}],
            "u2#1": [{"a"}],
            "u3#1": [{"a"}, {"b"}],
            "u4#1": [{"a"}, {"b"}, {"c"}, {"d"}],
        }
    )
    stats = session_length_stats(ds)
    assert stats.min == 1
    assert stats.max == 4
    assert stats.mean == pytest.approx(2.0)
    assert stats.median == 1  # lower median of [1, 1, 2, 4]
    assert stats.stdev == pytest.approx(1.224744871391589)
    assert stats.histogram == {1: 2, 2: 1, 4: 1}


def test_length_stats_empty_dataset():
    ds = make_dataset({})
    with pytest.raises(ValueError):
        session_length_stats(ds)


# ------------------------------------------------------------------- NDJSON

def test_ndjson_roundtrip(tally_log, city_ontology, tmp_path):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    ds = reduce_dataset(split_sessions(parse_log(tally_log).records, GAP_30), matcher)
    out = tmp_path / "reduced.ndjson"
    write_reduced_ndjson(ds, out)
    loaded = read_reduced_ndjson(out)
    assert [(s.session_id, s.user_id, s.concepts) for s in loaded.sessions] == [
        (s.session_id, s.user_id, s.concepts) for s in ds.sessions
    ]
    assert {(s.texts, s.timestamps) for s in loaded.sessions} == {((), ())}
    assert loaded.stats == ds.stats
    # Query texts and timestamps survive the round trip too, as the oracle reads them.
    assert read_reduced_per_line(out).sessions == ds.sessions


def test_ndjson_roundtrip_before_year_1000(city_ontology, tmp_path):
    log = tmp_path / "log.tsv"
    write_log(log, [("u1", "park", "0999-01-02 03:04:05", "", "")])
    ds = reduce_dataset(
        split_sessions(parse_log(log).records, GAP_30), ConceptMatcher.from_ontology(city_ontology)
    )
    out = tmp_path / "reduced.ndjson"
    write_reduced_ndjson(ds, out)
    assert json.loads(out.read_text(encoding="utf-8"))["queries"][0]["ts"] == "0999-01-02 03:04:05"
    assert read_reduced_per_line(out).sessions == ds.sessions
    assert ds.sessions[0].timestamps == (datetime(999, 1, 2, 3, 4, 5),)
    assert read_reduced_ndjson(out).sessions[0].concepts == ds.sessions[0].concepts


def test_reduced_concept_sets_are_interned(tmp_path):
    lists = [["a", "b"], ["a\tb"], ["a", "b"], [], ["a", "c"], ["a\tb"], [], ["a", "b"]]
    path = tmp_path / "reduced.ndjson"
    path.write_text(
        "".join(
            json.dumps(
                {
                    "session_id": f"u#{i}",
                    "user": "u",
                    "queries": [{"text": "q", "ts": _ts(0), "concepts": raw}],
                }
            )
            + "\n"
            for i, raw in enumerate(lists)
        ),
        encoding="utf-8",
    )
    got = [s.concepts[0] for s in read_reduced_ndjson(path).sessions]
    assert got == [frozenset(raw) for raw in lists]
    for i, j in ((0, 2), (0, 7), (1, 5), (3, 6)):
        assert got[i] is got[j]
    assert got[0] != got[1]


# Only equal values may share an object: a trailing space, case, and NFC
# against NFD each keep their own string.
NEARLY_EQUAL_TEXTS = ["park", "park ", "Park", "caf\u00e9", "cafe\u0301"]


def _assert_one_object_per_value(values):
    assert len({id(value) for value in values}) == len(set(values))


def test_parse_log_shares_user_ids_and_texts(tmp_path):
    path = tmp_path / "log.tsv"
    pairs = list(product(("user-1", "user-22"), NEARLY_EQUAL_TEXTS * 2 + ["beach"] * 3))
    write_log(path, [(user, text, _ts(minute), "", "") for minute, (user, text) in enumerate(pairs)])
    records = parse_log(path).records
    assert [(user, text) for user, text, _ in records] == pairs
    users, texts, _ = zip(*records)
    _assert_one_object_per_value(users)
    _assert_one_object_per_value(texts)


def test_reduced_user_ids_and_texts_are_shared(tmp_path):
    sessions = [
        {
            "session_id": f"{user}#{ordinal}",
            "user": user,
            "queries": [
                {"text": text, "ts": _ts(minute), "concepts": ["c"]}
                for minute, text in enumerate(NEARLY_EQUAL_TEXTS)
            ],
        }
        for user in ("user-1", "user-22")
        for ordinal in (1, 2)
    ]
    path = tmp_path / "reduced.ndjson"
    path.write_text("".join(json.dumps(s) + "\n" for s in sessions), encoding="utf-8")
    got = read_reduced_ndjson(path).sessions
    assert [s.user_id for s in got] == [s["user"] for s in sessions]
    _assert_one_object_per_value([s.user_id for s in got])
    # The reader keeps no texts; the oracle, which the round trips read through, shares them.
    oracle = read_reduced_per_line(path).sessions
    assert [list(s.texts) for s in oracle] == [[q["text"] for q in s["queries"]] for s in sessions]
    _assert_one_object_per_value([text for s in oracle for text in s.texts])


def test_ndjson_bytes_deterministic(tally_log, city_ontology, tmp_path):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    ds = reduce_dataset(split_sessions(parse_log(tally_log).records, GAP_30), matcher)
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_reduced_ndjson(ds, a)
    write_reduced_ndjson(ds, b)
    assert a.read_bytes() == b.read_bytes()


def _random_reduced_dataset(rng):
    """Sessions that the writer may or may not be able to write: stamps with
    microseconds or a time zone, sessions without queries, repeated ids."""
    sessions = []
    for i in range(rng.randint(1, 6)):
        n = rng.choice((0, 1, 2, 3, 3))
        stamps = [datetime(2006, 3, 1, 9, rng.randrange(60), rng.randrange(60)) for _ in range(n)]
        if stamps and rng.random() < 0.15:
            stamps[-1] = stamps[-1].replace(microsecond=rng.choice((1, 123456)))
        if stamps and rng.random() < 0.15:
            stamps[0] = stamps[0].replace(tzinfo=timezone.utc)
        session_id = f"u#{rng.randrange(3) if rng.random() < 0.2 else i + 10}"
        sessions.append(
            SearchSession(
                session_id,
                "u",
                tuple(rng.choice(NEARLY_EQUAL_TEXTS) for _ in range(n)),
                tuple(stamps),
                tuple(frozenset(rng.sample(("park", "beach", "a\tb"), rng.randint(0, 2))) for _ in range(n)),
            )
        )
    return ReducedDataset(sessions)


def test_reduced_writer_refuses_what_the_reader_rejects(tmp_path):
    path = tmp_path / "reduced.ndjson"
    reasons, written = set(), 0
    for seed in range(300):
        ds = _random_reduced_dataset(random.Random(seed))
        try:
            write_reduced_ndjson(ds, path)
        except ValueError as exc:
            session, reason = str(exc).split("' ", 1)
            assert session.startswith("session 'u#")
            reasons.add(reason)
            assert not path.exists()  # refused before anything is written
            continue
        assert read_reduced_per_line(path).sessions == ds.sessions
        assert [s.concepts for s in read_reduced_ndjson(path).sessions] == [
            s.concepts for s in ds.sessions
        ]
        path.unlink()
        written += 1
    assert written and reasons == {
        "has no queries",
        "is repeated",
        "has a stamp with microseconds or a time zone",
    }


def test_reduced_writer_refuses_a_concept_only_dataset(tally_log, city_ontology, tmp_path):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    full = reduce_dataset(split_sessions(parse_log(tally_log).records, GAP_30), matcher).sessions
    path, out = tmp_path / "reduced.ndjson", tmp_path / "again.ndjson"
    write_reduced_ndjson(ReducedDataset(full), path)
    lean = read_reduced_ndjson(path).sessions
    # Also after sessions that it could write, the writer writes nothing.
    for sessions, bad in ((lean, lean[0]), (full + lean[-1:], lean[-1])):
        with pytest.raises(ValueError) as exc:
            write_reduced_ndjson(ReducedDataset(sessions), out)
        assert str(exc.value) == (
            f"session {bad.session_id!r} has 0 texts, 0 stamps and {len(bad.concepts)} concept sets"
        )
        assert not out.exists()


def _traced_size(read):
    """The bytes that ``read()``'s result holds, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        dataset = read()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dataset.sessions
    return size


# On this file the reader held 53% of the traced bytes of the oracle's read,
# which keeps texts and stamps (CPython 3.10, 3.11 and 3.13, also with
# -X dev); the bound leaves room.
CONCEPT_ONLY_SHARE = 0.6


def test_concept_only_read_holds_a_share_of_a_full_read(tmp_path):
    rng = random.Random(27)
    words = [f"w{i}" for i in range(400)]
    concepts = [f"c{i:02d}" for i in range(60)]
    path = tmp_path / "reduced.ndjson"
    path.write_bytes(
        b"".join(
            _line(
                {
                    "session_id": f"u{i // 3}#{i % 3 + 1}",
                    "user": f"u{i // 3}",
                    "queries": [
                        {
                            "text": " ".join(rng.choices(words, k=rng.randint(1, 4))),
                            "ts": _ts(rng.randrange(60)),
                            "concepts": sorted(rng.sample(concepts, rng.randint(0, 2))),
                        }
                        for _ in range(rng.randint(1, 6))
                    ],
                }
            )
            for i in range(2000)
        )
    )
    read_reduced_ndjson(path)  # module-level caches are not the dataset's
    read_reduced_per_line(path)
    full = _traced_size(lambda: read_reduced_per_line(path))
    lean = _traced_size(lambda: read_reduced_ndjson(path))
    assert lean <= CONCEPT_ONLY_SHARE * full


# ------------------------------------- reduced reader against the oracle

WRONG_VALUES = (7, None, True, 1.5, "x", "", [], {}, ["park"], [3], {"text": "park"})
ODD_STAMPS = (
    "2006-13-01 09:00:00",
    "2006-03-01T09:00:00",
    "2006-3-1 9:0:0",  # strptime accepts this one, but the writer never writes it
    "2006-03-01 24:00:00",
    "2006-03-01 09:00:00+00:00",
    "2006-03-01 09:00:00.5",
    "2006-03-01 09:00:60",
    "2006-03-01 9:00:00 ",
    "\uff12\uff10\uff10\uff16-03-01 09:00:00",
    "0000-01-01 00:00:00",
    "",
)


def _session_payload(rng, number):
    return {
        "session_id": f"s#{number}",
        "user": rng.choice(("u1", "u22", "caf\u00e9")),
        "queries": [
            {
                "text": rng.choice(NEARLY_EQUAL_TEXTS + ["beach"]),
                "ts": _ts(rng.randrange(60)),
                "concepts": sorted(rng.sample(("park", "beach", "a\tb", "museum"), rng.randint(0, 2))),
            }
            for _ in range(rng.randint(1, 3))
        ],
    }


def _line(payload) -> bytes:
    return json.dumps(payload).encode() + b"\n"


def _missing_key(rng, lines, at):
    payload = json.loads(lines[at])
    key = rng.choice(("session_id", "user", "queries", "text", "ts", "concepts"))
    del (payload if key in payload else rng.choice(payload["queries"]))[key]
    lines[at] = _line(payload)


# The JSON type that each place in a session line must hold.
EXPECTED_TYPES = {
    "line": dict,
    "session_id": str,
    "user": str,
    "queries": list,
    "query": dict,
    "text": str,
    "ts": str,
    "concepts": list,
    "concept": str,
}


def _wrong_type(rng, lines, at):
    payload = json.loads(lines[at])
    target = rng.choice(list(EXPECTED_TYPES))
    value = rng.choice([v for v in WRONG_VALUES if type(v) is not EXPECTED_TYPES[target]])
    query = rng.choice(payload["queries"])
    if target == "line":
        payload = value
    elif target in ("session_id", "user", "queries"):
        payload[target] = value
    elif target == "query":
        payload["queries"][0] = value
    elif target == "concept":
        query["concepts"].append(value)
    else:
        query[target] = value
    lines[at] = _line(payload)


def _no_queries(rng, lines, at):
    payload = json.loads(lines[at])
    payload["queries"] = rng.choice(([], {}, ""))
    lines[at] = _line(payload)


def _bad_stamp(rng, lines, at):
    payload = json.loads(lines[at])
    rng.choice(payload["queries"])["ts"] = rng.choice(ODD_STAMPS)
    lines[at] = _line(payload)


def _extra_field(rng, lines, at):
    payload = json.loads(lines[at])
    rng.choice((payload, rng.choice(payload["queries"])))[rng.choice(("extra", "Text", "id"))] = 1
    lines[at] = _line(payload)


def _concepts_out_of_order(rng, lines, at):
    payload = json.loads(lines[at])
    query = rng.choice(payload["queries"])
    concept = rng.choice(query["concepts"] or ["park"])
    query["concepts"] = rng.choice(([concept, concept], ["zoo", concept], [*query["concepts"], "a"]))
    lines[at] = _line(payload)


def _duplicate_id(rng, lines, at):
    payload = json.loads(lines[at])
    other = rng.choice([i for i in range(len(lines)) if i != at])
    payload["session_id"] = json.loads(lines[other])["session_id"]
    lines[at] = _line(payload)


def _blank(rng, lines, at):
    lines[at] = rng.choice((b"\n", b"   \n", b"\t \r\n", b"\r\n", b"\x0c\n"))


def _crlf(rng, lines, at):
    lines[at] = rng.choice((b"", b" ", b"\t")) + lines[at].rstrip(b"\n") + b"\r\n"


def _bom(rng, lines, at):
    lines[at] = b"\xef\xbb\xbf" + lines[at]


def _not_utf8(rng, lines, at):
    bad = rng.choice((b"\xff", b"\xc3(", b"\xed\xa0\x80"))
    lines[at] = lines[at].replace(b'"text": "', b'"text": "' + bad, 1)


def _deep(rng, lines, at):
    payload = json.loads(lines[at])
    rng.choice(payload["queries"])["concepts"] = "DEEP"
    deep = (DEEP_JSON, json.dumps(payload).replace('"DEEP"', DEEP_JSON))
    lines[at] = rng.choice(deep).encode() + b"\n"


def _two_line_merge(rng, lines, at):
    at = min(at, len(lines) - 2)
    lines[at : at + 2] = [line.encode() + b"\n" for line in TWO_LINE_MERGE]


MUTATIONS = {
    "missing-key": _missing_key,
    "wrong-type": _wrong_type,
    "no-queries": _no_queries,
    "bad-stamp": _bad_stamp,
    "duplicate-id": _duplicate_id,
    "extra-field": _extra_field,
    "concepts-out-of-order": _concepts_out_of_order,
    "blank-line": _blank,
    "crlf": _crlf,
    "bom": _bom,
    "not-utf8": _not_utf8,
    "deep-nesting": _deep,
    "two-line-merge": _two_line_merge,
}


def _sharing(values):
    """Each value's first position among the values that are the same object."""
    first = {}
    return [first.setdefault(id(value), i) for i, value in enumerate(values)]


def _assert_reads_as_oracle(path):
    """Checks the reader against the oracle; returns whether both accept the file."""
    try:
        expected = read_reduced_per_line(path).sessions
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_reduced_ndjson(path)
        assert str(got.value) == str(exc)
        return False
    got = read_reduced_ndjson(path).sessions
    # What the oracle accepts, the writer writes back as the same JSON values.
    again = path.with_name("again.ndjson")
    write_reduced_ndjson(ReducedDataset(expected), again)
    lines = path.read_bytes().removeprefix(BOM_UTF8).splitlines()
    assert [json.loads(line) for line in lines if line.strip()] == list(
        map(json.loads, again.read_bytes().splitlines())
    )

    # The reader keeps the oracle's ids, users and concept sets, shared
    # alike, and nothing else of the queries.
    assert [(s.session_id, s.user_id, s.concepts) for s in got] == [
        (s.session_id, s.user_id, s.concepts) for s in expected
    ]
    assert {(s.texts, s.timestamps) for s in got} <= {((), ())}
    for column in (lambda s: (s.user_id,), lambda s: s.concepts):
        assert _sharing([v for s in got for v in column(s)]) == _sharing(
            [v for s in expected for v in column(s)]
        )
    return True


@pytest.mark.parametrize("position", ["first", "chunk-end", "chunk-start", "last"])
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_chunked_reader_matches_per_line_oracle(tmp_path, mutation, position):
    for seed in range(7):  # 308 files over the 44 cases
        rng = random.Random(f"{mutation}/{position}/{seed}")
        lines = [_line(_session_payload(rng, i)) for i in range(rng.randint(102, 202))]
        at = {"first": 0, "chunk-end": 99, "chunk-start": 100, "last": len(lines) - 1}
        MUTATIONS[mutation](rng, lines, at[position])
        if rng.random() < 0.25:
            lines[-1] = lines[-1].rstrip(b"\n")
        path = tmp_path / f"{seed}.ndjson"
        path.write_bytes(b"".join(lines))
        _assert_reads_as_oracle(path)


def test_chunked_reader_reads_valid_chunks_column_wise(tmp_path):
    rng = random.Random(3)
    for n in (1, 99, 100, 101, 300):
        path = tmp_path / f"{n}.ndjson"
        path.write_bytes(b"".join(_line(_session_payload(rng, i)) for i in range(n)))
        assert len(read_reduced_ndjson(path).sessions) == n
        assert _assert_reads_as_oracle(path)


_DROP = object()
# Two faults in one session line, each as (query index, or None for the
# session object; key, or None for the whole query; value, or _DROP to
# remove the key).  In the first five, the oracle, which checks a column
# of every query before the next column, meets the second fault first,
# while the reader, a per-query checker, meets the first in the third to
# fifth.  In the first two it meets the second too: it checks every query's
# type before any field, and its stamp message lists every query's stamp.
TWO_FAULTS = {
    "bad-stamp+no-ts": ((0, "ts", "2006-13-01 09:00:00"), (1, "ts", _DROP)),
    "no-text+query-not-object": ((0, "text", _DROP), (1, None, ["text"])),
    "concepts-not-list+no-concepts": ((0, "concepts", "park"), (1, "concepts", _DROP)),
    "stamp-not-string+no-ts": ((0, "ts", 7), (1, "ts", _DROP)),
    "concepts-not-list+no-ts": ((0, "concepts", "park"), (1, "ts", _DROP)),
    "user-not-string+duplicate-id": ((None, "user", 7), (None, "session_id", "s#3")),
}


def _with_faults(faults):
    payload = {
        "session_id": "s#149",
        "user": "u1",
        "queries": [
            {"text": "park", "ts": _ts(1), "concepts": ["park"]},
            {"text": "beach", "ts": _ts(2), "concepts": ["beach"]},
        ],
    }
    for where, key, value in faults:
        if key is None:
            payload["queries"][where] = value
            continue
        target = payload if where is None else payload["queries"][where]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    return payload


@pytest.mark.parametrize("faults", list(TWO_FAULTS))
def test_line_with_two_faults_is_named_with_one_of_them(tmp_path, faults):
    rng = random.Random(faults)
    lines = [_line(_session_payload(rng, i)) for i in range(250)]
    path = tmp_path / "reduced.ndjson"

    def messages(chosen):
        """The reader's and the oracle's message for these faults at line 150."""
        lines[149] = _line(_with_faults(chosen))
        path.write_bytes(b"".join(lines))
        got = []
        for read in (read_reduced_ndjson, read_reduced_per_line):
            with pytest.raises(ValueError) as exc:
                read(path)
            assert str(exc.value).startswith(f"{path}:150: ")
            got.append(str(exc.value).removeprefix(f"{path}:150: "))
        return got

    first, second = TWO_FAULTS[faults]
    alone = [messages([first]), messages([second])]
    assert [reader for reader, oracle in alone] == [oracle for reader, oracle in alone]
    single = {reader for reader, oracle in alone}
    assert len(single) == 2
    assert messages([first, second])[0] in single
