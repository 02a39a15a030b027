import random
from datetime import timedelta

import pytest

from cosuggest.log_pipeline import (
    QueryRecord,
    parse_log,
    read_reduced_ndjson,
    reduce_dataset,
    session_length_stats,
    split_sessions,
    write_reduced_ndjson,
)
from cosuggest.matching import ConceptMatcher

from conftest import make_dataset, make_records, write_log

GAP_30 = timedelta(minutes=30)


def _ts(minute: int) -> str:
    return f"2006-03-01 09:{minute:02d}:00"


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
    assert result.records[0].clicked is True


def test_row_without_timestamp_skipped(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(path, [("u1", "parks", "not a time", "", ""), ("u1", "beach", _ts(1), "", "")])
    result = parse_log(path)
    assert result.skipped == 1
    assert [r.query_text for r in result.records] == ["beach"]


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
    assert [r.user_id for r in result.records] == ["u9"]


def test_same_query_at_different_times_kept(tmp_path):
    path = tmp_path / "log.tsv"
    write_log(path, [("u1", "parks", _ts(0), "", ""), ("u1", "parks", _ts(9), "", "")])
    assert len(parse_log(path).records) == 2


def test_missing_file_raises():
    with pytest.raises(OSError):
        parse_log("/nonexistent/query.log")


# ----------------------------------------------------------- split_sessions

def test_small_gap_single_session():
    records = make_records("u1", [("a", 0), ("b", 10)])
    sessions = split_sessions(records, GAP_30)
    assert len(sessions) == 1
    assert len(sessions[0].queries) == 2


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
    sessions = split_sessions(records, GAP_30)
    assert all(len({q.user_id for q in s.queries}) == 1 for s in sessions)
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
        original = sorted(
            (r for r in records if r.user_id == user), key=lambda r: r.timestamp
        )
        rebuilt = [q for s in sessions if s.user_id == user for q in s.queries]
        assert sorted(rebuilt, key=lambda r: r.timestamp) == original
        assert len(rebuilt) == len(original)


def _random_log(rng: random.Random) -> list[QueryRecord]:
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
        return (s.session_id, s.user_id, s.queries)

    assert set(map(key, ds.sessions)) <= set(map(key, sessions))
    assert all(len(s.concepts) == len(s.queries) for s in ds.sessions)


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
    assert [s.session_id for s in loaded.sessions] == [s.session_id for s in ds.sessions]
    assert [s.concepts for s in loaded.sessions] == [s.concepts for s in ds.sessions]
    assert loaded.stats == ds.stats
    # Query text and timestamps survive the round trip.
    assert loaded.sessions[0].queries[0].query_text == ds.sessions[0].queries[0].query_text
    assert loaded.sessions[0].queries[0].timestamp == ds.sessions[0].queries[0].timestamp


def test_ndjson_bytes_deterministic(tally_log, city_ontology, tmp_path):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    ds = reduce_dataset(split_sessions(parse_log(tally_log).records, GAP_30), matcher)
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    write_reduced_ndjson(ds, a)
    write_reduced_ndjson(ds, b)
    assert a.read_bytes() == b.read_bytes()
