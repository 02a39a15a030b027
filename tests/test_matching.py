import logging
import random
import re
from pathlib import Path

import pytest

from cosuggest.matching import (
    _NOTHING,
    ConceptMatcher,
    _strip_suffix,
    load_lexicon,
    match_query,
    normalize,
)
from cosuggest.ontology import load_ontology, ontology_from_dict


def _matcher(phrase_map: dict[tuple[str, ...], set[str]]) -> ConceptMatcher:
    return ConceptMatcher(index={p: frozenset(ids) for p, ids in phrase_map.items()})


def test_normalize_strips_punctuation_and_suffixes():
    assert normalize("Parks near Turin!") == ["park", "near", "turin"]


def test_normalize_empty():
    assert normalize("") == []


def test_normalize_stable_on_normal_form():
    assert normalize("park") == ["park"]
    for word in ["park", "beach", "shop", "run", "library", "church", "garden"]:
        once = normalize(word)
        assert [t for w in once for t in normalize(w)] == once
    # "buildings" -> "building" must not stop one rule short of "build".
    assert normalize("buildings") == normalize("building") == ["build"]
    rng = random.Random(2024)
    letters = "abcdefghijklmnoprstuvyz"
    suffixes = ["", "s", "es", "ies", "ing", "ings", "sing", "ning", "nings", "sses", "ches", "xes"]
    for _ in range(2000):
        stem = "".join(rng.choices(letters, k=rng.randint(1, 7)))
        word = stem + "".join(rng.choices(suffixes, k=rng.randint(1, 3)))
        once = normalize(word)
        assert normalize(" ".join(once)) == once, word


def _normalize_slow(text: str) -> list[str]:
    """Every token through the whole suffix table: the oracle for ``normalize``."""
    return [_strip_suffix(t) for t in re.split(r"[^a-z0-9]+", text.lower()) if t]


def test_normalize_matches_the_full_suffix_table():
    # ``normalize`` sends only tokens ending in "s" or "g" through the table.
    inflected = [
        "libraries", "cities", "churches", "beaches", "bushes", "classes", "boxes",
        "buzzes", "glass", "glasses", "bus", "buses", "parks", "gas", "yes", "this",
        "shopping", "running", "parking", "buildings", "swimming", "sitting", "sing",
        "king", "kings", "ring", "ings", "ing", "s", "g", "ss", "gs", "sings",
    ]
    other = ["park", "museum", "cafe", "pizza", "library", "beach", "route66", "a1", "x", "2024"]
    non_ascii = [
        "Café", "straße", "İstanbul", "\uff11\uff12", "\u212aings", "PAR\u212aS", "naïve",
        "Œuvres", "ＰＡＲＫＳ",
    ]
    separators = [" ", "  ", "!!", "_", "-", "...", "\t", "\n", "—", "'", "/"]
    rng = random.Random(31)
    texts = ["", " ", "!!", "_s_", "-g-", "Café straße", "İstanbul", "\uff11\uff12\uff13",
             "\u212a", "\u212aings", "SHOPPING Malls!", "  parks, gardens & beaches  "]
    for _ in range(3000):
        words = []
        for _ in range(rng.randint(0, 6)):
            pool = rng.choice((inflected, other, non_ascii))
            word = rng.choice(pool)
            if rng.random() < 0.3:
                word = word.upper() if rng.random() < 0.5 else word.title()
            words.append(word)
        text = "".join(w + rng.choice(separators) for w in words)
        if rng.random() < 0.5:
            text = rng.choice(separators) + text
        texts.append(text if rng.random() < 0.5 else text.rstrip())
    ends = dict.fromkeys(("s", "g", "digit", "other"), 0)
    for text in texts:
        assert normalize(text) == _normalize_slow(text), repr(text)
        for token in re.findall(r"[a-z0-9]+", text.lower()):
            last = token[-1]
            ends["digit" if last.isdigit() else last if last in "sg" else "other"] += 1
    assert normalize("Café") == ["caf"]
    assert normalize("\u212aings") == ["king"]  # the Kelvin sign lowercases to "k"
    assert normalize("\uff11\uff12") == []  # fullwidth digits are not ASCII
    assert all(count >= 500 for count in ends.values()), ends


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("libraries", ["library"]),
        ("churches", ["church"]),
        ("beaches", ["beach"]),
        ("running", ["run"]),
        ("shopping", ["shop"]),
        ("parking", ["park"]),
        ("Shopping_Mall", ["shop", "mall"]),
        ("glass", ["glass"]),
        ("bus", ["bus"]),
    ],
)
def test_suffix_rules(raw, expected):
    assert normalize(raw) == expected


def test_match_single_phrase():
    matcher = _matcher({("park",): {"P"}})
    assert match_query(matcher, "parks in rome") == frozenset({"P"})


def test_match_nothing():
    matcher = _matcher({("park",): {"P"}})
    assert match_query(matcher, "quantum entanglement") == frozenset()


def test_overlapping_phrases_both_fire():
    matcher = _matcher({("shop", "mall"): {"M"}, ("mall",): {"M2"}})
    assert match_query(matcher, "big shopping mall") == frozenset({"M", "M2"})


def test_phrase_collision_maps_to_both_classes():
    ont = ontology_from_dict(
        {
            "root": "root",
            "classes": [
                {"id": "root", "label": "root", "parents": [], "annotations": []},
                {
                    "id": "A",
                    "label": "A",
                    "parents": ["root"],
                    "annotations": [{"surface": "green area", "lemmas": ["green", "area"]}],
                },
                {
                    "id": "B",
                    "label": "B",
                    "parents": ["root"],
                    "annotations": [{"surface": "green area", "lemmas": ["green", "area"]}],
                },
            ],
        }
    )
    index = ConceptMatcher.from_ontology(ont).index
    assert index[("green", "area")] == frozenset({"A", "B"})


def test_multiple_phrases_same_class(city_ontology):
    index = ConceptMatcher.from_ontology(city_ontology).index
    assert index[("park",)] == frozenset({"park"})
    assert index[("public", "garden")] == frozenset({"park"})


def test_unannotated_classes_reported(caplog):
    greek = [{"surface": "Πάρκο", "lemmas": ["πάρκο"]}]  # normalizes to no token
    ont = ontology_from_dict(
        {
            "root": "root",
            "classes": [
                {"id": "root", "label": "root", "parents": [], "annotations": []},
                {"id": "bare", "label": "Bare", "parents": ["root"], "annotations": []},
                {"id": "greek", "label": "Greek", "parents": ["root"], "annotations": greek},
                {"id": "never", "label": "Πάρκο", "parents": ["root"], "annotations": greek},
            ],
        }
    )
    with caplog.at_level(logging.WARNING, logger="cosuggest.matching"):
        index = ConceptMatcher.from_ontology(ont).index
    assert [r.getMessage() for r in caplog.records] == [
        "2 classes match through labels only, as no annotation or lexicon phrase of theirs"
        " normalizes to a token: bare, greek",
        "1 classes can never match, as not even their label normalizes to a token: never",
    ]
    # The label is still indexed, so the class remains matchable.
    assert index[("bare",)] == frozenset({"bare"})
    assert index[("greek",)] == frozenset({"greek"})
    assert all("never" not in ids for ids in index.values())
    # A lexicon phrase makes the class annotated; one that normalizes to nothing does not.
    for lexicon, warned in (({"bare": ["!!"]}, True), ({"bare": ["plain"]}, False)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cosuggest.matching"):
            ConceptMatcher.from_ontology(ont, lexicon)
        assert ("bare" in caplog.text) is warned


def test_demo_ontology_warnings_pinned(caplog):
    demo = Path(__file__).resolve().parent.parent / "demos" / "data"
    ont = load_ontology(demo / "city_ontology.json")
    with caplog.at_level(logging.WARNING, logger="cosuggest.matching"):
        ConceptMatcher.from_ontology(ont, load_lexicon(demo / "lexicon.json"))
    assert [r.getMessage() for r in caplog.records] == [
        "5 classes match through labels only, as no annotation or lexicon phrase of theirs"
        " normalizes to a token: admin_area, commerce, culture_venue, eating_place, water_feature"
    ]


def test_stored_lemmas_normalized_at_index_time(city_ontology):
    # Annotation says "shopping"; queries normalize to "shop"; both must meet.
    matcher = ConceptMatcher.from_ontology(city_ontology)
    assert "mall" in match_query(matcher, "shopping malls downtown")


def test_matches_stay_within_ontology(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    rng = random.Random(7)
    vocabulary = ["park", "beach", "museum", "mall", "library", "pizza", "the", "near"]
    for _ in range(200):
        text = " ".join(rng.choices(vocabulary, k=rng.randint(1, 6)))
        assert match_query(matcher, text) <= set(city_ontology.classes)


def test_lexicon_merge_adds_phrases(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology, lexicon={"park": ["green space"]})
    assert "park" in match_query(matcher, "green spaces nearby")
    # A lexicon phrase is normalized once, like the query it must meet.
    matcher = ConceptMatcher.from_ontology(city_ontology, lexicon={"beach": ["hot springs"]})
    assert match_query(matcher, "hot springs") == frozenset({"beach"})
    assert match_query(matcher, "a hot spring nearby") == frozenset({"beach"})


def test_lexicon_unknown_class_rejected(city_ontology):
    with pytest.raises(ValueError, match="undefined classes"):
        ConceptMatcher.from_ontology(city_ontology, lexicon={"nope": ["x"]})


def test_lexicon_root_entry_rejected(city_ontology):
    # The root is never indexed, so its phrases would match nothing.
    with pytest.raises(ValueError) as info:
        ConceptMatcher.from_ontology(city_ontology, lexicon={"thing": ["anything at all"]})
    assert str(info.value) == "lexicon maps the root class 'thing', which is never indexed"


_WORDS = ["park", "parks", "green", "area", "shopping", "shop", "hall", "old", "town", "!!"]


def _random_annotated_ontology(rng: random.Random):
    """A random DAG whose phrases, labels and lexicon entries often collide."""
    classes = [{"id": "c0", "label": "Park", "parents": [], "annotations": []}]
    lexicon = {}
    for i in range(1, rng.randint(2, 30)):
        annotations = [
            {"surface": "s", "lemmas": rng.choices(_WORDS, k=rng.randint(1, 3))}
            for _ in range(rng.randint(0, 3))
        ]
        label = rng.choice([f"c{i}", rng.choice(_WORDS).title(), "?"])
        parents = rng.sample([f"c{j}" for j in range(i)], rng.randint(1, min(2, i)))
        classes.append(
            {"id": f"c{i}", "label": label, "parents": parents, "annotations": annotations}
        )
        if rng.random() < 0.3:
            lexicon[f"c{i}"] = [" ".join(rng.choices(_WORDS, k=rng.randint(0, 2))) for _ in "ab"]
    return ontology_from_dict({"root": "c0", "classes": classes}), lexicon


def _brute_force_index(ont, lexicon):
    """Every phrase of every non-root class, normalized and indexed one by one."""
    owners: dict[tuple[str, ...], set[str]] = {}
    for c in ont.classes.values():
        if c.id == ont.root_id:
            continue
        texts = [" ".join(a) for a in c.annotations] + lexicon.get(c.id, []) + [c.label]
        for text in texts:
            phrase = tuple(normalize(text))
            if phrase:
                owners.setdefault(phrase, set()).add(c.id)
    return {p: frozenset(ids) for p, ids in owners.items()}


def test_index_matches_a_per_phrase_brute_force_on_random_dags():
    collisions = shared = 0
    for seed in range(200):
        ont, lexicon = _random_annotated_ontology(random.Random(seed))
        index = ConceptMatcher.from_ontology(ont, lexicon).index
        expected = _brute_force_index(ont, lexicon)
        assert index == expected
        assert list(index) == list(expected)
        collisions += sum(len(ids) > 1 for ids in index.values())
        # The phrases that one class alone owns share one set object.
        alone: dict[str, list[frozenset[str]]] = {}
        for ids in index.values():
            if len(ids) == 1:
                alone.setdefault(next(iter(ids)), []).append(ids)
        assert all(all(ids is sets[0] for ids in sets) for sets in alone.values())
        shared += sum(len(sets) > 1 for sets in alone.values())
    assert collisions > 0 and shared > 0


def test_match_is_pure(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    first = match_query(matcher, "park and beach")
    second = match_query(matcher, "park and beach")
    assert first == second == frozenset({"park", "beach"})


def _span_oracle(matcher: ConceptMatcher, text: str) -> frozenset[str]:
    """The owners of every indexed phrase found as a contiguous run of the query."""
    tokens = normalize(text)
    n = len(tokens)
    spans = {tuple(tokens[i:j]) for i in range(n) for j in range(i + 1, n + 1)}
    return frozenset().union(*(ids for p, ids in matcher.index.items() if p in spans))


def test_every_empty_match_is_the_shared_set(city_ontology):
    # Built directly: "old" and "hall" occur only inside longer phrases.
    direct = _matcher({("old", "town", "hall"): {"hall"}, ("town",): {"town"}, ("hall", "park"): {"hp"}})
    cases = [
        (
            ConceptMatcher.from_ontology(city_ontology),
            ["park", "public", "garden", "shopping", "mall", "pizza", "the", "!!", "",
             "parks", "gardens", "malls", "parking", "publics", "shops", "beaches", "is"],
            ["", "   ", "?!", "quantum entanglement", "public mall", "garden public",
             "public the garden", "the public garden pizza", "mall shopping",
             "public gardens", "shopping malls", "shops malls", "parking gardens"],
        ),
        (
            direct,
            ["old", "town", "hall", "park", "new", "the",
             "olds", "towns", "halls", "parks", "parking", "news", "thing"],
            ["old town hall", "old the town hall", "hall town old", "new town hall park",
             "old hall", "olds towns halls", "old town halls parking", "news towns", "hall parking"],
        ),
    ]
    rng = random.Random(5)
    seen = dict.fromkeys(("empty", "gap", "edge", "wrong_order", "stemmed"), 0)
    total = 0
    for matcher, vocabulary, queries in cases:
        known = {t for phrase in matcher.index for t in phrase}
        pairs = {phrase[i : i + 2] for phrase in matcher.index for i in range(len(phrase) - 1)}
        queries = queries + [" ".join(rng.choices(vocabulary, k=rng.randint(1, 5))) for _ in range(300)]
        for text in queries:
            tokens = normalize(text)
            n = len(tokens)
            expected = _span_oracle(matcher, text)
            got = match_query(matcher, text)
            assert got == expected, text
            assert (got is _NOTHING) is (not expected), text

            indexed = [t in known for t in tokens]
            seen["empty"] += not expected
            # An unindexed token between indexed ones; a query starting or
            # ending on one; indexed neighbours that form no phrase in this order.
            seen["gap"] += any(indexed[i - 1] > indexed[i] < indexed[i + 1] for i in range(1, n - 1))
            seen["edge"] += any(indexed) and not (indexed[0] and indexed[-1])
            # An indexed token that the suffix table made out of an "-s" or "-ing" form.
            raw = re.findall(r"[a-z0-9]+", text.lower())
            seen["stemmed"] += any(r != t and k for r, t, k in zip(raw, tokens, indexed))
            seen["wrong_order"] += any(
                indexed[i] and indexed[i + 1] and tuple(tokens[i : i + 2]) not in pairs
                for i in range(n - 1)
            )
            total += 1
    assert 4 <= seen["empty"] < total
    assert all(count >= 20 for count in seen.values()), seen


def _shared_starts_matcher() -> ConceptMatcher:
    """Several phrase lengths per first token, which generated ontologies lack."""
    return _matcher(
        {
            ("new",): {"N"},
            ("new", "york"): {"NY"},
            ("new", "york", "city"): {"NYC"},
            # Shares "new" with the phrases above, then diverges.
            ("new", "jersey"): {"NJ"},
            # Neither ("old",) nor ("old", "town") is indexed.
            ("old", "town", "hall"): {"OTH"},
            ("town",): {"T"},
            ("san", "jose"): {"SJ"},
            ("san", "diego", "zoo"): {"SDZ"},
            ("zoo",): {"Z", "N"},
            # A matcher built directly may hold the empty phrase; it never matches.
            (): {"EMPTY"},
        }
    )


def test_match_agrees_with_span_oracle_on_shared_starts():
    matcher = _shared_starts_matcher()
    assert matcher.starts == {
        "new": (1, 2, 3), "old": (3,), "town": (1,), "san": (2, 3), "zoo": (1,),
    }
    fixed = [
        "", "new", "new york", "new york city", "new jersey", "new york jersey",
        "york new", "city new york", "new york new york", "new new york city new",
        "old town", "old town hall", "the old town", "old hall town", "san", "san diego",
        "san diego zoo", "san jose zoo", "visit san diego", "zoo zoo", "news yorks cities",
    ]
    vocabulary = ["new", "york", "city", "jersey", "old", "town", "hall", "san", "jose",
                  "diego", "zoo", "the", "news", "towns", "cities"]
    rng = random.Random(19)
    queries = fixed + [" ".join(rng.choices(vocabulary, k=rng.randint(1, 7))) for _ in range(2000)]
    seen = dict.fromkeys(("several_lengths", "ends_mid_phrase", "repeated", "union"), 0)
    for text in queries:
        got = match_query(matcher, text)
        expected = _span_oracle(matcher, text)
        assert got == expected, text
        assert "EMPTY" not in got, text
        tokens = normalize(text)
        hits = [
            tokens[i : i + n]
            for i, token in enumerate(tokens)
            for n in range(1, 4)
            if tuple(tokens[i : i + n]) in matcher.index and i + n <= len(tokens)
        ]
        seen["several_lengths"] += sum(h[:1] == ["new"] for h in hits) >= 2
        seen["ends_mid_phrase"] += any(
            len(p) > k and tuple(tokens[-k:]) == p[:k] for p in matcher.index for k in (1, 2)
        )
        seen["repeated"] += len(hits) > len({tuple(h) for h in hits})
        seen["union"] += len(hits) >= 2
    assert all(count >= 100 for count in seen.values()), seen


def test_one_phrase_match_is_the_index_set():
    matcher = _shared_starts_matcher()
    index = matcher.index
    # One phrase: the index's own set, not a copy.
    for text, phrase in [("new", ("new",)), ("visit san jose", ("san", "jose")),
                         ("old town", ("town",))]:
        assert match_query(matcher, text) is index[phrase], text
    assert match_query(matcher, "san diego") is _NOTHING
    # A query ending where a longer phrase would go on still has one hit.
    two = _matcher({("a", "b"): {"AB"}, ("a", "b", "c"): {"ABC"}})
    assert match_query(two, "x a b") is two.index[("a", "b")]
    # Two phrases: their union, in a new set.
    got = match_query(matcher, "new york")
    assert got == index[("new",)] | index[("new", "york")] == {"N", "NY"}
    assert got is not index[("new",)] and got is not index[("new", "york")]
    # The same phrase twice gives its owners once.
    assert match_query(matcher, "town and town") == index[("town",)]
