import logging
import random

import pytest

from cosuggest.matching import (
    ConceptMatcher,
    LemmaIndex,
    build_lemma_index,
    match_query,
    merge_lexicon,
    normalize,
)
from cosuggest.ontology import ontology_from_dict


def _matcher(phrase_map: dict[tuple[str, ...], set[str]]) -> ConceptMatcher:
    index = LemmaIndex(phrases={p: frozenset(ids) for p, ids in phrase_map.items()})
    return ConceptMatcher(index=index)


def test_normalize_strips_punctuation_and_suffixes():
    assert normalize("Parks near Turin!") == ["park", "near", "turin"]


def test_normalize_empty():
    assert normalize("") == []


def test_normalize_stable_on_normal_form():
    assert normalize("park") == ["park"]
    for word in ["park", "beach", "shop", "run", "library", "church", "garden"]:
        once = normalize(word)
        assert [t for w in once for t in normalize(w)] == once


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
    index = build_lemma_index(ont, include_labels=False)
    assert index.phrases[("green", "area")] == frozenset({"A", "B"})


def test_multiple_phrases_same_class(city_ontology):
    index = build_lemma_index(city_ontology, include_labels=False)
    assert index.phrases[("park",)] == frozenset({"park"})
    assert index.phrases[("public", "garden")] == frozenset({"park"})


def test_unannotated_classes_reported(caplog):
    ont = ontology_from_dict(
        {
            "root": "root",
            "classes": [
                {"id": "root", "label": "root", "parents": [], "annotations": []},
                {"id": "bare", "label": "Bare", "parents": ["root"], "annotations": []},
            ],
        }
    )
    with caplog.at_level(logging.WARNING, logger="cosuggest.matching"):
        index = build_lemma_index(ont)
    assert index.unannotated_class_ids == frozenset({"bare"})
    assert "bare" in caplog.text
    # The label is still indexed, so the class remains matchable.
    assert index.phrases[("bare",)] == frozenset({"bare"})


def test_labels_not_indexed_when_disabled(city_ontology):
    index = build_lemma_index(city_ontology, include_labels=False)
    assert ("thing",) not in index.phrases


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


def test_lexicon_unknown_class_rejected(city_ontology):
    with pytest.raises(ValueError, match="undefined classes"):
        merge_lexicon(city_ontology, {"nope": ["x"]})


def test_match_is_pure(city_ontology):
    matcher = ConceptMatcher.from_ontology(city_ontology)
    first = match_query(matcher, "park and beach")
    second = match_query(matcher, "park and beach")
    assert first == second == frozenset({"park", "beach"})
