import json
import random
from dataclasses import replace

import pytest

from cosuggest.ontology import (
    Ontology,
    OntologyError,
    compute_metrics,
    load_ontology,
    ontology_from_dict,
    subset_by_facet,
    validate_ontology,
)


def _ont(classes):
    return ontology_from_dict({"root": "root", "classes": classes})


def _cls(cid, parents, facet=None, annotations=None):
    return {
        "id": cid,
        "label": cid,
        "parents": parents,
        "facet": facet,
        "annotations": annotations or [],
    }


def test_single_root_ontology(tmp_path):
    path = tmp_path / "ont.json"
    path.write_text(json.dumps({"root": "root", "classes": [_cls("root", [])]}), encoding="utf-8")
    ont = load_ontology(path)
    assert len(ont.classes) == 1
    metrics = compute_metrics(ont)
    assert metrics.class_count == 0
    assert metrics.subclass_relation_count == 0
    assert metrics.longest_root_to_leaf_path == 0
    assert metrics.mean_node_degree == 0.0


def test_small_dag_counts():
    ont = _ont([_cls("root", []), _cls("A", ["root"]), _cls("B", ["root"]), _cls("C", ["A"])])
    assert len(ont.classes) == 4
    metrics = compute_metrics(ont)
    assert metrics.class_count == 3
    assert metrics.subclass_relation_count == 3
    assert metrics.longest_root_to_leaf_path == 2
    # A: parent link + child C = 2; B: 1; C: 1
    assert metrics.mean_node_degree == pytest.approx(4 / 3)


def test_chain_metrics():
    ont = _ont([_cls("root", []), _cls("A", ["root"]), _cls("B", ["A"]), _cls("C", ["B"])])
    metrics = compute_metrics(ont)
    assert metrics.class_count == 3
    assert metrics.subclass_relation_count == 3
    assert metrics.longest_root_to_leaf_path == 3


def test_dangling_parent_rejected():
    with pytest.raises(OntologyError, match="undefined parent"):
        _ont([_cls("root", []), _cls("C", ["Z"])])


def test_duplicate_id_rejected():
    with pytest.raises(OntologyError, match="duplicate"):
        _ont([_cls("root", []), _cls("A", ["root"]), _cls("A", ["root"])])


def test_missing_root_rejected():
    with pytest.raises(OntologyError):
        ontology_from_dict({"root": "nope", "classes": [_cls("root", [])]})


def test_cycle_rejected():
    with pytest.raises(OntologyError, match="cycle"):
        _ont([_cls("root", []), _cls("A", ["root", "B"]), _cls("B", ["A"])])


def test_second_parentless_class_rejected():
    with pytest.raises(OntologyError, match="no parents"):
        _ont([_cls("root", []), _cls("A", [])])


_NOT_LOWER = "class 'A': lemma {} must be lowercase without whitespace"


@pytest.mark.parametrize(
    "token, message",
    [
        ("green park", _NOT_LOWER.format("'green park'")),
        ("\tpark", _NOT_LOWER.format("'\\tpark'")),
        ("park\u00a0", _NOT_LOWER.format("'park\\xa0'")),
        ("a\u2028b", _NOT_LOWER.format("'a\\u2028b'")),
        ("\u3000", _NOT_LOWER.format("'\\u3000'")),
        ("park\u001c", _NOT_LOWER.format("'park\\x1c'")),
        ("", "class 'A': empty lemma token"),
        (7, "class 'A': lemma 7 must be a non-empty string"),
        (None, "class 'A': lemma None must be a non-empty string"),
        ("Park", _NOT_LOWER.format("'Park'")),
        ("ǅ", _NOT_LOWER.format("'ǅ'")),  # title-case dz with caron
        ("ΑΣ", _NOT_LOWER.format("'ΑΣ'")),  # capital alpha, sigma
    ],
    ids=["space", "leading-tab", "nbsp", "line-separator", "ideographic-space",
         "file-separator", "empty", "number", "null", "capital", "title-case", "greek-capitals"],
)
def test_bad_lemma_rejected(token, message):
    # The first bad token is named: a good one goes before it, a capital after.
    annotation = {"surface": "x", "lemmas": ["old", token, "Zed"]}
    with pytest.raises(OntologyError) as info:
        _ont([_cls("root", []), _cls("A", ["root"], annotations=[annotation])])
    assert str(info.value) == message


# Every BMP code point where str.isspace() holds (U+001C..U+001F among them).
_SPACES = [chr(c) for c in range(0x10000) if chr(c).isspace()]


def _lemma_error(lemmas):
    """The lemma check written token by token and character by character."""
    for tok in lemmas:
        if not isinstance(tok, str):
            return f"class 'A': lemma {tok!r} must be a non-empty string"
        if not tok:
            return "class 'A': empty lemma token"
        if tok != tok.lower() or any(ch.isspace() for ch in tok):
            return _NOT_LOWER.format(repr(tok))
    return None


def test_lemma_check_agrees_with_a_per_character_scan():
    rng = random.Random(20)
    letters = list("abcz09-é") + ["σ", "ς", "Σ", "A", "ǅ", "İ"]
    rejected = 0
    for _ in range(3000):
        lemmas = []
        for _ in range(rng.randint(1, 3)):
            pool = _SPACES if rng.random() < 0.15 else letters
            lemmas.append("".join(rng.choice(pool) for _ in range(rng.randint(0, 3))))
        want = _lemma_error(lemmas)
        annotation = {"surface": "x", "lemmas": lemmas}
        try:
            ont = _ont([_cls("root", []), _cls("A", ["root"], annotations=[annotation])])
        except OntologyError as exc:
            assert str(exc) == want, lemmas
            rejected += 1
        else:
            assert want is None, lemmas
            assert ont.classes["A"].annotations[0] == tuple(lemmas)
    assert 0 < rejected < 3000
    for space in _SPACES:  # each whitespace character alone, inside and at either end
        for tok in (space, "a" + space + "b", space + "a", "a" + space):
            annotation = {"surface": "x", "lemmas": ["a", tok]}
            with pytest.raises(OntologyError) as info:
                _ont([_cls("root", []), _cls("A", ["root"], annotations=[annotation])])
            assert str(info.value) == _NOT_LOWER.format(repr(tok))


def test_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(OntologyError, match="cannot parse"):
        load_ontology(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("label", 5, "class 'A': 'label' must be a string"),
        ("label", None, "class 'A': 'label' must be a string"),
        ("annotations", 7, "class 'A': 'annotations' must be a list"),
        ("annotations", None, "class 'A': 'annotations' must be a list"),
    ],
)
def test_mistyped_label_or_annotations_rejected(field, value, message):
    with pytest.raises(OntologyError, match=message):
        _ont([_cls("root", []), {**_cls("A", ["root"]), field: value}])


def test_missing_label_defaults_to_the_id():
    raw = _cls("A", ["root"])
    del raw["label"]
    assert _ont([_cls("root", []), raw]).classes["A"].label == "A"


def test_subset_empty_exclusion_is_identity(city_ontology):
    assert subset_by_facet(city_ontology, set()) == city_ontology


def test_subset_drops_excluded_facet():
    ont = _ont(
        [
            _cls("root", []),
            _cls("A", ["root"], facet="natural"),
            _cls("B", ["root"], facet="administrative"),
        ]
    )
    subset = subset_by_facet(ont, {"administrative"})
    assert set(subset.classes) == {"root", "A"}


def test_subset_reattaches_orphans_to_root():
    ont = _ont(
        [
            _cls("root", []),
            _cls("B", ["root"], facet="administrative"),
            _cls("C", ["B"], facet="natural"),
        ]
    )
    subset = subset_by_facet(ont, {"administrative"})
    assert set(subset.classes) == {"root", "C"}
    assert subset.classes["C"].parent_ids == frozenset({"root"})


def _random_ontology(
    rng: random.Random, max_classes: int = 50, annotated: bool = False
) -> Ontology:
    n = rng.randint(1, max_classes)
    classes = [_cls("c0", [])]
    for i in range(1, n):
        k = rng.randint(1, min(3, i))
        parents = rng.sample([f"c{j}" for j in range(i)], k)
        facet = rng.choice([None, "natural", "artificial", "administrative"])
        classes.append(_cls(f"c{i}", parents, facet=facet))
    if annotated:  # a label and a phrase of each class's own, so a dropped field shows
        for c in classes:
            c["label"] = c["id"].upper()
            c["annotations"] = [{"surface": c["id"], "lemmas": [c["id"], "x"]}]
    return ontology_from_dict({"root": "c0", "classes": classes})


def _brute_force_metrics(ont: Ontology):
    children = ont.child_map()
    memo: dict[str, int] = {}

    def dfs(cid: str) -> int:
        if cid in memo:
            return memo[cid]
        kids = children[cid]
        memo[cid] = 0 if not kids else 1 + max(dfs(k) for k in kids)
        return memo[cid]

    longest = dfs(ont.root_id)
    relations = sum(len(c.parent_ids) for c in ont.classes.values())
    non_root = [c for c in ont.classes.values() if c.id != ont.root_id]
    if non_root:
        total = sum(len(c.parent_ids) + len(children[c.id]) for c in non_root)
        mean_degree = total / len(non_root)
    else:
        mean_degree = 0.0
    return len(non_root), relations, longest, mean_degree


def test_metrics_match_brute_force_dfs_on_random_dags():
    for seed in range(100):
        ont = _random_ontology(random.Random(seed))
        metrics = compute_metrics(ont)
        n, relations, longest, mean_degree = _brute_force_metrics(ont)
        assert metrics.class_count == n
        assert metrics.subclass_relation_count == relations
        assert metrics.longest_root_to_leaf_path == longest
        assert metrics.mean_node_degree == pytest.approx(mean_degree)


def test_tree_relation_count_equals_node_count():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 40)
        classes = [_cls("c0", [])]
        classes += [
            _cls(f"c{i}", [f"c{rng.randrange(i)}"]) for i in range(1, n)
        ]
        ont = ontology_from_dict({"root": "c0", "classes": classes})
        assert compute_metrics(ont).subclass_relation_count == n - 1


def test_subset_result_is_always_valid():
    for seed in range(30):
        ont = _random_ontology(random.Random(2000 + seed), max_classes=30)
        subset = subset_by_facet(ont, {"administrative", "artificial"})
        validate_ontology(subset)  # must not raise
        assert subset.root_id == ont.root_id


def _subset_by_replace(ont: Ontology, excluded: set[str]) -> Ontology:
    """The facet subset rebuilt field by field: every kept class is a new copy."""
    kept = {
        cid for cid, c in ont.classes.items() if cid == ont.root_id or c.facet_tag not in excluded
    }
    classes = {}
    for cid, cls in ont.classes.items():
        if cid not in kept:
            continue
        if cid == ont.root_id:
            classes[cid] = cls
            continue
        parents = frozenset(p for p in cls.parent_ids if p in kept) or frozenset({ont.root_id})
        classes[cid] = replace(cls, parent_ids=parents)
    return Ontology(root_id=ont.root_id, classes=classes)


def test_subset_matches_a_field_by_field_rebuild_on_random_dags():
    facets = ["natural", "artificial", "administrative"]
    shared = rebuilt = 0
    for seed in range(200):
        rng = random.Random(3000 + seed)
        ont = _random_ontology(rng, max_classes=40, annotated=True)
        excluded = set(rng.sample(facets, rng.randint(1, 3)))
        subset = subset_by_facet(ont, excluded)
        expected = _subset_by_replace(ont, excluded)
        assert subset == expected
        assert list(subset.classes) == list(expected.classes)
        for cid, cls in subset.classes.items():
            original = ont.classes[cid]
            if original.parent_ids <= subset.classes.keys():
                assert cls is original  # all its parents survive: the same object
                shared += 1
            else:
                assert cls is not original
                rebuilt += 1
    assert shared > 0 and rebuilt > 0
