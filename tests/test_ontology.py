import json
import random

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


def test_bad_lemma_rejected():
    with pytest.raises(OntologyError, match="lowercase"):
        _ont(
            [
                _cls("root", []),
                _cls("A", ["root"], annotations=[{"surface": "Park", "lemmas": ["Park"]}]),
            ]
        )


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


def _random_ontology(rng: random.Random, max_classes: int = 50) -> Ontology:
    n = rng.randint(1, max_classes)
    classes = [_cls("c0", [])]
    for i in range(1, n):
        k = rng.randint(1, min(3, i))
        parents = rng.sample([f"c{j}" for j in range(i)], k)
        facet = rng.choice([None, "natural", "artificial", "administrative"])
        classes.append(_cls(f"c{i}", parents, facet=facet))
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
