"""The package's public name list stays true to the package and to README."""

import ast
from pathlib import Path

import cosuggest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_sorted_unique_and_every_name_resolves():
    names = cosuggest.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(cosuggest, name)]
    assert missing == []
    namespace: dict = {}
    exec("from cosuggest import *", namespace)
    assert set(names) <= namespace.keys()


def test_readme_library_snippet_imports_only_public_names():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = library.split("```python", 1)[1].split("```", 1)[0]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(snippet))
        if isinstance(node, ast.ImportFrom) and node.module == "cosuggest"
        for alias in node.names
    }
    assert imported
    assert imported - set(cosuggest.__all__) == set()
