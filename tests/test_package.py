"""The public names of the package and the module each layer lives in."""

import ast
import importlib.util
from pathlib import Path

import mdmatch

PUBLIC = {
    "Block", "IDENTITY", "INVERSION", "Matcher", "Occurrence", "SearchParams",
    "SearchStats", "SequenceRecord", "TRANSLOCATION", "apply_blocks",
    "code_points", "extract_patterns", "filtered_search", "gen_random_text",
    "maximal_params", "md_distance", "naive_search", "normalize_params",
    "oracle_match", "permutation_probability", "read_fasta", "rolling_deltas",
    "verify", "verify_with_witness",
}
SRC = Path(mdmatch.__file__).parent


def package_imports(path):
    """(module, name) for each name that path imports from a package module,
    the module named relative to the package."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif node.module and node.module.split(".")[0] == "mdmatch":
            module = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            yield module, alias.name


def top_level_names(path):
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_public_names():
    assert len(mdmatch.__all__) == len(PUBLIC) == 24
    assert set(mdmatch.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(mdmatch, name)


def test_oracle_imports_only_core():
    assert {module for module, _ in package_imports(SRC / "oracle.py")} == {"core"}


def test_no_private_name_crosses_modules():
    crossing = [(path.name, module, name)
                for path in sorted(SRC.glob("*.py"))
                for module, name in package_imports(path)
                if name.startswith("_")]
    assert crossing == []


def test_each_layer_has_one_home():
    homes = {
        "oracle.py": {"CountState", "init_counts", "advance", "rolling_deltas"},
        "search.py": {"scan_candidates", "Matcher"},
        "core.py": {"code_points", "symbol_weights", "fingerprint_prefix"},
    }
    defined = {path.name: top_level_names(path) for path in SRC.glob("*.py")}
    for home, names in homes.items():
        for name in names:
            assert [f for f, found in defined.items() if name in found] == [home]
    assert importlib.util.find_spec("mdmatch.counting") is None
