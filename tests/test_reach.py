"""Every definition in the package is reached by the package or the benchmark.

The scan reads `src/confocal/` and `perfbench/` with `ast`.  A top-level
function or class, or a method, counts as reached when its name occurs
outside its own definition in one of those files: as a name, an attribute
or an imported name.  It checks names only.  A name that a test alone
calls fails it, but a branch that only a test takes, or a method that
shares its name with a variable elsewhere, passes.

Three kinds of definition need no such reference: the names the package
exports (`confocal._LAYER`), methods with a dunder name, which the
language calls (the PEP 562 `__getattr__` among them), and the paper
identities below, which only the tests check so far.
"""

import ast
from collections import Counter
from pathlib import Path

import confocal

ROOT = Path(__file__).resolve().parents[1]

# paper identities that only the tests reach, with the part of the paper
# each one checks
PAPER_IDENTITIES = {
    "exterior_coordinates": "Part I: the caustic's coordinates of the tangency points seen "
                            "from an exterior point",
    "string_length": "Part I: Graves' string: a string round the caustic draws a confocal ellipse",
    "homeoidal_density": "Part III: the density of a homeoid's charge",
    "chord_segments": "Part III: a chord's two segments inside a homeoid are equal",
    "simultaneous_diagonalize": "Part III: one basis that diagonalizes two nested quadratic forms",
    "is_hyperbolic_at": "Part III: hyperbolicity in Arnold's theorem",
    "vieta_segment_sum": "Part III: Arnold's theorem in E^n, the segment sum zero by Vieta",
    "curved_segment_sum": "Part III: Arnold's theorem along geodesics, in S^n and H^n",
    "LiouvilleMetric.to_staeckel": "Part II: a Liouville metric in Staeckel form",
    "induced_metric_on_face": "Part II: a Staeckel metric restricted to a coordinate face",
}


def _names(node) -> Counter:
    """Every identifier the tree under node uses: names, attributes and
    imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def _definitions(tree):
    """(qualified name, name, node) of every top-level function and class,
    and of every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def unreached() -> list:
    """Qualified names of the package's definitions that nothing in the
    package or the benchmark names, beyond the allowed ones."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for root in ("src", "perfbench") for path in sorted((ROOT / root).rglob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    exported = {name for names in confocal._LAYER.values() for name in names}
    out = []
    for path, tree in trees.items():
        if ROOT / "src" / "confocal" not in path.parents:
            continue
        for qualname, name, node in _definitions(tree):
            if name in exported or qualname in PAPER_IDENTITIES or \
                    (name.startswith("__") and name.endswith("__")):
                continue
            if used[name] - _names(node)[name] <= 0:
                out.append(qualname)
    return out


def test_every_definition_is_reached():
    assert unreached() == []


def test_listed_identities_exist():
    # a listed identity that is renamed or deleted leaves the list
    defined = {qualname for path in (ROOT / "src" / "confocal").glob("*.py")
               for qualname, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(PAPER_IDENTITIES) <= defined
