"""The numeric twins module against the closed forms it checks: which
private names of ``indicators`` it may use, read from the source."""

import ast
from pathlib import Path

import zenoion.indicators
import zenoion.twins

# The private names of ``indicators`` that ``twins`` shares on purpose. The
# validate row "gqze crossing: windowed vs dense grid" has tolerance 0, so
# the dense twin must lay out the windowed search's grid and bisect its
# bracket alike.
SHARED_PRIVATE_NAMES = {
    "_gqze_search": "the dense twin runs the windowed search's argument checks and grid layout",
    "_bisect_gap": "the dense twin refines its bracket by the windowed search's bisection",
    "_CROSSING_TOL": "both scans call a gap clearly signed beyond the same tolerance",
}

_INDICATORS = {"zenoion.indicators", ".indicators"}


def _module_name(node: ast.ImportFrom) -> str:
    return "." * node.level + (node.module or "")


def _private_names_from_indicators(source: str) -> list[str]:
    """Every private name that ``source`` takes from ``zenoion.indicators``:
    by ``from ... indicators import``, or as an attribute of a name bound to
    the module (``from . import indicators``, ``import zenoion.indicators``
    and their aliases)."""
    tree = ast.parse(source)
    aliases, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if _module_name(node) in _INDICATORS:
                names += [a.name for a in node.names if a.name.startswith("_")]
            elif _module_name(node) in {"zenoion", "."}:
                aliases |= {a.asname or a.name for a in node.names if a.name == "indicators"}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "zenoion.indicators":
                    aliases.add(a.asname or "zenoion.indicators")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in aliases:
                names.append(node.attr)
    return names


def _module_level_imports(source: str) -> list[str]:
    """The modules that ``source`` imports at load: every import outside a
    function body, as written (``.twins``, ``zenoion.twins``), with each
    ``from X import Y`` also listed as X.Y."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _module_name(node)
            found.append(base)
            found.extend(base.rstrip(".") + "." + a.name for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def _source(module) -> str:
    return Path(module.__file__).read_text(encoding="utf-8")


def test_twins_take_no_other_private_name_of_indicators():
    names = _private_names_from_indicators(_source(zenoion.twins))
    assert set(names) - set(SHARED_PRIVATE_NAMES) == set()


def test_every_shared_private_name_is_used():
    # A shared name the twins no longer take would leave its reason stale.
    assert set(_private_names_from_indicators(_source(zenoion.twins))) == set(SHARED_PRIVATE_NAMES)


def test_the_check_sees_each_way_of_taking_a_private_name():
    base = _source(zenoion.twins)
    for line in (
        "from .indicators import _measure_below",
        "from zenoion.indicators import _measure_below as measure",
        "from . import indicators\nindicators._measure_below(1.0, 0.5)",
        "from zenoion import indicators as closed\nclosed._measure_below(1.0, 0.5)",
        "import zenoion.indicators\nzenoion.indicators._measure_below(1.0, 0.5)",
    ):
        names = _private_names_from_indicators(base + "\n" + line + "\n")
        assert "_measure_below" in names, line


def test_indicators_does_not_import_twins_at_module_level():
    imported = _module_level_imports(_source(zenoion.indicators))
    assert not [name for name in imported if name.split(".")[-1] == "twins"], imported


def test_the_module_level_check_sees_a_twins_import():
    for line in ("from . import twins", "from .twins import gqze_interval_grid",
                 "import zenoion.twins", "if True:\n    from zenoion import twins"):
        imported = _module_level_imports(line + "\n")
        assert [name for name in imported if name.split(".")[-1] == "twins"], line
    assert _module_level_imports("def f():\n    from . import twins\n") == []
