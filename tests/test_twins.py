"""The numeric twins module against the closed forms it checks: which
private names of ``indicators`` it may use, read from the source, and no
test patching a twin through ``indicators``."""

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
    aliases, names = _indicators_aliases(tree), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_name(node) in _INDICATORS:
            names += [a.name for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if ast.unparse(node.value) in aliases:
                names.append(node.attr)
    return names


def _indicators_aliases(tree: ast.AST) -> set[str]:
    """The names that a module binds to ``zenoion.indicators``, as written:
    by ``from . import indicators``, ``import zenoion.indicators`` and their
    aliases."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _module_name(node) in {"zenoion", "."}:
            aliases |= {a.asname or a.name for a in node.names if a.name == "indicators"}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "zenoion.indicators":
                    aliases.add(a.asname or "zenoion.indicators")
    return aliases


def _twin_patches_through_indicators(source: str) -> list[str]:
    """Every patch in ``source`` of a name of ``twins.__all__`` reached
    through ``zenoion.indicators``: a ``"zenoion.indicators.<twin>"`` target
    string, or ``setattr`` (direct, or ``monkeypatch``'s) or
    ``patch.object`` of ``"<twin>"`` on the module.

    ``indicators.__getattr__`` hands the benchmark's layer tracer these
    twins, so such a patch succeeds and changes nothing that runs. Once
    that alias goes, the patch fails by itself and this check can go too.
    """
    tree = ast.parse(source)
    twins = set(zenoion.twins.__all__)
    modules = _indicators_aliases(tree) | {"zenoion.indicators"}
    targets = {f"zenoion.indicators.{name}" for name in twins}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and first.value in targets:
            found.append(first.value)
        function = getattr(node.func, "attr", getattr(node.func, "id", None))
        if function in ("setattr", "object") and len(node.args) > 1:
            second = node.args[1]
            if ast.unparse(first) in modules and isinstance(second, ast.Constant):
                if second.value in twins:
                    found.append(f"{ast.unparse(first)}.{second.value}")
    return found


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


def test_no_test_patches_a_twin_through_indicators():
    tests = Path(__file__).resolve().parent
    found = {
        path.name: _twin_patches_through_indicators(path.read_text(encoding="utf-8"))
        for path in sorted(tests.glob("*.py"))
    }
    assert {name: patches for name, patches in found.items() if patches} == {}


def test_the_patch_check_sees_each_way_of_patching_a_twin():
    for source in (
        'monkeypatch.setattr("zenoion.indicators.time_of_min_grid", f)',
        'mock.patch("zenoion.indicators.min_survival_grid", f)',
        'from zenoion import indicators\nmonkeypatch.setattr(indicators, "gqze_interval_grid", f)',
        'from zenoion import indicators as closed\nsetattr(closed, "time_of_min_grid", f)',
        'import zenoion.runner\nmonkeypatch.setattr(zenoion.indicators, "oracle_level_means", f)',
        'from zenoion import indicators\nmock.patch.object(indicators, "min_survival_grid", f)',
    ):
        assert len(_twin_patches_through_indicators(source)) == 1, source
    for source in (
        'monkeypatch.setattr("zenoion.twins.time_of_min_grid", f)',
        'from zenoion import indicators\nmonkeypatch.setattr(indicators, "np", f)',
        'from zenoion import twins\nmonkeypatch.setattr(twins, "time_of_min_grid", f)',
    ):
        assert _twin_patches_through_indicators(source) == [], source
