"""What a process loads: the lazy package and the per-command engine imports.

Each footprint test runs a fresh ``python -S`` interpreter with ``src`` on
its path, so that no ``site`` hook has loaded modules before the import
under test.
"""

import ast
import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import setmaps

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
HEAVY = {"dataclasses", "inspect", "typing"}


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = "\n".join(
        [
            "import sys",
            f"sys.path.insert(0, {str(ROOT / 'src')!r})",
            code,
            "print(repr(sorted(sys.modules)))",
        ]
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def engine(modules: set[str]) -> set[str]:
    return {name for name in modules if name.startswith("setmaps.")}


def run_main(*argv: str) -> str:
    return f"import setmaps.cli; assert setmaps.cli.main({list(argv)!r}) == 0"


def test_import_setmaps_loads_no_submodule():
    modules = loaded_after("import setmaps")
    assert "setmaps" in modules
    assert engine(modules) == set()
    assert not modules & HEAVY


def test_import_cli_loads_only_ring():
    modules = loaded_after("import setmaps.cli")
    assert engine(modules) == {"setmaps.cli", "setmaps.ring"}
    assert not modules & HEAVY


def test_expand_does_not_load_abel():
    modules = loaded_after(run_main("expand", "--graph", str(GRAPHS / "c5.txt"), "--basis", "rising"))
    assert "setmaps.expansions" in modules and "setmaps.graphs" in modules
    assert "setmaps.abel" not in modules


def test_cap_warning_loads_abel_only_to_price_tail_forests():
    argv = ("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", "rising", "--cap", "9")
    assert "setmaps.abel" not in loaded_after(run_main(*argv))


def test_block_checks_do_not_load_graphs_or_expansions():
    for argv in (
        ("verify", "--check", "closed-form", "--blocks", "2,1,1"),
        ("abel", "--blocks", "2,1"),
    ):
        modules = loaded_after(run_main(*argv))
        assert "setmaps.abel" in modules
        assert not engine(modules) & {"setmaps.graphs", "setmaps.expansions"}, argv


def test_graph_checks_do_not_load_abel():
    modules = loaded_after(
        run_main("verify", "--check", "all", "--graph", str(GRAPHS / "c5.txt"))
    )
    assert "setmaps.abel" not in modules


def test_submodules_resolve_after_a_bare_import():
    code = "\n".join(
        [
            "import setmaps",
            f"graph = setmaps.graphs.load_graph({str(GRAPHS / 'c5.txt')!r})",
            "assert graph.n == 5 and graph.edge_count == 5",
        ]
    )
    assert "setmaps.graphs" in loaded_after(code)


def test_every_public_name_resolves_to_its_submodule_object():
    for name in setmaps.__all__:
        home = importlib.import_module(f"setmaps.{setmaps._SOURCES[name]}")
        value = getattr(setmaps, name)
        assert value is getattr(home, name), name
        if hasattr(value, "__module__"):
            assert value.__module__ == home.__name__, name


def test_dir_and_star_import_cover_the_public_names():
    assert set(setmaps.__all__) <= set(dir(setmaps))
    assert {"graphs", "umbral", "cli"} <= set(dir(setmaps))
    namespace: dict = {}
    exec("from setmaps import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(setmaps.__all__)
    assert namespace["FallingFactorials"](2).poly(1)(2) == Fraction(1)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        setmaps.no_such_name
    assert not hasattr(setmaps, "no_such_name")
