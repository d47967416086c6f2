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
# the composition algebra, the graph checks and the verify/oracle/abel commands
MOVED = {"setmaps.algebra", "setmaps.checks", "setmaps.cli_checks"}


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


def test_import_cli_loads_no_engine_or_parser_module():
    modules = loaded_after("import setmaps.cli")
    # of the standard library, os (with what it imports) and nothing else
    assert modules - loaded_after("import os") == {"setmaps", "setmaps.cli"}
    assert not modules & {"argparse", "json", "fractions", "decimal"}


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["chromatic"], 2), (["expand", "--cap", "x"], 2)])
def test_help_and_usage_errors_load_no_engine_module(argv, status):
    modules = loaded_after(f"import setmaps.cli; assert setmaps.cli.main({argv!r}) == {status}")
    assert engine(modules) == {"setmaps.cli"}


def test_expand_does_not_load_abel():
    modules = loaded_after(run_main("expand", "--graph", str(GRAPHS / "c5.txt"), "--basis", "rising"))
    assert {"setmaps.expansions", "setmaps.graphs", "setmaps.poly"} <= modules
    assert not modules & {"setmaps.abel", "setmaps.oracles"}
    assert not modules & MOVED


def test_a_table_read_loads_neither_umbral_nor_the_oracles():
    code = "\n".join(
        [
            "from setmaps.graphs import chromatic_setmap, load_graph",
            f"table = chromatic_setmap(load_graph({str(GRAPHS / 'c8.txt')!r}))",
            "assert table[table.full_mask].degree == 8",
        ]
    )
    # nor the kernel
    assert engine(loaded_after(code)) == {"setmaps.graphs", "setmaps.poly", "setmaps.ring"}


@pytest.mark.parametrize(
    "code, loaded",
    [
        (
            "\n".join(
                [
                    "from setmaps.graphs import chromatic_setmap, load_graph",
                    f"table = chromatic_setmap(load_graph({str(GRAPHS / 'c8.txt')!r}))",
                    "assert table[table.full_mask].degree == 8 and table[7].degree == 3",
                ]
            ),
            False,
        ),
        (run_main("chromatic", "--graph", str(GRAPHS / "c8.txt")), False),
        *(
            (run_main("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", basis), False)
            for basis in ("monomial", "rising", "logfamily", "falling:1", "abel:0")
        ),
        (run_main("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", "rising", "--subset", "63"), False),
        (run_main("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", "falling:1/2"), True),
        *(
            (run_main("verify", "--check", check, "--blocks", "2,1,1"), False)
            for check in ("closed-form", "forest-count", "tail-forests")
        ),
        *(
            (run_main("verify", "--check", check, "--graph", str(GRAPHS / "c5.txt")), False)
            for check in ("binomial", "power", "stanley", "rising-pairs")
        ),
        (run_main("oracle", "acyclic", "--graph", str(GRAPHS / "c5.txt")), False),
        (run_main("oracle", "colorings", "--graph", str(GRAPHS / "c5.txt"), "--x", "3"), False),
        (run_main("abel", "--blocks", "2,1"), False),
        # the log basis's members have the 1/k! terms of log(1 + t)
        (run_main("verify", "--check", "stable-counts", "--graph", str(GRAPHS / "c5.txt")), True),
    ],
)
def test_integral_work_loads_neither_fractions_nor_decimal(code, loaded):
    modules = loaded_after(code)
    assert ("fractions" in modules) == ("decimal" in modules) == loaded, code


def test_no_cap_warning_loads_abel():
    argv = ("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", "rising", "--cap", "9")
    assert "setmaps.abel" not in loaded_after(run_main(*argv))
    # every stage of every check and oracle, the tail forests among them
    code = "\n".join(
        [
            "import setmaps.cli as cli",
            "tables = (cli.GRAPH_CHECKS, cli.BLOCK_CHECKS, cli.ORACLES)",
            "stages = {stage for table in tables for run, _ in table.values() for stage in run}",
            "assert 'tails' in stages",
            "cli._warn_cap(7, stages)",
        ]
    )
    assert engine(loaded_after(code)) == {"setmaps.cli", "setmaps.ring"}


def test_block_checks_do_not_load_graphs_or_expansions():
    for argv, kernel in (
        (("verify", "--check", "closed-form", "--blocks", "2,1,1"), True),
        (("verify", "--check", "tail-forests", "--blocks", "2,1,1"), False),
        (("oracle", "tail-forests", "--blocks", "2,1,1", "--k", "1"), False),
        (("abel", "--blocks", "2,1"), False),
    ):
        modules = loaded_after(run_main(*argv))
        # Poly without the functionals and bases of umbral; the kernel only for the partition sums
        blocks = {"setmaps.abel", "setmaps.cli", "setmaps.cli_checks", "setmaps.poly", "setmaps.ring"}
        assert engine(modules) == blocks | ({"setmaps.kernel"} if kernel else set()), argv


def test_graph_checks_do_not_load_abel():
    modules = loaded_after(
        run_main("verify", "--check", "all", "--graph", str(GRAPHS / "c5.txt"))
    )
    assert not modules & {"setmaps.abel", "setmaps.oracles"}
    assert "setmaps.algebra" in modules  # the power, stanley, rising-pairs and stable-counts checks


@pytest.mark.parametrize("check", ["binomial", "power"])
def test_the_power_and_binomial_checks_load_the_algebra(check):
    # each is one composition
    modules = loaded_after(run_main("verify", "--check", check, "--graph", str(GRAPHS / "c5.txt")))
    assert {"setmaps.kernel", "setmaps.algebra"} <= modules


@pytest.mark.parametrize(
    "argv, oracles",
    [
        (("verify", "--check", "binomial", "--graph", str(GRAPHS / "c5.txt")), False),
        (("verify", "--check", "stanley", "--graph", str(GRAPHS / "c5.txt")), False),
        (("oracle", "acyclic", "--graph", str(GRAPHS / "c5.txt")), True),
        (("chromatic", "--graph", str(GRAPHS / "c5.txt")), False),
        (("verify", "--check", "stable-counts", "--graph", str(GRAPHS / "c5.txt")), False),
    ],
)
def test_graph_commands_load_the_oracles_only_to_count(argv, oracles):
    assert ("setmaps.oracles" in loaded_after(run_main(*argv))) == oracles, argv


def test_the_expansion_check_loads_neither_the_algebra_nor_the_oracles():
    modules = loaded_after(run_main("verify", "--check", "expansion", "--graph", str(GRAPHS / "c5.txt")))
    assert "setmaps.checks" in modules
    assert not modules & {"setmaps.algebra", "setmaps.oracles"}


def module_level_imports(node: ast.AST):
    """The modules an import statement outside every function body names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # runs only when called
        if isinstance(child, ast.ImportFrom):
            yield child.module or ""
            if not child.module:  # from . import name
                yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        yield from module_level_imports(child)


@pytest.mark.parametrize(
    "name", ["ring", "kernel", "poly", "umbral", "graphs", "expansions", "abel", "oracles", "cli"]
)
def test_no_engine_module_imports_the_oracles_at_module_level(name):
    """Nor the algebra, the checks or the check commands, which ``cli`` imports on use."""
    tree = ast.parse((ROOT / "src" / "setmaps" / f"{name}.py").read_text(encoding="utf-8"))
    lazy = {"setmaps.oracles", *MOVED}
    assert not {*lazy, *(m.removeprefix("setmaps.") for m in lazy)} & set(module_level_imports(tree)), name


def test_only_the_kernels_callers_import_it_at_module_level():
    importers = {
        path.stem
        for path in (ROOT / "src" / "setmaps").glob("*.py")
        if {"kernel", "setmaps.kernel"} & set(module_level_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    # ring imports it inside SetMap.__mul__, expansions inside theorem_holds and abel
    # inside _partition_weight_sums
    assert importers == {"algebra", "checks"}


def test_no_engine_module_imports_fractions_at_module_level():
    # each imports it where a value stops being integral (ring.quotient, poly._exact)
    for path in (ROOT / "src" / "setmaps").glob("*.py"):
        assert "fractions" not in set(module_level_imports(ast.parse(path.read_text(encoding="utf-8")))), path.name


def test_set_map_inverse_loads_the_algebra_when_it_runs():
    code = "\n".join(
        [
            "from setmaps.ring import SetMap",
            "h = SetMap.from_sequence(3, [1, 2, 0, 0])",
            "assert h * h.inverse() == SetMap.unit(3)",
        ]
    )
    assert engine(loaded_after(code)) == {"setmaps.algebra", "setmaps.kernel", "setmaps.ring"}


def test_a_set_map_product_loads_the_kernel_and_not_the_algebra():
    code = "\n".join(
        [
            "from setmaps.ring import SetMap",
            "h = SetMap.constant(3, 1)",
            "assert (h * h)[7] == 8",
        ]
    )
    assert engine(loaded_after(code)) == {"setmaps.kernel", "setmaps.ring"}


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", "abel:3/4"),
        ("expand", "--graph", str(GRAPHS / "c8.txt"), "--basis", "rising", "--subset", "63"),
        ("chromatic", "--graph", str(GRAPHS / "c8.txt")),
    ],
)
def test_expand_and_chromatic_do_not_load_the_kernel(argv):
    assert "setmaps.kernel" not in loaded_after(run_main(*argv)), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--check", "expansion", "--graph", str(GRAPHS / "c5.txt")),
        ("verify", "--check", "closed-form", "--blocks", "2,1,1"),
    ],
)
def test_the_checks_load_the_kernel_as_their_second_side(argv):
    assert "setmaps.kernel" in loaded_after(run_main(*argv)), argv


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
    # every module of the package, by the name of its file
    modules = {path.stem for path in Path(setmaps.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    assert modules <= set(dir(setmaps))
    for name in modules:
        assert getattr(setmaps, name) is importlib.import_module(f"setmaps.{name}")
    namespace: dict = {}
    exec("from setmaps import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(setmaps.__all__)
    assert namespace["FallingFactorials"](2).poly(1)(2) == Fraction(1)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        setmaps.no_such_name
    assert not hasattr(setmaps, "no_such_name")
