"""The package namespace: every public name, loaded on first use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyck4d

SRC = str(Path(dyck4d.__file__).resolve().parent.parent)

# The public API, by home module, in the order ``__all__`` lists it.
PUBLIC = {
    "coords": [
        "AXES", "MAX_COORD", "PLANES_2D", "PLANES_3D", "Node", "Plane",
        "is_reachable", "iter_nodes", "node_from", "planarity_equation",
        "planarity_residual", "project",
    ],
    "dynamics": [
        "DEFAULT_POSITION_CAP", "TABLE_FORMAT", "DynamicsTable", "build_table", "catalan",
        "table_from_csv", "table_from_json", "table_to_csv", "table_to_json",
    ],
    "errors": [
        "DomainError", "DyckError", "InvalidCharacter", "NotANode", "OutOfRange",
        "PrefixViolation", "ResourceLimit", "TableFormatError",
    ],
    "identities": [
        "Decomposition", "binomial", "convolution", "decompose_catalan", "square_term",
        "square_term_special",
    ],
    "paths": [
        "COUNT_SCAN_CAP", "ENUMERATION_CAP", "DyckWord", "PathTrace", "ProjectedPath",
        "count_paths_by_height", "enumerate_words", "format_word", "parse_word",
        "project_path", "trace",
    ],
    "render": ["Diagram", "DiagramSpec", "emit", "layout"],
    "verify": ["CheckResult", "run_checks"],
}


def run_python(code: str, *flags: str) -> str:
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_all_lists_the_public_api_in_order():
    expected = [name for names in PUBLIC.values() for name in names]
    assert dyck4d.__all__ == [*expected, "__version__"]


@pytest.mark.parametrize("home, name", [(h, n) for h, names in PUBLIC.items() for n in names])
def test_name_resolves_to_its_home_object(home, name):
    value = getattr(dyck4d, name)
    assert value is getattr(importlib.import_module(f"dyck4d.{home}"), name)
    assert vars(dyck4d)[name] is value  # bound once; later reads skip the hook


# The position cap is fixed, as the scan caps are: no call can raise it.
@pytest.mark.parametrize("name, arg", [("build_table", 4), ("catalan", 2),
                                       ("decompose_catalan", 2)])
def test_the_position_cap_is_not_a_keyword(name, arg):
    with pytest.raises(TypeError):
        getattr(dyck4d, name)(arg, cap=dyck4d.DEFAULT_POSITION_CAP)


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from dyck4d import *", namespace)
    assert set(dyck4d.__all__) <= set(namespace)
    assert set(dyck4d.__all__) <= set(dir(dyck4d))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dyck4d.no_such_name
    with pytest.raises(ImportError):
        from dyck4d import no_such_name  # noqa: F401
    # A projected path is its plane and its points; only the CLI names its moves.
    with pytest.raises(AttributeError, match="has no attribute 'PathMove'"):
        dyck4d.PathMove
    # One count per height is count_paths_by_height(i)[j]: no second door to the scan.
    with pytest.raises(AttributeError, match="has no attribute 'count_paths_to'"):
        dyck4d.count_paths_to


def test_the_cli_module_runs_as_a_script():
    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "dyck4d.cli", *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    done = cli("catalan", "6")
    assert (done.returncode, done.stdout, done.stderr) == (0, "132\n", "")
    refused = cli("catalan", "x")
    assert (refused.returncode, refused.stdout) == (1, "")
    assert len(refused.stderr.splitlines()) == 1


def test_point_queries_load_no_paths_render_or_verify():
    # Nor do they load these stdlib modules, beyond what a bare interpreter has;
    # where site already loads one (some environments preload typing), only a
    # clean interpreter, as in CI, checks it.
    heavy = {"dataclasses", "inspect", "json", "csv", "typing"}
    bare = set(eval(run_python("import sys; print(sorted(sys.modules))")))
    out = run_python(
        "import io, sys\n"
        "from dyck4d.cli import run\n"
        "print(sorted(sys.modules))\n"
        "for argv, code in ((['catalan', '5'], 0), (['dynamics', '10', '2'], 0),\n"
        "                   (['decompose', '10'], 0), (['catalan', '5000'], 2)):\n"
        "    assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == code, argv\n"
        "print(sorted(sys.modules))\n"
    )
    imported, loaded = map(eval, out.splitlines())
    assert not (set(imported) - bare) & heavy
    assert not (set(loaded) - bare) & heavy
    assert {"dyck4d.cli", "dyck4d.dynamics", "dyck4d.identities"} <= set(loaded)
    assert not {"dyck4d.paths", "dyck4d.render", "dyck4d.verify"} & set(loaded)


def test_slow_commands_load_no_dataclasses_inspect_or_typing():
    # As above, only what a bare interpreter lacks is checked.
    heavy = {"dataclasses", "inspect", "typing"}
    bare = set(eval(run_python("import sys; print(sorted(sys.modules))")))
    out = run_python(
        "import io, sys\n"
        "import dyck4d.paths, dyck4d.render, dyck4d.verify\n"
        "print(sorted(sys.modules))\n"
        "from dyck4d.cli import run\n"
        "for argv in (['project', '--plane', 'nj', '--word', '(())'], ['enumerate', '3'],\n"
        "             ['render', '--plane', 'ij', '--max-i', '4'], ['verify', '--max-i', '8']):\n"
        "    assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0, argv\n"
        "print(sorted(sys.modules))\n"
    )
    imported, loaded = map(eval, out.splitlines())
    assert not (set(imported) - bare) & heavy
    assert not (set(loaded) - bare) & heavy
    assert {"dyck4d.paths", "dyck4d.render", "dyck4d.verify"} <= set(imported)


def test_dynamics_loads_no_re():
    # Only the CSV parser needs re; -S keeps site, which may load it, out of the way.
    out = run_python("import sys, dyck4d.dynamics; print('re' in sys.modules)", "-S")
    assert out == "False\n"


def test_importing_an_export_loads_no_json_or_csv():
    # An export is matched against the recurrence's own bytes; only a text that
    # differs from it reaches the json or csv parser.
    bare = set(eval(run_python("import sys; print(sorted(sys.modules))")))
    out = run_python(
        "import sys\n"
        "from dyck4d.dynamics import (build_table, table_from_csv, table_from_json,\n"
        "                             table_to_csv, table_to_json)\n"
        "table = build_table(64)\n"
        "assert table_from_csv(table_to_csv(table)) == table\n"
        "assert table_from_json(table_to_json(table)) == table\n"
        "print(sorted(sys.modules))\n"
    )
    assert not (set(eval(out)) - bare) & {"json", "csv"}


def test_import_loads_a_module_on_first_use():
    out = run_python(
        "import sys, dyck4d\n"
        "print(sorted(m for m in sys.modules if m.startswith('dyck4d')))\n"
        "run_checks = dyck4d.run_checks\n"
        "print('dyck4d.verify' in sys.modules, vars(dyck4d)['run_checks'] is run_checks)\n"
    )
    assert out.splitlines() == ["['dyck4d']", "True True"]


def _module_level_names(tree: ast.Module) -> list[str]:
    """Names a module binds at its top level by def, class or assignment."""
    names = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names += [node.id for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)]
    return names


def test_modules_hold_no_unused_import_or_orphaned_private_name():
    # An import the module never reads (``from __future__`` aside), or a top-level
    # ``_private`` name that no module of the package reads, is dead code.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(dyck4d.__file__).parent.glob("*.py"))}
    read = {name: {node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            for name, tree in trees.items()}
    referenced = set().union(*read.values())
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    faults = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read[name]:
                        faults.append(f"{name}: {bound} is imported and never used")
        faults += [f"{name}: {private} is read by no module"
                   for private in _module_level_names(tree)
                   if private.startswith("_") and not private.startswith("__")
                   and private not in referenced]
    assert faults == []
