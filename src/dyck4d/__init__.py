"""Exact combinatorics on the four-coordinate lattice of balanced-parenthesis
paths: node algebra, path-count tables, closed-form Catalan identities, word
enumeration, and deterministic diagram rendering.

Every identity has two independent routes (recurrence tables vs binomial
closed forms vs brute-force scans), and the ``verify`` machinery runs them
against each other.

The public names below are loaded on first use (PEP 562): ``import dyck4d``
imports no submodule, and reading ``dyck4d.run_checks`` imports
``dyck4d.verify`` (with what it needs) and binds the name here for later
reads.  A query that never touches paths, rendering or verification never
pays for loading them.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name, in the order ``__all__`` lists them.
_EXPORTS = {
    "coords": (
        "AXES",
        "MAX_COORD",
        "PLANES_2D",
        "PLANES_3D",
        "Node",
        "Plane",
        "is_reachable",
        "iter_nodes",
        "node_from",
        "planarity_equation",
        "planarity_residual",
        "project",
    ),
    "dynamics": (
        "DEFAULT_POSITION_CAP",
        "TABLE_FORMAT",
        "DynamicsTable",
        "build_table",
        "catalan",
        "table_from_csv",
        "table_from_json",
        "table_to_csv",
        "table_to_json",
    ),
    "errors": (
        "DomainError",
        "DyckError",
        "InvalidCharacter",
        "NotANode",
        "OutOfRange",
        "PrefixViolation",
        "ResourceLimit",
        "TableFormatError",
    ),
    "identities": (
        "Decomposition",
        "binomial",
        "convolution",
        "decompose_catalan",
        "square_term",
        "square_term_special",
    ),
    "paths": (
        "COUNT_SCAN_CAP",
        "ENUMERATION_CAP",
        "DyckWord",
        "PathTrace",
        "ProjectedPath",
        "count_paths_by_height",
        "count_paths_to",
        "enumerate_words",
        "format_word",
        "parse_word",
        "project_path",
        "trace",
    ),
    "render": ("Diagram", "DiagramSpec", "emit", "layout"),
    "verify": ("CheckResult", "run_checks"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
