"""The failure contract: every bad argument raises ``DomainError``, which is both a
``DyckError`` (one family for callers and the CLI to catch) and a ``ValueError``
(so ``except ValueError`` callers keep working)."""

import pytest

from dyck4d.coords import Node, Plane, node_from, planarity_equation, planarity_residual
from dyck4d.dynamics import build_table, catalan
from dyck4d.errors import DomainError, DyckError
from dyck4d.identities import binomial, decompose_catalan
from dyck4d.paths import DyckWord, count_paths_by_height, enumerate_words, project_path, trace

# One call per argument check, with the text each raised as a bare ValueError before.
BAD_CALLS = [
    (lambda: Plane("i"), "a plane selects 2 or 3 axes, got ('i',)"),
    (lambda: Plane("ii"), "plane axes must be distinct, got ('i', 'i')"),
    (lambda: Plane("ix"), "unknown axis 'x', expected one of ('i', 'j', 'n', 'k')"),
    (lambda: node_from(Plane.parse("ijn"), 1, 1), "node_from needs a two-axis plane, got 'ijn'"),
    (lambda: planarity_residual(Node(0, 0, 0, 0), Plane.parse("ij")),
     "planarity applies to three-axis planes, got 'ij'"),
    (lambda: planarity_equation(Plane.parse("ij")),
     "planarity applies to three-axis planes, got 'ij'"),
    (lambda: project_path(trace(DyckWord()), Plane.parse("ijn")),
     "project_path needs a two-axis plane, got 'ijn'"),
    (lambda: enumerate_words(-1), "semilength must be nonnegative, got -1"),
    (lambda: count_paths_by_height(-1), "position must be nonnegative, got -1"),
    (lambda: binomial(-1, 0), "n must be nonnegative, got -1"),
    (lambda: decompose_catalan(-1), "v must be nonnegative, got -1"),
    (lambda: build_table(-1), "max_i must be nonnegative, got -1"),
    (lambda: catalan(-1), "n must be nonnegative, got -1"),
]
_IDS = ["Plane-size", "Plane-distinct", "Plane-axis", "node_from", "planarity_residual",
        "planarity_equation", "project_path", "enumerate_words", "count_paths_by_height",
        "binomial", "decompose_catalan", "build_table", "catalan"]


@pytest.mark.parametrize("call, text", BAD_CALLS, ids=_IDS)
def test_bad_argument_raises_domain_error(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, DyckError)
    assert isinstance(info.value, ValueError)
    assert str(info.value) == text
