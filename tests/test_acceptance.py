"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its measured time against the stated budget.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import re
import time
from contextlib import contextmanager

from dyck4d import (
    PLANES_2D,
    PLANES_3D,
    Node,
    Plane,
    build_table,
    catalan,
    convolution,
    count_paths_by_height,
    is_reachable,
    iter_nodes,
    node_from,
    planarity_residual,
    project,
    square_term,
    square_term_special,
)
from dyck4d.cli import run
from dyck4d.render import MARGIN, SCALE

from conftest import random_valid_word


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    status = "PASS" if within else "FAIL"
    print(
        f"{status} criterion {number}: {description} "
        f"({elapsed:.4f}s, budget {budget_seconds}s)"
    )
    assert within, (
        f"criterion {number} exceeded its time budget: "
        f"{elapsed:.4f}s >= {budget_seconds}s"
    )


def test_criterion_1_catalan_fixture():
    table = build_table(12)
    with criterion(1, "catalan(6) = 132 and count(12, 0) = 132", 0.001):
        assert catalan(6) == 132
        assert table.count(12, 0) == 132


def test_criterion_2_four_coordinate_recurrence():
    table = build_table(100)
    with criterion(2, "shifted recurrence at every node with i <= 100", 1.0):
        assert table.count_node(Node(7, 1, 4, 3)) == (
            table.count_node(Node(6, 2, 4, 2)) + table.count_node(Node(6, 0, 3, 3))
        )
        for node in iter_nodes(100):
            if node.i == 0:
                continue
            up = (
                table.count_node(Node(node.i - 1, node.j + 1, node.n, node.k - 1))
                if node.k >= 1 else 0
            )
            down = (
                table.count_node(Node(node.i - 1, node.j - 1, node.n - 1, node.k))
                if node.j >= 1 else 0
            )
            assert table.count_node(node) == up + down


def test_criterion_3_brute_force_oracle():
    table = build_table(14)
    with criterion(3, "brute-force scan equals table for all i <= 14", 30.0):
        positions = 0
        for node in iter_nodes(14):
            positions += 1
            assert count_paths_by_height(node.i)[node.j] == table.count(node.i, node.j)
        assert positions == 64


def test_criterion_4_sum_of_squares():
    with criterion(4, "squared terms sum to catalan(v) for v <= 30", 1.0):
        for v in range(31):
            total = sum(square_term(v, k) ** 2 for k in range(v // 2 + 1))
            assert total == catalan(v)


def test_criterion_5_closed_form_agreement():
    table = build_table(40)
    with criterion(5, "binomial closed forms equal table values, i <= 40", 1.0):
        for i in range(41):
            for k in range(i // 2 + 1):
                assert square_term(i, k) == table.count(i, i - 2 * k)
        for i in range(41):
            for k in {0, 1, 2, i // 2}:
                if 2 * k <= i:
                    assert square_term_special(i, k) == square_term(i, k)


def test_criterion_6_convolution_matrix():
    table = build_table(40)
    with criterion(6, "convolution matrix equals table, n <= 20", 1.0):
        for n in range(21):
            for j in range(n + 1):
                assert convolution(n, j) == table.count(2 * n - j, j)
            assert convolution(n, 0) == catalan(n)


def test_criterion_7_lower_rows():
    table = build_table(100)
    with criterion(7, "count(2n, 0) = count(2n-1, 1) for n <= 50", 1.0):
        for n in range(1, 51):
            assert table.count(2 * n, 0) == table.count(2 * n - 1, 1)


def test_criterion_8_path_geometry():
    from dyck4d import project_path, trace

    nk = Plane.parse("nk")
    rng = random.Random(20260808)
    with criterion(8, "1000 seeded words: node equations and diagonal bound", 5.0):
        for _ in range(1000):
            word = random_valid_word(rng, rng.randint(0, 12))
            path = trace(word)
            for node in path.nodes:
                assert is_reachable(node.i, node.j)
                assert node.i + node.j == 2 * node.n
                assert node.i - node.j == 2 * node.k
            for step, before, after in zip(word.steps, path.nodes, path.nodes[1:]):
                if step == "U":
                    assert after.k == before.k
                else:
                    assert after.n == before.n
            assert all(k <= n for n, k in project_path(path, nk).points)


def test_criterion_9_projection_round_trip():
    with criterion(9, "round-trip on six planes and planarity, i <= 30", 1.0):
        for node in iter_nodes(30):
            for plane in PLANES_2D:
                assert node_from(plane, *project(node, plane)) == node
            for plane in PLANES_3D:
                assert planarity_residual(node, plane) == 0


def test_criterion_10_render_determinism(tmp_path):
    with criterion(10, "repeated SVG render is byte-identical, labels exact", 1.0):
        first = tmp_path / "first.svg"
        second = tmp_path / "second.svg"
        for target in (first, second):
            code = run(
                ["render", "--plane", "ij", "--max-i", "8", "--svg", str(target)]
            )
            assert code == 0
        payload = first.read_bytes()
        assert payload == second.read_bytes()

        # read every label back out of the document and compare it with the
        # table value at its lattice position
        svg = payload.decode("utf-8")
        height = int(re.search(r'height="(\d+)"', svg).group(1))
        labels = {}
        for match in re.finditer(r'<text x="(\d+)" y="(\d+)"[^>]*>(\d+)</text>', svg):
            px, py, label = (int(g) for g in match.groups())
            x = (px - MARGIN) // SCALE
            y = (height - MARGIN - (py + 8)) // SCALE
            labels[(x, y)] = label
        table = build_table(8)
        expected = {(node.i, node.j): value for node, value in table.items()}
        assert labels == expected
