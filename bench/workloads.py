"""Seeded inputs for the three workloads.

Sizes are log-uniform (or uniform) over each workload's range.  They are not
drawn independently: each kind of operation walks a golden-ratio (Weyl)
sequence, so every prefix of a run covers the whole size range evenly, and
the few very large inputs that dominate the cost come up in the same
proportion in every run.  Each sequence starts just below the top of its
range, so the largest input of each kind comes first and every run reaches
the same peak.  The seed shifts each sequence by less than a thousandth of
the range, so every size changes with the seed while the coverage does not;
it also shuffles the order of each block of operations, picks where the
rotation of render planes and formats starts, and draws every other
argument (heights, words, node and path planes, the terms asked for).
Nothing here imports dyck4d: the program only ever sees the generated
inputs.

The mix of each workload is assumed, not observed: no usage data exists, so
every block holds the same number of operations (jobs, in ``bulk_tables``)
of each kind.  ``cli_queries`` adds one over-cap request per block.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

GOLDEN = (math.sqrt(5) - 1) / 2

PLANES_2D = ("ij", "nj", "nk", "in", "kj", "ik")
PLANES_3D = ("ijn", "ijk", "nik", "jnk")

# Largest inputs per workload; TINY is for the smoke tests.
FULL = {
    "catalan": 2048, "dynamics": 4096, "decompose": 1024,
    "lib_catalan": 512, "lib_binomial": 20000, "lib_convolution": 2048,
    "lib_square": 4096, "lib_special": 1023, "lib_decompose": 256, "lib_word": 512,
    "lib_node": 1_000_000, "table_lo": 128, "table_hi": 512, "render_lo": 40, "render_hi": 200,
    "verify": (64, 128),
}
TINY = {
    "catalan": 16, "dynamics": 32, "decompose": 8,
    "lib_catalan": 16, "lib_binomial": 200, "lib_convolution": 50,
    "lib_square": 64, "lib_special": 31, "lib_decompose": 16, "lib_word": 16,
    "lib_node": 1000, "table_lo": 8, "table_hi": 16, "render_lo": 4, "render_hi": 10,
    "verify": (8, 16),
}

# Requests beyond these caps must be refused with exit 2.
OVER_CAP = {"catalan": 2048, "dynamics": 4096, "decompose": 2048}


def sizes(tiny: bool) -> dict:
    return TINY if tiny else FULL


# How far the seed may shift a sequence, as a share of [0, 1).
SEED_SHIFT = 1 / 1024


class Spread:
    """Evenly spread fractions in [0, 1): a Weyl sequence whose first point
    lies within 2 * SEED_SHIFT below 1, shifted by the seed."""

    def __init__(self, rng: random.Random):
        self.u = 1 - GOLDEN - 2 * SEED_SHIFT + SEED_SHIFT * rng.random()

    def next(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u

    def log_uniform(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] whose successor is log-uniform, so lo may be 0."""
        return min(hi, int((lo + 1) * ((hi + 1) / (lo + 1)) ** self.next()) - 1)

    def uniform(self, lo: int, hi: int) -> int:
        return lo + int((hi - lo + 1) * self.next())


def _blocks(rng: random.Random, pattern: list[str]) -> Iterator[str]:
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


def _reachable_height(rng: random.Random, i: int) -> int:
    return i - 2 * rng.randint(0, i // 2)


def cli_queries(seed: int, tiny: bool = False) -> Iterator[list[str]]:
    """Argument vectors for one-shot CLI processes.

    Each block of 10 queries holds 3 ``catalan``, 3 ``dynamics``, 3
    ``decompose`` and one over-cap request of a rotating command.
    """
    size = sizes(tiny)
    rng = random.Random(seed)
    spreads = {kind: Spread(rng) for kind in ("catalan", "dynamics", "decompose", "over")}
    over_kinds = ("catalan", "dynamics", "decompose")
    over_count = 0
    pattern = list(over_kinds) * 3 + ["over"]
    for kind in _blocks(rng, pattern):
        if kind == "over":
            command = over_kinds[over_count % 3]
            over_count += 1
            value = spreads["over"].log_uniform(OVER_CAP[command] + 1, 100_000)
            if command == "dynamics":
                yield ["dynamics", str(value), str(value % 2)]
            else:
                yield [command, str(value)]
            continue
        value = spreads[kind].log_uniform(0, size[kind])
        if kind == "dynamics":
            yield ["dynamics", str(value), str(_reachable_height(rng, value))]
        else:
            yield [kind, str(value)]


def _word(rng: random.Random, length: int) -> str:
    """A random valid prefix: no prefix has more ')' than '('."""
    height = 0
    chars = []
    for _ in range(length):
        up = height == 0 or rng.random() < 0.5
        height += 1 if up else -1
        chars.append("(" if up else ")")
    return "".join(chars)


LIBRARY_KINDS = (
    "catalan", "convolution", "square_term", "square_term_special",
    "binomial", "decompose", "node", "path",
)


def library_calls(seed: int, tiny: bool = False) -> Iterator[tuple[str, tuple]]:
    """(kind, args) pairs for direct library calls; one of each kind per block."""
    size = sizes(tiny)
    rng = random.Random(seed)
    spread = {kind: Spread(rng) for kind in LIBRARY_KINDS}
    for kind in _blocks(rng, list(LIBRARY_KINDS)):
        s = spread[kind]
        if kind == "catalan":
            args = (s.log_uniform(0, size["lib_catalan"]),)
        elif kind == "convolution":
            n = s.log_uniform(0, size["lib_convolution"])
            args = (n, rng.randint(0, n))
        elif kind == "square_term":
            i = s.log_uniform(0, size["lib_square"])
            args = (i, rng.randint(0, i // 2))
        elif kind == "square_term_special":
            i = s.log_uniform(4, size["lib_special"])
            args = (i, rng.choice((0, 1, 2, i // 2)))
        elif kind == "binomial":
            n = s.log_uniform(1, size["lib_binomial"])
            args = (n, rng.randint(0, n))
        elif kind == "decompose":
            args = (s.log_uniform(0, size["lib_decompose"]),)
        elif kind == "node":
            i = s.log_uniform(0, size["lib_node"])
            j = _reachable_height(rng, i)
            coords = {"i": i, "j": j, "n": (i + j) // 2, "k": (i - j) // 2}
            plane2 = rng.choice(PLANES_2D)
            args = (
                plane2, coords[plane2[0]], coords[plane2[1]], i, j,
                rng.choice(PLANES_2D + PLANES_3D), rng.choice(PLANES_3D),
            )
        else:
            args = (_word(rng, s.log_uniform(1, size["lib_word"])), rng.choice(PLANES_2D))
        yield kind, args


def bulk_jobs(seed: int, tiny: bool = False) -> Iterator[tuple[str, tuple]]:
    """Whole-table jobs; each block has one table, one render and one verify job.

    ``table`` jobs build, export (CSV and JSON) and re-import one table;
    ``render`` jobs lay out and emit one diagram; ``verify`` runs the check
    suite at one of two bounds.
    """
    size = sizes(tiny)
    rng = random.Random(seed)
    table_spread, render_spread = Spread(rng), Spread(rng)
    # Renders rotate through every plane in each format rather than drawing
    # them, so each run renders each about equally often whatever its seed.
    renders = [(plane, fmt) for fmt in ("text", "svg") for plane in PLANES_2D + PLANES_3D]
    render_at = rng.randrange(len(renders))
    verify_bounds = size["verify"]
    verifies = 0
    for kind in _blocks(rng, ["table", "render", "verify"]):
        if kind == "table":
            yield kind, (table_spread.log_uniform(size["table_lo"], size["table_hi"]),)
        elif kind == "render":
            max_i = render_spread.uniform(size["render_lo"], size["render_hi"])
            plane, fmt = renders[render_at % len(renders)]
            render_at += 1
            yield kind, (plane, max_i, fmt)
        else:
            yield kind, (verify_bounds[verifies % 2],)
            verifies += 1


def describe(workload: str, tiny: bool = False) -> str:
    """The inputs of one workload, for the report."""
    s = sizes(tiny)
    return {
        "cli_queries": f"one fresh process per query, per block of 10: 3 catalan "
                       f"N<={s['catalan']}, 3 dynamics I<={s['dynamics']} J reachable, 3 decompose "
                       f"V<={s['decompose']}, log-uniform sizes; 1 over a cap (expects exit 2)",
        "library_session": f"direct calls, one of each kind per block: catalan "
                           f"n<={s['lib_catalan']}, convolution n<={s['lib_convolution']}, "
                           f"square_term i<={s['lib_square']}, square_term_special "
                           f"i<={s['lib_special']}, binomial n<={s['lib_binomial']}, "
                           f"decompose_catalan v<={s['lib_decompose']}, node_from/project/"
                           f"planarity_residual i<={s['lib_node']}, parse_word/trace/"
                           f"project_path words<={s['lib_word']}",
        "bulk_tables": f"per block of 3 jobs: 1 table m in [{s['table_lo']}, {s['table_hi']}] "
                       f"log-uniform (build, CSV export and import, JSON export and import), "
                       f"1 render max_i in [{s['render_lo']}, {s['render_hi']}] uniform on a "
                       f"2-D or 3-D plane and in text or SVG, each in turn, 1 run_checks at "
                       f"{' or '.join(map(str, s['verify']))} in turn",
    }[workload]
