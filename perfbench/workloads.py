"""The benchmark's three workloads: seeded op lists, op execution, output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  Sizes are drawn by stratified sampling on a fixed grid
of odd indices spaced evenly in log(n): the grid is cut into strata of two
neighbouring points and each pass draws from every stratum of every op
shape.  Where an op shape comes in two variants (text and JSON output, or the
two operands of a product) the variants take different points of the
stratum.  So a pass always holds nearly the same sizes, and the cost of a
run depends on the seed only through the small differences between
neighbouring grid points.  A fixed grid also keeps the
space of value requests finite, which is what lets their exact output bytes
be checked against digests recorded once (see record_digests.py).

torkit is looked up through its module attributes at call time, never bound
here, so that the traced run's wrappers (tracing.py) see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path

from torkit import cli, families, laurent

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

FAMILY_NAMES = ("alexander", "generalized-alexander", "jones", "homfly")
FORMATS = ("text", "json")


def odd_grid(lo: int, hi: int, points: int) -> list[int]:
    """Distinct odd integers spaced evenly in log(n) from lo to hi (both odd)."""
    return sorted({int(round(lo * (hi / lo) ** (i / (points - 1)))) | 1 for i in range(points)})


def strata(grid: list[int]) -> list[list[int]]:
    """Neighbouring pairs of grid points, taken from the top down; an odd
    point out joins the lowest pair, where ops are cheapest."""
    pairs = [grid[i - 2:i] for i in range(len(grid), 1, -2)]
    if len(grid) % 2:
        pairs[-1] = grid[:3]
    return pairs[::-1]


def run_cli(argv) -> tuple[int, str]:
    """Run cli.main in process; return its exit code and captured stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad usage this way
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One set of inputs. Subclasses fill in the class attributes and methods.

    `sizes` states the sizes the workload runs at; `tail_pct` is the highest
    percentile at which a run of the stated length leaves at least ten ops
    beyond it; `should_move` lists the traced layers that must record calls
    on this workload (tracing.py fails a traced run where one records none).
    """

    name = ""
    why = ""
    sizes: dict = {}
    tail_pct = 50.0
    should_move: tuple[str, ...] = ()

    def make_pass(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def run(self, op: tuple) -> tuple[bool, int]:
        """Execute one op and check it: (output correct, stdout bytes)."""
        raise NotImplementedError

    def passes(self, seed: int, fresh: bool):
        """Endless passes: fresh draws each pass, or pass 0 over and over."""
        index = 0
        while True:
            rng = random.Random(f"{self.name}:{seed}:{index if fresh else 0}")
            yield self.make_pass(rng)
            index += 1


class Verify(Workload):
    name = "verify"
    why = (
        "the identity battery, the paper's proof obligation: cost grows about as "
        "N^3.3 in --n-max, so asymptotic wins show here, with almost no output"
    )
    N_GRID = odd_grid(41, 61, 11)
    sizes = {"n_max": N_GRID}
    tail_pct = 75.0
    should_move = (
        "laurent.construct",
        "laurent.add",
        "laurent.substitute_poly",
        "laurent.substitute_monomial",
        "skein.gen_odd_sequence",
        "skein.k_to_l",
        "skein.fit_ansatz",
        "skein.gen_full_sequence",
        "qnumbers.verify_recurrence",
        "families.substitute.to_alexander",
        "families.substitute.to_jones",
        "families.substitute.homfly_to_generalized",
        "cli.main",
    )
    _SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")

    def make_pass(self, rng):
        ops = [("verify", "--n-max", str(rng.choice(chunk))) for chunk in strata(self.N_GRID)]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        rc, out = run_cli(op)
        lines = out.splitlines()
        summary = self._SUMMARY.fullmatch(lines[-1]) if lines else None
        ok = (
            rc == 0
            and summary is not None
            and summary[1] == summary[2]
            and int(summary[1]) == len(lines) - 1 >= 23
            and all(line.startswith("PASS ") for line in lines[:-1])
        )
        return ok, len(out.encode())


# (argv prefix, largest size): the ROADMAP sizes for each request shape.
REQUEST_SHAPES = (
    *((("compute", "--family", f, "--n"), 1001) for f in FAMILY_NAMES),
    *((("table", "--family", f, "--n-max"), 501) for f in FAMILY_NAMES),
    (("convert", "--from", "generalized-alexander", "--to", "alexander", "--n"), 1001),
    (("convert", "--from", "generalized-alexander", "--to", "jones", "--n"), 1001),
    (("convert", "--from", "homfly", "--to", "generalized-alexander", "--n"), 101),
)
REQUEST_GRID_POINTS = 16


class ValueRequests(Workload):
    name = "value-requests"
    why = (
        "what a CLI user asks for: compute, table and convert over all four families in "
        "text and JSON, so closed forms, the HOMFLY recurrence and rendering dominate"
    )
    sizes = {" ".join(prefix[:-1]): odd_grid(3, cap, REQUEST_GRID_POINTS) for prefix, cap in REQUEST_SHAPES}
    tail_pct = 95.0
    should_move = (
        "laurent.construct",
        "laurent.mul.bi",
        "laurent.to_json",
        "laurent.canonical_string",
        "skein.gen_odd_sequence",
        "qnumbers.construct",
        "families.closed_form",
        "cli.main",
        "cli.render",
    )

    def __init__(self):
        self._reference = None

    @classmethod
    def op_space(cls) -> list[tuple]:
        """Every request any seed can draw."""
        return [
            (*prefix, str(n), "--format", fmt)
            for prefix, cap in REQUEST_SHAPES
            for n in odd_grid(3, cap, REQUEST_GRID_POINTS)
            for fmt in FORMATS
        ]

    def make_pass(self, rng):
        ops = []
        for prefix, cap in REQUEST_SHAPES:
            for chunk in strata(odd_grid(3, cap, REQUEST_GRID_POINTS)):
                picks = rng.sample(chunk, len(chunk))
                ops += [(*prefix, str(n), "--format", fmt) for n, fmt in zip(picks, FORMATS)]
        rng.shuffle(ops)
        return ops

    def reference(self) -> dict:
        if self._reference is None:
            self._reference = json.loads(DIGESTS_PATH.read_text())["digests"]
        return self._reference

    def run(self, op):
        rc, out = run_cli(op)
        return rc == 0 and self.reference().get(" ".join(op)) == digest(out), len(out.encode())


class ConnectedSums(Workload):
    name = "connected-sums"
    why = (
        "library-level products of two torus-knot values (the connected sum) with JSON and "
        "text round trips and exact_sqrt: the only large-by-large multiplies and decoding"
    )
    BUILDERS = {
        "alexander": "alexander_torus",
        "generalized-alexander": "generalized_alexander_torus",
        "jones": "jones_torus",
        "homfly": "homfly_torus",
    }
    N_GRID = odd_grid(3, 301, 24)
    sizes = {"n1_n2": N_GRID}
    tail_pct = 90.0
    should_move = (
        "laurent.mul.uni",
        "laurent.mul.bi",
        "laurent.substitute_monomial",
        "laurent.exact_sqrt",
        "laurent.to_json",
        "laurent.parse",
        "laurent.from_json",
        "families.torus",
    )

    def make_pass(self, rng):
        ops = []
        for family in FAMILY_NAMES:
            for chunk in strata(self.N_GRID):
                n1, n2 = rng.sample(chunk, 2)
                ops.append((family, n1, n2))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        family, n1, n2 = op
        build = getattr(families, self.BUILDERS[family])
        p1, p2 = build(n1), build(n2)
        product = p1 * p2
        ok = laurent.from_json(laurent.to_json(product)) == product
        ok &= laurent.parse(str(product), product.context) == product
        root = laurent.exact_sqrt(p1 * p1)
        ok &= root == p1 or root == -p1
        if family == "generalized-alexander":
            ok &= families.to_jones(product) == families.to_jones(p1) * families.to_jones(p2)
        return bool(ok), 0


WORKLOADS = {w.name: w for w in (Verify(), ValueRequests(), ConnectedSums())}
