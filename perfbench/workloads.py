"""The four benchmark workloads and the checks on their outputs.

Each workload is one pass: a function of the seed that drives ``nilcay``
through its public API and its CLI entry point ``nilcay.cli.main``, checks
every output, and returns the tally in a ``Checks``.  Input sizes are fixed;
the seed only chooses which elements, pairs and maps are used.

The checks do not share code with the layer they check: Z^3 geodesic counts
against the multinomial closed form, ``is_affine_on_ball`` against maps
built from explicit Heisenberg automorphisms, class-3 products by comparing
the two bracketings, and ``verify`` by byte identity across passes (in
``run.py``).  Fixed outputs are compared with ``expected.json``, measured
at the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from nilcay import autlab, cli, constructions, pcgroup, structure
from nilcay.autlab import EnumerationCapError
from nilcay.cayley import (BallBudgetError, GeodesicCapError, count_geodesics,
                           enumerate_geodesics, generate_ball, standard_genset,
                           torsion_label_bound)
from nilcay.pcgroup import CollectionError

HERE = Path(__file__).resolve().parent
FILIFORM = HERE / "inputs" / "filiform4.pc"
EXPECTED = {k: v["value"] for k, v in
            json.loads((HERE / "expected.json").read_text()).items()}


class Inconclusive(RuntimeError):
    """A verdict came back inconclusive or the CLI stopped at a cap."""


# a check that ends in one of these got no answer: it fails, but the program
# gave no wrong output
LIMITS = (CollectionError, BallBudgetError, GeodesicCapError,
          EnumerationCapError, Inconclusive)


class Checks:
    """Tally of one pass's output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []      # outputs that disagreed with their expected value
        self.limited = []    # checks that raised, hit a cap or were inconclusive
        self.digest = None   # verify report digest, compared across passes

    def check(self, label, fn, want=True):
        """Run ``fn`` and compare its result with ``want``."""
        self.attempted += 1
        try:
            got = fn()
        except LIMITS as exc:
            self.failed += 1
            self.limited.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if got != want:
            self.failed += 1
            self.wrong.append(f"{label}: got {got!r}, expected {want!r}")
        return got

    def ball(self, group, radius):
        """B(radius) of a built-in group's standard generating set, checked
        against its pinned size."""
        p = pcgroup.from_id(group)
        ball = generate_ball(p, standard_genset(p), radius)
        self.check(f"|B({radius})| of {group}", lambda: len(ball),
                   EXPECTED[f"ball_{group}_{radius}"])
        return ball


def _cli(args):
    """Run ``nilcay <args>`` in this process; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue().encode("utf-8")


def _cli_result(args):
    """The ``result`` of a CLI report; exit code 1 is a cap or inconclusive."""
    code, out = _cli(args)
    if code == 1:
        raise Inconclusive(f"nilcay {' '.join(args)} exited with 1")
    if code != 0:
        raise RuntimeError(f"nilcay {' '.join(args)} exited with {code}")
    return json.loads(out)["result"]


PRESENTATIONS = {
    "verify": ("z", "z2", "z3", "heisenberg", "klein_bottle", "zxz2",
               "heisenberg_z3"),
    "reach": ("heisenberg", "z2", FILIFORM),
    "geodesics": ("z3", "heisenberg", "heisenberg_z3"),
    "autos": ("heisenberg", "z3", "klein_bottle", "zxz2"),
}


def load_presentations(workload):
    """Load every presentation the workload uses: the set-up it measures."""
    return [pcgroup.parse_presentation(src.read_text())
            if isinstance(src, Path) else pcgroup.from_id(src)
            for src in PRESENTATIONS[workload]]


# -- verify ------------------------------------------------------------------


def verify(seed):
    """``nilcay verify --suite all --seed <seed>`` with one worker."""
    checks = Checks()
    code, report = _cli(["verify", "--suite", "all", "--seed", str(seed),
                         "--threads", "1"])
    envelope = json.loads(report)
    for name, suite in sorted(envelope["suites"].items()):
        checks.check(f"verify suite {name}", lambda: suite["ok"])
    checks.check("verify exit code and all_passed",
                 lambda: (code, envelope["all_passed"]), (0, True))
    checks.digest = hashlib.sha256(report).hexdigest()
    return checks


# -- reach -------------------------------------------------------------------


def reach(seed):
    """Distortion at kmax=64, a class-3 ball, and class-3 products."""
    checks = Checks()

    def distortion():
        result = _cli_result(["distortion", "--group", "heisenberg",
                              "--element", "0,0,1"])
        return [result["verdict"], result["parameters"]["dists"]]

    checks.check("distortion of c in the Heisenberg group, kmax=64",
                 distortion, EXPECTED["distortion_heisenberg_c_kmax64"])
    checks.check("|B(8)| of the filiform group",
                 lambda: _cli_result(["ball", "--group", str(FILIFORM),
                                      "--radius", "8"])["vertices"],
                 EXPECTED["ball_filiform4_8"])

    p = pcgroup.parse_presentation(FILIFORM.read_text())
    rng = random.Random(f"{seed}:reach:triples")
    for span, count in ((10, 50), (20, 8)):
        for i in range(count):
            x, y, z = (tuple(rng.randint(-span, span) for _ in range(p.n))
                       for _ in range(3))
            checks.check(f"filiform (xy)z = x(yz), span {span}, triple {i}",
                         lambda: p.multiply(p.multiply(x, y), z)
                         == p.multiply(x, p.multiply(y, z)))
    return checks


# -- geodesics ---------------------------------------------------------------


def _pairs(ball, rng, count):
    """Seeded vertex pairs (u, v) whose distance the ball certifies."""
    p = ball.presentation
    verts = ball.vertices
    out = []
    while len(out) < count:
        u, v = rng.choice(verts), rng.choice(verts)
        if ball.distance_from_identity(p.multiply(p.inverse(u), v)) is not None:
            out.append((u, v))
    return out


def _multinomial(w):
    parts = [abs(x) for x in w]
    count = math.factorial(sum(parts))
    for x in parts:
        count //= math.factorial(x)
    return count


def geodesics(seed):
    """Geodesic queries on balls built once per pass."""
    checks = Checks()
    rng = random.Random(f"{seed}:geodesics")

    ball = checks.ball("z3", 7)
    checks.check("torsion_label_bound on Z^3 B(7), trivial subgroup",
                 lambda: torsion_label_bound(
                     ball, (ball.presentation.identity,)).verdict, "pass")
    ball = checks.ball("heisenberg_z3", 7)
    checks.check("torsion_label_bound on heisenberg_z3 B(7), C3 torsion",
                 lambda: torsion_label_bound(
                     ball, structure.torsion_subgroup(
                         ball.presentation).elements).verdict, "pass")

    ball = checks.ball("heisenberg", 10)
    e = ball.presentation.identity
    checks.check("sum of geodesic counts from e over Heisenberg B(10)",
                 lambda: sum(count_geodesics(ball, e, v) for v in ball.vertices),
                 EXPECTED["geodesic_count_sum_heisenberg_10"])
    for u, v in _pairs(ball, rng, 150):
        checks.check(f"Heisenberg B(10) geodesics {u} -> {v}: listed = counted",
                     lambda: len(enumerate_geodesics(ball, u, v))
                     == count_geodesics(ball, u, v))

    ball = checks.ball("z3", 16)
    for u, v in _pairs(ball, rng, 150):
        w = tuple(b - a for a, b in zip(u, v))
        checks.check(f"Z^3 B(16) geodesics {u} -> {v}",
                     lambda: count_geodesics(ball, u, v), _multinomial(w))
    return checks


# -- autos -------------------------------------------------------------------

NORMALITY_CASES = (
    ("heisenberg", "std", 5),
    ("z3", "std", 4),
    ("klein_bottle", "std", 6),
    ("zxz2", "fsf", 6),
)

# the 8 signed permutations of the Heisenberg generators a, b, as 2x2 matrices
SIGNED_PERMUTATIONS = tuple(
    m for s in (1, -1) for t in (1, -1)
    for m in (((s, 0), (0, t)), ((0, s), (t, 0))))


def heisenberg_product(g, h):
    """Product of normal forms a^x b^y c^z in the built-in Heisenberg group.

    There a^-1 b a = b c^-1, so b^y a^x' = a^x' b^y c^(-x'y).
    """
    x, y, z = g
    x2, y2, z2 = h
    return (x + x2, y + y2, z + z2 - x2 * y)


def heisenberg_automorphism(m, g):
    """The automorphism acting as the matrix ``m`` on (a, b) and as c -> c^det.

    In the coordinates (x, y, z + xy/2) the product is the symplectic one,
    which a linear map of determinant d scales by d.
    """
    (p, q), (r, s) = m
    det = p * s - q * r
    x, y, z = g
    x2, y2 = p * x + q * y, r * x + s * y
    return (x2, y2, det * z + (det * x * y - x2 * y2) // 2)


def autos(seed):
    """Normality verdicts, seeded affine maps, and the Klein flip."""
    checks = Checks()
    for group, genset, radius in NORMALITY_CASES:
        key = f"normality_{group}_{genset}_{radius}_2"

        def normality():
            # an inconclusive verdict exits with 1, which _cli_result raises
            result = _cli_result(["normality", "--group", group, "--genset",
                                  genset, "--radius", str(radius),
                                  "--stability", "2"])
            return [result["verdict"],
                    result["parameters"]["stable_automorphisms"]]

        checks.check(f"nilcay normality {group} --genset {genset} ({radius},2)",
                     normality, EXPECTED[key])

    ball = checks.ball("heisenberg", 6)
    rng = random.Random(f"{seed}:autos")
    for i in range(2):
        m = rng.choice(SIGNED_PERMUTATIONS)
        h = tuple(rng.randint(-5, 5) for _ in range(3))
        mapping = {v: heisenberg_product(h, heisenberg_automorphism(m, v))
                   for v in ball.vertices}
        want = (True, h, {s: heisenberg_automorphism(m, s)
                          for s in ball.genset.elements})

        def affine():
            verdict = autlab.is_affine_on_ball(ball, ball, mapping)
            return (verdict.affine, verdict.translation,
                    verdict.alpha_on_generators)

        checks.check(f"map {i}: x -> {h} alpha_{m}(x) is affine", affine, want)

    flip = constructions.klein_flip_map(6)
    checks.check("Klein flip preserves adjacency", lambda: bool(flip.check()))
    checks.check("Klein flip is not affine",
                 lambda: autlab.is_affine_on_ball(
                     flip.source, flip.source, flip.mapping).affine, False)
    return checks


WORKLOADS = {"verify": verify, "reach": reach, "geodesics": geodesics,
             "autos": autos}
