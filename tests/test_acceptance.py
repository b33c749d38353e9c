"""Acceptance criteria, one test per criterion, at the stated time bounds.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output); the suite functions are the same ones `nilcay verify` runs.
"""

import time

from nilcay import suites

SEED = 0


def _check(criterion, label, suite, bound_s, **kwargs):
    """Run and time one suite; its report must pass within the bound."""
    t0 = time.perf_counter()
    report = suite(**kwargs)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"{'PASS' if report.ok else 'FAIL'} criterion {criterion}: "
          f"{label} ({elapsed_ms:.0f} ms)")
    assert report.ok, (label, report.witnesses)
    if bound_s is not None:
        assert elapsed_ms < bound_s * 1000, \
            f"criterion {criterion} exceeded {bound_s}s"
    return report


def test_criterion_01_group_laws():
    _check(1, "group-law suite, 10^4 seeded triples per family",
           suites.group_laws, 5, seed=SEED, samples=10**4)


def test_criterion_02_metric_oracle():
    _check(2, "BFS distances equal exhaustive word enumeration on B(4)",
           suites.metric_oracle, 30)


def test_criterion_03_klein_pair():
    _check(3, "Klein-bottle flip/grid maps and non-normality",
           suites.klein_pair, 10)


def test_criterion_04_fsf_construction():
    _check(4, "FSF twin cosets, twin swap, non-normality",
           suites.fsf_construction, 10)


def test_criterion_05_affine_shadow():
    report = _check(5, "stable local automorphisms are affine (Z2 count = 8)",
                    suites.affine_shadow, 60)
    assert report.parameters["counts"]["z2"] == 8


def test_criterion_06_biorder_shadow():
    _check(6, "bi-order max generators are convex; bi-invariance sampled",
           suites.biorder_shadow, 30, seed=SEED, samples=10**4)


def test_criterion_07_distortion():
    report = _check(7, "Heisenberg distortion verdicts match the closed-form isolator",
                    suites.distortion, 60)
    profile = dict(report.parameters["profile_c"])
    assert profile[1] == 4 and profile[16] <= 16


def test_criterion_08_torsion_geodesics():
    _check(8, "torsion labels on geodesics, edge insertion, orbit in N",
           suites.torsion_geodesics, 30, seed=SEED)


def test_criterion_09_induced_and_wreath():
    _check(9, "induced quotient map, wreath isomorphism, rank additivity",
           suites.induced_and_wreath, 30)


def test_criterion_10_determinism():
    _check(10, "byte-identical verify reports over repeated runs, forward "
               "and reverse suite order", suites.determinism, None, seed=SEED)
