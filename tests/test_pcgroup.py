"""Arithmetic tests against independent closed-form oracles.

The Heisenberg and Klein-bottle multiplication laws have closed forms that
follow from the declared relations; collection must reproduce them exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcay import pcgroup
from nilcay.pcgroup import PresentationError, builtin, from_id
from reference import (HEISENBERG_MOD3_SOURCE, MIXED_ROW_SOURCE, Q8_SOURCE,
                       SOL_SOURCE, letter_collect, letters_to_vector,
                       vector_letters)


def heisenberg_mul(x, y):
    """Oracle: (i1+i2, j1+j2, k1+k2 - j1*i2) for a^i b^j c^k with ab = ba*c."""
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] - x[1] * y[0])


def klein_mul(x, y):
    """Oracle: a^i b^j * a^k b^l = a^(i+k) b^((-1)^k j + l), as a inverts b."""
    sign = 1 if y[0] % 2 == 0 else -1
    return (x[0] + y[0], sign * x[1] + y[1])


@pytest.fixture(scope="module")
def heis():
    return builtin("heisenberg")


@pytest.fixture(scope="module")
def klein():
    return builtin("klein_bottle")


def test_spec_pinned_products(heis, klein):
    a, b, c = heis.generator(0), heis.generator(1), heis.generator(2)
    assert heis.multiply(a, b) == (1, 1, 0)
    assert heis.multiply(b, a) == (1, 1, -1)
    assert heis.commutator(a, b) == (0, 0, 1)
    ka, kb = klein.generator(0), klein.generator(1)
    assert klein.multiply(kb, ka) == (1, -1)
    assert klein.commutator(ka, kb) == (0, 2)


def test_identity_laws(heis):
    e = heis.identity
    x = (3, -2, 5)
    assert heis.multiply(x, e) == x
    assert heis.multiply(e, x) == x
    assert heis.multiply(x, heis.inverse(x)) == e
    assert heis.multiply(heis.inverse(x), x) == e


def test_heisenberg_matches_closed_form(heis):
    rng = random.Random(11)
    for _ in range(5000):
        x = tuple(rng.randint(-20, 20) for _ in range(3))
        y = tuple(rng.randint(-20, 20) for _ in range(3))
        assert heis.multiply(x, y) == heisenberg_mul(x, y)


def test_klein_matches_closed_form(klein):
    rng = random.Random(12)
    for _ in range(5000):
        x = (rng.randint(-20, 20), rng.randint(-20, 20))
        y = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert klein.multiply(x, y) == klein_mul(x, y)


def test_zn_is_vector_addition():
    z3 = builtin("zn", n=3)
    rng = random.Random(13)
    for _ in range(1000):
        x = tuple(rng.randint(-50, 50) for _ in range(3))
        y = tuple(rng.randint(-50, 50) for _ in range(3))
        assert z3.multiply(x, y) == tuple(a + b for a, b in zip(x, y))


def test_product_families_componentwise():
    h3 = from_id("heisenberg_z3")
    rng = random.Random(14)
    for _ in range(2000):
        x = tuple(rng.randint(-10, 10) for _ in range(3)) + (rng.randrange(3),)
        y = tuple(rng.randint(-10, 10) for _ in range(3)) + (rng.randrange(3),)
        hx, hy = x[:3], y[:3]
        want = heisenberg_mul(hx, hy) + ((x[3] + y[3]) % 3,)
        assert h3.multiply(x, y) == want


@settings(max_examples=200)
@given(st.tuples(*[st.integers(-8, 8)] * 3), st.tuples(*[st.integers(-8, 8)] * 3),
       st.tuples(*[st.integers(-8, 8)] * 3))
def test_heisenberg_associativity_property(x, y, z):
    p = builtin("heisenberg")
    assert p.multiply(p.multiply(x, y), z) == p.multiply(x, p.multiply(y, z))


@settings(max_examples=200)
@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.integers(-10, 10), st.integers(-10, 10))
def test_klein_power_law_property(x, j, k):
    p = builtin("klein_bottle")
    assert p.multiply(p.power(x, j), p.power(x, k)) == p.power(x, j + k)


def test_power_square_and_multiply(heis):
    x = (2, -1, 3)
    acc = heis.identity
    for k in range(1, 30):
        acc = heis.multiply(acc, x)
        assert heis.power(x, k) == acc
    assert heis.power(x, -7) == heis.inverse(heis.power(x, 7))
    assert heis.power(x, 0) == heis.identity


def test_power_addition_law_sampled(heis):
    rng = random.Random(18)
    for _ in range(300):
        x = tuple(rng.randint(-6, 6) for _ in range(3))
        j, k = rng.randint(-10, 10), rng.randint(-10, 10)
        assert heis.multiply(heis.power(x, j), heis.power(x, k)) == \
            heis.power(x, j + k)


def test_big_exponents_stay_exact(heis):
    big = 10**40
    assert heis.power((1, 0, 0), big) == (big, 0, 0)
    assert heis.multiply((big, big, 0), (big, 0, 0))[2] == -big * big


def test_normal_form_idempotence(heis):
    rng = random.Random(15)
    for _ in range(300):
        x = tuple(rng.randint(-30, 30) for _ in range(3))
        word = tuple((i, e) for i, e in enumerate(x) if e)
        assert heis.collect_word(word) == x


FILIFORM_SOURCE = """\
group Filiform4
nilpotent true
torsion_prefix 0
gen a order inf
gen b order inf
gen c order inf
gen d order inf
conj b by a = b*c
conjinv b by a = b*c^-1*d
conj c by a = c*d
conjinv c by a = c*d^-1
block a b
block c
block d
genset a a^-1 b b^-1
"""

# the Heisenberg group with its central generator first: c^k a^i b^j.  The
# conjugate of b by a mentions c, which comes before a, so this is not in
# standard pc form
CENTRAL_FIRST_SOURCE = """\
group HeisenbergCentralFirst
nilpotent true
torsion_prefix 0
gen c order inf
gen a order inf
gen b order inf
conj b by a = c^-1*b
conjinv b by a = c*b
"""


_SOURCES = {"filiform": FILIFORM_SOURCE, "q8": Q8_SOURCE,
            "heisenberg_mod3": HEISENBERG_MOD3_SOURCE, "sol": SOL_SOURCE,
            "mixed_row": MIXED_ROW_SOURCE}


def _presentation(name):
    if name in _SOURCES:
        return pcgroup.parse_presentation(_SOURCES[name])
    if name == "heisenberg_x_z2":
        return pcgroup.direct_product(builtin("heisenberg"), builtin("zn", n=2))
    if name == "quotient(heisenberg_z3)":
        from nilcay import structure
        return structure.quotient_by_torsion(from_id("heisenberg_z3"))
    return from_id(name)


_HEIS_MOVE = {(1, 0): (pcgroup._CENTRAL, ((2, -1),))}


@pytest.mark.parametrize("name,moves", [
    ("z", {}), ("z2", {}), ("z3", {}), ("zn:5", {}), ("zxz2", {}),
    ("zn_cross_cyclic:2,4", {}), ("zn_cross_cyclic:0,3", {}),
    ("heisenberg", _HEIS_MOVE), ("heisenberg_z", _HEIS_MOVE),
    ("heisenberg_z3", _HEIS_MOVE), ("heisenberg_x_z2", _HEIS_MOVE),
    ("quotient(heisenberg_z3)", _HEIS_MOVE),
    ("klein_bottle", {(1, 0): (pcgroup._SIGN,)}),
    ("filiform", {(1, 0): (pcgroup._GENERIC,),
                  (2, 0): (pcgroup._CENTRAL, ((3, 1),))}),
    ("mixed_row", {(2, 0): (pcgroup._SIGN,), (1, 0): (pcgroup._GENERIC,)}),
])
def test_action_table_is_pinned(name, moves):
    """Every non-commuting pair, so a pair that silently falls back to
    GENERIC (or a missed COMMUTE) shows up."""
    p = _presentation(name)
    got = {(l, j): a for j in range(p.n) for l, a in p._moves[j]}
    assert got == moves
    for j in range(p.n):
        ls = [l for l, _ in p._moves[j]]
        assert ls == sorted(ls, reverse=True) and all(l > j for l in ls)


def test_central_first_heisenberg_is_refused():
    with pytest.raises(PresentationError,
                       match=r"conj b by a = c\^-1\*b is not in standard pc form"):
        pcgroup.parse_presentation(CENTRAL_FIRST_SOURCE)


def test_letterwise_reference_agrees_with_fast_path():
    for fid in ("z2", "heisenberg", "zxz2", "heisenberg_z3", "klein_bottle",
                "filiform"):
        p = _presentation(fid)
        rng = random.Random(f"ref:{fid}")
        for _ in range(120):
            letters = [(rng.randrange(p.n), rng.choice((1, -1)))
                       for _ in range(rng.randint(1, 8))]
            v = letters_to_vector(p, letters)
            fast = p.identity
            for i, s in letters:
                fast = p.multiply(fast, p.collect_word(((i, s),)))
            assert v == fast


# UT(4,Z): x1 = E12, x2 = E23, x3 = E34, y1 = E13, y2 = E24, z = E14, where
# Eij is the unitriangular matrix with a single 1 above the diagonal
UT4_SOURCE = """\
group UT4
nilpotent true
torsion_prefix 0
gen x1 order inf
gen x2 order inf
gen x3 order inf
gen y1 order inf
gen y2 order inf
gen z order inf
conj x2 by x1 = x2*y1^-1
conjinv x2 by x1 = x2*y1
conj y2 by x1 = y2*z^-1
conjinv y2 by x1 = y2*z
conj x3 by x2 = x3*y2^-1
conjinv x3 by x2 = x3*y2
conj y1 by x3 = y1*z
conjinv y1 by x3 = y1*z^-1
block x1 x2 x3
block y1 y2
block z
genset x1 x1^-1 x2 x2^-1 x3 x3^-1
"""

_UT4_ENTRIES = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))


def _matmul(m, k):
    size = range(len(k))
    return tuple(tuple(sum(m[r][i] * k[i][c] for i in size) for c in size)
                 for r in size)


def ut4_matrix(v):
    """Oracle: the normal form x1^a x2^b ... z^f as a product of 4x4 matrices."""
    acc = tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
    for (r0, c0), e in zip(_UT4_ENTRIES, v):
        elem = tuple(tuple(int(r == c) + (e if (r, c) == (r0, c0) else 0)
                           for c in range(4)) for r in range(4))
        acc = _matmul(acc, elem)
    return acc


@pytest.mark.parametrize("span", [3, 20, 1000])
def test_ut4_matches_matrix_product(span):
    """Class 3, where (x2 past x1) is GENERIC: collection from the left must
    give the normal form of the matrix product (the letter collector runs out
    of steps on some span-20 pairs)."""
    p = pcgroup.parse_presentation(UT4_SOURCE)
    assert any(a[0] == pcgroup._GENERIC for row in p._moves for _, a in row)
    rng = random.Random(f"ut4:{span}")
    for _ in range(200):
        x, y = (tuple(rng.randint(-span, span) for _ in range(6)) for _ in "xy")
        xy = p.multiply(x, y)
        assert ut4_matrix(xy) == _matmul(ut4_matrix(x), ut4_matrix(y))
        assert p.multiply(xy, p.inverse(y)) == x


def test_ut4_agrees_with_letter_collector():
    p = pcgroup.parse_presentation(UT4_SOURCE)
    rng = random.Random("ut4:letters")
    for _ in range(300):
        x, y = (tuple(rng.randint(-3, 3) for _ in range(6)) for _ in "xy")
        v = list(x)
        letter_collect(p, v, vector_letters(y))
        assert tuple(v) == p.multiply(x, y)


@pytest.mark.parametrize("name", ["q8", "heisenberg_mod3", "sol", "klein_bottle",
                                  "mixed_row"])
def test_products_agree_with_letter_collector(name):
    """Seeded triples, with negative exponents at every infinite-order
    generator: x*y agrees with letter-by-letter collection, and products
    are associative and invertible."""
    p = _presentation(name)
    rng = random.Random(f"oracle:{name}")

    def element():
        return tuple(rng.randint(-3, 3) if m is None else rng.randrange(m)
                     for m in p.orders)

    for _ in range(300):
        x, y, z = element(), element(), element()
        v = list(x)
        letter_collect(p, v, vector_letters(y))
        assert tuple(v) == p.multiply(x, y)
        assert p.multiply(p.multiply(x, y), z) == p.multiply(x, p.multiply(y, z))
        assert p.multiply(x, p.inverse(x)) == p.identity


def _matpow(m, k):
    acc = ((1, 0), (0, 1))
    for _ in range(k):
        acc = _matmul(acc, m)
    return acc


def sol_matrix(v):
    """Oracle: t^k x^p y^q acts on Z^2 as u -> M^-k (u + (p, q)), where
    t^-1 x^p y^q t = x^p' y^q' with (p', q') = M (p, q), M = [[2, 1], [1, 1]]."""
    k, p, q = v
    a = _matpow(((1, -1), (-1, 2)) if k > 0 else ((2, 1), (1, 1)), abs(k))
    shift = [a[r][0] * p + a[r][1] * q for r in range(2)]
    return ((a[0][0], a[0][1], shift[0]), (a[1][0], a[1][1], shift[1]), (0, 0, 1))


@pytest.mark.parametrize("span", [3, 20])
def test_sol_matches_matrix_product(span):
    """Not nilpotent, and both moves past t are GENERIC: collection from the
    left must give the normal form of the affine-matrix product."""
    p = pcgroup.parse_presentation(SOL_SOURCE)
    assert p._moves[0] == ((2, (pcgroup._GENERIC,)), (1, (pcgroup._GENERIC,)))
    rng = random.Random(f"sol:{span}")
    for _ in range(200):
        x, y = (tuple(rng.randint(-span, span) for _ in range(3)) for _ in "xy")
        xy = p.multiply(x, y)
        assert sol_matrix(xy) == _matmul(sol_matrix(x), sol_matrix(y))
        assert p.multiply(xy, p.inverse(y)) == x


def test_sol_ball_of_radius_8():
    from nilcay.cayley import generate_ball, standard_genset
    p = pcgroup.parse_presentation(SOL_SOURCE)
    assert len(generate_ball(p, standard_genset(p), 8).vertices) == 7277


@pytest.mark.parametrize("span", [20, 100, 1000])
def test_filiform_associativity_at_large_spans(span):
    p = _presentation("filiform")
    rng = random.Random(f"filiform:{span}")
    triples = [tuple(tuple(rng.randint(-span, span) for _ in range(4))
                     for _ in "xyz") for _ in range(100)]
    if span == 20:
        # the letter-by-letter collector runs out of steps on this triple
        triples.append(((-1, 14, -13, -18), (18, 3, 3, -6), (16, -11, 10, -7)))
    for x, y, z in triples:
        assert p.multiply(p.multiply(x, y), z) == p.multiply(x, p.multiply(y, z))
        assert p.multiply(x, p.inverse(x)) == p.identity


# b, e and a commute except [b, a] = c, and [c, e] = d: the Jacobi identity
# fails, so (e*b)*a and e*(b*a) collect differently
JACOBI_BREAKER_SOURCE = """\
group JacobiBreaker
nilpotent true
torsion_prefix 0
gen a order inf
gen b order inf
gen e order inf
gen c order inf
gen d order inf
conj b by a = b*c
conjinv b by a = b*c^-1
conj c by e = c*d
conjinv c by e = c*d^-1
block a b e
block c
block d
"""


def test_inconsistent_overlap_is_rejected_at_load():
    with pytest.raises(PresentationError, match=r"\(e\*b\)\*\(a\) and \(e\)\*\(b\*a\)"):
        pcgroup.parse_presentation(JACOBI_BREAKER_SOURCE)
    # a power relation that disagrees with a conjugation: t^2 = 1, but a
    # conjugates t to t*s, whose square is s^2 != 1 (s has order 3)
    bad_power = ("group P\nnilpotent true\ntorsion_prefix 2\n"
                 "gen a order inf\ngen t order 2\ngen s order 3\n"
                 "pow t = 1\npow s = 1\nconj t by a = t*s\nconjinv t by a = t*s^2\n"
                 "block a\n")
    with pytest.raises(PresentationError, match="inconsistent presentation"):
        pcgroup.parse_presentation(bad_power)


def test_conj_and_conjinv_must_cancel():
    # conjinv should be b*c^-1; the overlap checks alone accept this file
    src = ("group H\nnilpotent true\ntorsion_prefix 0\n"
           "gen a order inf\ngen b order inf\ngen c order inf\n"
           "conj b by a = b*c\nconjinv b by a = b*c\nblock a b\nblock c\n")
    with pytest.raises(PresentationError, match="conj and conjinv for b by a do not cancel"):
        pcgroup.parse_presentation(src)


def test_conjugate_and_centrality(heis, klein):
    a, b, c = heis.generator(0), heis.generator(1), heis.generator(2)
    assert heis.conjugate(a, b) == (1, 0, 1)
    assert heis.is_central(c)
    assert not heis.is_central(a)
    assert klein.is_central((2, 0))
    assert not klein.is_central((1, 0))
    assert not klein.is_central((0, 2))
    z2 = builtin("zn", n=2)
    assert z2.is_central((5, -3))


def test_centrality_implies_conjugation_fixed(heis):
    rng = random.Random(16)
    for x in [(0, 0, 4), (0, 0, -1), heis.identity]:
        assert heis.is_central(x)
        for _ in range(100):
            g = tuple(rng.randint(-10, 10) for _ in range(3))
            assert heis.conjugate(x, g) == x


def test_hirsch_rank():
    assert builtin("zn", n=2).hirsch_rank() == 2
    assert builtin("heisenberg").hirsch_rank() == 3
    assert from_id("zxz2").hirsch_rank() == 1
    assert from_id("heisenberg_z3").hirsch_rank() == 3
    assert builtin("klein_bottle").hirsch_rank() == 2
    assert pcgroup.parse_presentation(SOL_SOURCE).hirsch_rank() == 3
    # the Klein bottle with b inverting a is outside standard pc form
    src = ("group W\nnilpotent false\ntorsion_prefix 0\n"
           "gen a order inf\ngen b order inf\n"
           "conj b by a = a^-2*b\nconjinv b by a = a^2*b\n")
    with pytest.raises(PresentationError, match="conj b by a = a\\^-2\\*b is not"):
        pcgroup.parse_presentation(src)


def test_parse_roundtrip_of_builtin_sources():
    z2 = builtin("zn", n=2)
    again = pcgroup.parse_presentation(z2.source)
    assert again.gens == z2.gens and again.orders == z2.orders
    assert again.genset == z2.genset


def test_parse_errors_report_lines():
    with pytest.raises(PresentationError, match="line 2"):
        pcgroup.parse_presentation("group X\ngen a frobnicate inf\n")
    with pytest.raises(PresentationError, match="unknown generator"):
        pcgroup.parse_presentation("group X\ngen a order inf\npow b = 1\n")
    with pytest.raises(PresentationError, match="torsion block"):
        pcgroup.parse_presentation(
            "group X\nnilpotent true\ntorsion_prefix 1\ngen a order inf\n")
    with pytest.raises(PresentationError, match="both"):
        pcgroup.parse_presentation(
            "group X\ngen a order inf\ngen b order inf\n"
            "conj b by a = a^-2*b\n")


def test_element_serialization(heis):
    x = heis.element_from_str("1,0,-3")
    assert x == (1, 0, -3)
    assert heis.element_to_str(x) == "1,0,-3"
    with pytest.raises(ValueError):
        heis.element_from_str("1,2")


def test_collection_fuel_exhaustion():
    # exponent-doubling conjugation: c b = b^2 c^2, on which letterwise
    # collection of c * b^20 explodes; it is outside standard pc form, so the
    # parser refuses it
    src = ("group Doubler\nnilpotent false\ntorsion_prefix 0\n"
           "gen b order inf\ngen c order inf\n"
           "conj c by b = b*c^2\nconjinv c by b = b^-1*c^2\n")
    with pytest.raises(PresentationError,
                       match=r"conj c by b = b\*c\^2 is not in standard pc form"):
        pcgroup.parse_presentation(src)


def test_unknown_family_and_bad_params():
    with pytest.raises(PresentationError):
        builtin("frobenius")
    with pytest.raises(PresentationError):
        builtin("zn_cross_cyclic", n=1, m=0)
    with pytest.raises(PresentationError):
        builtin("zn", n=0)


def test_direct_product_torsion_block_rule():
    zx = from_id("zxz2")
    z = builtin("zn", n=1)
    with pytest.raises(PresentationError):
        pcgroup.direct_product(zx, z)  # torsion would end up mid-basis
    ok = pcgroup.direct_product(z, zx)
    assert ok.torsion_len == 1 and ok.orders == (None, None, 2)


@pytest.mark.parametrize("left,right", [
    ("z", "klein"), ("klein", "heisenberg"), ("heisenberg", "klein")])
def test_direct_product_with_a_blockless_factor(left, right):
    from nilcay.order import BiOrder, BiOrderUnavailable
    a, b = from_id(left), from_id(right)
    p = builtin("direct_product", left=left, right=right)
    assert p.n == a.n + b.n and not p.blocks
    rng = random.Random(f"dp:{left}x{right}")
    for _ in range(300):
        xa, ya = (tuple(rng.randint(-6, 6) for _ in range(a.n)) for _ in "xy")
        xb, yb = (tuple(rng.randint(-6, 6) for _ in range(b.n)) for _ in "xy")
        assert p.multiply(xa + xb, ya + yb) == a.multiply(xa, ya) + b.multiply(xb, yb)
    with pytest.raises(BiOrderUnavailable):
        BiOrder(p)
