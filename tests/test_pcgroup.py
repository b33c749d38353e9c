"""Arithmetic tests against independent closed-form oracles.

The Heisenberg and Klein-bottle multiplication laws have closed forms that
follow from the declared relations; collection must reproduce them exactly.
"""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcay import pcgroup
from nilcay.cayley import GenSet, generate_ball, standard_genset
from nilcay.cli import _resolve_genset
from nilcay.pcgroup import PresentationError, builtin, from_id
from reference import (CENTRAL_TORSION_SOURCE, FILIFORM_SOURCE,
                       FLIPPED_SOURCE_SOURCE, HEISENBERG_MOD3_SOURCE,
                       HEISENBERG_ONE_BLOCK_SOURCE, MIXED_ROW_SOURCE,
                       Q8_SOURCE, SOL_SOURCE, UT4_SOURCE, filiform_mul,
                       heisenberg_mul, letter_collect, letters_to_vector,
                       matmul, ut4_matrix, ut4_normal_form, vector_letters)


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


FILIFORM_PC = (Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
               / "filiform4.pc")

_SOURCES = {"filiform": FILIFORM_SOURCE, "ut4": UT4_SOURCE, "q8": Q8_SOURCE,
            "heisenberg_mod3": HEISENBERG_MOD3_SOURCE, "sol": SOL_SOURCE,
            "mixed_row": MIXED_ROW_SOURCE,
            "heisenberg_one_block": HEISENBERG_ONE_BLOCK_SOURCE,
            "central_torsion": CENTRAL_TORSION_SOURCE,
            "flipped_source": FLIPPED_SOURCE_SOURCE}


def _presentation(name):
    if name in _SOURCES:
        return pcgroup.parse_presentation(_SOURCES[name])
    if name == "klein_nilpotent":
        return pcgroup.parse_presentation(KLEIN_NILPOTENT_SOURCE)
    if name == "filiform4.pc":
        return pcgroup.parse_presentation(FILIFORM_PC.read_text())
    if " x " in name:
        left, right = name.split(" x ")
        return pcgroup.direct_product(_presentation(left), _presentation(right))
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


@pytest.mark.parametrize("span", [3, 20, 1000])
def test_ut4_matches_matrix_product(span):
    """Class 3, where (x2 past x1) is GENERIC: the product polynomials must
    give the normal form of the matrix product (the letter collector runs out
    of steps on some span-20 pairs)."""
    p = pcgroup.parse_presentation(UT4_SOURCE)
    assert any(a[0] == pcgroup._GENERIC for row in p._moves for _, a in row)
    rng = random.Random(f"ut4:{span}")
    for _ in range(200):
        x, y = (tuple(rng.randint(-span, span) for _ in range(6)) for _ in "xy")
        xy = p.multiply(x, y)
        assert ut4_matrix(xy) == matmul(ut4_matrix(x), ut4_matrix(y))
        assert p.multiply(xy, p.inverse(y)) == x


def test_ut4_agrees_with_letter_collector():
    p = pcgroup.parse_presentation(UT4_SOURCE)
    rng = random.Random("ut4:letters")
    for _ in range(300):
        x, y = (tuple(rng.randint(-3, 3) for _ in range(6)) for _ in "xy")
        v = list(x)
        letter_collect(p, v, vector_letters(y))
        assert tuple(v) == p.multiply(x, y)


# -- product polynomials ---------------------------------------------------


def _additive(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _ut4_mul(x, y):
    return ut4_normal_form(matmul(ut4_matrix(x), ut4_matrix(y)))


POLYNOMIAL_ORACLES = {
    "z": _additive,
    "z3": _additive,
    "heisenberg": heisenberg_mul,
    "heisenberg_z": lambda x, y: heisenberg_mul(x, y) + (x[3] + y[3],),
    "filiform": filiform_mul,
    "ut4": _ut4_mul,
    "zxz2": lambda x, y: (x[0] + y[0], (x[1] + y[1]) % 2),
    "zn_cross_cyclic:1,3": lambda x, y: (x[0] + y[0], (x[1] + y[1]) % 3),
    "heisenberg_z3": lambda x, y: heisenberg_mul(x, y) + ((x[3] + y[3]) % 3,),
}


@pytest.mark.parametrize("span", [3, 20, 1000])
@pytest.mark.parametrize("name", sorted(POLYNOMIAL_ORACLES))
def test_polynomials_agree_with_the_oracles(name, span):
    """Products and inverses through ``multiply`` and ``inverse``, and for
    every torsion-free presentation through the polynomials it derives too
    (class 1 and 2 multiply on the compiled collector, so this keeps the
    interpolation's degree-1 and degree-2 checks), negative exponents
    included at every infinite-order generator, against closed forms and
    matrices, and at span 3 against the letter collector too."""
    p = _presentation(name)
    paths = [(p.multiply, p.inverse)]
    if all(m is None for m in p.orders):
        polynomials = p._derive_polynomials()
        assert polynomials.path.startswith("polynomial")
        paths.append((polynomials.multiply, polynomials.inverse))
    oracle = POLYNOMIAL_ORACLES[name]
    e = p.identity
    rng = random.Random(f"polynomials:{name}:{span}")
    for _ in range(200):
        x, y = (tuple(rng.randint(-span, span) if m is None else rng.randrange(m)
                      for m in p.orders) for _ in "xy")
        for multiply, inverse in paths:
            xy, inv = multiply(x, y), inverse(x)
            assert xy == oracle(x, y)
            assert oracle(x, inv) == e == oracle(inv, x)
            if span == 3:
                assert xy == letters_to_vector(
                    p, vector_letters(x) + vector_letters(y))
                assert inv == letters_to_vector(
                    p, [(i, -s) for i, s in reversed(vector_letters(x))])


@pytest.mark.parametrize("name,path", [
    # every move SIGN or CENTRAL and every power word trivial: abelian,
    # class 2, central torsion, blockless, or not nilpotent
    ("z", "compiled collector"), ("z2", "compiled collector"),
    ("z3", "compiled collector"), ("zn:5", "compiled collector"),
    ("heisenberg", "compiled collector"),
    ("heisenberg_z", "compiled collector"),
    ("heisenberg_x_z2", "compiled collector"),
    ("quotient(heisenberg_z3)", "compiled collector"),
    ("zxz2", "compiled collector"), ("heisenberg_z3", "compiled collector"),
    ("zn_cross_cyclic:1,3", "compiled collector"),
    ("zn_cross_cyclic:0,3", "compiled collector"),
    ("heisenberg_mod3", "compiled collector"),
    ("central_torsion", "compiled collector"),
    ("klein_bottle", "compiled collector"),
    ("heisenberg_one_block", "compiled collector"),
    # a GENERIC move, torsion-free with admissible weights
    ("filiform", "polynomial, degree 3"), ("ut4", "polynomial, degree 3"),
    ("filiform4.pc", "polynomial, degree 3"),
    # power words, or a GENERIC move with a finite-order generator or
    # without weights
    ("q8", "collector"), ("sol", "collector"), ("mixed_row", "collector"),
    ("filiform x zxz2", "collector"),
])
def test_product_path_is_pinned(name, path):
    assert _presentation(name).product_path == path


def test_class_three_with_central_torsion_collects_exact_products():
    """Filiform times Z x Z/2 has a GENERIC move and a finite-order
    generator, so it takes neither compiled path; the collector's products
    are those of the factors, the torsion coordinate mod 2."""
    p = _presentation("filiform x zxz2")
    rng = random.Random("filiform x zxz2")
    for _ in range(200):
        x, y = (tuple(rng.randint(-20, 20) if m is None else rng.randrange(m)
                      for m in p.orders) for _ in "xy")
        want = filiform_mul(x[:4], y[:4]) + (x[4] + y[4], (x[5] + y[5]) % 2)
        assert p.multiply(x, y) == want
        assert p.multiply(want, p.inverse(y)) == x


def test_polynomials_are_derived_on_first_use_and_bypass_the_collector():
    p = _presentation("filiform")
    assert "_compiled" not in vars(p)
    x, y = (3, -1, 4, 1), (-5, 9, -2, 6)
    want = p._collect_product(x, y), p._collect_inverse(x)

    def collector(*args):
        raise AssertionError("the collector ran")

    p.product_path  # derives
    p._block_mul = collector
    assert (p.multiply(x, y), p.inverse(x)) == want
    # the attributes are the polynomials themselves, with no frame between
    assert vars(p)["multiply"] is p._compiled.multiply
    assert vars(p)["inverse"] is p._compiled.inverse


@pytest.mark.parametrize("name, path", [
    ("heisenberg", "compiled collector"),
    ("filiform4.pc", "polynomials"),
    ("sol", "collector"),
])
def test_multiply_and_inverse_are_bound_to_the_path_on_first_access(name, path):
    """Loading binds nothing; the first access binds each attribute to the
    function of its path; an instance attribute set before it wins."""
    p = _presentation(name)
    assert not {"_compiled", "multiply", "inverse"} & set(vars(p))
    mul, inv = p.multiply, p.inverse
    if path == "collector":
        assert p._compiled is None
        assert (mul, inv) == (p._collect_product, p._collect_inverse)
    else:
        assert (mul, inv) == (p._compiled.multiply, p._compiled.inverse)
    assert (vars(p)["multiply"], vars(p)["inverse"]) == (mul, inv)
    x = p.generator(0)
    assert p.multiply(x, p.inverse(x)) == p.identity

    q = _presentation(name)

    def patched(a, b):
        return q.identity

    q.multiply = patched
    assert q.multiply is patched and q.multiply(x, x) == q.identity
    assert q.inverse(x) == p.inverse(x)


def test_products_through_the_class_attribute_agree_with_the_collector(monkeypatch):
    """A tracer that wraps ``PcPresentation.multiply`` and ``inverse`` on the
    class calls the original as ``fn(obj, *args)``; products and inverses
    keep their values on that route, and it binds nothing on the object, so
    the wrapper sees every call."""
    calls = []

    def wrap(attr):
        original = pcgroup.PcPresentation.__dict__[attr]

        def counted(*args):
            calls.append(attr)
            return original(*args)
        monkeypatch.setattr(pcgroup.PcPresentation, attr, counted)

    wrap("multiply")
    wrap("inverse")
    for name in ("heisenberg", "filiform", "sol"):
        p = _presentation(name)
        rng = random.Random(f"class route:{name}")
        for _ in range(20):
            x, y = (tuple(rng.randint(-9, 9) for _ in p.orders) for _ in "xy")
            assert p.multiply(x, y) == p._collect_product(x, y)
            assert p.inverse(x) == p._collect_inverse(x)
        assert not {"multiply", "inverse"} & set(vars(p))
    assert calls.count("multiply") == calls.count("inverse") == 3 * 20


@pytest.mark.parametrize("name", ["filiform", "ut4", "zxz2", "heisenberg_z3",
                                  "zn_cross_cyclic:1,3"])
@pytest.mark.parametrize("span", [20, 1000])
def test_collector_still_agrees_with_the_polynomials(name, span):
    """The collector stays the source of the polynomials and the oracle of
    both compiled paths."""
    p = _presentation(name)
    rng = random.Random(f"collector:{name}:{span}")
    for _ in range(50):
        x, y = (tuple(rng.randint(-span, span) if m is None else rng.randrange(m)
                      for m in p.orders) for _ in "xy")
        assert p._collect_product(x, y) == p.multiply(x, y)
        assert p._collect_inverse(x) == p.inverse(x)


def test_squared_tables_hold_none_where_the_power_fixes_the_generator(klein):
    """phi_a inverts b in the Klein bottle, so phi_a^(2^k) fixes b from k = 1
    on: the squared tables say so with None, and b's exponent is then only
    added, not raised by powering."""
    x, y = (13, -5), (-13, 11)       # |13| = 0b1101 needs phi_a^(+-8)
    assert klein._collect_product(x, y) == klein_mul(x, y)
    assert klein._collect_product(y, x) == klein_mul(y, x)
    for sign in (1, -1):
        tables = klein._phi[(0, sign)]
        assert len(tables) >= 4
        assert tables[0][1] == (0, -1)
        assert all(table[1] is None for table in tables[1:])


@pytest.mark.parametrize("span", [20, 1000])
def test_one_block_heisenberg_collects_the_same_products(span):
    """With c in the block of a and b the weight rule fails, but every
    move is CENTRAL, so the compiled collector runs, as for the built-in
    group, and it gives the built-in group's products."""
    p, heis = _presentation("heisenberg_one_block"), builtin("heisenberg")
    assert p._weights() is None and heis._weights() == (1, 1, 2)
    rng = random.Random(f"one_block:{span}")
    for _ in range(200):
        x, y = (tuple(rng.randint(-span, span) for _ in range(3)) for _ in "xy")
        assert p.multiply(x, y) == heis.multiply(x, y) == heisenberg_mul(x, y)
        assert p.inverse(x) == heis.inverse(x)


KLEIN_NILPOTENT_SOURCE = ("group K\nnilpotent false\ntorsion_prefix 0\n"
                          "gen a order inf\ngen b order inf\n"
                          "conj b by a = b^-1\nconjinv b by a = b^-1\n"
                          "block a\nblock b\ngenset a a^-1 b b^-1\n")


def test_a_relation_that_does_not_start_with_its_generator_keeps_the_collector():
    """The Klein bottle with a block for each generator: a^-1 b a = b^-1
    breaks the weight rule, and its products are not polynomial, since the
    sign of b alternates with the exponent of a.  Its one move is SIGN, so
    it takes the compiled collector.  It is flagged ``nilpotent false``, as
    the parser refuses ``true`` for it."""
    p = pcgroup.parse_presentation(KLEIN_NILPOTENT_SOURCE)
    assert p._weights() is None and p.product_path == "compiled collector"
    rng = random.Random("klein_declared_nilpotent")
    for _ in range(200):
        x, y = (tuple(rng.randint(-20, 20) for _ in range(2)) for _ in "xy")
        assert p.multiply(x, y) == klein_mul(x, y)


def test_a_grid_above_the_cap_keeps_the_collector(monkeypatch):
    # the UT(4) grids hold 710 points, the filiform grids 251
    monkeypatch.setattr(pcgroup, "_MAX_GRID_POINTS", 500)
    monkeypatch.setattr(pcgroup, "_DERIVED", {})   # derive again under the cap
    ut4, fil = _presentation("ut4"), _presentation("filiform")
    assert ut4.product_path == "collector"
    assert fil.product_path == "polynomial, degree 3"
    x, y = (7, -3, 2, 5, -1, 4), (-4, 6, 1, -9, 3, 2)
    assert ut4.multiply(x, y) == _ut4_mul(x, y)


# -- the unrolled collector -------------------------------------------------

UNROLLED = ("klein_bottle", "klein_nilpotent", "zn_cross_cyclic:0,3",
            "central_torsion", "heisenberg_one_block", "heisenberg_mod3",
            "klein_bottle x zxz2", "klein_bottle x heisenberg",
            "klein_bottle x zn_cross_cyclic:0,3", "heisenberg", "zxz2",
            "heisenberg_z3", "flipped_source")


@pytest.mark.parametrize("name", UNROLLED)
def test_unrolled_collector_agrees_with_the_interpreted_one(name):
    """Presentations whose moves are all SIGN or CENTRAL and whose power
    words are trivial, with and without weights: 2,000 seeded pairs at
    exponents in [-50, 50], and the step kernel of the standard set and a
    seeded one on the first 200, against the interpreted collector, which
    the compiled path never reaches once derived."""
    p = _presentation(name)
    assert "_compiled" not in vars(p)
    rng = random.Random(f"unrolled:{name}")

    def element(span):
        return tuple(rng.randint(-span, span) if m is None else rng.randrange(m)
                     for m in p.orders)

    pairs = [(element(50), element(50)) for _ in range(2000)]
    S = p.genset + tuple({element(3) for _ in range(4)} - {p.identity})
    want = [(p._collect_product(x, y), p._collect_inverse(x)) for x, y in pairs]
    want_steps = [[p._collect_product(x, s) for s in S] for x, _ in pairs[:200]]
    assert p.product_path == "compiled collector"

    def collector(*args):
        raise AssertionError("the collector ran")

    p._block_mul = collector
    assert [(p.multiply(x, y), p.inverse(x)) for x, y in pairs] == want
    step = p.right_multiplier(S)
    assert [list(step(x)) for x, _ in pairs[:200]] == want_steps
    if name in ("klein_bottle", "klein_nilpotent"):
        assert all(xy == klein_mul(x, y) for (x, y), (xy, _) in zip(pairs, want))
    x = generate_ball(p, standard_genset(p), 4).vertices[-1]
    assert p.power(x, -5) == p.inverse(p.power(x, 5))


# sha256 of repr((genset, [(x*y, x^-1) for 200 seeded pairs])), first 16
# hex digits, pinned while the interpreted collector still had a SIGN and
# CENTRAL branch that ran the same rows as the compiled collector
ORACLE_DIGESTS = {
    "klein_bottle": "c9329f54968d7c88",
    "klein_nilpotent": "5772b0a19029d096",
    "zn_cross_cyclic:0,3": "8d9a65acd16aa5fe",
    "central_torsion": "18e5360a9c270cd6",
    "heisenberg_one_block": "e92773152cf0704a",
    "heisenberg_mod3": "8d602b9fd8901351",
    "klein_bottle x zxz2": "c17de0b9e676dda0",
    "klein_bottle x heisenberg": "a50b7c0459d46de8",
    "klein_bottle x zn_cross_cyclic:0,3": "9c4efaee5155982c",
    "heisenberg": "1565de129e88f2f0",
    "zxz2": "c9a1e8133e26dc73",
    "heisenberg_z3": "32745fdec24fa9f8",
    "flipped_source": "7bb900050d2710e9",
    "sol": "be2139e6cddabd80",
    "q8": "ba835619cef41a61",
    "mixed_row": "5e339a49820fd6e6",
}


@pytest.mark.parametrize("name", UNROLLED + ("sol", "q8", "mixed_row"))
def test_the_interpreted_collector_reads_no_move_table(name, monkeypatch):
    """The oracle is independent of the compiled collector: with the move
    table unreadable, loading and the interpreted product and inverse give
    the pinned digests, exponents in [-30, 30] ([-6, 6] for Sol)."""
    def unreadable(self):
        raise AssertionError("the move table was read")

    monkeypatch.setattr(pcgroup.PcPresentation, "_moves", property(unreadable))
    p = _presentation(name)
    rng = random.Random(f"oracle digest:{name}")
    span = 6 if name == "sol" else 30

    def element():
        return tuple(rng.randint(-span, span) if m is None else rng.randrange(m)
                     for m in p.orders)

    pairs = [(element(), element()) for _ in range(200)]
    data = repr((p.genset, [(p._collect_product(x, y), p._collect_inverse(x))
                            for x, y in pairs]))
    assert hashlib.sha256(data.encode()).hexdigest()[:16] == ORACLE_DIGESTS[name]
    assert "_compiled" not in vars(p)


COMPILED_BUILTINS = ("z", "z2", "z3", "zn:5", "heisenberg", "heisenberg_z",
                     "heisenberg_z3", "klein_bottle", "zxz2", "zn_cross_cyclic:0,3",
                     "zn_cross_cyclic:1,4", "zn_cross_cyclic:2,4")


@pytest.mark.parametrize("name", COMPILED_BUILTINS + tuple(
    name for name in UNROLLED if name not in COMPILED_BUILTINS))
def test_compiled_inverse_is_the_collector_inverse(name):
    """Every built-in on the compiled collector, the reference sources and
    the Klein products: its inverse, the rows run on x with block exponent
    y_j = -x_j, equals the interpreted collector's on 500 seeded elements
    at exponents in [-60, 60]."""
    p = _presentation(name)
    assert p.product_path == "compiled collector"
    rng = random.Random(f"compiled inverse:{name}")
    for _ in range(500):
        x = tuple(rng.randint(-60, 60) if m is None else rng.randrange(m)
                  for m in p.orders)
        assert p._compiled.inverse(x) == p._collect_inverse(x), x


def test_the_unrolled_collector_is_compiled_on_first_product(monkeypatch):
    """Loading compiles nothing and derives no move; the first product
    derives the Klein bottle's move table and compiles its multiply and
    inverse, once for its relations, and the first ball over S one step
    kernel."""
    sources, moves = [], []
    compile_source = pcgroup._compile
    derive_action = pcgroup.PcPresentation._derive_action

    def counted(source):
        sources.append(source)
        return compile_source(source)

    def spied(self, l, j, inert):
        moves.append((l, j))
        return derive_action(self, l, j, inert)

    monkeypatch.setattr(pcgroup, "_compile", counted)
    monkeypatch.setattr(pcgroup.PcPresentation, "_derive_action", spied)
    monkeypatch.setattr(pcgroup, "_DERIVED", {})
    p, q = from_id("klein_bottle"), from_id("klein_bottle")
    assert sources == [] and moves == [] and "_compiled" not in vars(p)
    assert p.multiply((1, 2), (1, 3)) == q.multiply((1, 2), (1, 3)) == (2, 1)
    assert len(sources) == 1 and q._compiled is p._compiled
    assert moves == [(1, 0)] and "_moves" not in vars(q)
    step = p.right_multiplier(p.genset)
    assert q.right_multiplier(p.genset) is step and len(sources) == 2
    assert "if y0 & 1:" in sources[0] and "& 1" not in sources[1]


def test_klein_ball_on_the_unrolled_kernel_matches_the_interpreted_closure():
    p, q = from_id("klein_bottle"), from_id("klein_bottle")
    q._compiled = None    # the closure over the interpreted collector
    unrolled, closure = (generate_ball(r, standard_genset(r), 12) for r in (p, q))
    assert (p.product_path, q.product_path) == ("compiled collector", "collector")
    assert len(unrolled) == 313
    assert unrolled.vertices == closure.vertices
    assert unrolled.targets == closure.targets


KERNEL_FAMILIES = pcgroup.ACCEPTANCE_FAMILY_IDS + (
    "filiform4.pc", "zn_cross_cyclic:1,3", "ut4", "heisenberg_x_z2")
# ROADMAP sweep set B, a Heisenberg set with entries up to 5 in absolute value
SWEEP_SET_B = "-2,1,1;-2,2,-1;-1,2,1;1,-2,1;2,-2,5;2,-1,1"


def _kernel_sets(name, p):
    """The std, fsf and lifted sets, and a seeded symmetric set with
    coordinates in [-2, 2] (sweep set B for Heisenberg)."""
    sets = {sel: _resolve_genset(p, sel).elements for sel in ("std", "fsf", "lifted")}
    if name == "heisenberg":
        sets["sweep B"] = _resolve_genset(p, SWEEP_SET_B).elements
    else:
        rng = random.Random(f"kernel set:{name}")
        base = {tuple(rng.randint(-2, 2) if m is None else rng.randrange(m)
                      for m in p.orders) for _ in range(3)} - {p.identity}
        sets["span 2"] = GenSet(p, base | {p.inverse(s) for s in base}).elements
    return sets


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_step_kernel_equals_the_collector_product(name):
    """u -> (u*s for s in S) against the interpreted collector's product,
    on seeded u with negative coordinates; the class-3 filiform and UT(4,Z)
    kernels are fitted at degree 3 from the polynomials, every other one at
    degree 1 from the unrolled collector."""
    p = _presentation(name)
    assert p.product_path == ("polynomial, degree 3" if name in ("filiform4.pc", "ut4")
                              else "compiled collector")
    rng = random.Random(f"kernel:{name}")
    for sel, S in _kernel_sets(name, p).items():
        step = p.right_multiplier(S)
        for _ in range(40):
            u = tuple(rng.randint(-30, 30) if m is None else rng.randrange(m)
                      for m in p.orders)
            assert list(step(u)) == [p._collect_product(u, s) for s in S], (sel, u)


def test_step_kernel_returns_coordinates_that_s_leaves_alone():
    """The folded kernel hands back x_i itself, no fresh int, wherever s
    leaves coordinate i unchanged: u*b in Heisenberg keeps x_0 and x_2."""
    p = builtin("heisenberg")
    u = (10**20, -(10**20), 3 * 10**20)
    ua, ub = p.right_multiplier([(1, 0, 0), (0, 1, 0)])(u)
    assert ub == (u[0], u[1] + 1, u[2]) and ub[0] is u[0] and ub[2] is u[2]
    assert ua[1] is u[1] and ua == p._collect_product(u, (1, 0, 0))


def test_step_kernel_reduces_coefficients_mod_the_order(monkeypatch):
    """u -> u * t^2 in C3 takes 2 and 0 at the grid points 0 and 1, so
    Newton gives 2 - 2x; the kernel holds the coefficient -2 reduced mod 3,
    and every coefficient of a finite-order coordinate lies in [0, m)."""
    sources = []
    compile_source = pcgroup._compile

    def counted(source):
        sources.append(source)
        return compile_source(source)

    monkeypatch.setattr(pcgroup, "_compile", counted)
    monkeypatch.setattr(pcgroup, "_DERIVED", {})
    p = from_id("zn_cross_cyclic:0,3")
    assert p.multiply((1,), (2,)) == (0,)
    step = p.right_multiplier([(1,), (2,)])
    assert [step((u,)) for u in range(3)] == [((1,), (2,)), ((2,), (0,)), ((0,), (1,))]
    assert sources[1] == ("def step(x):\n    x0, = x\n"
                          "    return (((1 + x0) % 3,), ((2 + x0) % 3,), )\n")


def test_step_kernels_are_compiled_once_per_relations_and_set(monkeypatch):
    """Loading compiles nothing; the first kernel derives the polynomials
    once, and every presentation object with the same relations gets the
    same kernel for the same set without deriving again."""
    derived = []
    derive = pcgroup.PcPresentation._derive_polynomials

    def counted(self):
        derived.append(self.name)
        return derive(self)

    monkeypatch.setattr(pcgroup.PcPresentation, "_derive_polynomials", counted)
    monkeypatch.setattr(pcgroup, "_DERIVED", {})
    p, q = _presentation("filiform"), _presentation("filiform4.pc")
    assert derived == [] and "_compiled" not in vars(p)
    S = p.genset
    step = p.right_multiplier(S)
    assert len(derived) == 1
    assert q.right_multiplier(S) is step is p.right_multiplier(list(S))
    assert q._compiled is p._compiled and len(derived) == 1
    assert p.right_multiplier(S[:2]) is not step


@pytest.mark.parametrize("name", ["q8", "heisenberg_mod3", "sol", "klein_bottle",
                                  "mixed_row", "central_torsion"])
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
        acc = matmul(acc, m)
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
        assert sol_matrix(xy) == matmul(sol_matrix(x), sol_matrix(y))
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


# D8 = <a, b | a^2, b^4, b^a = b^3> is nilpotent, but its pc series
# D8 > <b> > 1 is not central; the rule is sufficient, not necessary
D8_SOURCE = ("group D8\nnilpotent true\ntorsion_prefix 2\n"
             "gen a order 2\ngen b order 4\n"
             "conj b by a = b^3\nconjinv b by a = b^3\ngenset a b b^3\n")


@pytest.mark.parametrize("source,relation", [
    (KLEIN_NILPOTENT_SOURCE.replace("nilpotent false", "nilpotent true"),
     "conj b by a = b^-1"),
    # the check runs without blocks too
    (KLEIN_NILPOTENT_SOURCE.replace("nilpotent false", "nilpotent true")
     .replace("block a\nblock b\n", ""), "conj b by a = b^-1"),
    (D8_SOURCE, "conj b by a = b^3"),
], ids=["klein", "klein without blocks", "d8"])
def test_nilpotent_true_needs_a_central_pc_series(source, relation):
    """``nilpotent true`` is refused unless every conjugate of g_l is g_l
    followed only by later generators; the same file flagged ``false``
    loads."""
    with pytest.raises(PresentationError) as info:
        pcgroup.parse_presentation(source)
    assert str(info.value) == (
        f"{relation} does not fit 'nilpotent true': a conjugate of b must be b "
        "followed only by generators after b; refine the series to a central "
        "one, or declare nilpotent false")
    assert not pcgroup.parse_presentation(
        source.replace("nilpotent true", "nilpotent false")).nilpotent


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


def test_each_derivation_compiles_under_the_digest_of_its_source():
    """cProfile labels a function by (filename, first line, name), so a
    filename shared by every derivation merged the products of different
    presentations into one profile entry."""
    heis, klein = from_id("heisenberg"), from_id("klein_bottle")
    names = {heis.multiply.__code__.co_filename, klein.multiply.__code__.co_filename}
    assert len(names) == 2
    source = "def f():\n    return 1\n"
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
    assert {pcgroup._compile(source)["f"].__code__.co_filename for _ in range(2)} == {
        f"<nilcay compiled {digest}>"}
