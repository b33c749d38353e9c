"""Torsion subgroups, quotients, the abelianization, isolators,
conjugator search, ranks."""

import itertools
import json
from pathlib import Path

import pytest

from nilcay import cli, structure
from nilcay.cayley import GenSet, generate_ball, standard_genset
from nilcay.pcgroup import PresentationError, builtin, from_id, parse_presentation
from nilcay.structure import (SubgroupError, SubgroupWitness, find_conjugator,
                              quotient_by_torsion, rank_report, torsion_subgroup,
                              trivial_subgroup, z_dagger)

from reference import (Q8_SOURCE, heisenberg_isolator, isolator_closed_form,
                       lattice_span_index, oracle_presentations,
                       quotient_isolator, rational_abelianization)


def test_torsion_subgroup_elements():
    zx = from_id("zxz2")
    N = torsion_subgroup(zx)
    assert N.elements == ((0, 0), (0, 1))
    h3 = from_id("heisenberg_z3")
    N3 = torsion_subgroup(h3)
    assert len(N3.elements) == 3
    z2 = builtin("zn", n=2)
    assert torsion_subgroup(z2).elements == ((0, 0),)


def test_torsion_subgroup_closure_checked():
    zx = from_id("zxz2")
    N = torsion_subgroup(zx)
    N.check_closed()
    orders = [zx.order_of(x, 4) for x in N.elements]
    assert orders == [1, 2]


def test_non_stable_torsion_block_rejected():
    # conjugation pushes the declared torsion generator outside its block;
    # that is outside standard pc form, so the parser refuses it before
    # torsion_subgroup's own stability check could
    src = ("group Bad\nnilpotent false\ntorsion_prefix 1\n"
           "gen x order inf\ngen t order 2\npow t = 1\n"
           "conj t by x = x^2*t\nconjinv t by x = x^-2*t\n")
    with pytest.raises(PresentationError, match=r"conj t by x = x\^2\*t is not in standard"):
        parse_presentation(src)


def test_quotient_by_torsion():
    zx = from_id("zxz2")
    q = quotient_by_torsion(zx)
    assert q.n == 1 and q.orders == (None,) and q.torsion_len == 0
    h3 = from_id("heisenberg_z3")
    qh = quotient_by_torsion(h3)
    heis = builtin("heisenberg")
    assert qh.gens == heis.gens and qh.conj == heis.conj
    z2 = builtin("zn", n=2)
    assert quotient_by_torsion(z2) is z2
    assert structure.project_to_quotient(zx, (5, 1)) == (5,)


FILIFORM = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "filiform4.pc"

# the free rank of the abelianization of each family, from its closed form
ABELIAN_RANKS = {"z": 1, "z2": 2, "z3": 3, "heisenberg": 2, "klein_bottle": 1,
                 "zxz2": 1, "heisenberg_z3": 2, "heisenberg_z": 3,
                 "zn_cross_cyclic:2,4": 2, "zn_cross_cyclic:0,3": 0}


def test_abelianization_matches_the_analytic_isolator():
    groups = [(gid, from_id(gid), isolator_closed_form(gid)) for gid in ABELIAN_RANKS]
    # the torsion quotient of heisenberg_z3 is the Heisenberg group
    groups.append(("heisenberg", quotient_by_torsion(from_id("heisenberg_z3")),
                   quotient_isolator(isolator_closed_form("heisenberg_z3"), 1)))
    for gid, p, closed_form in groups:
        ab = p.abelianization
        assert ab.rank == ABELIAN_RANKS[gid], gid
        for x in generate_ball(p, standard_genset(p), 4).vertices:
            assert ab.in_isolator(x) == closed_form(x), (gid, x)
    # [b, a] = c^2 d^3: the isolator of [G, G] is {c^i d^j : 3i = 2j}, and
    # the images need the common denominator 2
    p = parse_presentation(
        "nilpotent true\ngen a order inf\ngen b order inf\ngen c order inf\n"
        "gen d order inf\nconj b by a = b*c^2*d^3\nconjinv b by a = b*c^-2*d^-3\n")
    assert p.abelianization.generator_images == (
        (2, 0, 0), (0, 2, 0), (0, 0, -3), (0, 0, 2))
    for x in itertools.product(range(-1, 2), range(-1, 2), range(-4, 5), range(-6, 7)):
        want = x[:2] == (0, 0) and 3 * x[2] == 2 * x[3]
        assert p.abelianization.in_isolator(x) == want, x


ORACLE_PRESENTATIONS = oracle_presentations()


@pytest.mark.parametrize("name,p", ORACLE_PRESENTATIONS,
                         ids=[name for name, _ in ORACLE_PRESENTATIONS])
def test_abelianization_agrees_with_rational_elimination(name, p):
    """The images read off the integer echelon form are those of
    elimination over Fractions, and the index of the standard set is that
    of the minors."""
    ab = p.abelianization
    assert (ab.rank, ab.generator_images) == rational_abelianization(p)
    S = standard_genset(p).elements
    assert ab.span_index(S) == lattice_span_index(p, S)


def test_abelianized_word_length_is_a_lower_bound():
    filiform = parse_presentation(FILIFORM.read_text())
    cases = [(filiform, 5, None),
             (builtin("heisenberg"), 4, lambda x: abs(x[0]) + abs(x[1])),
             (builtin("zn", n=3), 4, lambda x: sum(map(abs, x)))]
    for p, radius, closed_form in cases:
        S = standard_genset(p)
        ball = generate_ball(p, S, radius)
        ab = p.abelianization
        zn = builtin("zn", n=ab.rank)
        images = GenSet(zn, {ab.image(s) for s in S} - {zn.identity})
        image_ball = generate_ball(zn, images, radius)
        for x, d in zip(ball.vertices, ball.dist_list):
            image_d = image_ball.distance_from_identity(ab.image(x))
            assert image_d is not None and image_d <= d, (p.name, x)
            if closed_form is not None:
                assert image_d == closed_form(x), (p.name, x)
    assert filiform.abelianization.rank == 2
    assert len(generate_ball(filiform, standard_genset(filiform), 5)) == 421


# the Heisenberg group with [a, b] = c^9: c and c^3 are not commutators,
# but every power of c lies in the isolator of the derived subgroup
HEISENBERG_C9 = """\
group Heisenberg9
nilpotent true
torsion_prefix 0
gen a order inf
gen b order inf
gen c order inf
conj b by a = b*c^-9
conjinv b by a = b*c^9
block a b
block c
genset a a^-1 b b^-1 c c^-1
"""


def test_z_dagger_is_exact_on_user_presentations():
    p = parse_presentation(HEISENBERG_C9)
    ball = generate_ball(p, standard_genset(p), 5)
    central = [x for x in ball.vertices if p.is_central(x)]
    assert len(central) == 17
    assert z_dagger(p, ball) == tuple(central)
    assert p.abelianization.in_isolator((0, 0, 1))
    assert not p.abelianization.in_isolator((0, 1, 0))


def test_isolator_command_is_exact_on_user_presentations(tmp_path):
    src = tmp_path / "heisenberg9.pc"
    src.write_text(HEISENBERG_C9)
    out = tmp_path / "isolator.json"
    assert cli.main(["structure", "--group", str(src), "--isolator",
                     "--radius", "5", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    # the whole result is the element list: no approximation claim, no kmax note
    assert list(result) == ["elements"]
    p = parse_presentation(HEISENBERG_C9)
    ball = generate_ball(p, standard_genset(p), 5)
    want = [list(x) for x in ball.vertices if x[0] == x[1] == 0]
    assert len(want) == 17 and result["elements"] == want


def test_isolator_matches_analytic_sqrt_commutator():
    h = builtin("heisenberg")
    ball = generate_ball(h, standard_genset(h), 4)
    closed_form = {x for x in ball.vertices if heisenberg_isolator(x)}
    assert set(structure.isolator(h, ball)) == closed_form


def test_z_dagger():
    h = builtin("heisenberg")
    bh = generate_ball(h, standard_genset(h), 5)
    zd = z_dagger(h, bh)
    assert all(x[0] == 0 and x[1] == 0 for x in zd)
    assert (0, 0, 1) in zd and (0, 0, -1) in zd and h.identity in zd
    z2 = builtin("zn", n=2)
    assert z_dagger(z2, generate_ball(z2, standard_genset(z2), 4)) == ((0, 0),)
    k = builtin("klein_bottle")
    assert z_dagger(k, generate_ball(k, standard_genset(k), 5)) == ((0, 0),)


def test_find_conjugator():
    h = builtin("heisenberg")
    ball = generate_ball(h, standard_genset(h), 4)
    res = find_conjugator(ball, (1, 0, 0), (1, 0, 1))
    assert res.witness == (0, 1, 0)
    assert res.report.verdict == "found"
    assert res.report.parameters == {"a": (1, 0, 0), "b": (1, 0, 1)}
    assert find_conjugator(ball, (1, 0, 0), (1, 0, 0)).witness == (0, 0, 0)
    none = find_conjugator(ball, (1, 0, 0), (0, 1, 0))
    assert none.witness is None
    assert none.report.verdict == "none-within-ball"


def test_conjugator_witness_is_exact():
    h = builtin("heisenberg")
    ball = generate_ball(h, standard_genset(h), 4)
    res = find_conjugator(ball, (1, 0, 0), (1, 0, 1))
    assert h.conjugate((1, 0, 0), res.witness) == (1, 0, 1)


def test_rank_reports():
    zx = from_id("zxz2")
    rep = rank_report(zx, torsion_subgroup(zx))
    assert rep.ok and (rep.parameters["rank_G"], rep.parameters["rank_N"],
                       rep.parameters["rank_quotient"]) == (1, 0, 1)
    z2 = builtin("zn", n=2)
    rep2 = rank_report(z2, trivial_subgroup(z2))
    assert rep2.ok and rep2.parameters["rank_G"] == 2
    h3 = from_id("heisenberg_z3")
    rep3 = rank_report(h3, torsion_subgroup(h3))
    assert rep3.ok and (rep3.parameters["rank_G"],
                        rep3.parameters["rank_quotient"]) == (3, 3)
    # every generator has finite order, so G/N is trivial: nothing to parse
    for p in (from_id("zn_cross_cyclic:0,3"), parse_presentation(Q8_SOURCE)):
        rep = rank_report(p, torsion_subgroup(p))
        assert (rep.verdict, rep.ok) == ("pass", True), p.name
        assert (rep.parameters["rank_G"], rep.parameters["rank_N"],
                rep.parameters["rank_quotient"]) == (0, 0, 0), p.name


def test_rank_report_unsupported_shape():
    z2 = builtin("zn", n=2)
    odd = SubgroupWitness(z2, elements=((0, 0), (1, 0)))
    with pytest.raises(SubgroupError):
        rank_report(z2, odd)
