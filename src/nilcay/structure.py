"""Torsion subgroups, torsion quotients, the abelianization, isolators,
conjugator search.

Subgroups are finite element lists (``SubgroupWitness``).  The free part of
the abelianization is read from the presentation's relations with exact
rational elimination, so membership in the isolator of the derived
subgroup is exact for every presentation; ``isolator`` and ``z_dagger``
return exactly the ball elements in it.  Centrality is decided exactly via
collection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import pcgroup
from .reporting import Report


class SubgroupError(ValueError):
    pass


@dataclass
class SubgroupWitness:
    """A finite subgroup given by its full element list."""

    presentation: object
    elements: tuple
    label: str = ""

    def check_closed(self):
        p = self.presentation
        eset = frozenset(self.elements)
        for x in self.elements:
            if p.inverse(x) not in eset:
                raise SubgroupError(f"element list is not closed under inverse at {x}")
            for y in self.elements:
                if p.multiply(x, y) not in eset:
                    raise SubgroupError(
                        f"element list is not closed under multiplication at {x}*{y}")
        return self


def trivial_subgroup(presentation) -> SubgroupWitness:
    return SubgroupWitness(presentation, elements=(presentation.identity,),
                           label="trivial")


def conjugation_stable(presentation, x, members) -> bool:
    """Whether x stays in ``members`` when conjugated by every generator and
    by its inverse."""
    p = presentation
    return all(p.conjugate(x, g) in members and p.conjugate(x, p.inverse(g)) in members
               for g in map(p.generator, range(p.n)))


def torsion_subgroup(presentation) -> SubgroupWitness:
    """Full element list of the declared torsion block, with exactness checks.

    Every element supported on the torsion generators is verified to have
    finite order, and the set is verified conjugation-stable under all
    generators (exact, since the generators generate).
    """
    p = presentation
    t = p.torsion_len
    free = p.n - t
    if t == 0:
        return trivial_subgroup(p)
    ranges = [range(p.orders[i]) for i in range(free, p.n)]
    elements = []
    bound = 1
    for i in range(free, p.n):
        bound *= p.orders[i]
    for combo in itertools.product(*ranges):
        x = p.collect_word(tuple((free + i, e) for i, e in enumerate(combo) if e))
        if any(x[i] for i in range(free)):
            raise SubgroupError(
                "torsion block is not multiplicatively closed in the declared basis")
        elements.append(x)
    eset = set(elements)
    for x in elements:
        if p.order_of(x, bound) is None:
            raise SubgroupError(f"declared torsion element {x} has order > {bound}")
        if not conjugation_stable(p, x, eset):
            raise SubgroupError(
                "declared torsion block is not conjugation-stable; presentation rejected")
    return SubgroupWitness(p, elements=tuple(sorted(eset)),
                           label="torsion").check_closed()


def project_to_quotient(presentation, x) -> tuple:
    """Image of an element in the quotient by the torsion block (drop torsion coords)."""
    free = presentation.n - presentation.torsion_len
    return tuple(x[:free])


def nontrivial_in_quotient(presentation, elements) -> list:
    """The elements whose image in the torsion-free quotient is nontrivial
    (the base of the FSF construction when given the standard generators)."""
    return [s for s in elements if any(project_to_quotient(presentation, s))]


def quotient_generators(presentation, elements) -> list:
    """Sorted distinct nontrivial images of the elements in the torsion-free quotient."""
    return sorted({project_to_quotient(presentation, s)
                   for s in nontrivial_in_quotient(presentation, elements)})


def quotient_by_torsion(presentation) -> pcgroup.PcPresentation:
    """Presentation on the free generators with relations reduced mod torsion."""
    p = presentation
    t = p.torsion_len
    if t == 0:
        return p
    free = p.n - t
    names = p.gens[:free]
    lines = [f"group {p.name}/torsion", f"nilpotent {'true' if p.nilpotent else 'false'}",
             "torsion_prefix 0"]
    lines += [f"gen {s} order inf" for s in names]

    def proj_word(w):
        return tuple((i, e) for i, e in w if i < free)

    for (l, j), w in p.conj.items():
        if l < free and j < free:
            lines.append(f"conj {names[l]} by {names[j]} = "
                         f"{pcgroup._word_text(proj_word(w), names)}")
    for (l, j), w in p.conjinv.items():
        if l < free and j < free:
            lines.append(f"conjinv {names[l]} by {names[j]} = "
                         f"{pcgroup._word_text(proj_word(w), names)}")
    for b in p.blocks:
        kept = [i for i in b if i < free]
        if kept:
            lines.append("block " + " ".join(names[i] for i in kept))
    seen = []
    for v in p.genset:
        pv = project_to_quotient(p, v)
        if any(pv) and pv not in seen:
            seen.append(pv)
    if seen:
        lines.append("genset " + " ".join(
            pcgroup._vector_text(v, names) for v in seen))
    try:
        return pcgroup.parse_presentation("\n".join(lines) + "\n")
    except pcgroup.PresentationError as exc:
        raise SubgroupError(f"torsion quotient is not presentable: {exc}") from exc


class Abelianization:
    """The free part of G/[G, G], read from the presentation's relations.

    G/[G, G] is Z^n modulo one vector per defining relation: the exponent
    sum of its right side minus that of its left side, g_l for a
    conjugation relation and g_i^m_i for a power relation.  Exact
    elimination over Fractions reduces these vectors to an echelon basis of
    their rational span.  A vector reduced against that basis is zero at
    every pivot; its other coordinates, scaled by one common denominator,
    are its image in Z^rank.  So ``image`` is a homomorphism whose kernel is
    the isolator of [G, G], the elements with a power in [G, G].
    """

    def __init__(self, presentation):
        p = presentation

        def relation(lhs, exponent, word):
            v = [0] * p.n
            v[lhs] -= exponent
            for i, e in word:
                v[i] += e
            return v

        relations = [relation(l, 1, w) for table in (p.conj, p.conjinv)
                     for (l, _j), w in table.items()]
        relations += [relation(i, m, p.power_words.get(i, ()))
                      for i, m in enumerate(p.orders) if m is not None]
        basis = []                      # (pivot, row with 1 at the pivot)

        def reduce(v):
            v = [Fraction(e) for e in v]
            for pivot, row in basis:
                if v[pivot]:
                    f = v[pivot]
                    v = [a - f * b for a, b in zip(v, row)]
            return v

        for v in relations:
            v = reduce(v)
            pivot = next((i for i, e in enumerate(v) if e), None)
            if pivot is not None:
                basis.append((pivot, [e / v[pivot] for e in v]))
        pivots = {pivot for pivot, _ in basis}
        free = [i for i in range(p.n) if i not in pivots]
        residues = [[reduce(p.generator(i))[j] for j in free] for i in range(p.n)]
        den = math.lcm(*(r.denominator for res in residues for r in res))
        self.rank = len(free)
        #: image(g_i) in Z^rank for each pc generator g_i
        self.generator_images = tuple(tuple(int(r * den) for r in res)
                                      for res in residues)

    def image(self, x) -> tuple:
        """The image of the normal form x: the sum of x_i * image(g_i)."""
        return tuple(sum(e * img[j] for e, img in zip(x, self.generator_images))
                     for j in range(self.rank))

    def in_isolator(self, x) -> bool:
        """Whether some power of x lies in [G, G]."""
        return not any(self.image(x))


def isolator(presentation, ball) -> tuple:
    """Ball elements in the isolator of the derived subgroup, the elements
    with a power in [G, G]."""
    in_isolator = presentation.abelianization.in_isolator
    return tuple(x for x in ball.vertices if in_isolator(x))


def z_dagger(presentation, ball) -> tuple:
    """Ball elements that are central and lie in the isolator of the derived subgroup."""
    return tuple(x for x in isolator(presentation, ball) if presentation.is_central(x))


@dataclass
class ConjugatorResult:
    witness: tuple | None
    distance_profile: list
    report: Report


def find_conjugator(ball, a, b, kmax=8) -> ConjugatorResult:
    """Exhaustive in-ball search for g with g^{-1} a g = b.

    Scans vertices by (distance, lexicographic) order and returns the first
    witness; also reports that dist(a^k, g b^k) is constant over k <= kmax,
    which is the bounded-distance hypothesis of the conjugacy criterion.
    """
    p = ball.presentation
    if a not in ball.index or b not in ball.index:
        raise ValueError("both elements must lie in the ball")
    order_ids = sorted(range(len(ball.vertices)),
                       key=lambda i: (ball.dist_list[i], ball.vertices[i]))
    witness = None
    for i in order_ids:
        g = ball.vertices[i]
        if p.conjugate(a, g) == b:
            witness = g
            break
    profile = []
    if witness is not None:
        for k in range(1, kmax + 1):
            x = p.multiply(p.inverse(p.power(a, k)),
                           p.multiply(witness, p.power(b, k)))
            assert x == witness, "conjugator equation failed at a power"
            profile.append({"k": k, "dist": ball.distance_from_identity(witness)})
        rep = Report(claim="conjugating element found in the ball",
                     verdict="found", ok=True,
                     witnesses=[{"conjugator": witness}],
                     parameters={"a": a, "b": b, "kmax": kmax},
                     notes=["dist(a^k, g b^k) is constant in k for the witness"])
    else:
        rep = Report(claim="conjugating element found in the ball",
                     verdict="none-within-ball", ok=None,
                     parameters={"a": a, "b": b, "radius": ball.radius},
                     notes=["exhaustive scan of the ball found no conjugator"])
    return ConjugatorResult(witness=witness, distance_profile=profile, report=rep)


def rank_report(presentation, subgroup: SubgroupWitness) -> Report:
    """Hirsch rank additivity rank(G) = rank(N) + rank(G/N) for supported N."""
    p = presentation
    total = p.hirsch_rank()
    if set(subgroup.elements) == {p.identity}:
        rank_n, rank_q, shape = 0, total, "trivial"
    elif subgroup.label == "torsion" or all(
            not any(x[:p.n - p.torsion_len]) for x in subgroup.elements):
        # with every generator of finite order G/N is trivial, of rank 0,
        # and a presentation needs at least one generator
        rank_n = 0
        rank_q = (quotient_by_torsion(p).hirsch_rank()
                  if p.n > p.torsion_len else 0)
        shape = "torsion"
    else:
        raise SubgroupError("rank report supports the trivial and torsion subgroups")
    ok = total == rank_n + rank_q
    return Report(claim="Hirsch rank is additive over the subgroup and quotient",
                  verdict="pass" if ok else "fail", ok=ok,
                  parameters={"rank_G": total, "rank_N": rank_n,
                              "rank_quotient": rank_q, "subgroup": shape},
                  notes=["finite-index statements about isolators are out of "
                         "desk reach and are not asserted"])
