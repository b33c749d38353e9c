"""Torsion subgroups, torsion quotients, the abelianization, isolators,
conjugator search.

Subgroups are finite element lists (``SubgroupWitness``).  The free part of
the abelianization is read from one integer echelon form of the
presentation's relations, so membership in the isolator of the derived
subgroup is exact for every presentation; ``isolator`` and ``z_dagger``
return exactly the ball elements in it.  Centrality is decided exactly via
collection.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from . import pcgroup
from .reporting import Report


class SubgroupError(ValueError):
    pass


class SubgroupWitness:
    """A finite subgroup given by its full element list."""

    def __init__(self, presentation, elements: tuple, label: str = ""):
        self.presentation = presentation
        self.elements = elements
        self.label = label

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

    G/[G, G] is Z^n modulo the integer span of one vector per defining
    relation: the exponent sum of its right side minus that of its left
    side, g_l for a conjugation relation and g_i^m_i for a power relation.
    Row operations by Euclid's algorithm reduce these vectors once to an
    integer echelon basis of their span, one row per pivot column with a
    positive pivot.  Over Q, e_i reduced against the rows is zero at every
    pivot; its other coordinates, scaled by one common denominator, are
    the image of g_i in Z^rank.  So ``image`` is a homomorphism whose kernel
    is the isolator of [G, G], the elements with a power in [G, G].  The
    pivot columns and these residues depend only on the rational span of
    the relations, not on how it was reduced.
    """

    def __init__(self, presentation):
        p = presentation
        relations = [(l, 1, w) for table in (p.conj, p.conjinv)
                     for (l, _j), w in table.items()]
        relations += [(i, m, p.power_words.get(i, ()))
                      for i, m in enumerate(p.orders) if m is not None]
        self.n = p.n
        self._rows = rows = {}          # pivot -> row with a positive pivot
        for lhs, exponent, word in relations:
            v = [0] * p.n
            v[lhs] -= exponent
            for i, e in word:
                v[i] += e
            _insert_row(rows, v)
        free = [i for i in range(p.n) if i not in rows]
        residues = []
        for i in range(p.n):
            v = [Fraction(int(j == i)) for j in range(p.n)]
            for pivot in sorted(rows):
                if v[pivot]:
                    f = v[pivot] / rows[pivot][pivot]
                    v = [a - f * b for a, b in zip(v, rows[pivot])]
            residues.append([v[j] for j in free])
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

    def span_index(self, elements):
        """(index, missing) for H = <elements>: the index of H[G, G] in G,
        None when infinite, and the least i with g_i outside H[G, G], None
        when H[G, G] = G.

        H[G, G]/[G, G] is the image of H in Z^n modulo the relation vectors,
        so H[G, G] corresponds to the integer span L of the relation vectors
        and the normal forms of the elements.  Inserting the elements into a
        copy of the relations' echelon rows gives an echelon basis of L; the
        index of L in Z^n is the product of the pivots when there are n of
        them.  A vector is in L exactly when reducing it against the basis
        leaves zero, each pivot dividing the entry it clears.  For nilpotent
        G, H[G, G] = G implies H = G, so the elements generate G exactly
        when ``missing`` is None.
        """
        n = self.n
        rows = dict(self._rows)
        for v in elements:
            _insert_row(rows, v)

        def in_span(v):
            for i in range(n):
                if v[i]:
                    r = rows.get(i)
                    if r is None or v[i] % r[i]:
                        return False
                    q = v[i] // r[i]
                    v = [a - q * b for a, b in zip(v, r)]
            return True

        index = math.prod(r[i] for i, r in rows.items()) if len(rows) == n else None
        missing = next((i for i in range(n)
                        if not in_span([int(j == i) for j in range(n)])), None)
        return index, missing


def _insert_row(rows, v):
    """Add the integer vector v to the echelon basis ``rows``, a dict from
    pivot column to a row that is zero before it and positive at it, by
    Euclid's algorithm on each column where v meets a row.  Rows are
    replaced, never changed in place, so a copy of the dict is a copy of
    the basis."""
    v = list(v)
    for i in range(len(v)):
        if not v[i]:
            continue
        r = rows.get(i)
        if r is None:
            rows[i] = v if v[i] > 0 else [-a for a in v]
            return
        while v[i]:                     # Euclid on column i: v[i] ends at 0
            q = r[i] // v[i]
            r, v = v, [a - q * b for a, b in zip(r, v)]
        rows[i] = r if r[i] > 0 else [-a for a in r]


def isolator(presentation, ball) -> tuple:
    """Ball elements in the isolator of the derived subgroup, the elements
    with a power in [G, G], in lexicographic order.  Only the vertices are
    read, so ``ball`` may be a Ball or a DistanceBall."""
    in_isolator = presentation.abelianization.in_isolator
    return tuple(x for x, _ in ball.sorted_distances() if in_isolator(x))


def z_dagger(presentation, ball) -> tuple:
    """Ball elements that are central and lie in the isolator of the derived subgroup."""
    return tuple(x for x in isolator(presentation, ball) if presentation.is_central(x))


class ConjugatorResult:
    def __init__(self, witness: tuple | None, report: Report):
        self.witness = witness
        self.report = report


def find_conjugator(ball, a, b) -> ConjugatorResult:
    """Exhaustive in-ball search for g with g^{-1} a g = b.

    Scans vertices by (distance, lexicographic) order and returns the first
    witness.  For it a^-k g b^k = g for every k, so dist(a^k, g b^k) = |g|
    is constant in k: the bounded-distance hypothesis of the conjugacy
    criterion holds with nothing further to check.  Only distances are
    read, so ``ball`` may be a Ball or a DistanceBall.
    """
    p = ball.presentation
    if a not in ball or b not in ball:
        raise ValueError("both elements must lie in the ball")
    # a stable sort of the lexicographic listing by distance
    scan = sorted(ball.sorted_distances(), key=itemgetter(1))
    witness = next((g for g, _ in scan if p.conjugate(a, g) == b), None)
    if witness is not None:
        rep = Report(claim="conjugating element found in the ball",
                     verdict="found", ok=True,
                     witnesses=[{"conjugator": witness}],
                     parameters={"a": a, "b": b},
                     notes=["dist(a^k, g b^k) is constant in k for the witness"])
    else:
        rep = Report(claim="conjugating element found in the ball",
                     verdict="none-within-ball", ok=None,
                     parameters={"a": a, "b": b, "radius": ball.radius},
                     notes=["exhaustive scan of the ball found no conjugator"])
    return ConjugatorResult(witness=witness, report=rep)


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
