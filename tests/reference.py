"""Reference oracles and extra presentations for the test suite.

``letter_collect`` is the letter-by-letter collector: slow but free of the
assumptions behind ``PcPresentation``'s action table, collection from the
left and the product polynomials, so the tests compare products against it.
It runs out of steps at exponents much beyond 3 in class 3, so products at
larger exponents are checked against closed forms and matrices, each read
off the relations: ``heisenberg_mul``, ``filiform_mul`` and ``ut4_matrix``.

``isolator_closed_form`` decides membership in the isolator of the derived
subgroup of each built-in family from the family's closed form, with no
call into ``nilcay``, so the tests check ``structure.Abelianization`` and
the distortion verdicts against it.

``rational_abelianization`` is exact elimination over Fractions of the
relation vectors, and ``lattice_span_index`` reads the index of a lattice
from the gcd of the maximal minors, each minor a Fraction determinant, so
the tests check the integer echelon form of ``structure.Abelianization``
against them on ``oracle_presentations``.

``pairwise_scan`` is the quadratic affine check: alpha(xy) = alpha(x)
alpha(y) on every pair of interior vertices.  It is weaker than the von
Dyck certificate of ``autlab.is_affine_on_ball`` (a map can be
multiplicative on the interior pairs without agreeing with any
homomorphism of the whole group), so the tests use it as a one-way oracle:
whatever the certificate passes, the scan passes.
"""

import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from nilcay import pcgroup
from nilcay.autlab import AffineVerdict, _split_translation

# the quaternion group: i^2 = j^2 = z, z^2 = 1, i^-1 j i = j z
Q8_SOURCE = """\
group Q8
nilpotent true
torsion_prefix 3
gen i order 2
gen j order 2
gen z order 2
pow i = z
pow j = z
pow z = 1
conj j by i = j*z
conjinv j by i = j*z
genset i j
"""

# the Heisenberg group over Z/3
HEISENBERG_MOD3_SOURCE = """\
group HeisenbergMod3
nilpotent true
torsion_prefix 3
gen a order 3
gen b order 3
gen c order 3
pow a = 1
pow b = 1
pow c = 1
conj b by a = b*c^2
conjinv b by a = b*c
genset a a^2 b b^2
"""

# the Sol lattice Z^2 x| Z: t^-1 u t = M u on u = x^p y^q, M = [[2, 1], [1, 1]]
SOL_SOURCE = """\
group Sol
nilpotent false
torsion_prefix 0
gen t order inf
gen x order inf
gen y order inf
conj x by t = x^2*y
conjinv x by t = x*y^-1
conj y by t = x*y
conjinv y by t = x^-1*y^2
genset t t^-1 x x^-1 y y^-1
"""

# Z^2 x| Z where t acts as [[1, 0], [1, -1]]: t inverts y, and moving t past
# x is GENERIC, so one action-table row holds both kinds
MIXED_ROW_SOURCE = """\
group MixedRow
nilpotent false
torsion_prefix 0
gen t order inf
gen x order inf
gen y order inf
conj x by t = x*y
conjinv x by t = x*y
conj y by t = y^-1
conjinv y by t = y^-1
genset t t^-1 x x^-1 y y^-1
"""

# the class-3 filiform group: [b, a] = c, [c, a] = d, with [x, y] = x^-1 y^-1 x y
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

# the built-in Heisenberg group with one block: c = [a, b] then has weight 1,
# below the weight 2 of a commutator of a and b
HEISENBERG_ONE_BLOCK_SOURCE = """\
group HeisenbergOneBlock
nilpotent true
torsion_prefix 0
gen a order inf
gen b order inf
gen c order inf
conj b by a = b*c^-1
conjinv b by a = b*c
block a b c
genset a a^-1 b b^-1
"""

# class 2 with a central torsion correction: a^-1 b a = a b a^-1 = b t, t of
# order 2.  Were t of infinite order, conj and conjinv would not cancel
# (b t t != b), so the relation holds only because t has order 2
CENTRAL_TORSION_SOURCE = """\
group CentralTorsion
nilpotent true
torsion_prefix 1
gen a order inf
gen b order inf
gen t order 2
pow t = 1
conj b by a = b*t
conjinv b by a = b*t
block a
block b
genset a a^-1 b b^-1 t
"""


# t inverts b, and [b, a] = z has order 2: the correction of z by a reads b,
# which t has flipped by the time a's row runs in the inverse
FLIPPED_SOURCE_SOURCE = """\
group FlippedSource
nilpotent false
torsion_prefix 1
gen a order inf
gen t order inf
gen b order inf
gen z order 2
conj b by a = b*z
conjinv b by a = b*z
conj b by t = b^-1
conjinv b by t = b^-1
genset a a^-1 t t^-1 b b^-1 z
"""

def heisenberg_mul(x, y):
    """a^i b^j c^k in the built-in Heisenberg group, where b a = a b c^-1:
    (i1+i2, j1+j2, k1+k2 - j1*i2)."""
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] - x[1] * y[0])


def filiform_mul(x, y):
    """a^i b^j c^k d^l in the filiform group.  <b, c, d> is Z^3, on which
    u -> a^-1 u a acts by M = I + N with N b = c, N c = d, N d = 0, so
    a^i u a^i' v = a^(i+i') (M^i' u + v) with M^k = I + k N + binomial(k, 2) N^2
    for every integer k."""
    k = y[0]
    return (x[0] + k, x[1] + y[1], x[2] + y[2] + k * x[1],
            x[3] + y[3] + k * x[2] + k * (k - 1) // 2 * x[1])


_UT4_ENTRIES = ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3))


def matmul(m, k):
    size = range(len(k))
    return tuple(tuple(sum(m[r][i] * k[i][c] for i in size) for c in size)
                 for r in size)


def ut4_matrix(v):
    """The normal form x1^a x2^b ... z^f of UT(4,Z) as a product of 4x4
    matrices."""
    acc = tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
    for (r0, c0), e in zip(_UT4_ENTRIES, v):
        elem = tuple(tuple(int(r == c) + (e if (r, c) == (r0, c0) else 0)
                           for c in range(4)) for r in range(4))
        acc = matmul(acc, elem)
    return acc


def ut4_normal_form(m):
    """The inverse of ``ut4_matrix``: the product above has entries a, b, c
    on the first superdiagonal, ab + d and bc + e on the second, and
    abc + ae + f in the corner."""
    a, b, c = m[0][1], m[1][2], m[2][3]
    d, e = m[0][2] - a * b, m[1][3] - b * c
    return (a, b, c, d, e, m[0][3] - a * b * c - a * e)


def _letters(word, rep):
    """Letters of ``word**rep`` as (index, +-1) pairs."""
    if rep < 0:
        word = tuple((i, -e) for i, e in reversed(word))
        rep = -rep
    block = [(i, 1 if e > 0 else -1) for i, e in word for _ in range(abs(e))]
    return block * rep


def letter_collect(p, v, letters, steps=10**6):
    """Fold (index, +-1) letters into the normal form ``v`` of ``p``, in place.

    Each letter moves left past the highest nonzero generator above it by
    one conjugation relation, or lands and is reduced by a power relation.
    Raises RuntimeError after ``steps`` letters."""
    todo = list(reversed(list(letters)))
    while todo:
        steps -= 1
        if steps < 0:
            raise RuntimeError("letter collection did not finish")
        j, s = todo.pop()
        l = next((i for i in range(p.n - 1, j, -1) if v[i]), -1)
        if l < 0:
            e = v[j] + s
            m = p.orders[j]
            if m is not None and not 0 <= e < m:
                q, e = divmod(e, m)
                todo.extend(reversed(_letters(p.power_words.get(j, ()), q)))
            v[j] = e
        else:
            e, v[l] = v[l], 0
            table = p.conj if s > 0 else p.conjinv
            todo.extend(reversed([(j, s)] + _letters(table.get((l, j), ((l, 1),)), e)))


def letters_to_vector(p, letters, steps=10**6):
    v = [0] * p.n
    letter_collect(p, v, letters, steps)
    return tuple(v)


def vector_letters(x):
    """The letters of the normal-form word of the exponent vector ``x``."""
    return _letters(tuple((i, e) for i, e in enumerate(x) if e), 1)


# -- isolators of the derived subgroup, from each family's closed form -------
#
# x lies in the isolator when some power of x is a product of commutators.
# Z^n is abelian, so only e does.  In the Heisenberg group [b, a] = c^-1, so
# it is {c^k}.  In the Klein bottle [b, a] = b^-2, so it is {b^k}.  In
# Z^n x C_m it is the torsion C_m.  The isolator of a direct product is the
# product of the isolators, and the torsion quotient of a built-in family
# with torsion is the family with the C_m factor dropped, its vectors padded
# with zeros for the dropped coordinates.


def zn_isolator(n):
    return lambda x: not any(x[:n])


def heisenberg_isolator(x):
    return x[0] == 0 and x[1] == 0


def klein_isolator(x):
    return x[0] == 0


def product_isolator(left, right, left_n):
    """The isolator of G1 x G2, G1 with ``left_n`` coordinates."""
    return lambda x: left(x[:left_n]) and right(x[left_n:])


def quotient_isolator(member, torsion_len):
    """The isolator of G/N for N the torsion block of ``torsion_len``
    trailing coordinates, read from that of G."""
    return lambda x: member(tuple(x) + (0,) * torsion_len)


def isolator_closed_form(group_id):
    """The isolator membership test of the built-in family ``group_id``, for
    the ids that ``pcgroup.from_id`` resolves."""
    gid = group_id.strip().lower()
    gid = {"z": "zn:1", "z1": "zn:1", "z2": "zn:2", "z3": "zn:3",
           "klein": "klein_bottle", "zxz2": "zn_cross_cyclic:1,2"}.get(gid, gid)
    if gid == "heisenberg":
        return heisenberg_isolator
    if gid == "klein_bottle":
        return klein_isolator
    if gid.startswith("zn:"):
        return zn_isolator(int(gid[3:]))
    if gid.startswith("zn_cross_cyclic:"):
        # the torsion coordinate is free: C_m is its own isolator
        return zn_isolator(int(gid.split(":")[1].split(",")[0]))
    if gid == "heisenberg_z":
        return product_isolator(heisenberg_isolator, zn_isolator(1), 3)
    if gid.startswith("heisenberg_z"):
        return product_isolator(heisenberg_isolator, zn_isolator(0), 3)
    raise KeyError(f"no closed form for {group_id!r}")


def pairwise_scan(ball_a, ball_b, mapping):
    """The quadratic check: alpha(xy) = alpha(x) alpha(y) on every pair of
    interior vertices with xy interior."""
    h, alpha_gens, failure = _split_translation(ball_a, ball_b, mapping)
    if failure is not None:
        return failure
    pa, pb = ball_a.presentation, ball_b.presentation
    hinv = pb.inverse(h)
    alpha = {x: pb.multiply(hinv, mx) for x, mx in mapping.items()}
    interior = ball_a.interior_vertices()
    iset = set(interior)
    for x in interior:
        ax = alpha[x]
        for y in interior:
            xy = pa.multiply(x, y)
            if xy not in iset:
                continue
            if alpha[xy] != pb.multiply(ax, alpha[y]):
                return AffineVerdict(False, h, alpha_gens, witness=(x, y),
                                     reason="alpha is not multiplicative")
    return AffineVerdict(True, h, alpha_gens)


# -- the abelianization by rational elimination and minors ----------------


def relation_vectors(p):
    """One vector per defining relation: the exponent sum of its right side
    minus that of its left side, g_l for a conjugation relation and
    g_i^m_i for a power relation."""
    out = []
    for table in (p.conj, p.conjinv):
        for (l, _j), word in table.items():
            v = [0] * p.n
            v[l] -= 1
            for i, e in word:
                v[i] += e
            out.append(v)
    for i, m in enumerate(p.orders):
        if m is not None:
            v = [0] * p.n
            v[i] -= m
            for j, e in p.power_words.get(i, ()):
                v[j] += e
            out.append(v)
    return out


def _rational_echelon(vectors):
    """An echelon basis of the rational span, rows with 1 at the pivot, and
    the reduction of a vector against it."""
    basis = []                      # (pivot, row with 1 at the pivot)

    def reduce(v):
        v = [Fraction(e) for e in v]
        for pivot, row in basis:
            if v[pivot]:
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    for v in vectors:
        v = reduce(v)
        pivot = next((i for i, e in enumerate(v) if e), None)
        if pivot is not None:
            basis.append((pivot, [e / v[pivot] for e in v]))
    return basis, reduce


def rational_abelianization(p):
    """(rank, generator images): each e_i reduced over Q against the
    relations is zero at every pivot, and its other coordinates, scaled by
    one common denominator, are the image of g_i in Z^rank."""
    basis, reduce = _rational_echelon(relation_vectors(p))
    pivots = {pivot for pivot, _ in basis}
    free = [i for i in range(p.n) if i not in pivots]
    residues = [[reduce(p.generator(i))[j] for j in free] for i in range(p.n)]
    den = math.lcm(*(r.denominator for res in residues for r in res))
    return len(free), tuple(tuple(int(r * den) for r in res) for res in residues)


def _fraction_det(rows):
    rows = [[Fraction(e) for e in r] for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return int(det)


def lattice_span_index(p, elements):
    """(index, missing) of L, the integer span of the relation vectors and
    the elements, as ``Abelianization.span_index`` defines them.

    Let k be the rank of L and C the pivot columns of its rational echelon
    basis; the projection to C is injective on the rational span, so it
    maps L onto a lattice of rank k in Z^C whose index is the gcd of the
    k-by-k minors of the spanning vectors on C.  A vector e_i in the
    rational span lies in L exactly when adding it leaves that index
    unchanged.  L has finite index in Z^n only at k = n, where C is every
    column and the gcd is the index."""
    # one vector of each pair +-v spans as much as both
    signed = {tuple(v) if next(e for e in v if e) > 0 else tuple(-e for e in v)
              for v in relation_vectors(p) + [list(x) for x in elements] if any(v)}
    vectors = sorted(signed)
    basis, _ = _rational_echelon(vectors)
    k, cols = len(basis), sorted(pivot for pivot, _ in basis)

    def minors_gcd(vs):
        g = 0
        for rows in combinations(vs, k):
            g = math.gcd(g, _fraction_det([[r[c] for c in cols] for r in rows]))
        return g

    base = minors_gcd(vectors)
    index = base if k == p.n else None
    missing = None
    for i in range(p.n):
        e = p.generator(i)
        with_e = vectors + [e]
        if len(_rational_echelon(with_e)[0]) != k or minors_gcd(with_e) != base:
            missing = i
            break
    return index, missing


FILIFORM_PC = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "filiform4.pc"

#: twelve built-in ids, then the benchmark's class-3 input and every source above
ORACLE_BUILTIN_IDS = ("z", "z2", "z3", "zn:5", "heisenberg", "klein_bottle", "zxz2",
                      "heisenberg_z", "heisenberg_z3", "zn_cross_cyclic:1,3",
                      "zn_cross_cyclic:2,4", "zn_cross_cyclic:0,3")


def oracle_presentations():
    """(name, presentation) for the 22 presentations that the abelianization
    is checked on."""
    out = [(gid, pcgroup.from_id(gid)) for gid in ORACLE_BUILTIN_IDS]
    out.append(("filiform4.pc", pcgroup.parse_presentation(FILIFORM_PC.read_text())))
    out += [(name, pcgroup.parse_presentation(text))
            for name, text in sorted(globals().items()) if name.endswith("_SOURCE")]
    return out
