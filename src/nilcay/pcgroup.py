"""Exact arithmetic in polycyclic groups given by power-commutator presentations.

A presentation lists an ordered generator basis ``g_1 < ... < g_n`` with
relative orders (positive integer or infinite), power relations
``g_i^{m_i} = w`` for finite-order generators, and conjugation relations
``g_j^{-1} g_l g_j`` and ``g_j g_l g_j^{-1}`` for pairs ``j < l`` (pairs with
no declared relation commute).  It must be in standard pc form: every
conjugate by ``g_j`` and the power word of ``g_j`` lie in
``G_{j+1} = <g_{j+1}, ..., g_n>``; the parser refuses anything else, naming
the relation.  A presentation declared nilpotent must also have a central
pc series: every conjugate of g_l by g_j is g_l followed by a word in
``G_{l+1}``, so [g_l, g_j] lies in ``G_{l+1}``; the parser refuses any
other conjugate, naming it.  The rule is sufficient, not necessary (D8 as
a of order 2 and b of order 4 with b^a = b^3 is refused), and the bi-order,
the polynomial path and the Osin guard of ``order.classify_distorted`` rely
on the flag.  Group elements are normal-form exponent vectors
``(e_1, ..., e_n)`` stored as plain tuples of Python ints, so exponents never
overflow; at finite-order positions ``0 <= e_i < m_i``.

The interpreted product is collection from the left, one algorithm for
every presentation.  ``_block_mul`` moves a block ``g_j^f`` past the whole
tail ``t`` in ``G_{j+1}`` at once, ``t g_j^f = g_j^f phi^f(t)`` with
``phi(x) = g_j^{-1} x g_j``, applied from cached tables of ``phi^{+-2^k}``
(Vaughan-Lee, "Collection from the left", J. Symb. Comput. 9, 1990; Sims,
*Computation with Finitely Presented Groups*, 1994, ch. 9).  Every product
it collects lies in ``G_{j+1}``, so the recursion rises through the
generator indices and always ends.  Where ``phi_j = 1`` and no power word
carries, the block only adds to the exponent of ``g_j``.

Two compiled paths replace the collector, and a presentation takes at most
one of them, by this rule:

- linear collection, every move SIGN or CENTRAL and every power word
  trivial: the compiled collector;
- otherwise, torsion-free with admissible weights: the polynomials;
- otherwise: the interpreted collector, which is also the source the
  polynomials are derived from and the oracle the tests compare against.

Each is derived on first use, not at load.  The first access to
``multiply`` or ``inverse`` on an object binds that attribute to the derived
function itself, so no product pays a dispatch frame.  The derivation is
kept once per process for each set of relations, so every presentation
object with the same generators, orders, power words, conjugates, blocks
and nilpotency flag shares one derivation.  The generated source is
compiled with ``compile()`` from integer literals and synthesized
identifiers only.

The compiled collector rests on a move table (``_moves``), derived with
it and nowhere else: collecting ``g_l g_j g_l^{-1}`` tells, for each pair
j < l, whether a g_j block commutes with a g_l run, inverts it
(``g_j^{-1} g_l g_j = g_l^{-1}``, SIGN), picks up a central correction
(CENTRAL), or neither (GENERIC).  When every move is SIGN or CENTRAL,
collection is linear: a block g_j^f negates each SIGN coordinate when f is
odd and adds coef * x_l * f to each central correction target, every
correction reading x_l before the row writes, and coordinates of finite
order are taken mod m.  These rows are unrolled over j into straight-line
code.  The inverse runs the same rows on x: for j = 0, ..., n-1 it sets
y_j = -x_j (mod m_j), x_j as the rows below j left it, and runs row j with
block exponent y_j.  x*y sets coordinate j to that x_j plus y_j, so
x*y = e and y = x^-1.  Every abelian, class-2 and central-torsion family
takes it, and so does the Klein bottle, whose sign alternates with the
exponent of a, as no polynomial does.

The polynomials serve the torsion-free nilpotent groups whose collection is
not linear, such as those of class 3.  In such a group the coordinates of
x*y and of x^-1 are polynomials in the coordinates of x and y (P. Hall,
*Nilpotent groups*, 1957).  The path applies when the presentation is
declared nilpotent, has blocks and no finite-order generator, and its
weights are admissible: g_i in the k-th block has weight w_i = k, and every
conj/conjinv word of ``l by j`` is g_l followed only by generators of weight
>= w_j + w_l.  The subgroups generated by the generators of weight >= k then
form a series with [G_a, G_b] <= G_{a+b}, and coordinate i of x*y and of
x^-1 has weighted degree at most w_i, x_j and y_j weighing w_j
(Leedham-Green and Soicher, "Symbolic collection using Deep Thought", LMS J.
Comput. Math. 1, 1998), so total degree at most w_i.  It depends only on the
coordinates j <= i of weight <= w_i, as every conjugate of g_l lies in
<g_l, ..., g_n>, which makes <g_{i+1}, ..., g_n> normal.  Each such
polynomial is interpolated over the simplex grid of total degree <= w_i in
those variables, evaluated with the collector, in the binomial basis by
forward differences (Newton), with exact integer coefficients, which become
one generated function per operation.  A presentation whose grids would
exceed ``_MAX_GRID_POINTS`` collector products keeps the collector, as does
every presentation outside both paths (Sol, Q8, a class-3 group times Z/2).

A ball multiplies every vertex by the same generating set S, so
``right_multiplier(S)`` gives a step kernel u -> (u*s for s in S), compiled
on first use for each S and kept with the derivation.  Each coordinate of
u*s is interpolated from the compiled ``multiply`` as above, at the shape
the path stores: a support and a degree for each coordinate.  On the
polynomials that is the support of coordinate i and its weight w_i.  On the
compiled collector it is every coordinate at degree 1: once s is fixed each
flip happens or not, and each correction adds a constant multiple of a
coordinate, so u*s is affine in u, taken mod m at finite order, where the
coefficients are reduced mod m.  Every kernel is thus a polynomial in the
binomial basis; its x-binomials are computed once per call and shared by
all of S.  A coordinate that s leaves alone is returned as ``x_i`` itself,
with no new int.  Where no compiled path applies the kernel is a closure
over the collector product.

A bi-order (``order.BiOrder``) compares x with y by the sign of the first
nonzero coordinate of x^-1 y in its scan order, the order of its filtration
blocks.  ``comparator(scan)`` gives that test, kept on the presentation for
each scan.  In a torsion-free presentation whose scan is the index order it
computes no product: it compares x and y lexicographically.  With
d = x^-1 y, so y = x*d, and i the first index where d_i != 0, d lies in
H_i = <g_i, ..., g_n>, and H_{i+1} is normal in H_i (standard pc form), so
with x = x_<i g_i^(x_i) t, t in H_{i+1}, x*d = x_<i g_i^(x_i + d_i) t' with
t' in H_{i+1}: x*d agrees with x before i and (x*d)_i = x_i + d_i.  Any
other scan, or a presentation with torsion, computes x^-1 y with
``multiply`` and ``inverse`` and scans it.

At load time conj and conjinv are checked to be inverse maps and every pc
overlap is collected both ways, so an inconsistent presentation is refused
before it could give a wrong product.  Every presentation, built-in or
parsed, gets its abelianization (``structure.Abelianization``) derived from
its relations on first use; no family carries knowledge of its own.

Note on the ``torsion_prefix`` keyword: the declared count refers to the
contiguous block of finite-order generators at the *end* of the basis, so
that an element's leading coordinates are its image in the torsion-free
quotient.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import cache, cached_property
from types import SimpleNamespace

Element = tuple  # exponent vector, tuple of int
Word = tuple     # tuple of (generator index, exponent) factors


class _derived(cached_property):
    """A cached property that is also callable as ``(obj, *args)``, so code
    that wraps the class attribute as a method still reaches the function.
    That route stores nothing on ``obj``, so a wrapper set on the class sees
    every call; ``func`` runs on each one and must stay cheap."""

    def __call__(self, obj, *args):
        return self.func(obj)(*args)


class PresentationError(ValueError):
    """Invalid presentation source or inconsistent declarations."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CollectionError(RuntimeError):
    """Nothing raises this: collection in standard pc form always ends.

    Kept only because the benchmark harness imports it; ROADMAP item 9
    deletes it with the harness's next change."""


# action kinds for moving a generator block left past a higher-index run
_COMMUTE = 0
_SIGN = 1      # g_j^{-1} g_l g_j = g_l^{-1}, g_l of infinite order
_CENTRAL = 2   # g_l g_j g_l^{-1} = g_j * z with z central
_GENERIC = 3


_WORD_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)(?:\^(-?\d+))?$")


def _parse_word(token, index_of, line):
    """Parse a ``sym^k*sym^k`` word token into a factor tuple."""
    if token == "1":
        return ()
    factors = []
    for part in token.split("*"):
        m = _WORD_FACTOR.match(part)
        if not m:
            raise PresentationError(f"malformed word factor {part!r}", line)
        sym, exp = m.group(1), m.group(2)
        if sym not in index_of:
            raise PresentationError(f"unknown generator {sym!r}", line)
        e = 1 if exp is None else int(exp)
        if e:
            factors.append((index_of[sym], e))
    return tuple(factors)


class PcPresentation:
    """A validated power-commutator presentation with derived collection tables."""

    def __init__(self, *, name, gens, orders, power_words, conj, conjinv,
                 torsion_len, blocks, nilpotent, genset, source):
        self.name = name
        self.gens = tuple(gens)
        self.orders = tuple(orders)
        self.n = len(self.gens)
        self.power_words = dict(power_words)
        self.conj = dict(conj)
        self.conjinv = dict(conjinv)
        self.torsion_len = torsion_len
        self.blocks = tuple(tuple(b) for b in blocks) if blocks else ()
        self.nilpotent = nilpotent
        self.genset = tuple(genset)
        self.source = source
        self._comparators = {}      # scan -> comparator, see comparator()
        self._validate()
        self._build_tables()
        self._check_consistency()

    # -- construction -------------------------------------------------

    def _validate(self):
        n = self.n
        if n == 0:
            raise PresentationError("presentation has no generators")
        if len(set(self.gens)) != n:
            raise PresentationError("duplicate generator symbols")
        for m in self.orders:
            if m is not None and m < 1:
                raise PresentationError("relative orders must be positive")
        if not 0 <= self.torsion_len <= n:
            raise PresentationError("torsion block length out of range")
        for i in range(n - self.torsion_len, n):
            if self.orders[i] is None:
                raise PresentationError(
                    f"torsion block contains infinite-order generator {self.gens[i]!r}")
        for i in range(n - self.torsion_len):
            if self.orders[i] is not None:
                raise PresentationError(
                    f"finite-order generator {self.gens[i]!r} outside the torsion block")
        for i, w in self.power_words.items():
            if self.orders[i] is None:
                raise PresentationError(
                    f"power relation given for infinite-order generator {self.gens[i]!r}")
            self._check_normal_word(w, f"pow {self.gens[i]}")
        relations = [(tag, l, j, w)
                     for table, tag in ((self.conj, "conj"), (self.conjinv, "conjinv"))
                     for (l, j), w in table.items()]
        for tag, l, j, w in relations:
            if not 0 <= j < l < n:
                raise PresentationError(
                    f"{tag} must rewrite a later generator by an earlier one")
            self._check_normal_word(w, f"{tag} {self.gens[l]} by {self.gens[j]}")
        for _, l, j, _ in relations:
            a = self.conj.get((l, j), ((l, 1),))
            b = self.conjinv.get((l, j), ((l, 1),))
            if (a == ((l, 1),)) != (b == ((l, 1),)):
                raise PresentationError(
                    f"conjugation of {self.gens[l]} by {self.gens[j]} needs both "
                    "directions (conj and conjinv)")
        # standard pc form: every conjugate by g_j and the power word of g_j
        # lie in <g_{j+1}, ..., g_n>
        standard = [(f"{tag} {self.gens[l]} by {self.gens[j]}", j, w)
                    for tag, l, j, w in relations]
        standard += [(f"pow {self.gens[i]}", i, w) for i, w in self.power_words.items()]
        for what, j, w in standard:
            if any(i <= j for i, _ in w):
                raise PresentationError(
                    f"{what} = {_word_text(w, self.gens)} is not in standard pc "
                    f"form: it must be a word in the generators after {self.gens[j]}")
        if self.blocks:
            flat = [i for b in self.blocks for i in b]
            infinite = [i for i in range(n) if self.orders[i] is None]
            if sorted(flat) != infinite or len(set(flat)) != len(flat):
                raise PresentationError(
                    "filtration blocks must partition the infinite-order generators")
        if self.nilpotent:
            # each conjugate of g_l is g_l times a word in G_{l+1}, so every
            # [g_l, g_j] lies in G_{l+1}: the pc series is central
            for tag, l, j, w in relations:
                if w[:1] != ((l, 1),):
                    g = self.gens[l]
                    raise PresentationError(
                        f"{tag} {g} by {self.gens[j]} = {_word_text(w, self.gens)} "
                        f"does not fit 'nilpotent true': a conjugate of {g} must "
                        f"be {g} followed only by generators after {g}; refine "
                        "the series to a central one, or declare nilpotent false")
        for v in self.genset:
            if len(v) != n:
                raise PresentationError("generating-set element has wrong length")
            if all(e == 0 for e in v):
                raise PresentationError("generating set contains the identity")

    def _check_normal_word(self, word, what):
        last = -1
        for i, e in word:
            if not 0 <= i < self.n:
                raise PresentationError(f"{what}: generator index out of range")
            if i <= last:
                raise PresentationError(f"{what}: word is not in normal form (index order)")
            m = self.orders[i]
            if m is not None and not 0 <= e < m:
                raise PresentationError(f"{what}: exponent not reduced mod {m}")
            last = i

    def _vector(self, word):
        """The exponent vector of a word already in normal form."""
        v = [0] * self.n
        for i, e in word:
            v[i] = e
        return v

    def _build_tables(self):
        n = self.n
        # (j, +-1) -> [table of phi_j^(+-2^k) for k = 0, 1, ...], for each g_j
        # that some higher generator does not commute with; a table holds the
        # normal form of phi(g_i) for each i > j, None where phi fixes g_i
        self._phi = {}
        for table, sign in ((self.conj, 1), (self.conjinv, -1)):
            for (l, j), w in table.items():
                if w != ((l, 1),):
                    self._phi.setdefault((j, sign), [[None] * n])[0][l] = \
                        tuple(self._vector(w))
        self._power_vectors = {i: self._vector(w) for i, w in self.power_words.items() if w}

    def _check_consistency(self):
        """Load-time consistency: conj and conjinv are inverse maps, and both
        bracketings of every pc overlap collect to one normal form (Wamsley;
        Sims, *Computation with Finitely Presented Groups*, 1994, 9.8)."""
        for (l, j), w in self.conjinv.items():
            # g_j^-1 (g_j g_l g_j^-1) g_j, where moving g_j applies conj
            if self._word_vector(((j, -1),) + w + ((j, 1),)) != self._vector(((l, 1),)):
                raise PresentationError(
                    f"conj and conjinv for {self.gens[l]} by {self.gens[j]} "
                    "do not cancel")
        for (x1, y1), (x2, y2) in self._overlaps():
            left = self._word_vector(x1)
            self._mul_into(left, self._word_vector(y1))
            right = self._word_vector(x2)
            self._mul_into(right, self._word_vector(y2))
            if left != right:
                x1, y1, x2, y2 = (_word_text(w, self.gens) for w in (x1, y1, x2, y2))
                raise PresentationError(
                    f"inconsistent presentation: ({x1})*({y1}) and "
                    f"({x2})*({y2}) collect to {self.element_to_str(left)} "
                    f"and {self.element_to_str(right)}")

    def _overlaps(self):
        """The pc overlap test words, each as two bracketings ((x, y), (x', y'))
        of the same word: x*y = x'*y' in a consistent presentation."""
        r = self.orders
        for i in range(self.n):
            gi = ((i, 1),)
            for j in range(i + 1, self.n):
                gj = ((j, 1),)
                for k in range(j + 1, self.n):
                    yield (((k, 1),) + gj, gi), (((k, 1),), gj + gi)
                if r[j] is not None:
                    yield (((j, r[j]),), gi), (((j, r[j] - 1),), gj + gi)
                if r[i] is None:
                    yield (gj + ((i, -1),), gi), (gj, ())
                else:
                    yield (gj + ((i, r[i] - 1),), gi), (gj, ((i, r[i]),))
            if r[i] is not None:
                yield (((i, r[i]),), gi), (gi, ((i, r[i]),))

    # -- basics --------------------------------------------------------

    @property
    def identity(self) -> Element:
        return (0,) * self.n

    def generator(self, i) -> Element:
        return tuple(1 if k == i else 0 for k in range(self.n))

    def sha256(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()

    def element_from_str(self, text) -> Element:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(parts)}")
        v = tuple(int(p) for p in parts)
        return self.collect_word(tuple((i, e) for i, e in enumerate(v) if e))

    def element_to_str(self, x) -> str:
        return ",".join(str(e) for e in x)

    # -- collection ----------------------------------------------------

    def collect_word(self, word) -> Element:
        """Normal form of a product of (generator index, exponent) factors."""
        return tuple(self._word_vector(word))

    def _word_vector(self, word):
        v = [0] * self.n
        for i, e in word:
            self._block_mul(v, i, e)
        return v

    def _block_mul(self, v, j, f):
        """Multiply the normal form in ``v`` by ``g_j^f``, in place, by
        collection from the left.

        With v = (v_<j, v_j, t) and the tail t in G_{j+1} = <g_{j+1}, ...>,
        v * g_j^f = (v_<j, v_j + f) * phi_j^f(t), where phi_j(x) = g_j^-1 x g_j.
        phi_j^f is applied as the tables of phi_j^(+-2^k) for the set bits of
        |f|; the tables are squared on first need and cached.  For g_j of
        finite order m_j, v_j + f = q*m_j + e leaves g_j^e, and
        g_j^(q*m_j) = w_j^q, with w_j the power word, joins the tail in front.
        Where phi_j = 1 and no power word carries, only v_j changes.
        """
        if not f:
            return
        e = v[j] + f
        m = self.orders[j]
        w = None
        if m is not None:
            q, e = divmod(e, m)
            if q:
                w = self._power_vectors.get(j)
        v[j] = e
        tables = self._phi.get((j, 1 if f > 0 else -1))
        if tables is None and w is None:
            return
        t = [0] * (j + 1) + v[j + 1:]
        if tables is not None:
            k = abs(f)
            level = 0
            while True:
                if k & 1:
                    t = self._apply_table(tables[level], t, j)
                k >>= 1
                if not k:
                    break
                level += 1
                if level == len(tables):
                    # None where phi^2 fixes g_i, though phi may not: the
                    # Klein bottle's phi_a inverts b
                    last = tables[-1]
                    images = (None if img is None
                              else tuple(self._apply_table(last, img, j)) for img in last)
                    tables.append([None if img == self.generator(i) else img
                                   for i, img in enumerate(images)])
        if w is not None:
            t, tail = self._pow_vector(w, q), t
            self._mul_into(t, tail)
        v[j + 1:] = t[j + 1:]

    def _apply_table(self, table, x, j):
        """phi(x) = prod over i > j of phi(g_i)^(x_i), for x in G_{j+1}."""
        out = [0] * self.n
        for i in range(j + 1, self.n):
            e = x[i]
            if not e:
                continue
            img = table[i]
            if img is None:
                self._block_mul(out, i, e)
            else:
                self._mul_into(out, self._pow_vector(img, e))
        return out

    def _mul_into(self, v, y):
        for i, e in enumerate(y):
            if e:
                self._block_mul(v, i, e)

    def _inverse_vector(self, x):
        v = [0] * self.n
        for j in range(self.n - 1, -1, -1):
            if x[j]:
                self._block_mul(v, j, -x[j])
        return v

    def _pow_vector(self, x, k):
        """x^k by binary powering.  ``_block_mul`` passes x in G_{j+1} only,
        so the products it collects involve generators above g_j alone."""
        if k < 0:
            x, k = self._inverse_vector(x), -k
        result = [0] * self.n
        base = x
        while True:
            if k & 1:
                self._mul_into(result, base)
            k >>= 1
            if not k:
                return result
            square = list(base)
            self._mul_into(square, base)
            base = square

    # -- group operations ------------------------------------------------

    @_derived
    def multiply(self):
        """The product x, y -> x*y: the compiled path's function, else the
        collector's, bound on first access (see the module docstring)."""
        compiled = self._compiled
        return self._collect_product if compiled is None else compiled.multiply

    @_derived
    def inverse(self):
        """The inverse x -> x^-1, bound as ``multiply`` is."""
        compiled = self._compiled
        return self._collect_inverse if compiled is None else compiled.inverse

    def _collect_product(self, x, y) -> Element:
        v = list(x)
        self._mul_into(v, y)
        return tuple(v)

    def _collect_inverse(self, x) -> Element:
        return tuple(self._inverse_vector(x))

    # -- compiled paths ------------------------------------------------

    @property
    def product_path(self) -> str:
        """Which path ``multiply`` takes: ``"compiled collector"`` (the
        collector unrolled for presentations whose moves are all SIGN or
        CENTRAL and whose power words are trivial), else
        ``"polynomial, degree d"`` or ``"collector"``."""
        compiled = self._compiled
        return "collector" if compiled is None else compiled.path

    def _weights(self):
        """The weights w_i, g_i in the k-th block having weight k, when they
        make products polynomial: the presentation is nilpotent with blocks,
        has no finite-order generator, and every ``conj``/``conjinv`` word of
        ``l by j`` is g_l followed by generators of weight >= w_j + w_l.
        Otherwise None."""
        if not (self.nilpotent and self.blocks) or \
                any(m is not None for m in self.orders):
            return None
        w = [0] * self.n
        for k, block in enumerate(self.blocks, start=1):
            for i in block:
                w[i] = k
        for table in (self.conj, self.conjinv):
            for (l, j), word in table.items():
                if word[:1] != ((l, 1),) or \
                        any(w[i] < w[j] + w[l] for i, _ in word[1:]):
                    return None
        return tuple(w)

    def right_multiplier(self, elements):
        """The step kernel of the generating set ``elements``: a function
        u -> (u*s for s in elements), for u in normal form.

        On a compiled path it is interpolated from that path's product,
        compiled on the first call for these elements and kept with the
        derivation (see the module docstring); otherwise a closure over the
        collector product."""
        elements = tuple(elements)
        compiled = self._compiled
        if compiled is None:
            product = self._collect_product
            return lambda u: [product(u, s) for s in elements]
        step = compiled.kernels.get(elements)
        if step is None:
            step = compiled.kernels[elements] = _step_kernel(
                compiled.multiply, compiled.shape, self.orders, elements)
        return step

    def comparator(self, scan):
        """The bi-order comparator of the coordinate order ``scan``, a
        tuple permuting range(n): x, y -> -1, 0 or 1, the sign of the first
        nonzero coordinate of x^-1 y in that order, -1 where it is positive
        and 0 where x = y.  Torsion-free with ``scan`` the index order, it
        is the lexicographic comparison of x and y (see the module
        docstring); otherwise it computes x^-1 y and scans it.  Kept on the
        presentation for each scan."""
        compare = self._comparators.get(scan)
        if compare is not None:
            return compare
        if not self.torsion_len and scan == tuple(range(self.n)):
            compare = _lexicographic
        else:
            multiply, inverse = self.multiply, self.inverse

            def compare(x, y):
                d = multiply(inverse(x), y)
                for i in scan:
                    c = d[i]
                    if c:
                        return -1 if c > 0 else 1
                return 0
        self._comparators[scan] = compare
        return compare

    @cached_property
    def _compiled(self):
        """The compiled product, inverse and step kernels, derived on first
        use and shared by every presentation with the same relations: the
        unrolled collector where every move is SIGN or CENTRAL and no power
        word is nontrivial, else the polynomials where they apply, else None,
        and the collector stays (see the module docstring)."""
        key = (self.gens, self.orders, tuple(sorted(self.power_words.items())),
               tuple(sorted(self.conj.items())), tuple(sorted(self.conjinv.items())),
               self.blocks, self.nilpotent)
        if key not in _DERIVED:
            if not self._power_vectors and all(
                    a[0] in (_SIGN, _CENTRAL) for row in self._moves for _, a in row):
                _DERIVED[key] = _compile_unrolled(self._moves, self.orders)
            else:
                _DERIVED[key] = self._derive_polynomials()
        return _DERIVED[key]

    @cached_property
    def _moves(self):
        """The move table that ``_compile_unrolled`` compiles: ``_moves[j]``
        holds the (l, action) pairs for l > j whose action is not COMMUTE,
        in descending l.  Collection never reads it; ``_compiled`` derives it
        once per set of relations."""
        n = self.n

        def fixed(l, j):
            return self.conj.get((l, j), ((l, 1),)) == ((l, 1),)

        # a generator is inert when it commutes with every generator
        inert = [all(fixed(l, i) for l in range(i + 1, n))
                 and all(fixed(i, j) for j in range(i)) for i in range(n)]
        moves = []
        for j in range(n):
            row = ((l, self._derive_action(l, j, inert)) for l in range(n - 1, j, -1))
            moves.append(tuple((l, a) for l, a in row if a[0] != _COMMUTE))
        return tuple(moves)

    def _derive_action(self, l, j, inert):
        """How a g_j block moves left past a g_l run (j < l).

        Collects g_l g_j g_l^{-1} = g_j * w * g_l^{-1} with w the stored
        conjugate of g_l by g_j.  The inverse direction follows algebraically
        for the recognized patterns, so only the positive direction is collected.
        """
        w = self.conj.get((l, j), ((l, 1),))
        xp = tuple(self._word_vector(((j, 1),) + w + ((l, -1),)))
        n = self.n
        if xp == self.generator(j):
            return (_COMMUTE,)
        # g_j g_l^-2: g_j inverts g_l, whose normal-form exponent can only be
        # -2 at infinite order
        if xp == tuple(1 if k == j else -2 if k == l else 0 for k in range(n)):
            return (_SIGN,)
        if xp[j] == 1:
            zeta = tuple((k, xp[k]) for k in range(n) if k != j and xp[k])
            # a correction target must be inert and carry no power word
            if all(inert[k] and k not in self._power_vectors for k, _ in zeta):
                return (_CENTRAL, zeta)
        return (_GENERIC,)

    def _derive_polynomials(self):
        weights = self._weights()
        if weights is None:
            return None
        # coordinate i depends on the g_j with j <= i (H_{i+1} is normal) of
        # weight <= w_i (its weighted degree is at most w_i)
        support = [tuple(j for j in range(i + 1) if weights[j] <= weights[i])
                   for i in range(self.n)]
        points = sum(math.comb(2 * len(js) + weights[i], weights[i])
                     + math.comb(len(js) + weights[i], weights[i])
                     for i, js in enumerate(support))
        if points > _MAX_GRID_POINTS:
            return None
        products, inverses = {}, {}
        mul_terms, inv_terms = [], []
        for i, js in enumerate(support):
            names = [f"x{j}" for j in js] + [f"y{j}" for j in js]
            mul_terms.append(_terms(_fit(
                self._collect_product, products, self.n, i, js, weights[i], 2), names))
            inv_terms.append(_terms(_fit(
                self._collect_inverse, inverses, self.n, i, js, weights[i], 1),
                names[:len(js)]))
        return _compile_polynomials(mul_terms, inv_terms,
                                    tuple(zip(support, weights)))

    def power(self, x, k) -> Element:
        if k == 0:
            return self.identity
        if k < 0:
            return self.power(self.inverse(x), -k)
        result = self.identity
        base = x
        while k:
            if k & 1:
                result = self.multiply(result, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return result

    def commutator(self, x, y) -> Element:
        xy = self.multiply(x, y)
        return self.multiply(self.multiply(self.inverse(x), self.inverse(y)), xy)

    def conjugate(self, x, g) -> Element:
        return self.multiply(self.multiply(self.inverse(g), x), g)

    def is_central(self, x) -> bool:
        for i in range(self.n):
            g = self.generator(i)
            if self.multiply(x, g) != self.multiply(g, x):
                return False
        return True

    @cached_property
    def abelianization(self):
        """The free part of the abelianization (``structure.Abelianization``),
        computed on first use."""
        from .structure import Abelianization
        return Abelianization(self)

    def hirsch_rank(self) -> int:
        """The number of infinite-order generators: a consistent presentation
        in standard pc form has a series with these cyclic factors."""
        return sum(1 for m in self.orders if m is None)

    def order_of(self, x, bound) -> int | None:
        """Smallest 1 <= k <= bound with x^k = e, or None."""
        acc = x
        for k in range(1, bound + 1):
            if acc == self.identity:
                return k
            acc = self.multiply(acc, x)
        return None

    def __repr__(self):
        return f"PcPresentation({self.name!r}, gens={self.gens})"


def _lexicographic(x, y):
    """-1, 0 or 1 as x is below, equal to or above y lexicographically."""
    return -1 if x < y else 1 if x > y else 0


# -- polynomial products -------------------------------------------------

# the most collector products a derivation evaluates; a presentation whose
# grids are larger keeps the collector
_MAX_GRID_POINTS = 20000

# relations -> compiled products (None for the collector), one derivation
# per process for presentations that differ only in name, source or genset
_DERIVED = {}


@cache
def _simplex(m, d):
    """Every a in N^m with a_1 + ... + a_m <= d."""
    if m == 0:
        return ((),)
    return tuple((a0,) + rest for a0 in range(d + 1)
                 for rest in _simplex(m - 1, d - a0))


@cache
def _difference_steps(m, d):
    """The (a, a - e_k) pairs, as positions in ``_simplex(m, d)``, at which
    ``_newton_coefficients`` takes Delta_k once more: for each k and level,
    every a with a_k >= level, highest first, so each step reads the
    previous level's value below it."""
    position = {a: t for t, a in enumerate(_simplex(m, d))}
    steps = []
    for k in range(m):
        line = sorted(position, key=lambda a: -a[k])
        for level in range(1, d + 1):
            for a in line:
                if a[k] < level:
                    break
                steps.append((position[a], position[a[:k] + (a[k] - 1,) + a[k + 1:]]))
    return tuple(steps)


def _newton_coefficients(values, m, d):
    """The coefficients c_a of f = sum c_a prod_k binomial(z_k, a_k), the
    polynomial of total degree <= d in m variables that takes ``values[t]``
    at the t-th point a of the simplex grid: c_a is the forward difference
    Delta^a f(0), taken one variable at a time.  The grid is closed under
    these differences, and an integer-valued f has integer c_a."""
    c = list(values)
    for t, below in _difference_steps(m, d):
        c[t] -= c[below]
    return dict(zip(_simplex(m, d), c))


@cache
def _grid(n, js, d, arity):
    """The simplex grid of total degree <= d over the coordinates js of
    ``arity`` elements of length n, as argument tuples, in the order of
    ``_simplex``; the other coordinates are 0."""
    m = len(js)
    points = []
    for a in _simplex(arity * m, d):
        args = []
        for r in range(arity):
            v = [0] * n
            for t, j in enumerate(js):
                v[j] = a[r * m + t]
            args.append(tuple(v))
        points.append(tuple(args))
    return tuple(points)


def _fit(evaluate, memo, n, i, js, d, arity):
    """Binomial-basis coefficients, by exponent tuple, of coordinate i of
    ``evaluate``, a map of ``arity`` elements, as a polynomial of total
    degree <= d in their coordinates js (the others held at 0).  ``memo``
    keeps the values across coordinates."""
    values = []
    for args in _grid(n, js, d, arity):
        if args not in memo:
            memo[args] = evaluate(*args)
        values.append(memo[args][i])
    return _newton_coefficients(values, arity * len(js), d)


def _terms(coefficients, names):
    """Nonzero coefficients by exponent tuple -> sorted (coefficient,
    factors) terms, a factor (name, k) standing for binomial(name, k)."""
    terms = [(sum(a), tuple((names[t], k) for t, k in enumerate(a) if k), c)
             for a, c in coefficients.items() if c]
    return [(c, factors) for _, factors, c in sorted(terms)]


def _factor_identifier(name, k):
    return name if k == 1 else f"{name}_{k}"


def _binomial_lines(factors):
    """Lines computing each binomial factor (name, k), k > 1, by its
    falling factorial."""
    lines = []
    for name, k in sorted(f for f in factors if f[1] > 1):
        falling = " * ".join([name] + [f"({name} - {t})" for t in range(1, k)])
        lines.append(f"    {_factor_identifier(name, k)} = "
                     f"{falling} // {math.factorial(k)}")
    return lines


def _expression(terms, m=None):
    """Source of sum c * prod factors over (c, factors) terms, taken mod m
    when m is not None."""
    parts = []
    for c, factors in terms:
        product = [_factor_identifier(*f) for f in factors]
        if abs(c) != 1 or not product:
            product.insert(0, str(abs(c)))
        parts.append(("- " if c < 0 else "+ ") + " * ".join(product))
    coord = " ".join(parts).removeprefix("+ ") or "0"
    return coord if m is None else f"({coord}) % {m}"


def _unpack(v, n):
    return f"    {', '.join(f'{v}{i}' for i in range(n))}, = {v}"


def _compile(source):
    """Execute generated source, named by its digest so that profiles keep
    the functions of different derivations apart."""
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
    namespace = {"__builtins__": {}}
    exec(compile(source, f"<nilcay compiled {digest}>", "exec"), namespace)
    return namespace


def _compile_polynomials(mul_terms, inv_terms, shape):
    """One generated function per operation, as ``multiply`` and
    ``inverse``, with the ``path`` that names the product's degree, an empty
    dict of step kernels and their ``shape``, each coordinate's (support,
    degree).  The source holds integer literals and identifiers made here
    (x0, y3, x2_2 = binomial(x2, 2)), nothing from the presentation's
    text."""
    n = len(mul_terms)

    def body(args, per_coordinate):
        lines = [_unpack(v, n) for v in args]
        lines += _binomial_lines({f for terms in per_coordinate
                                  for _, factors in terms for f in factors})
        coords = [_expression(terms) for terms in per_coordinate]
        lines.append(f"    return ({', '.join(coords)},)")
        return lines

    source = "\n".join(["def multiply(x, y):", *body("xy", mul_terms),
                        "def inverse(x):", *body("x", inv_terms)]) + "\n"
    degree = max((sum(k for _, k in factors)
                  for terms in mul_terms for _, factors in terms), default=0)
    namespace = _compile(source)
    return SimpleNamespace(multiply=namespace["multiply"],
                           inverse=namespace["inverse"],
                           path=f"polynomial, degree {degree}", kernels={},
                           shape=shape)


def _step_kernel(multiply, shape, orders, elements):
    """The step kernel u -> (u*s for s in elements): coordinate i of u*s
    interpolated from ``multiply`` on the support and at the degree that
    ``shape[i]`` gives, its coefficients reduced mod m_i at finite order.
    A coordinate that s leaves alone is returned as ``x_i``, unreduced,
    since u is a normal form."""
    n = len(orders)
    rows, used = [], set()
    for s in elements:
        values, coords = {}, []
        for i, ((js, d), m) in enumerate(zip(shape, orders)):
            fitted = _fit(lambda u: multiply(u, s), values, n, i, js, d, 1)
            if m is not None:
                fitted = {a: c % m for a, c in fitted.items()}
            terms = _terms(fitted, [f"x{j}" for j in js])
            if terms == [(1, ((f"x{i}", 1),))]:
                coords.append(f"x{i}")
                continue
            used.update(f for _, factors in terms for f in factors)
            coords.append(_expression(terms, m))
        rows.append(f"({', '.join(coords)},)")
    source = "\n".join(["def step(x):", _unpack("x", n), *_binomial_lines(used),
                        f"    return ({''.join(r + ', ' for r in rows)})"]) + "\n"
    return _compile(source)["step"]


# -- the unrolled collector ------------------------------------------------


def _row_lines(row, f):
    """Row j of the unrolled product: g_j^f moved left past the coordinates
    above j, with block exponent the identifier f.  A SIGN move inverts
    coordinate l when f is odd; a CENTRAL move adds coef * x_l * f to each
    of its targets.  The corrections come first: they read their sources
    x_l before the row writes anything, as collection reads the tail before
    the block passes it, and they write only targets, which are inert and
    so are no row's source or flip."""
    by_target = {}
    for l, a in row:
        if a[0] == _CENTRAL:
            for idx, coef in a[1]:
                by_target.setdefault(idx, [(1, ((f"x{idx}", 1),))]).append(
                    (coef, ((f"x{l}", 1), (f, 1))))
    lines = [f"    x{idx} = {_expression(terms)}" for idx, terms in by_target.items()]
    flips = [l for l, a in row if a[0] == _SIGN]
    if flips:
        lines.append(f"    if {f} & 1:")
        lines += [f"        x{l} = -x{l}" for l in flips]
    return lines


def _compile_unrolled(moves, orders):
    """Linear collection unrolled over j, for a move table that is all SIGN
    or CENTRAL and power words that are all trivial, as ``multiply`` and
    ``inverse`` with the same interface as ``_compile_polynomials``; the
    step kernels' shape is every coordinate at degree 1.

    x*y runs the rows j = 0, ..., n-1 with block exponent y_j.  Row j reads
    and writes coordinates above j only, and later rows never touch x_j, so
    x_j + y_j goes straight into the result, mod m_j at finite order, which
    also reduces every finite-order correction target.  x^-1 runs the same
    rows with block exponent y_j = -x_j, mod m_j, so that x*y = e.  The
    source holds integer literals and identifiers made here only."""
    n = len(orders)
    mul = ["def multiply(x, y):", _unpack("x", n), _unpack("y", n)]
    inv = ["def inverse(x):", _unpack("x", n)]
    for j, (row, m) in enumerate(zip(moves, orders)):
        lines = _row_lines(row, f"y{j}")
        mul += lines
        inv += [f"    y{j} = {_expression([(-1, ((f'x{j}', 1),))], m)}", *lines]
    coords = [_expression([(1, ((f"x{i}", 1),)), (1, ((f"y{i}", 1),))], m)
              for i, m in enumerate(orders)]
    mul.append(f"    return ({', '.join(coords)},)")
    inv.append(f"    return ({', '.join(f'y{j}' for j in range(n))},)")
    namespace = _compile("\n".join(mul + inv) + "\n")
    return SimpleNamespace(multiply=namespace["multiply"],
                           inverse=namespace["inverse"],
                           path="compiled collector", kernels={},
                           shape=((tuple(range(n)), 1),) * n)


# -- parsing -----------------------------------------------------------


def parse_presentation(text) -> PcPresentation:
    """Parse UTF-8 presentation source (see the grammar in the README)."""
    name = "unnamed"
    nilpotent = False
    torsion_len = 0
    gens = []
    orders = []
    index_of = {}
    power_words = {}
    conj = {}
    conjinv = {}
    blocks = []
    genset_tokens = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        kw = toks[0]
        try:
            if kw == "group":
                if len(toks) != 2:
                    raise PresentationError("usage: group <name>", line_no)
                name = toks[1]
            elif kw == "nilpotent":
                if len(toks) != 2 or toks[1] not in ("true", "false"):
                    raise PresentationError("usage: nilpotent true|false", line_no)
                nilpotent = toks[1] == "true"
            elif kw == "torsion_prefix":
                if len(toks) != 2:
                    raise PresentationError("usage: torsion_prefix <t>", line_no)
                torsion_len = int(toks[1])
            elif kw == "gen":
                if len(toks) != 4 or toks[2] != "order":
                    raise PresentationError("usage: gen <sym> order <m|inf>", line_no)
                sym = toks[1]
                if sym in index_of:
                    raise PresentationError(f"duplicate generator {sym!r}", line_no)
                index_of[sym] = len(gens)
                gens.append(sym)
                orders.append(None if toks[3] == "inf" else int(toks[3]))
            elif kw == "pow":
                if len(toks) != 4 or toks[2] != "=":
                    raise PresentationError("usage: pow <sym> = <word>", line_no)
                i = _req_gen(toks[1], index_of, line_no)
                power_words[i] = _parse_word(toks[3], index_of, line_no)
            elif kw in ("conj", "conjinv"):
                if len(toks) != 6 or toks[2] != "by" or toks[4] != "=":
                    raise PresentationError(f"usage: {kw} <sym> by <sym> = <word>", line_no)
                l = _req_gen(toks[1], index_of, line_no)
                j = _req_gen(toks[3], index_of, line_no)
                if not j < l:
                    raise PresentationError(
                        "conjugation relations rewrite a later generator by an "
                        "earlier one", line_no)
                word = _parse_word(toks[5], index_of, line_no)
                (conj if kw == "conj" else conjinv)[(l, j)] = word
            elif kw == "block":
                idxs = [_req_gen(s, index_of, line_no) for s in toks[1:]]
                if not idxs:
                    raise PresentationError("empty block", line_no)
                blocks.append(tuple(idxs))
            elif kw == "genset":
                genset_tokens.extend((t, line_no) for t in toks[1:])
            else:
                raise PresentationError(f"unknown directive {kw!r}", line_no)
        except ValueError as exc:
            if isinstance(exc, PresentationError):
                raise
            raise PresentationError(str(exc), line_no) from exc

    pres = PcPresentation(
        name=name, gens=gens, orders=orders, power_words=power_words,
        conj=conj, conjinv=conjinv, torsion_len=torsion_len, blocks=blocks,
        nilpotent=nilpotent, genset=(), source=text)
    if genset_tokens:
        elements = []
        for tok, line_no in genset_tokens:
            word = _parse_word(tok, index_of, line_no)
            v = pres.collect_word(word)
            if v == pres.identity:
                raise PresentationError("generating set contains the identity", line_no)
            if v not in elements:
                elements.append(v)
        pres.genset = tuple(sorted(elements))
    return pres


def _req_gen(sym, index_of, line_no):
    if sym not in index_of:
        raise PresentationError(f"unknown generator {sym!r}", line_no)
    return index_of[sym]


# -- built-in families ---------------------------------------------------


def _zn_source(n):
    lines = [f"group Z^{n}", "nilpotent true", "torsion_prefix 0"]
    syms = [f"x{i+1}" for i in range(n)]
    lines += [f"gen {s} order inf" for s in syms]
    lines.append("block " + " ".join(syms))
    lines.append("genset " + " ".join(f"{s} {s}^-1" for s in syms))
    return "\n".join(lines) + "\n"


_HEISENBERG_SOURCE = """\
group Heisenberg
nilpotent true
torsion_prefix 0
gen a order inf
gen b order inf
gen c order inf
conj b by a = b*c^-1
conjinv b by a = b*c
block a b
block c
genset a a^-1 b b^-1
"""

_KLEIN_SOURCE = """\
group KleinBottle
nilpotent false
torsion_prefix 0
gen a order inf
gen b order inf
conj b by a = b^-1
conjinv b by a = b^-1
genset a a^-1 b b^-1
"""


def _zn_cross_cyclic_source(n, m):
    lines = [f"group Z^{n}xC{m}", "nilpotent true", "torsion_prefix 1"]
    syms = [f"x{i+1}" for i in range(n)]
    lines += [f"gen {s} order inf" for s in syms]
    lines.append(f"gen t order {m}")
    lines.append("pow t = 1")
    if syms:
        lines.append("block " + " ".join(syms))
    words = [w for s in syms for w in (s, f"{s}^-1")]
    words.append("t")
    if m > 2:
        words.append(f"t^{m-1}")
    lines.append("genset " + " ".join(words))
    return "\n".join(lines) + "\n"


def direct_product(left, right, name=None) -> PcPresentation:
    """Direct product of two presentations; the torsion block must stay trailing."""
    if isinstance(left, str):
        left = from_id(left)
    if isinstance(right, str):
        right = from_id(right)
    right_all_finite = all(m is not None for m in right.orders)
    if left.torsion_len and not right_all_finite:
        raise PresentationError(
            "direct product would break the trailing torsion block; put the "
            "torsion-free factor first")
    taken = set(left.gens)
    rename = {}
    for s in right.gens:
        new = s
        while new in taken:
            new += "_b"
        rename[s] = new
        taken.add(new)
    rnames = [rename[s] for s in right.gens]
    lines = [f"group {name or left.name + 'x' + right.name}",
             f"nilpotent {'true' if left.nilpotent and right.nilpotent else 'false'}",
             f"torsion_prefix {left.torsion_len + right.torsion_len}"]
    factors = ((left, left.gens), (right, rnames))
    for p, names in factors:
        for s, m in zip(names, p.orders):
            lines.append(f"gen {s} order {'inf' if m is None else m}")
    for p, names in factors:
        for i, w in p.power_words.items():
            lines.append(f"pow {names[i]} = {_word_text(w, names)}")
        for (l, j), w in p.conj.items():
            lines.append(f"conj {names[l]} by {names[j]} = {_word_text(w, names)}")
        for (l, j), w in p.conjinv.items():
            lines.append(f"conjinv {names[l]} by {names[j]} = {_word_text(w, names)}")
    # blocks must cover every infinite-order generator, so only when each
    # factor with one declares them
    if all(p.blocks or None not in p.orders for p in (left, right)):
        for p, names in factors:
            for b in p.blocks:
                lines.append("block " + " ".join(names[i] for i in b))
    words = []
    for v in left.genset:
        words.append(_vector_text(v, left.gens))
    for v in right.genset:
        words.append(_vector_text(v, rnames))
    if words:
        lines.append("genset " + " ".join(words))
    return parse_presentation("\n".join(lines) + "\n")


def _word_text(word, names):
    if not word:
        return "1"
    return "*".join(f"{names[i]}^{e}" if e != 1 else names[i] for i, e in word)


def _vector_text(v, names):
    factors = [(i, e) for i, e in enumerate(v) if e]
    return _word_text(tuple(factors), names)


def builtin(name, **params) -> PcPresentation:
    """Construct a built-in family presentation with its standard generating set."""
    if name == "zn":
        n = params.get("n", 1)
        if not isinstance(n, int) or n < 1:
            raise PresentationError("zn needs n >= 1")
        return parse_presentation(_zn_source(n))
    if name == "heisenberg":
        return parse_presentation(_HEISENBERG_SOURCE)
    if name == "klein_bottle":
        return parse_presentation(_KLEIN_SOURCE)
    if name == "zn_cross_cyclic":
        n = params.get("n", 1)
        m = params.get("m", 2)
        if not isinstance(n, int) or n < 0:
            raise PresentationError("zn_cross_cyclic needs n >= 0")
        if not isinstance(m, int) or m < 2:
            raise PresentationError("zn_cross_cyclic needs m >= 2")
        return parse_presentation(_zn_cross_cyclic_source(n, m))
    if name == "direct_product":
        return direct_product(params["left"], params["right"],
                              name=params.get("name"))
    raise PresentationError(f"unknown built-in family {name!r}")


_ALIASES = {
    "z": ("zn", {"n": 1}),
    "z1": ("zn", {"n": 1}),
    "z2": ("zn", {"n": 2}),
    "z3": ("zn", {"n": 3}),
    "heisenberg": ("heisenberg", {}),
    "klein_bottle": ("klein_bottle", {}),
    "klein": ("klein_bottle", {}),
    "zxz2": ("zn_cross_cyclic", {"n": 1, "m": 2}),
}


def from_id(group_id) -> PcPresentation:
    """Resolve a group id like ``z2``, ``zn:3``, ``zxz2`` or ``heisenberg_z3``."""
    gid = group_id.strip().lower()
    if gid in _ALIASES:
        name, params = _ALIASES[gid]
        return builtin(name, **params)
    if gid.startswith("zn:"):
        return builtin("zn", n=int(gid[3:]))
    if gid.startswith("zn_cross_cyclic:"):
        n, m = gid.split(":", 1)[1].split(",")
        return builtin("zn_cross_cyclic", n=int(n), m=int(m))
    if gid == "heisenberg_z":
        return direct_product(builtin("heisenberg"), builtin("zn", n=1))
    if gid.startswith("heisenberg_z"):
        m = int(gid[len("heisenberg_z"):])
        return direct_product(builtin("heisenberg"),
                              builtin("zn_cross_cyclic", n=0, m=m))
    raise PresentationError(f"unknown group id {group_id!r}")


#: families exercised by the acceptance suites
ACCEPTANCE_FAMILY_IDS = ("z", "z2", "z3", "heisenberg", "klein_bottle",
                         "zxz2", "heisenberg_z3")
