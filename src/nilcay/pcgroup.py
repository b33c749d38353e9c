"""Exact arithmetic in polycyclic groups given by power-commutator presentations.

A presentation lists an ordered generator basis ``g_1 < ... < g_n`` with
relative orders (positive integer or infinite), power relations
``g_i^{m_i} = w`` for finite-order generators, and conjugation relations
``g_j^{-1} g_l g_j`` and ``g_j g_l g_j^{-1}`` for pairs ``j < l`` (pairs with
no declared relation commute).  It must be in standard pc form: every
conjugate by ``g_j`` and the power word of ``g_j`` lie in
``G_{j+1} = <g_{j+1}, ..., g_n>``; the parser refuses anything else, naming
the relation.  Group elements are normal-form exponent vectors
``(e_1, ..., e_n)`` stored as plain tuples of Python ints, so exponents never
overflow; at finite-order positions ``0 <= e_i < m_i``.

Products are computed by collection from the left.  At load time the
presentation derives, once and by decreasing generator index, a table of
how a ``g_j`` block moves left past each higher ``g_l`` run: it commutes,
inverts the run (``g_j^{-1} g_l g_j = g_l^{-1}``), picks up a central
correction, or is GENERIC.  Each pair is found by collecting
``g_l g_j g_l^{-1}``, which reads only the finished rows of generators above
``j``.  ``_block_mul`` applies whole blocks through this table.  A GENERIC
move, and a power word, take ``_left_move``: ``g_j^f`` passes the whole tail
``t`` in ``G_{j+1}`` at once, ``t g_j^f = g_j^f phi^f(t)`` with
``phi(x) = g_j^{-1} x g_j``, applied from cached tables of ``phi^{+-2^k}``
(Vaughan-Lee, "Collection from the left", J. Symb. Comput. 9, 1990; Sims,
*Computation with Finitely Presented Groups*, 1994, ch. 9).  Every product
it collects lies in ``G_{j+1}``, so the recursion rises through the
generator indices and always ends.

At load time conj and conjinv are checked to be inverse maps and every pc
overlap is collected both ways, so an inconsistent presentation is refused
before it could give a wrong product.  Built-in families additionally carry
an analytic table, membership in the isolator of the derived subgroup,
which higher layers use only as an independent oracle for
``structure.Abelianization``; every presentation gets that abelianization,
derived from its relations on first use.

Note on the ``torsion_prefix`` keyword: the declared count refers to the
contiguous block of finite-order generators at the *end* of the basis, so
that an element's leading coordinates are its image in the torsion-free
quotient.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

Element = tuple  # exponent vector, tuple of int
Word = tuple     # tuple of (generator index, exponent) factors


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


@dataclass(frozen=True)
class AnalyticTables:
    """Exact family knowledge for built-in groups, used as an oracle.

    ``in_sqrt_commutator`` decides membership in the isolator of the derived
    subgroup from the family's closed form.
    """

    in_sqrt_commutator: Callable[[Element], bool]


class PcPresentation:
    """A validated power-commutator presentation with derived collection tables."""

    def __init__(self, *, name, gens, orders, power_words, conj, conjinv,
                 torsion_len, blocks, nilpotent, genset, source,
                 family_id=None, analytic=None):
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
        self.family_id = family_id
        self.analytic = analytic
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
        if self.nilpotent and self.blocks:
            for _, l, _, w in relations:
                if any(i < l for i, _ in w):
                    raise PresentationError(
                        f"conjugate of {self.gens[l]} mentions a generator below it; "
                        "not central-series-adapted")
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
        # (j, +-1) -> [table of phi_j^(+-2^k) for k = 0, 1, ...]; a table
        # holds the normal form of phi(g_i) for each i > j, None where fixed
        self._phi = {}
        self._power_vectors = {i: self._vector(w) for i, w in self.power_words.items() if w}
        # a generator is inert when it commutes with every generator
        inert = []
        for i in range(n):
            ok = all(self.conj.get((l, i), ((l, 1),)) == ((l, 1),) for l in range(i + 1, n))
            ok = ok and all(
                self.conj.get((i, j), ((i, 1),)) == ((i, 1),) for j in range(i))
            inert.append(ok)
        self._inert = tuple(inert)
        self._fast_reduce = tuple(
            self.orders[i] is None or i not in self._power_vectors
            for i in range(n))
        # _moves[j]: the (l, action) pairs for l > j whose action is not
        # COMMUTE, in descending l.  Rows are derived by decreasing j, and
        # deriving row j collects above g_j only, so it reads finished rows.
        self._moves = [()] * n
        for j in range(n - 1, -1, -1):
            row = ((l, self._derive_action(l, j)) for l in range(n - 1, j, -1))
            self._moves[j] = tuple((l, a) for l, a in row if a[0] != _COMMUTE)
        self._moves = tuple(self._moves)

    def _derive_action(self, l, j):
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
            # a correction with a power word leaves the fast path anyway
            if all(self._inert[k] and self._fast_reduce[k] for k, _ in zeta):
                return (_CENTRAL, zeta)
        return (_GENERIC,)

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
        """Multiply the normal form in ``v`` by ``g_j^f``, in place."""
        if f == 0:
            return
        if self._fast_reduce[j]:
            flips = corr = None
            for l, a in self._moves[j]:
                e = v[l]
                if not e:
                    continue
                kind = a[0]
                if kind == _SIGN:
                    if f & 1:
                        if flips is None:
                            flips = []
                        flips.append(l)
                elif kind == _CENTRAL:
                    if corr is None:
                        corr = {}
                    for idx, coef in a[1]:
                        corr[idx] = corr.get(idx, 0) + coef * e * f
                else:
                    break
            else:
                # every move is fast, so v may change now
                e = v[j] + f
                m = self.orders[j]
                if m is not None:
                    e %= m
                v[j] = e
                if flips:
                    for l in flips:
                        v[l] = -v[l]
                if corr:
                    for idx, val in corr.items():
                        e = v[idx] + val
                        m = self.orders[idx]
                        if m is not None:
                            e %= m
                        v[idx] = e
                return
        self._left_move(v, j, f)

    def _left_move(self, v, j, f):
        """Multiply ``v`` by ``g_j^f`` in one step.

        With v = (v_<j, v_j, t) and the tail t in G_{j+1} = <g_{j+1}, ...>,
        v * g_j^f = (v_<j, v_j + f) * phi_j^f(t), where phi_j(x) = g_j^-1 x g_j.
        phi_j^f is applied as the tables of phi_j^(+-2^k) for the set bits of
        |f|; the tables are squared on first need and cached.  For g_j of
        finite order m_j, v_j + f = q*m_j + e leaves g_j^e, and
        g_j^(q*m_j) = w_j^q, with w_j the power word, joins the tail in front.
        """
        tables = self._phi_tables(j, 1 if f > 0 else -1)
        t = [0] * (j + 1) + v[j + 1:]
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
                last = tables[-1]
                tables.append([None if img is None
                               else tuple(self._apply_table(last, img, j))
                               for img in last])
        e = v[j] + f
        m = self.orders[j]
        if m is not None:
            q, e = divmod(e, m)
            w = self._power_vectors.get(j)
            if q and w:
                t, tail = self._pow_vector(w, q), t
                self._mul_into(t, tail)
        v[j] = e
        v[j + 1:] = t[j + 1:]

    def _phi_tables(self, j, sign):
        tables = self._phi.get((j, sign))
        if tables is None:
            table = [None] * self.n
            for (l, k), w in (self.conj if sign > 0 else self.conjinv).items():
                if k == j and w != ((l, 1),):
                    table[l] = tuple(self._vector(w))
            tables = self._phi[(j, sign)] = [table]
        return tables

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
        """x^k by binary powering.  ``_left_move`` passes x in G_{j+1} only,
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

    def multiply(self, x, y) -> Element:
        v = list(x)
        for j, e in enumerate(y):
            if e:
                self._block_mul(v, j, e)
        return tuple(v)

    def inverse(self, x) -> Element:
        return tuple(self._inverse_vector(x))

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

    def order_of(self, x, bound) -> Optional[int]:
        """Smallest 1 <= k <= bound with x^k = e, or None."""
        acc = x
        for k in range(1, bound + 1):
            if acc == self.identity:
                return k
            acc = self.multiply(acc, x)
        return None

    def __repr__(self):
        return f"PcPresentation({self.name!r}, gens={self.gens})"


# -- parsing -----------------------------------------------------------


def parse_presentation(text, *, family_id=None, analytic=None) -> PcPresentation:
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
        nilpotent=nilpotent, genset=(), source=text,
        family_id=family_id, analytic=analytic)
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


def _zn_analytic(n):
    zero = (0,) * n
    return AnalyticTables(in_sqrt_commutator=lambda x: tuple(x) == zero)


_HEISENBERG_ANALYTIC = AnalyticTables(
    in_sqrt_commutator=lambda x: x[0] == 0 and x[1] == 0)

_KLEIN_ANALYTIC = AnalyticTables(in_sqrt_commutator=lambda x: x[0] == 0)


def _zn_cross_cyclic_analytic(n):
    return AnalyticTables(
        in_sqrt_commutator=lambda x: all(e == 0 for e in x[:n]))


def _combine_analytic(left, right, nl):
    if left is None or right is None:
        return None
    return AnalyticTables(
        in_sqrt_commutator=lambda x: (left.in_sqrt_commutator(x[:nl])
                                      and right.in_sqrt_commutator(x[nl:])))


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
    nl = left.n
    lines = [f"group {name or left.name + 'x' + right.name}",
             f"nilpotent {'true' if left.nilpotent and right.nilpotent else 'false'}",
             f"torsion_prefix {left.torsion_len + right.torsion_len}"]
    for p, names in ((left, dict(zip(left.gens, left.gens))),
                     (right, rename)):
        for i, s in enumerate(p.gens):
            m = p.orders[i]
            lines.append(f"gen {names[s]} order {'inf' if m is None else m}")
    for p, names, off in ((left, left.gens, 0), (right, [rename[s] for s in right.gens], nl)):
        for i, w in p.power_words.items():
            lines.append(f"pow {names[i]} = {_word_text(w, names)}")
        for (l, j), w in p.conj.items():
            lines.append(f"conj {names[l]} by {names[j]} = {_word_text(w, names)}")
        for (l, j), w in p.conjinv.items():
            lines.append(f"conjinv {names[l]} by {names[j]} = {_word_text(w, names)}")
    # blocks must cover every infinite-order generator, so only when each
    # factor with one declares them
    if all(p.blocks or None not in p.orders for p in (left, right)):
        for p, names in ((left, left.gens), (right, [rename[s] for s in right.gens])):
            for b in p.blocks:
                lines.append("block " + " ".join(names[i] for i in b))
    words = []
    for v in left.genset:
        words.append(_vector_text(v, left.gens))
    rnames = [rename[s] for s in right.gens]
    for v in right.genset:
        words.append(_vector_text(v, rnames))
    if words:
        lines.append("genset " + " ".join(words))
    src = "\n".join(lines) + "\n"
    fam = f"direct_product({left.family_id},{right.family_id})"
    return parse_presentation(
        src, family_id=fam,
        analytic=_combine_analytic(left.analytic, right.analytic, nl))


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
        return parse_presentation(_zn_source(n), family_id=f"zn:{n}",
                                  analytic=_zn_analytic(n))
    if name == "heisenberg":
        return parse_presentation(_HEISENBERG_SOURCE, family_id="heisenberg",
                                  analytic=_HEISENBERG_ANALYTIC)
    if name == "klein_bottle":
        return parse_presentation(_KLEIN_SOURCE, family_id="klein_bottle",
                                  analytic=_KLEIN_ANALYTIC)
    if name == "zn_cross_cyclic":
        n = params.get("n", 1)
        m = params.get("m", 2)
        if not isinstance(n, int) or n < 0:
            raise PresentationError("zn_cross_cyclic needs n >= 0")
        if not isinstance(m, int) or m < 2:
            raise PresentationError("zn_cross_cyclic needs m >= 2")
        return parse_presentation(
            _zn_cross_cyclic_source(n, m), family_id=f"zn_cross_cyclic:{n},{m}",
            analytic=_zn_cross_cyclic_analytic(n))
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
