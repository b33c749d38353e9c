"""Reference oracles and extra presentations for the test suite.

``letter_collect`` is the letter-by-letter collector: slow but free of the
assumptions behind ``PcPresentation``'s action table and collection from the
left, so the tests compare products against it.
"""

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
