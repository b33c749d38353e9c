"""The seeded draws of the acceptance suites.

``suites._random_elements`` draws through ``getrandbits`` in batches; its
elements and the generator state it leaves must be those of one
``randint``/``randrange`` call per coordinate, or every seeded report would
change.  The comparison is with the running Python's own ``random`` module,
so a change to the standard library's stream fails here.
"""

import random

import pytest

from nilcay import pcgroup, suites


def _stdlib_draws(p, rng, count, span):
    return [tuple(rng.randint(-span, span) if m is None else rng.randrange(m)
                  for m in p.orders) for _ in range(count)]


@pytest.mark.parametrize("count", [1, 255, 256, 257, 3 * 10**4])
@pytest.mark.parametrize("span", [10, 20])
@pytest.mark.parametrize("fid", pcgroup.ACCEPTANCE_FAMILY_IDS)
def test_batched_draws_are_the_stdlib_stream(fid, span, count):
    p = pcgroup.from_id(fid)
    ours, theirs = (random.Random(f"draws:{fid}:{span}:{count}") for _ in "ab")
    got = list(suites._random_elements(p, ours, count, span))
    assert got == _stdlib_draws(p, theirs, count, span)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("fid", ["heisenberg", "heisenberg_z3"])
def test_draws_go_one_round_at_a_time(fid):
    """The first element costs one round of ``_CHUNK`` elements where every
    coordinate has one bound, and one element where the bounds are mixed."""
    p = pcgroup.from_id(fid)
    ours, theirs = random.Random(fid), random.Random(fid)
    draws = suites._random_elements(p, ours, 10 * suites._CHUNK, 20)
    first = next(draws)
    ahead = suites._CHUNK if len(set(p.orders)) == 1 else 1
    assert [first] == _stdlib_draws(p, theirs, ahead, 20)[:1]
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("fid", ["heisenberg", "heisenberg_z3"])
def test_a_failing_law_names_the_stdlib_triple(fid, monkeypatch):
    """A multiply that is wrong on one pair of the 4,321st triple: the
    witness is that triple as per-element stdlib draws give it."""
    seed, samples, index = 3, 6000, 4321
    p = pcgroup.from_id(fid)
    triples = _stdlib_draws(p, random.Random(f"{seed}:laws:{fid}"),
                            3 * samples, 20)
    x, y, z = triples[3 * index:3 * index + 3]
    load = pcgroup.from_id

    def broken_from_id(group_id):
        q = load(group_id)
        right = q.multiply

        def multiply(u, v):
            w = right(u, v)
            return (w[0] + 1,) + w[1:] if (u, v) == (x, y) else w

        q.multiply = multiply
        return q

    monkeypatch.setattr(pcgroup, "from_id", broken_from_id)
    report = suites.group_laws(seed=seed, samples=samples, group_filter=fid)
    assert not report.ok
    assert report.witnesses == [{"family": fid, "law": "associativity",
                                 "triple": [x, y, z]}]
