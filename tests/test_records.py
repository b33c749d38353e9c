"""The result records and the two value types are plain classes: their
constructors keep the positional order and defaults they were written
with, a record's mutable default is fresh per object, and only the value
types compare and hash by value."""

from nilcay.autlab import AffineVerdict
from nilcay.cayley import GeodesicPath, MapVerdict
from nilcay.constructions import BallMap, LabeledGraph
from nilcay.reporting import Report


def test_report_defaults_are_fresh_per_report():
    a, b = Report("claim", "pass"), Report("claim", "pass")
    assert a.ok is None
    a.witnesses.append(1)
    a.parameters["k"] = 1
    a.notes.append("n")
    assert (b.witnesses, b.parameters, b.notes) == ([], {}, [])
    assert Report("c", "fail", False, [2], {"k": 2}, ["m"]).to_dict() == {
        "claim": "c", "verdict": "fail", "ok": False, "witnesses": [2],
        "parameters": {"k": 2}, "notes": ["m"]}


def test_ball_map_notes_are_fresh_per_map():
    a, b = BallMap(None, None, {}), BallMap(None, None, {})
    a.notes.append("n")
    assert b.notes == []
    assert BallMap("s", "t", {1: 2}, ["kept"]).notes == ["kept"]


def test_verdicts_keep_their_positional_order():
    v = AffineVerdict(False, (0, 1), None, reason="why")
    assert (v.affine, v.translation, v.alpha_on_generators, v.witness,
            v.reason, v.alpha_on_pc_generators) == (False, (0, 1), None, None,
                                                    "why", None)
    assert not v and AffineVerdict(True, (0,), {}, ("w",), "", ((1,),))
    m = MapVerdict(False, "why", ((0, 1), (1, 0)))
    assert (m.ok, m.reason, m.witness) == (False, "why", ((0, 1), (1, 0)))
    assert not m and MapVerdict(True) and MapVerdict(True).reason == ""


def test_records_compare_by_identity():
    assert Report("c", "pass") != Report("c", "pass")
    assert MapVerdict(True) != MapVerdict(True)


def test_value_types_are_equal_and_hash_equal_by_value():
    a = GeodesicPath((0, 0), ((0, 1), (1, 0)))
    b = GeodesicPath((0, 0), ((0, 1), (1, 0)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != GeodesicPath((0, 0), ((1, 0), (0, 1)))
    assert a != ((0, 0), ((0, 1), (1, 0)))
    edges = frozenset({frozenset((0, 1))})
    g, h = LabeledGraph((0, 1), edges), LabeledGraph((0, 1), frozenset(edges))
    assert g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != LabeledGraph((0, 1), frozenset())
    assert g.neighbor_set(0) == {1} and g.edge_count() == 1
