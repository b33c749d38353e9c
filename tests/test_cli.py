"""CLI driver: subcommands, exit codes, exports, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nilcay import autlab, cayley, cli, constructions, structure
from nilcay.cayley import GenSet, export_vertex_map, generate_ball
from nilcay.pcgroup import from_id
from reference import SOL_SOURCE


def run(argv):
    return cli.main(argv)


def read_json(path):
    return json.loads(path.read_text())


def test_ball_export(tmp_path, capsys):
    out = tmp_path / "ball.tsv"
    assert run(["ball", "--group", "heisenberg", "--radius", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# presentation: Heisenberg"
    assert any("\t" in ln for ln in lines[3:])


def test_ball_distances_export(tmp_path):
    out = tmp_path / "dist.tsv"
    assert run(["ball", "--group", "z2", "--radius", "2",
                "--distances", str(out)]) == 0
    assert "0,0\t0" in out.read_text()


def test_normality_klein(tmp_path):
    out = tmp_path / "norm.json"
    code = run(["normality", "--group", "klein_bottle", "--radius", "4",
                "--stability", "2", "--out", str(out)])
    assert code == 0  # the verdict was delivered
    doc = read_json(out)
    assert doc["result"]["verdict"] == "non-normal"
    assert doc["presentation"]["sha256"]
    assert doc["tool"]["version"]


def test_normality_klein_at_radius_two_is_non_normal(capsys):
    assert run(["normality", "--group", "klein_bottle", "--radius", "2",
                "--stability", "2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["verdict"], result["ok"]) == ("non-normal", True)
    assert result["witnesses"][0]["affine_failure"]["witness"] == [
        "conj", 1, 0]


def test_normality_on_a_proper_subgroup_is_inconclusive(capsys):
    """Every first coordinate is even: S generates a subgroup of index 2."""
    assert run(["normality", "--group", "heisenberg", "--radius", "2",
                "--stability", "1",
                "--genset=-2,0,0;-2,1,0;0,-2,-1;0,2,1;2,-1,2;2,0,0"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["verdict"], result["ok"]) == ("inconclusive", None)
    assert "pc generator a is outside <S>[G, G], which has index 2" in \
        result["notes"][0]


def test_normality_on_a_proper_subgroup_of_the_klein_bottle_is_inconclusive(
        capsys):
    """<a^2, b> has index 2; the Klein bottle is not nilpotent, yet the
    abelianization test refutes generation before any BFS."""
    assert run(["normality", "--group", "klein_bottle", "--radius", "2",
                "--stability", "1", "--genset", "2,0;-2,0;0,1;0,-1",
                "--budget", "100"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["verdict"], result["ok"]) == ("inconclusive", None)
    assert "pc generator a is outside <S>[G, G], which has index 2" in \
        result["notes"][0]


def test_the_search_cap_names_how_far_it_got(capsys, monkeypatch):
    """Heisenberg (3,1) takes 320 search nodes; a guard of 200 stops it at
    the second base point of 52, after the first strong generator."""
    monkeypatch.setattr(autlab, "SEARCH_NODE_GUARD", 200)
    note = ("search node guard 200 exceeded at base point 2 of 52 (the base "
            "is processed from its last point); strong generators found so "
            "far: 1")
    assert run(["normality", "--group", "heisenberg", "--radius", "3",
                "--stability", "1"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["verdict"], result["ok"]) == ("inconclusive", None)
    assert result["notes"] == [note]
    assert run(["autos", "--group", "heisenberg", "--radius", "3",
                "--stability", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["result"] == {"error": note}


@pytest.mark.parametrize("budget", ["50", "200"])
def test_normality_honours_the_budget(capsys, budget):
    # B(3) has 53 vertices and B(5) 299: 50 stops the first ball, 200 the
    # stability ball B(r + t)
    assert run(["normality", "--group", "heisenberg", "--radius", "3",
                "--stability", "2", "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.splitlines()[0])
    assert err["kind"] == "BallBudgetError"
    assert f"vertex budget {budget}" in err["error"]


@pytest.mark.parametrize("orbit", [[], ["--orbit", "1,0,0"]])
def test_autos_honours_the_budget(capsys, orbit):
    assert run(["autos", "--group", "heisenberg", "--radius", "3",
                "--budget", "200", *orbit]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["kind"] == "BallBudgetError"
    assert err["error"] == "ball exceeded vertex budget 200 at radius 5"


@pytest.mark.parametrize("radius", ["0", "1"])
def test_normality_below_radius_two_is_inconclusive(capsys, radius):
    assert run(["normality", "--group", "z2", "--radius", radius,
                "--stability", "1"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["verdict"] == "inconclusive" and result["ok"] is None
    assert "stable_automorphisms" not in result["parameters"]
    assert result["notes"] == [f"radius {radius} is below 2: the interior of "
                               f"B({radius}) is {{e}}, so the affine check "
                               "would check nothing"]


@pytest.mark.parametrize("command", [["autos"], ["autos", "--orbit", "0,0"],
                                     ["normality"]])
@pytest.mark.parametrize("radius", ["0", "1", "2"])
@pytest.mark.parametrize("stability", ["0", "-3"])
def test_stability_below_one_exits_two(capsys, command, radius, stability):
    assert run([*command, "--group", "z2", "--radius", radius,
                "--stability", stability]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.splitlines()[0])
    assert err == {"error": "stability margin must be at least 1",
                   "kind": "ValueError"}


def test_distance_and_unknown(tmp_path):
    out = tmp_path / "d.json"
    assert run(["distance", "--group", "z2", "--radius", "8",
                "--from", "0,0", "--to", "3,4", "--out", str(out)]) == 0
    assert read_json(out)["result"]["dist"] == 7
    assert run(["distance", "--group", "z2", "--radius", "2",
                "--from", "0,0", "--to", "5,5", "--out", str(out)]) == 0
    assert read_json(out)["result"]["dist"] is None


@pytest.mark.parametrize("argv,text", [
    (["distance", "--group", "z2", "--radius", "8", "--from", "0,0",
      "--to", "3,4"], "0,0\t3,4\t7\n"),
    (["geodesics", "--group", "z2", "--radius", "4", "--from", "0,0",
      "--to", "2,1"], "count\t3\n0,1\t1,0\t1,0\n1,0\t0,1\t1,0\n"
                     "1,0\t1,0\t0,1\n"),
])
def test_tsv_goes_to_out(tmp_path, capsys, argv, text):
    out = tmp_path / "out.tsv"
    assert run([*argv, "--format", "tsv", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == text


def test_geodesics_outside_the_ball_exit_one(capsys):
    """A ball too small to certify the distance is a cap that was hit, not
    malformed input: exit 1, nothing on stdout, a JSON error naming the
    radius.  ``distance`` answers null for the same pair."""
    assert run(["geodesics", "--group", "z2", "--radius", "4", "--from", "0,0",
                "--to", "5,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0]) == {
        "error": "distance between the endpoints is not certifiable in the "
                 "ball of radius 4",
        "kind": "UncertifiedDistanceError", "radius": 4}
    assert run(["distance", "--group", "z2", "--radius", "4", "--from", "0,0",
                "--to", "5,0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["dist"] is None


def test_geodesics_count(tmp_path):
    out = tmp_path / "g.json"
    assert run(["geodesics", "--group", "z2", "--radius", "4", "--from", "0,0",
                "--to", "2,1", "--count-only", "--out", str(out)]) == 0
    assert read_json(out)["result"]["count"] == 3


def test_distortion_verdict_and_table(tmp_path):
    out = tmp_path / "v.json"
    table = tmp_path / "t.tsv"
    assert run(["distortion", "--group", "heisenberg", "--element", "0,0,1",
                "--kmax", "16", "--table", str(table), "--out", str(out)]) == 0
    assert read_json(out)["result"]["verdict"] == "distorted"
    rows = table.read_text().splitlines()
    assert rows[0] == "k\tdist\tratio"
    assert rows[1] == "1\t4\t4"
    # at kmax 1 the profile of t (order 2) is one ratio 1, which looks
    # undistorted; powers of t are bounded, so no run can certify that
    assert run(["distortion", "--group", "zxz2", "--element", "0,1",
                "--kmax", "1", "--out", str(out)]) == 1
    result = read_json(out)["result"]
    assert (result["verdict"], result["ok"]) == ("inconclusive", None)
    assert result["notes"] == [
        "the profile looks undistorted, but g has finite order, so its powers "
        "are bounded; kmax is too small to show it"]


def test_biorder_commands(tmp_path):
    out = tmp_path / "b.json"
    assert run(["biorder", "--group", "heisenberg", "--max",
                "--out", str(out)]) == 0
    assert read_json(out)["result"]["max_generator"] == [1, 0, 0]
    assert run(["biorder", "--group", "z2", "--compare", "0,1", "1,0",
                "--out", str(out)]) == 0
    assert read_json(out)["result"]["verdict"] == "less"
    # torsion generator fails convexity: verdict failure exit code
    assert run(["biorder", "--group", "zxz2", "--convexity", "0,1",
                "--kmax", "4", "--out", str(out)]) == 1


def test_structure_commands(tmp_path):
    out = tmp_path / "s.json"
    assert run(["structure", "--group", "zxz2", "--torsion",
                "--out", str(out)]) == 0
    assert read_json(out)["result"]["order"] == 2
    assert run(["structure", "--group", "heisenberg", "--conjugator",
                "1,0,0", "1,0,1", "--radius", "4", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["result"]["witnesses"][0]["conjugator"] == [0, 1, 0]
    # a^-k g b^k = g for every k: no power is checked, so nothing echoes kmax
    assert "kmax" not in doc["parameters"]
    assert doc["result"]["parameters"] == {"a": [1, 0, 0], "b": [1, 0, 1]}
    assert run(["structure", "--group", "zxz2", "--rank",
                "--out", str(out)]) == 0
    # a finite group: G/N is trivial, of rank 0
    assert run(["structure", "--group", "zn_cross_cyclic:0,3", "--rank",
                "--out", str(out)]) == 0
    assert [read_json(out)["result"]["parameters"][k]
            for k in ("rank_G", "rank_N", "rank_quotient")] == [0, 0, 0]
    # each mode runs its own handler
    for flag in ("--rank", "--torsion", "--zdagger", "--isolator"):
        assert run(["structure", "--group", "zxz2", flag, "--radius", "2",
                    "--out", str(out)]) == 0
        assert read_json(out)["command"] == "structure." + flag[2:]


def test_presentation_outside_standard_pc_form_exits_2_at_parse(tmp_path, capsys):
    # the conjugate of b by a mentions a itself: outside standard pc form
    src = tmp_path / "x.pc"
    src.write_text("group X\nnilpotent false\ntorsion_prefix 0\n"
                   "gen a order inf\ngen b order inf\n"
                   "conj b by a = a*b\nconjinv b by a = a^-1*b\n"
                   "genset a a^-1 b b^-1\n")
    t0 = time.perf_counter()
    assert run(["ball", "--group", str(src), "--radius", "3"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["kind"] == "PresentationError"
    assert "conj b by a = a*b is not in standard pc form" in err["error"]


def test_a_klein_bottle_flagged_nilpotent_exits_2(tmp_path, capsys):
    # b^a = b^-1: the pc series is not central, so the flag is refused
    src = tmp_path / "klein.pc"
    src.write_text("group K\nnilpotent true\ntorsion_prefix 0\n"
                   "gen a order inf\ngen b order inf\n"
                   "conj b by a = b^-1\nconjinv b by a = b^-1\n"
                   "block a\nblock b\ngenset a a^-1 b b^-1\n")
    assert run(["biorder", "--group", str(src), "--compare", "0,0", "0,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err.splitlines()[0])
    assert err["kind"] == "PresentationError"
    assert err["error"].startswith("conj b by a = b^-1 does not fit 'nilpotent true'")
    assert "refine the series to a central one" in err["error"]


def test_rank_of_a_polycyclic_user_presentation(tmp_path):
    src = tmp_path / "sol.pc"
    src.write_text(SOL_SOURCE)
    out = tmp_path / "rank.json"
    assert run(["structure", "--group", str(src), "--rank", "--out", str(out)]) == 0
    assert read_json(out)["result"]["parameters"]["rank_G"] == 3


def test_genset_vector_outside_the_normal_form_exits_2(capsys):
    # t has order 2, so 0,3 is no normal form; its inverse, collected, is 0,1
    assert run(["ball", "--group", "zxz2", "--genset", "1,0;-1,0;0,3",
                "--radius", "2"]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err == {"kind": "ValueError",
                   "error": "generating-set element 0,3 is not a normal form: "
                            "coordinate 1 (t) must lie in [0, 2)"}


def test_inconsistent_presentation_exits_2(tmp_path, capsys):
    # [b, a] = c and [c, e] = d, all else commuting, breaks the Jacobi identity
    src = tmp_path / "jacobi.pc"
    src.write_text("group J\nnilpotent true\ntorsion_prefix 0\n"
                   + "".join(f"gen {s} order inf\n" for s in "abecd")
                   + "conj b by a = b*c\nconjinv b by a = b*c^-1\n"
                   "conj c by e = c*d\nconjinv c by e = c*d^-1\n"
                   "block a b e\nblock c\nblock d\ngenset a b e\n")
    assert run(["ball", "--group", str(src), "--radius", "3"]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["kind"] == "PresentationError"
    assert "(e*b)*(a) and (e)*(b*a)" in err["error"]


def test_construct_commands(tmp_path, capsys):
    # --out holds the exported map, and the report goes to stdout
    for flag, build in (("--klein-flip", constructions.klein_flip_map),
                        ("--klein-grid", constructions.klein_grid_map)):
        exported, direct = tmp_path / "exported.tsv", tmp_path / "direct.tsv"
        assert run(["construct", flag, "6", "--out", str(exported)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["adjacency_ok"] is True
        export_vertex_map(build(6).mapping, str(direct))
        assert exported.read_text() == direct.read_text()
    out = tmp_path / "c.json"
    assert run(["construct", "--group", "zxz2", "--fsf",
                "--out", str(out)]) == 0
    assert sorted(read_json(out)["result"]["genset"]) == [
        [-1, 0], [-1, 1], [1, 0], [1, 1]]
    assert run(["construct", "--group", "zxz2", "--wreath-fibers", "2",
                "--radius", "2", "--out", str(out)]) == 0
    doc = read_json(out)
    assert (doc["command"], doc["result"]) == (
        "construct.wreath", {"edges": 36, "vertices": 16})


def test_exported_klein_flip_is_not_affine(tmp_path, capsys):
    flip = tmp_path / "flip.tsv"
    assert run(["construct", "--klein-flip", "6", "--out", str(flip)]) == 0
    capsys.readouterr()
    assert run(["induced", "--group", "klein_bottle", "--radius", "6",
                "--map", str(flip)]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["verdict"] == "fail"
    assert result["witnesses"][0]["witness"] == ["conj", 1, 0]
    assert result["witnesses"][0]["reason"] == (
        "the images of the pc generators break the relation conj b by a")


def test_autos_commands(tmp_path):
    out = tmp_path / "a.json"
    assert run(["autos", "--group", "z2", "--radius", "3", "--stability", "2",
                "--out", str(out)]) == 0
    assert read_json(out)["result"]["count"] == 8
    assert run(["autos", "--group", "z2", "--radius", "3", "--stability", "2",
                "--orbit", "1,0", "--out", str(out)]) == 0
    assert len(read_json(out)["result"]["orbit"]) == 4


def test_autos_reports_an_order_past_two_to_the_63(capsys):
    """heisenberg_z3 FSF (3,1): twin classes of size 3 make the order a
    42-digit integer, which the report carries exactly."""
    assert run(["autos", "--group", "heisenberg_z3", "--genset", "fsf",
                "--radius", "3", "--stability", "1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {"count": 465570015819704098930448409862964904984576}


def test_induced_command(tmp_path):
    zx = from_id("zxz2")
    F = structure.torsion_subgroup(zx)
    gens = constructions.fsf_generating_set(
        zx, F, GenSet(zx, [(1, 0), (-1, 0)])).genset
    ball = generate_ball(zx, gens, 5)
    swap = constructions.twin_swap_map(ball, (3, 0), (3, 1))
    mp = tmp_path / "swap.tsv"
    export_vertex_map(swap, mp)
    out = tmp_path / "ind.json"
    assert run(["induced", "--group", "zxz2", "--genset", "fsf",
                "--radius", "5", "--map", str(mp), "--out", str(out)]) == 0
    assert read_json(out)["result"]["verdict"] == "pass"


def test_induced_on_a_proper_subgroup_is_inconclusive(tmp_path):
    """<x^2, t> has index 2 in zxz2, and so has its image in the quotient Z."""
    zx = from_id("zxz2")
    S = GenSet(zx, [(2, 0), (-2, 0), (0, 1)])
    ball = generate_ball(zx, S, 3)
    mp = tmp_path / "identity.tsv"
    export_vertex_map({v: v for v in ball.vertices}, mp)
    out = tmp_path / "ind.json"
    assert run(["induced", "--group", "zxz2", "--genset", "2,0;-2,0;0,1",
                "--radius", "3", "--map", str(mp), "--out", str(out)]) == 1
    result = read_json(out)["result"]
    assert (result["verdict"], result["ok"]) == ("inconclusive", None)
    assert result["notes"] == [
        "the generating set generates a proper subgroup of Z^1xC2/torsion: pc "
        "generator x1 is outside <S>[G, G], which has index 2 in G"]


@pytest.mark.parametrize("group,radius", [
    ("zxz2", 0), ("zxz2", 1), ("heisenberg_z3", 0), ("heisenberg_z3", 1)])
def test_induced_below_radius_2_is_inconclusive(tmp_path, group, radius):
    # the interior of B(r) is at most {e}: the affine check on the torsion
    # quotients would check nothing
    p = from_id(group)
    ball = generate_ball(p, GenSet(p, p.genset), radius)
    mp = tmp_path / "identity.tsv"
    export_vertex_map({v: v for v in ball.vertices}, mp)
    out = tmp_path / "ind.json"
    assert run(["induced", "--group", group, "--radius", str(radius),
                "--map", str(mp), "--out", str(out)]) == 1
    result = read_json(out)["result"]
    assert (result["verdict"], result["ok"], result["witnesses"]) == \
        ("inconclusive", None, [])
    assert result["notes"] == [
        f"radius {radius} is below 2: the interior of B({radius}) is at most "
        "{e}, so the affine check would check nothing"]


def test_induced_partial_map_is_usage_error(tmp_path, capsys):
    mp = tmp_path / "partial.tsv"
    mp.write_text("0\t0\n")
    assert run(["induced", "--group", "z", "--radius", "3",
                "--map", str(mp)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["kind"] == "MapError" and "not total" in err["error"]


@pytest.mark.parametrize("argv", [
    ["ball", "--group", "DIR", "--radius", "1"],
    ["induced", "--group", "z", "--radius", "2", "--map", "DIR"],
    ["verify", "--suite", "klein_pair", "--out", "DIR"],
], ids=["ball --group", "induced --map", "verify --out"])
def test_a_directory_in_place_of_a_file_exits_2(tmp_path, capsys, argv):
    """A directory given as a presentation, a vertex map or a report file
    is an input error: exit 2 with the JSON error, not a traceback."""
    assert run([str(tmp_path) if a == "DIR" else a for a in argv]) == 2
    err = [json.loads(line) for line in capsys.readouterr().err.splitlines()
           if line.startswith("{")]
    assert [e["kind"] for e in err] == ["IsADirectoryError"]
    assert str(tmp_path) in err[0]["error"]


def test_map_vector_outside_the_normal_form_exits_2(tmp_path, capsys):
    # t has order 2, so 0,3 is no element; the map must not reach a verdict
    mp = tmp_path / "m.tsv"
    mp.write_text("0,1\t0,3\n")
    assert run(["induced", "--group", "zxz2", "--radius", "1",
                "--map", str(mp)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err == {"kind": "ValueError",
                   "error": "map image 0,3 is not a normal form: "
                            "coordinate 1 (t) must lie in [0, 2)"}
    mp.write_text("0,1\t0,1\n0,1,0\t0,1\n")
    assert run(["induced", "--group", "zxz2", "--radius", "1",
                "--map", str(mp)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err["error"] == "map vertex 0,1,0 has length 3, expected 2"


@pytest.mark.parametrize("line,shown", [
    ("0,1\t0,1\t3", "'0,1\\t0,1\\t3'"),  # three fields
    ("0,1\t0,x", "'0,1\\t0,x'"),         # a field that is no integer
])
def test_malformed_map_line_exits_2_naming_the_line(tmp_path, capsys, line, shown):
    mp = tmp_path / "m.tsv"
    mp.write_text(f"# a comment\n0,0\t0,0\n{line}\n")
    assert run(["induced", "--group", "zxz2", "--radius", "1",
                "--map", str(mp)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[0])
    assert err == {"kind": "ValueError",
                   "error": "map line 3: expected vertex<TAB>image, each a "
                            f"comma-separated list of integers, got {shown}"}


# one argv per command that writes no TSV; each parses without --format
NO_FORMAT = (
    ["ball", "--group", "z2"],
    ["distortion", "--group", "z2", "--element", "1,0"],
    ["biorder", "--group", "z2", "--max"],
    ["structure", "--group", "zxz2", "--torsion"],
    ["construct", "--klein-grid", "2"],
    ["autos", "--group", "z2"],
    ["normality", "--group", "z2"],
    ["induced", "--group", "z", "--map", "m.tsv"],
)


@pytest.mark.parametrize("argv,code,text", [
    *[([*argv, "--format", "json"], 2, "unrecognized arguments: --format json")
      for argv in NO_FORMAT],
    (["distance", "--group", "z2", "--radius", "8", "--from", "0,0",
      "--to", "3,4", "--format", "tsv"], 0, "0,0\t3,4\t7\n"),
    (["geodesics", "--group", "z2", "--radius", "4", "--from", "0,0",
      "--to", "2,1", "--format", "tsv"], 0,
     "count\t3\n0,1\t1,0\t1,0\n1,0\t0,1\t1,0\n1,0\t1,0\t0,1\n"),
    (["biorder", "--group", "heisenberg"], 2,
     "one of the arguments --compare --max --convexity is required"),
    (["biorder", "--group", "heisenberg", "--max", "--compare", "1,0,0",
      "0,1,0"], 2, "argument --compare: not allowed with argument --max"),
    (["structure", "--group", "zxz2"], 2, "one of the arguments --torsion "
     "--zdagger --isolator --conjugator --rank is required"),
    (["structure", "--group", "zxz2", "--torsion", "--rank"], 2,
     "argument --rank: not allowed with argument --torsion"),
    (["structure", "--group", "heisenberg", "--conjugator", "1,0,0", "1,0,1",
      "--kmax", "8"], 2, "unrecognized arguments: --kmax 8"),
    (["construct"], 2, "one of the arguments --klein-grid --klein-flip --fsf "
     "--lift --wreath-fibers is required"),
    (["construct", "--klein-grid", "2", "--klein-flip", "2"], 2,
     "argument --klein-flip: not allowed with argument --klein-grid"),
    *(([command, "--group", "z2", "--from", "0,0", "--to", "1,0",
        "--format", "tsv", "--pretty"], 2,
       "argument --pretty: not allowed with argument --format tsv")
      for command in ("distance", "geodesics")),
])
def test_every_accepted_option_is_read(capsys, argv, code, text):
    """--format only where a TSV is written, --pretty only with JSON, and
    one mode per command; the rest exits 2 at parse time with argparse's
    message."""
    if argv[-2:] == ["--format", "json"]:
        cli.build_parser().parse_args(argv[:-2])
    assert run(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out == text
    else:
        assert captured.out == ""
        assert captured.err.endswith(f" error: {text}\n")


def test_usage_errors():
    assert run(["distance", "--group", "no_such_group", "--radius", "2",
                "--from", "0", "--to", "1"]) == 2
    assert run(["biorder", "--group", "klein_bottle", "--max"]) == 2
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["frobnicate"])


def test_the_parser_is_built_once_and_a_usage_error_leaves_it_unchanged(capsys):
    argv = ["normality", "--group", "klein_bottle", "--radius", "2",
            "--stability", "2"]
    cli.build_parser.cache_clear()
    assert run(argv) == 0
    fresh = capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    assert run(["normality", "--group", "klein_bottle", "--radius", "x"]) == 2
    assert capsys.readouterr().out == ""
    assert run(argv) == 0
    assert capsys.readouterr().out == fresh


# one accepted command line per subcommand
SAMPLE_ARGV = {
    "ball": ["--group", "z2"],
    "distance": ["--group", "z2", "--from", "0,0", "--to", "1,0"],
    "geodesics": ["--group", "z2", "--from", "0,0", "--to", "1,0", "--count-only"],
    "distortion": ["--group", "z2", "--element", "1,0", "--kmax", "4"],
    "biorder": ["--group", "z2", "--compare", "1,0", "0,1"],
    "structure": ["--group", "z2", "--conjugator", "1,0", "1,0"],
    "construct": ["--group", "z2", "--wreath-fibers", "2"],
    "autos": ["--group", "z2", "--orbit", "1,0"],
    "normality": ["--group", "z2", "--stability", "1"],
    "induced": ["--group", "z2", "--map", "m.tsv"],
    "verify": ["--suite", "group_laws", "--seed", "3"],
}


def _full_parser_says(capsys, argv):
    """(exit code, stdout, stderr) of the full parser on argv."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_subcommand_alone_parses_as_the_full_parser(capsys, command):
    """``main`` builds only the parser of the subcommand that argv names.
    Its help, its usage errors (those the subcommand reports and those the
    top level reports, with the full usage line) and its namespaces are the
    full parser's."""
    cli.build_parser.cache_clear()
    for argv in ([command, "--help"], [command, "--group"], [command, "--bogus"],
                 [command, "--version"], [command, *SAMPLE_ARGV[command], "extra"]):
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _full_parser_says(capsys, argv)
        assert code in (0, 2) and captured.out + captured.err
    alone = cli.build_parser(command)
    assert cli.build_parser.cache_info().currsize == 2   # this one and the full one
    argv = [command, *SAMPLE_ARGV[command]]
    assert vars(alone.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    other = next(c for c in cli.COMMANDS if c != command)
    with pytest.raises(SystemExit):          # the other subcommands are not built
        alone.parse_args([other, *SAMPLE_ARGV[other]])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h"], ["--version"],
                                  ["frobnicate"], ["--group", "z2", "ball"]])
def test_the_top_level_gets_the_full_parser(capsys, argv):
    cli.build_parser.cache_clear()
    code = run(argv)
    captured = capsys.readouterr()
    assert cli.build_parser.cache_info().currsize == 1
    assert (code, captured.out, captured.err) == _full_parser_says(capsys, argv)


GEODESICS_Z2 = ["geodesics", "--group", "z2", "--from", "0,0", "--to", "2,2"]


@pytest.mark.parametrize("argv", [
    ["ball", "--group", "z2", "--budget", "-5"],
    ["ball", "--group", "z2", "--budget", "0"],
    ["normality", "--group", "heisenberg", "--budget", "0"],
    [*GEODESICS_Z2, "--cap", "-1"],
    [*GEODESICS_Z2, "--cap", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_a_cap_below_one_exits_two_at_parse(capsys, argv):
    """A budget or cap below 1 is malformed input, not a cap that was hit."""
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    option, value = argv[-2:]
    assert captured.err.endswith(
        f" error: argument {option}: must be at least 1, got {value}\n")


def test_a_cap_of_one_is_a_cap(capsys):
    assert run(["geodesics", "--group", "z2", "--from", "0,0", "--to", "1,0",
                "--cap", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameters"]["cap"] == 1 and doc["result"]["count"] == 1
    assert run(["ball", "--group", "z2", "--radius", "1", "--budget", "1"]) == 1


@pytest.mark.parametrize("kmax", ["-3", "0"])
def test_convexity_below_kmax_one_exits_two(capsys, kmax):
    """No power is checked at kmax < 1, so nothing is certified."""
    assert run(["biorder", "--group", "z2", "--convexity", "1,0",
                "--kmax", kmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0]) == {
        "error": "kmax must be at least 1", "kind": "ValueError"}


def test_budget_exhaustion_exit_code(tmp_path):
    assert run(["ball", "--group", "z2", "--radius", "10", "--budget", "10",
                "--out", str(tmp_path / "x.tsv")]) == 1


def _refuse_edge_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Ball with edge rows was built")

    monkeypatch.setattr(cayley.Ball, "__init__", refuse)


FILIFORM_PC = str(Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
                  / "filiform4.pc")


@pytest.mark.parametrize("group,radius", [
    ("heisenberg", "6"), ("klein_bottle", "6"), (FILIFORM_PC, "8"),
    ("zn_cross_cyclic:0,3", "5")])
def test_ball_count_and_distances_build_no_edge_rows(tmp_path, capsys, monkeypatch,
                                                     group, radius):
    """Without --out, ``ball`` counts and exports distances from the
    distance-only BFS: the same summary and the same TSV bytes as the run
    that builds the edge rows for --out."""
    argv = ["ball", "--group", group, "--radius", radius]
    with_edges, without = tmp_path / "with.tsv", tmp_path / "without.tsv"
    assert run([*argv, "--out", str(tmp_path / "g.tsv"),
                "--distances", str(with_edges)]) == 0
    summary = capsys.readouterr().err.splitlines()[0]
    _refuse_edge_rows(monkeypatch)
    assert run([*argv, "--distances", str(without)]) == 0
    assert capsys.readouterr().err.splitlines()[0] == summary
    assert without.read_bytes() == with_edges.read_bytes()
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == json.loads(summary)


@pytest.mark.parametrize("argv,digest", [
    (["--zdagger"], "45bd2cdc3b911f9103652801c557a209a33aebb18cec43511231d4986ca7feee"),
    (["--isolator"], "9c2dd064d2819024638590c139f752bbb5988c0ce0acab92f32ceaac82b30740"),
    (["--conjugator", "1,0,0", "1,0,1"],
     "f2562c60005f86ef3fcf526df5199c9cb7488475be4ba2838c47c78e9c9c9a40"),
], ids=["zdagger", "isolator", "conjugator"])
def test_structure_ball_commands_build_no_edge_rows(capsys, monkeypatch, argv, digest):
    """Z-dagger, the isolator and the conjugator of Heisenberg B(5) read the
    distance-only ball; stdout sha256 measured when they built edge rows."""
    _refuse_edge_rows(monkeypatch)
    assert run(["structure", "--group", "heisenberg", *argv, "--radius", "5"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("argv,code,err", [
    (["ball", "--group", "z2", "--radius", "10", "--budget", "10"], 1,
     {"error": "ball exceeded vertex budget 10 at radius 2",
      "kind": "BallBudgetError"}),
    (["ball", "--group", "z2", "--radius", "-1"], 2,
     {"error": "radius must be nonnegative", "kind": "ValueError"}),
    (["ball", "--group", "z2", "--radius", "0", "--genset", "1,0;0,1"], 2,
     {"error": "generating set is not symmetric (closed under inverses)",
      "kind": "ValueError"}),
    (["distance", "--group", "z2", "--radius", "-1", "--from", "0,0",
      "--to", "1,0"], 2,
     {"error": "radius must be nonnegative", "kind": "ValueError"}),
    (["distance", "--group", "z2", "--radius", "2", "--from", "9,9",
      "--to", "0,0"], 2,
     {"error": "start vertex is not in the ball", "kind": "ValueError"}),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_distance_only_commands_keep_their_errors(capsys, monkeypatch, argv, code,
                                                  err):
    """The exit codes and JSON errors of the edge-building path, pinned
    before ``ball`` and ``distance`` stopped building edge rows."""
    _refuse_edge_rows(monkeypatch)
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0]) == err


def test_abelianized_bound_respects_the_budget(capsys):
    # the abelianized lower bound of (32, 64, 96) in Z^3 needs a ball of
    # radius 192; at this budget it gives up and the profile reports instead
    assert run(["distortion", "--group", "z3", "--element", "1,2,3",
                "--kmax", "32", "--budget", "20000"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["verdict"] == "inconclusive"
    assert result["parameters"]["dists"] == [6, 12, 24, None, None, None]
    assert result["notes"][0] == ("vertex budget 20000 exceeded building B(32); "
                                  "B(16) certifies distances up to 32")


def test_verify_reports_are_byte_identical_across_hash_seeds(tmp_path):
    # string hashing, and so set and dict order, varies with PYTHONHASHSEED
    # between processes; no in-process check can see that
    argv = ["verify", "--suite", "klein_pair,induced_and_wreath", "--seed", "5"]
    src = str(Path(cli.__file__).resolve().parents[1])
    blobs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"rep_{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "nilcay", *argv,
                               "--out", str(out)], env=env, capture_output=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        blobs.append(out.read_bytes())
    out = tmp_path / "rep_in_process.json"
    assert run(argv + ["--out", str(out)]) == 0
    blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    # the suites run serially; --threads stays only as the value 1
    assert run(argv + ["--threads", "2"]) == 2


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site, and any .pth file it runs, from importing modules first
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import nilcay.cli; "
            "print('\\n'.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "nilcay.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded


def test_verify_group_filter(tmp_path):
    out = tmp_path / "laws.json"
    code = run(["verify", "--suite", "metric_oracle", "--group", "heisenberg",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["suites"]["metric_oracle"]["parameters"]["families"] == \
        ["heisenberg"]


def test_verify_timings_sidecar(tmp_path):
    out = tmp_path / "rep.json"
    side = tmp_path / "timing.json"
    assert run(["verify", "--suite", "induced_and_wreath", "--out", str(out),
                "--timings", str(side)]) == 0
    timing = read_json(side)
    assert "induced_and_wreath" in timing["per_suite_ms"]
    # each acceptance family's product path, in the sidecar only
    assert timing["product_paths"] == dict.fromkeys(
        ("z", "z2", "z3", "heisenberg", "klein_bottle", "zxz2", "heisenberg_z3"),
        "compiled collector")
    plain = tmp_path / "plain.json"
    assert run(["verify", "--suite", "induced_and_wreath",
                "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    for word in ("runtime_ms", "polynomial", "collector"):
        assert word not in out.read_text()
