"""End-to-end command-line runs through cli.main."""

import contextlib
import io
import itertools
import json
import math
import pathlib
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from depolar import (FAMILY_BUILDERS, MonomialIdeal, cli, depolarize,
                     polarize_ideal)


def xyz_dict():
    return {"variables": ["x", "y", "z"],
            "generators": [[4, 0, 0], [1, 0, 3], [3, 3, 2], [0, 1, 3]]}


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_ok(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_gen_json_and_text(capsys):
    out = run_ok(capsys, ["gen", "--family", "varpowers", "--n", "2", "--k", "3"])
    data = json.loads(out)
    assert data == {"variables": ["x1", "x2"], "generators": [[0, 3], [3, 0]]}
    out = run_ok(capsys, ["gen", "--family", "varpowers", "--n", "2",
                          "--k", "3", "--format", "text"])
    assert out == "<x2^3, x1^3>\n"


def test_global_flags_both_sides(capsys):
    before = run_ok(capsys, ["--format", "text", "gen", "--family", "power",
                             "--n", "2", "--k", "2"])
    after = run_ok(capsys, ["gen", "--family", "power", "--n", "2",
                            "--k", "2", "--format", "text"])
    assert before == after == "<x2^2, x1*x2, x1^2>\n"


def test_gen_jknm_and_random(capsys):
    out = run_ok(capsys, ["gen", "--family", "jknm", "--n", "4",
                          "--seq", "4,2,1"])
    assert len(json.loads(out)["generators"]) == 14
    one = run_ok(capsys, ["gen", "--family", "random", "--n", "3",
                          "--max-gens", "5", "--max-exp", "2", "--seed", "9"])
    two = run_ok(capsys, ["--seed", "9", "gen", "--family", "random",
                          "--n", "3", "--max-gens", "5", "--max-exp", "2"])
    assert json.loads(one) == json.loads(two)


def test_gen_needs_k(capsys):
    assert cli.main(["gen", "--family", "power", "--n", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_polarize_with_map(tmp_path, capsys):
    src = write_json(tmp_path, "ideal.json", xyz_dict())
    mapfile = tmp_path / "map.json"
    out = run_ok(capsys, ["polarize", "--in", src, "--map", str(mapfile)])
    P = json.loads(out)
    assert len(P["variables"]) == 10
    assert len(P["generators"]) == 4
    pmap = json.loads(mapfile.read_text())
    assert pmap == polarize_ideal(MonomialIdeal.from_dict(xyz_dict()))[1] \
        .to_dict()
    assert pmap["source"] == P["variables"]
    assert pmap["variables"] == ["x", "y", "z"]
    assert [len(c) for c in pmap["chains"]] == [4, 3, 3]


def test_depolarize_roundtrip(tmp_path, capsys):
    src = write_json(tmp_path, "ideal.json", xyz_dict())
    mapfile = tmp_path / "chains.json"
    out = run_ok(capsys, ["depolarize", "--in", src, "--partition", "min",
                          "--map", str(mapfile)])
    small = json.loads(out)
    assert len(small["variables"]) == 3
    assert len(small["generators"]) == 4
    dmap = json.loads(mapfile.read_text())
    assert dmap == depolarize(MonomialIdeal.from_dict(xyz_dict())).to_dict()
    assert dmap["variables"] == small["variables"]
    assert len(dmap["source"]) == sum(len(c) for c in dmap["chains"]) == 10
    out = run_ok(capsys, ["depolarize", "--in", src,
                          "--partition", "singleton"])
    assert len(json.loads(out)["variables"]) == 10


def test_koszul_and_ek(tmp_path, capsys):
    src = write_json(tmp_path, "ideal.json", {
        "variables": ["x1", "x2", "x3"],
        "generators": [[3, 0, 0], [1, 2, 0], [0, 2, 1]]})
    out = run_ok(capsys, ["koszul", "--in", src, "--format", "text"])
    assert out == "{x1, x3}\n{x2, x3}\n"
    out = run_ok(capsys, ["koszul", "--in", src, "--mu", "3,2,0"])
    assert json.loads(out)["facets"] == [["x1"], ["x2"]]
    assert cli.main(["koszul", "--in", src, "--mu", "1,2"]) == 2
    out = run_ok(capsys, ["ek", "--in", src])
    data = json.loads(out)
    assert data["vertices"] == ["x1_1", "x1_2", "x1_3",
                                "x2_1", "x2_2", "x3_1"]
    assert sorted(map(sorted, data["facets"])) == [
        ["x1_1", "x1_2", "x1_3"],
        ["x1_2", "x1_3", "x3_1"],
        ["x2_1", "x2_2", "x3_1"]]


def test_dual_ideal_golden(tmp_path, capsys):
    src = write_json(tmp_path, "ideal.json", xyz_dict())
    out = run_ok(capsys, ["dual-ideal", "--in", src])
    assert json.loads(out)["generators"] == [
        [1, 0, 2], [1, 1, 1], [2, 0, 1], [4, 3, 0]]
    out = run_ok(capsys, ["dual-ideal", "--in", src, "--bound", "5,3,3",
                          "--format", "text"])
    assert out.startswith("<")
    assert cli.main(["dual-ideal", "--in", src, "--bound", "1,1,1"]) == 2


def test_dual_complex_with_report(tmp_path, capsys):
    src = write_json(tmp_path, "cx.json", {
        "vertices": ["v1", "v2", "v3"],
        "facets": [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]]})
    report = tmp_path / "report.json"
    out = run_ok(capsys, ["dual-complex", "--in", src,
                          "--report", str(report)])
    assert json.loads(out) == {"vertices": ["v1", "v2", "v3"], "facets": [[]]}
    rep = json.loads(report.read_text())
    assert rep["gens_J"] == 3
    assert rep["gens_final"] == 1
    assert rep["fiber_elements"] == 1
    assert set(rep["ms_per_step"]) == {
        "facet_ideal", "depolarize", "dual", "repolarize", "complements"}
    out = run_ok(capsys, ["dual-complex", "--in", src, "--format", "text"])
    assert out == "{ {} }\n"
    # the worked example J = <x^4, x*z^3, x^3*y^3*z^2, y*z^3>: its four dual
    # generators have fibers of 1 + 9 + 36 + 8 monomials
    src = write_json(tmp_path, "example.json", {
        "vertices": [f"v{i}" for i in range(1, 11)],
        "facets": [[f"v{i}" for i in f] for f in [
            (5, 6, 7, 8, 9, 10), (1, 2, 3, 5, 6, 10), (3, 9),
            (1, 2, 3, 4, 5, 6)]]})
    run_ok(capsys, ["dual-complex", "--in", src, "--report", str(report)])
    rep = json.loads(report.read_text())
    assert (rep["gens_Jdual"], rep["fiber_elements"], rep["gens_final"]) \
        == (4, 54, 15)
    assert (rep["dual_kernel"], rep["grid_cells"]) == ("grid", 36)


def test_dual_complex_over_the_expansion_cap(tmp_path, capsys):
    # complements of 8 blocks of 8 vertices: the depolarized ideal is
    # <x1^8, ..., x8^8>, whose one dual generator x1*...*x8 has a fiber of
    # 8^8 > 10^7 monomials
    blocks = [[f"v{8 * b + j}" for j in range(8)] for b in range(8)]
    src = write_json(tmp_path, "cx.json", {
        "vertices": [v for block in blocks for v in block],
        "facets": [[v for other in blocks if other is not block
                    for v in other] for block in blocks]})
    assert cli.main(["dual-complex", "--in", src]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_out_of_memory_names_itself(tmp_path, capsys, monkeypatch):
    # an allocation that fails raises MemoryError() with no text
    def fail(ideal):
        raise MemoryError()
    monkeypatch.setattr(cli, "polarize_ideal", fail)
    src = write_json(tmp_path, "I.json", xyz_dict())
    assert cli.main(["polarize", "--in", src]) == 3
    assert capsys.readouterr().err == "error: resource limit: out of memory\n"


def test_homology_text_and_mod(tmp_path, capsys):
    src = write_json(tmp_path, "cx.json", {
        "vertices": ["v1", "v2", "v3"],
        "facets": [["v1", "v2"], ["v1", "v3"], ["v2", "v3"]]})
    assert run_ok(capsys, ["homology", "--in", src, "--format", "text"]) \
        == "0 0 1\n"
    rp2 = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
           (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    src = write_json(tmp_path, "rp2.json", {
        "vertices": [f"v{i}" for i in range(1, 7)],
        "facets": [[f"v{i}" for i in f] for f in rp2]})
    assert json.loads(run_ok(capsys, ["homology", "--in", src])) \
        == {"dims": [0, 0, 0, 0]}
    assert json.loads(run_ok(capsys, ["homology", "--in", src, "--mod", "2"])) \
        == {"dims": [0, 0, 1, 1]}


def test_betti_outputs(tmp_path, capsys):
    src = write_json(tmp_path, "ci.json", {
        "variables": ["a", "b", "c"],
        "generators": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    assert run_ok(capsys, ["betti", "--in", src, "--total",
                           "--format", "text"]) == "3 3 1\n"
    assert run_ok(capsys, ["betti", "--in", src, "--total", "--quotient",
                           "--format", "text"]) == "1 3 3 1\n"
    table = json.loads(run_ok(capsys, ["betti", "--in", src]))
    assert table["convention"] == "ideal"
    assert {"i": 2, "degree": [1, 2, 3], "value": 1} in table["entries"]
    dia = json.loads(run_ok(capsys, ["betti", "--in", src, "--diagram"]))
    assert dia["diagram"].startswith("        0  1  2\ntotal:  3  3  1")
    text = run_ok(capsys, ["betti", "--in", src, "--format", "text"])
    assert "total:" in text
    # --threads is not a flag on either side of the verb
    for argv in (["--threads", "2", "betti", "--in", src],
                 ["betti", "--in", src, "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert json.loads(run_ok(
        capsys, ["betti", "--in", src, "--mod", "32003", "--total"])) \
        == {"total": [3, 3, 1]}


def test_bench_csv_and_json(capsys):
    out = run_ok(capsys, ["bench", "--family", "varpowers", "--n", "3",
                          "--k", "2", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "schema=2"
    assert lines[1].startswith("family,params,")
    assert len(lines) == 3
    data = json.loads(run_ok(capsys, ["bench", "--family", "varpowers",
                                      "--n", "3", "--k", "2"]))
    assert data[0]["status"] == "ok"
    assert data[0]["gens_J"] == 3
    assert data[0]["ratio_vars"] == 2.0
    assert cli.main(["bench"]) == 2


def test_stdin_and_out_file(tmp_path, capsys, monkeypatch):
    payload = json.dumps({"variables": ["x"], "generators": [[2]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    dest = tmp_path / "dual.json"
    assert cli.main(["dual-ideal", "--in", "-", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["generators"] == [[1]]


def no_cell(*args, **kwargs):
    raise AssertionError("a bench cell process was started")


def assert_refused(argv):
    """cli.main on argv exits 2 with one error line and no output."""
    code, out, err = run_cli(argv)
    assert code == 2 and out == "", argv
    assert err.startswith("error:") and err.count("\n") == 1, argv
    assert "Traceback" not in err, argv


def test_error_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["homology", "--in", str(bad)]) == 2
    assert cli.main(["homology", "--in", str(tmp_path / "absent.json")]) == 2
    src = write_json(tmp_path, "mismatch.json",
                     {"variables": ["x"], "generators": [[1, 2]]})
    assert cli.main(["dual-ideal", "--in", src]) == 2
    src = write_json(tmp_path, "ci.json", {
        "variables": ["a", "b", "c"],
        "generators": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    assert cli.main(["betti", "--in", src, "--face-cap", "2"]) == 3
    assert cli.main(["gen", "--family", "power", "--n", "3", "--k", "2",
                     "--format", "csv"]) == 2
    capsys.readouterr()
    cx = write_json(tmp_path, "cx.json", {"vertices": ["a", "b"],
                                          "facets": [["a"], ["b"]]})
    floats = write_json(tmp_path, "floats.json", {
        "variables": ["x", "y"], "generators": [[1.5, 0], [True, 2]]})
    bad_input = [["homology", "--in", cx, "--mod", m] for m in
                 ("0", "1", "4", "-3")]
    bad_input += [["betti", "--in", src, "--mod", m] for m in ("0", "4")]
    nulls = [write_json(tmp_path, f"null{i}.json", data) for i, data in
             enumerate([{"variables": None, "generators": [[1]]},
                        {"variables": ["x"], "generators": None}])]
    bad_input += [["gen", "--family", "jknm", "--n", "4", "--seq", "a,b"],
                  ["gen", "--family", "jknm", "--n", "4", "--seq", ""],
                  ["dual-ideal", "--in", floats]]
    bad_input += [["dual-ideal", "--in", path] for path in nulls]
    # a missing family flag is caught before a bench cell runs, a bad
    # value inside the cell's process
    bad_input += [["bench", "--family", "power", "--n", "3"],
                  ["bench", "--family", "jknm"],
                  ["bench", "--family", "random", "--n", "3"],
                  ["bench", "--family", "varpowers", "--n", "2", "--k", "0"]]
    # a limit no run can keep is refused before any bench cell starts
    bad_limits = [["bench", "--family", "power", "--n", "2", "--k", "2",
                   flag, value]
                  for flag, value in (
                      ("--mem-mb", "-5"), ("--mem-mb", "0"),
                      ("--timeout", "-1"), ("--timeout", "0"),
                      ("--timeout", "inf"), ("--timeout", "1e9"),
                      ("--face-cap", "-1"))]
    bad_limits += [["--timeout", "0", "bench", "--table", "3"],
                   ["betti", "--in", src, "--face-cap", "-1"]]
    for argv in bad_input:
        assert_refused(argv)
    monkeypatch.setattr(cli.bench_mod, "run_cell", no_cell)
    for argv in bad_limits:
        assert_refused(argv)


def run_cli(argv):
    """(exit code, stdout, stderr) of cli.main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def ideal_files(draw):
    """(variables, generators, face_cap): 1-4 variables and one to five
    nonzero rows with exponents up to 3; one in four cases has a flaw,
    the zero ideal, a zero row or a row of the wrong length.  face_cap is
    that of the betti run."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=n,
                                  max_size=n).filter(any),
                         min_size=1, max_size=5))
    flaw = draw(st.sampled_from([None] * 9 + ["zero", "unit", "width"]))
    if flaw == "zero":
        rows = []
    elif flaw:
        rows.append([0] * n if flaw == "unit" else [1] * (n + 1))
    return ([f"x{i}" for i in range(1, n + 1)], rows,
            draw(st.sampled_from([None, None, 2, 8])))


def name_sets(facets):
    return sorted(map(sorted, facets))


def check_verb(verb, argv, want):
    """A valid ideal exits 0 (or 3 under a face cap) and prints want(out),
    else the run exits 2 or 3 with one error line and no output."""
    code, out, err = run_cli(argv)
    if code == 0:
        got, expected = want(json.loads(out))
        assert got == expected, verb
        assert err == ""
    else:
        assert code in (2, 3), verb
        assert out == "" and err.startswith("error:"), verb
        assert err.count("\n") == 1 and "Traceback" not in err, verb
    return code


@given(ideal_files())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_ideal_verbs_match_the_oracles(case):
    names, rows, cap = case
    n = len(names)
    valid = rows and all(len(g) == n and any(g) for g in rows)
    gens = oracles.minimal_elements(map(tuple, rows)) if valid else []
    mu = [max(col) for col in zip(*gens)]
    with tempfile.TemporaryDirectory() as tmp:
        src = str(pathlib.Path(tmp, "ideal.json"))
        mapfile = pathlib.Path(tmp, "map.json")
        pathlib.Path(src).write_text(json.dumps(
            {"variables": names, "generators": rows}))
        # the polarization: exponent e on x_i sets x_i_1..x_i_e
        polar = sorted(tuple(int(j < e) for e, m in zip(g, mu)
                             for j in range(m)) for g in gens)
        polar_names = [f"{v}_{j}" for v, m in zip(names, mu)
                       for j in range(1, m + 1)]
        codes = [check_verb("polarize", ["polarize", "--in", src], lambda d: (
            (d["variables"], d["generators"]),
            (polar_names, [list(g) for g in polar])))]

        def depolarized(d):
            # each output row counts the source variables of each chain
            chains = json.loads(mapfile.read_text())["chains"]
            squarefree = all(e <= 1 for g in gens for e in g)
            source, where = (gens, names) if squarefree else \
                (polar, polar_names)
            index = {v: i for i, v in enumerate(where)}
            want = oracles.minimal_elements(
                tuple(sum(g[index[v]] for v in c) for c in chains)
                for g in source)
            return d["generators"], [list(g) for g in want]
        codes.append(check_verb("depolarize", [
            "depolarize", "--in", src, "--map", str(mapfile)], depolarized))
        codes.append(check_verb("dual-ideal", ["dual-ideal", "--in", src],
                                lambda d: (d["generators"], list(map(
                                    list, oracles.dual_ideal(gens))))))

        def koszul(d):
            at = mu or [0] * n
            faces = oracles.koszul_faces(gens, at)
            return name_sets(d["facets"]), name_sets(
                [names[i] for i in f] for f in oracles.maximal_sets(faces))
        codes.append(check_verb("koszul", ["koszul", "--in", src], koszul))

        def ek(d):
            slots, facets = oracles.expanded_koszul_facets(gens)
            index = {v: i for i, v in enumerate(d["vertices"])}
            return (len(d["vertices"]), name_sets(
                [index[v] for v in f] for f in d["facets"])), \
                (slots, name_sets(facets))
        codes.append(check_verb("ek", ["ek", "--in", src], ek))

        def totals(d):
            out = {}
            for (i, _), v in oracles.betti_numbers(gens).items():
                out[i] = out.get(i, 0) + v
            return d["total"], [v for _, v in sorted(out.items())]
        capped = [] if cap is None else ["--face-cap", str(cap)]
        betti = check_verb("betti", ["betti", "--in", src, "--total"] + capped,
                           totals)
    if valid:
        assert codes == [0] * 5 and betti in ((0,) if cap is None else (0, 3))
    else:
        assert 0 not in codes[:3] + codes[4:] and betti == 2


@st.composite
def complex_files(draw):
    """(text, names, faces, face_cap): the JSON text of a complex on 0-5
    vertices named v1.. with up to five faces, given as index sets; one
    case in three has a flaw: text that is not JSON, no facets key, null
    facets, a facet that is not a list, an unknown or a repeated vertex.
    faces is None for a flawed case.  face_cap is that of the homology
    run."""
    n = draw(st.integers(0, 5))
    names = [f"v{i}" for i in range(1, n + 1)]
    faces = [[names[i] for i in range(n) if pick] for pick in draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                 max_size=5))]
    data = {"vertices": names, "facets": faces}
    flaw = draw(st.sampled_from([None] * 12 + [
        "text", "key", "null", "face", "name", "twice"]))
    if flaw == "key":
        del data["facets"]
    elif flaw == "null":
        data["facets"] = None
    elif flaw == "face":
        data["facets"] = faces + [draw(st.sampled_from(["v1", None, 3]))]
    elif flaw == "name":
        data["facets"] = faces + [["w"]]
    elif flaw == "twice":
        data["vertices"] = names + ["v1", "v1"][min(n, 1):]
    text = json.dumps(data)
    if flaw == "text":
        text = text[:-1]
    index = {v: i for i, v in enumerate(names)}
    return (text, names,
            None if flaw else [{index[v] for v in f} for f in faces],
            draw(st.sampled_from([None, None, 2, 8])))


@given(complex_files())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_complex_verbs_match_the_oracles(case):
    text, names, faces, cap = case
    with tempfile.TemporaryDirectory() as tmp:
        src = str(pathlib.Path(tmp, "complex.json"))
        pathlib.Path(src).write_text(text)
        dual = check_verb("dual-complex", ["dual-complex", "--in", src],
                          lambda d: ((d["vertices"], name_sets(d["facets"])),
                                     (names, name_sets(
                                         [names[i] for i in f] for f in
                                         oracles.alexander_dual_facets(
                                             faces, len(names))))))
        capped = [] if cap is None else ["--face-cap", str(cap)]
        homology = check_verb("homology", ["homology", "--in", src] + capped,
                              lambda d: (d["dims"],
                                         oracles.homology_dims(faces)))
    if faces is None:
        assert dual == homology == 2
        return
    # the round trip needs a proper complex that is not the full simplex
    proper = any(faces)
    full = any(len(f) == len(names) for f in faces)
    assert dual == (0 if proper and not full else 2)
    assert homology in ((0,) if cap is None else (0, 3))


def with_flags(argv, flags):
    """argv and the given flags, as --flag=value so that a value such as
    -1,2 is not read as a flag."""
    return argv + [f"{flag}={value}" for flag, value in flags.items()
                   if value is not None]


def rarely(bad, good):
    """A flag's value: None (the flag left out) or one of good, each four
    times as likely as one of the out-of-range values bad."""
    return st.sampled_from([None, *good] * 4 + list(bad))


@st.composite
def gen_flags(draw):
    """(family, flags) of a gen run: n and k up to 4, the random family's
    counts, a jknm sequence, and the global limits and format, some of
    them out of range or junk.  None marks a flag left out
    (--n is required by the parser, so it is always given)."""
    seqs = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
        lambda seq: ",".join(map(str, sorted(seq, reverse=True))))
    flags = {"--n": draw(st.sampled_from([1, 2, 3, 4] * 4 + [-1, 0])),
             "--k": draw(rarely([-1, 0], range(1, 5))),
             "--max-gens": draw(rarely([-1, 0], range(1, 5))),
             "--max-exp": draw(rarely([-1, 0], range(1, 5))),
             "--seed": draw(rarely([], range(3))),
             "--seq": draw(st.one_of(st.none(), seqs, seqs, st.sampled_from(
                 ["a,b", "1,,2", "1,2", "-1,2", "0", "1,1,1,1,1"]))),
             "--timeout": draw(rarely([-1, 0], [30])),
             "--face-cap": draw(rarely([-1], [0, 5])),
             "--format": draw(st.sampled_from(["json"] * 7 + ["csv"]))}
    return draw(st.sampled_from(sorted(FAMILY_BUILDERS))), flags


def bad_limit(flags):
    """Whether flags hold a --timeout or --mem-mb that is not positive or a
    negative --face-cap (the drawn timeouts stay below the upper bound)."""
    timeout, mem_mb, face_cap = map(flags.get,
                                    ("--timeout", "--mem-mb", "--face-cap"))
    return (timeout is not None and timeout <= 0
            or mem_mb is not None and mem_mb <= 0
            or face_cap is not None and face_cap < 0)


def family_gens(family, flags):
    """The generators gen must print for flags, or None when a flag is out
    of range; [] for power and random, whose output the test checks by
    their closed properties."""
    n, k = flags["--n"], flags["--k"]
    if n < 1 or flags["--format"] != "json" or bad_limit(flags):
        return None
    if family in ("power", "varpowers"):
        if k is None or k < 1:
            return None
        return [] if family == "power" else sorted(
            tuple(k * (i == j) for j in range(n)) for i in range(n))
    if family == "jknm":
        seq = flags["--seq"]
        if seq is None:
            seq = tuple(range(2 * (n // 2) - 1, 0, -2)) or (1,)
        elif any(not t.lstrip("-").isdigit() for t in seq.split(",")):
            return None
        else:
            seq = tuple(map(int, seq.split(",")))
        if len(seq) > n or min(seq) < 1 or list(seq) != sorted(seq)[::-1]:
            return None
        # the sum over t of the t-variable products raised to seq[t-1]
        return oracles.minimal_elements(
            tuple(m * (i in combo) for i in range(n))
            for t, m in enumerate(seq, start=1)
            for combo in itertools.combinations(range(n), t))
    if any(flags[f] is not None and flags[f] < 1
           for f in ("--max-gens", "--max-exp")):
        return None
    return []


@given(gen_flags())
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_gen_matches_the_closed_forms(case):
    family, flags = case
    argv = with_flags(["gen", "--family", family], flags)
    want = family_gens(family, flags)
    if want is None:
        assert_refused(argv)
        return
    code, out, err = run_cli(argv)
    assert (code, err) == (0, ""), argv
    data = json.loads(out)
    n, k = flags["--n"], flags["--k"]
    assert data["variables"] == [f"x{i}" for i in range(1, n + 1)]
    gens = list(map(tuple, data["generators"]))
    if family == "power":
        # all C(n+k-1, k) monomials of degree k, each once
        assert len(set(gens)) == len(gens) == math.comb(n + k - 1, k)
        assert all(len(g) == n and sum(g) == k for g in gens)
    elif family == "random":
        # a pure function of the seed, within the flags' bounds
        assert run_cli(argv) == (code, out, err)
        assert 1 <= len(gens) <= (flags["--max-gens"] or 10)
        assert all(len(g) == n and 0 <= min(g)
                   and max(g) <= (flags["--max-exp"] or 3) for g in gens)
        assert gens == oracles.minimal_elements(gens)
    else:
        assert gens == want, argv


@st.composite
def bench_flags(draw):
    """Flags of a bench run, a preset table or a family with n and k up to
    4, and the limits, each possibly absent or out of range."""
    return {"--table": draw(rarely([], "123")),
            "--family": draw(rarely([], sorted(FAMILY_BUILDERS))),
            "--n": draw(rarely([-1, 0], range(1, 5))),
            "--k": draw(rarely([-1, 0], range(1, 5))),
            "--mem-mb": draw(rarely([-5, 0], [64])),
            "--timeout": draw(rarely([-1, 0], [30])),
            "--face-cap": draw(rarely([-1], [3]))}


def caught_before_a_cell(flags):
    """Whether bench must refuse flags before it starts a cell process: a
    limit out of range, or no cell it can build without running it."""
    if bad_limit(flags):
        return True
    if flags["--table"]:
        return False
    family = flags["--family"]
    return (family is None or family == "random" or flags["--n"] is None
            or family in ("power", "varpowers") and flags["--k"] is None)


@given(bench_flags().filter(caught_before_a_cell))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_bench_refuses_bad_flags_before_a_cell(flags):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.bench_mod, "run_cell", no_cell)
        assert_refused(with_flags(["bench"], flags))
