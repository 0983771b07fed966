import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mvgb import groebner
from mvgb.cli import MAX_HILB, main
from mvgb.monomial import generic_initial_ideal, standard_count_box
from mvgb.polyring import Ring, format_monomial, parse_polynomial


@pytest.fixture
def camera_file(tmp_path):
    path = tmp_path / "cams.json"
    path.write_text(json.dumps({
        "n": 2,
        "cameras": [
            [["1", "0", "2", "1"], ["3", "1", "0", "0"], ["0", "2", "1", "5"]],
            [["2", "1", "1", "0"], ["0", "3", "1", "1"], ["1", "0", "0", "2"]],
        ]}))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_from_cameras_and_hilb(tmp_path, capsys, camera_file):
    ideal_path = str(tmp_path / "ideal.txt")
    rc, payload = run(capsys, "ideal", "from-cameras", camera_file,
                      "--out", ideal_path)
    assert rc == 0 and payload["generators"] == 1
    rc, payload = run(capsys, "hilb", ideal_path, "--u", "1,1")
    assert rc == 0 and payload["value"] == 8


def test_hilb_on_monomial_ideal(tmp_path, capsys):
    path = tmp_path / "m2.txt"
    path.write_text("x1*x2\n")
    rc, payload = run(capsys, "hilb", str(path), "--u", "1,1")
    assert rc == 0 and payload["value"] == 8
    rc, payload = run(capsys, "hilb", str(path), "--box", "2")
    assert payload["values"]["2,2"] == 27  # 36 monomials, 9 in the ideal
    rc, payload = run(capsys, "tangent", str(path))
    assert payload["tangent_dimension"] == 8


def test_tangent_of_the_unit_ideal_is_zero(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("1\n")
    rc, payload = run(capsys, "tangent", str(path), "--n", "2")
    assert rc == 0 and payload["tangent_dimension"] == 0


def test_tangent_rejects_too_many_block_monomials(tmp_path, capsys):
    # 1891^2 monomials of multidegree (60, 60), above MAX_HILB
    path = tmp_path / "big.txt"
    path.write_text("x1^60*y2^60\n")
    assert main(["tangent", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert "Traceback" not in captured.err


def test_gb_and_nf_and_elim(tmp_path, capsys):
    path = tmp_path / "i.txt"
    path.write_text("x1^2 - y1\nx1^3 - z1\n# comment\n")
    rc, payload = run(capsys, "gb", str(path), "--n", "2")
    assert rc == 0
    assert "x1^2 - y1" in payload["basis"]
    rc, payload = run(capsys, "nf", str(path), "--n", "2",
                      "--poly", "x1^2 + 1")
    assert payload["normal_form"] == "y1 + 1"
    rc, payload = run(capsys, "elim", str(path), "--n", "2",
                      "--keep", "y1,z1,x2,y2,z2")
    assert any("y1^3" in g for g in payload["generators"])


def test_order_spec(tmp_path, capsys):
    path = tmp_path / "i.txt"
    path.write_text("x1*y2 - x2*y1\n")
    spec = "lex:y1>y2>x1>x2>z1>z2"
    rc, payload = run(capsys, "gb", str(path), "--order", spec)
    assert rc == 0 and payload["initial_ideal"] == ["x2*y1"]
    rc, payload = run(capsys, "gb", str(path), "--order",
                      "weight:[0,1,0,0,0,0];tiebreak:lex:x1>x2>y1>y2>z1>z2")
    assert rc == 0 and payload["initial_ideal"] == ["x2*y1"]


def test_deep_tiebreak_chain_parses_without_recursion(tmp_path, capsys):
    # 1200 parts are read in a loop; a repeated weight row changes no
    # comparison, so the basis is that of one level
    path = tmp_path / "i.txt"
    path.write_text("x1*y2 - x2*y1\n")
    level = "weight:[0,1,0,0,0,0];tiebreak:"
    lex = "lex:x1>x2>y1>y2>z1>z2"
    one = run(capsys, "gb", str(path), "--order", level + lex)
    assert one[0] == 0 and one[1]["initial_ideal"] == ["x2*y1"]
    assert run(capsys, "gb", str(path), "--order", level * 1200 + lex) == one
    for tail in ("weight:[1,a]", "bogus:spec", lex + ";tiebreak:" + lex):
        assert main(["gb", str(path), "--order", level * 1200 + tail]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert "Traceback" not in captured.err


GIN4 = generic_initial_ideal(4)


@pytest.mark.parametrize("text, u, box", [
    ("\n".join(format_monomial(GIN4.ring, m) for m in GIN4.gens),
     (1, 1, 1, 1), 1),
    ("x1^2*y2\nx2*z1^3\n", (2, 3), 3),   # not squarefree
    ("x1*y2\nx1^2*y2*z2\nx2*y1\n", (1, 2), 2),   # a redundant monomial
])
def test_hilb_on_monomial_file_runs_no_buchberger(tmp_path, capsys,
                                                  monkeypatch, text, u, box):
    # the file is read as a monomial ideal, its own initial ideal; the
    # values are those of Buchberger's algorithm on the same polynomials
    lines = text.split()
    ring = Ring(len(u))
    I = groebner.ideal(ring, [parse_polynomial(ring, s) for s in lines])
    value = groebner.hilbert_value(I, u)
    table = standard_count_box(groebner.initial_ideal(I), box)
    calls, buchberger = [], groebner._buchberger

    def spy(*args):
        calls.append(args)
        return buchberger(*args)

    monkeypatch.setattr(groebner, "_buchberger", spy)
    path = tmp_path / "m.txt"
    path.write_text(text)
    rc, payload = run(capsys, "hilb", str(path), "--u",
                      ",".join(map(str, u)))
    assert rc == 0 and payload["value"] == value
    rc, payload = run(capsys, "hilb", str(path), "--box", str(box))
    assert rc == 0 and payload["values"] == {
        ",".join(map(str, k)): v for k, v in table.items()}
    assert calls == []


def test_gb_prints_terms_in_the_chosen_order(tmp_path, capsys):
    # the monic leading term under the order comes first; under the
    # default block order the element prints as before
    path = tmp_path / "i.txt"
    path.write_text("x1^2 - x1*y1\n")
    rc, payload = run(capsys, "gb", str(path), "--order",
                      "weight:[-1,0,0,0,0,0]")
    assert rc == 0 and payload["basis"] == ["x1*y1 - x1^2"]
    rc, payload = run(capsys, "gb", str(path))
    assert rc == 0 and payload["basis"] == ["x1^2 - x1*y1"]


def test_decompose_and_complex(tmp_path, capsys):
    path = tmp_path / "m3.txt"
    path.write_text("x1*x2\nx1*x3\nx2*x3\nx1*y2*y3\nx2*y1*y3\nx3*y1*y2\n")
    complex_path = str(tmp_path / "fc.json")
    rc, payload = run(capsys, "decompose", str(path),
                      "--complex", complex_path)
    assert rc == 0
    assert len(payload["primes"]) == 7
    assert payload["borel_fixed"] is True
    fc = json.loads(open(complex_path).read())
    assert fc["schema_version"] == 1
    assert len(fc["facets"]) == 7
    assert sorted(fc["labels"]).count("prism") == 6


def test_degeneration_verify(capsys):
    rc, payload = run(capsys, "degeneration", "verify", "--n", "2")
    assert rc == 0 and payload["pass"] is True


def test_toric_enumerate_three(capsys):
    rc, payload = run(capsys, "toric", "enumerate", "--n", "3")
    assert rc == 0
    assert payload["initial_ideals"] == 20
    assert payload["classes"] == 3


def test_census_artifacts(tmp_path, capsys):
    out = str(tmp_path / "census")
    rc, payload = run(capsys, "hilbscheme", "census", "--n", "2",
                      "--tangent", "--out", out)
    assert rc == 0 and payload["ideals"] == 9 and payload["classes"] == 1
    ideals = open(os.path.join(out, "ideals.txt")).read().splitlines()
    assert len(ideals) == 9
    classes = json.loads(open(os.path.join(out, "classes.json")).read())
    assert len(classes["classes"]) == 1
    tangent = json.loads(open(os.path.join(out, "tangent.json")).read())
    assert set(tangent["tangent_dimensions"].values()) == {8}


def test_census_of_four_cameras_exits_2(tmp_path, capsys):
    out = tmp_path / "census"
    with pytest.raises(SystemExit) as exc:
        main(["hilbscheme", "census", "--n", "4", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 4" in err and "Traceback" not in err
    assert not out.exists()


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["hilb", str(tmp_path / "missing.txt"), "--u", "1,1"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 2, \"cameras\": []}")
    assert main(["ideal", "from-cameras", str(bad)]) == 2
    capsys.readouterr()
    path = tmp_path / "i.txt"
    path.write_text("x1*y2 - x2*y1\n")
    assert main(["gb", str(path), "--order", "bogus:spec"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, text", [
    (["nf", "--poly", "x1^3"], "x1 - x1^2\n"),
    (["gb"], "x1 - x1^2\nx1*y1 - y1^2\n"),
])
def test_order_below_1_on_inhomogeneous_input_exits_2(tmp_path, capsys,
                                                      command, text):
    # x1 < 1 under the weight row, so x1 > x1^2 > x1^3 > ... and division
    # by x1 - x1^2 would not stop; a homogeneous file is still accepted
    path = tmp_path / "i.txt"
    path.write_text(text)
    order = ["--order", "weight:[-1,0,0,0,0,0]"]
    assert main([command[0], str(path)] + command[1:] + order) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "x1" in captured.err
    assert not captured.out
    path.write_text("x1^2 - x1*y1\n")
    rc, payload = run(capsys, "gb", str(path), *order)
    assert rc == 0 and payload["initial_ideal"] == ["x1*y1"]


@pytest.mark.parametrize("text", ["x1^2*y2\n", "x1*w2\n"])
def test_decompose_outside_its_domain_exits_2(tmp_path, capsys, text):
    # minimal primes need a squarefree ideal, the Borel test no w block
    path = tmp_path / "m.txt"
    path.write_text(text)
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("text, extra", [
    ("w1*x2 - x1*y2\n", []), ("w2\n", []), ("w1*x2 - x1*y2\n", ["--n", "2"]),
])
def test_w_variable_file_exits_2(tmp_path, capsys, text, extra):
    # the world coordinates are not variables of the ring of any file
    path = tmp_path / "w.txt"
    path.write_text(text)
    assert main(["gb", str(path)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("argv", [
    ["gb", "{m}", "--out", "{blocker}/x.json"],
    ["hilbscheme", "census", "--n", "2", "--out", "{blocker}/census"],
    ["decompose", "{m}", "--complex", "{blocker}/fc.json"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # a path under a plain file cannot be created
    (tmp_path / "m.txt").write_text("x1*y2\n")
    (tmp_path / "blocker").write_text("")
    argv = [a.format(m=tmp_path / "m.txt", blocker=tmp_path / "blocker")
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ")
    assert str(tmp_path / "blocker") in captured.err and not captured.out


@pytest.mark.parametrize("n", ["-3", "0"])
def test_camera_count_below_one_exits_2(tmp_path, capsys, n):
    path = tmp_path / "m.txt"
    path.write_text("x1*y2\n")
    assert main(["gb", str(path), "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_closed_pipe_keeps_exit_code_without_traceback(tmp_path):
    # the read end is closed before the child starts, so its first write
    # meets a broken pipe whatever the timing
    path = tmp_path / "m.txt"
    path.write_text("x1*y2\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv in (["gb", str(path)], ["degeneration", "verify", "--n", "2"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "mvgb.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr and "Error" not in proc.stderr


def test_tangent_needs_its_file(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tangent"])
    assert exc.value.code == 2
    assert "file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gb", "--order", "weight:[1,a]"],
    ["gb", "--order", "weight:[1/0,1,1,1,1,1]"],
    ["hilb", "--u", "1,x"],
    ["hilb", "--n", "2", "--u", "1,-1"],
    ["hilb", "--n", "2", "--box", "-1"],
    ["nf", "--poly", "x1*q3"],
    ["nf", "--poly", "1/0*x1"],
])
def test_malformed_options_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "f"
    path.write_text("x1*y2 - x2*y1\n")
    assert main([argv[0], str(path)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["degeneration", "verify", "--n", "1"],
    ["degeneration", "verify", "--n", "8"],
    ["degeneration", "initial", "--n", "3", "--eps", "0"],
    ["degeneration", "initial", "--n", "3", "--eps", "abc"],
    ["degeneration", "initial", "--n", "3", "--eps", "1/0"],
    ["degeneration", "initial", "--n", "1", "--eps", "2"],
    ["check", "all", "--criteria", "x"],
    ["check", "all", "--criteria", "1,,2"],
    ["check", "all", "--criteria", "0"],
    ["check", "all", "--criteria", "12"],
])
def test_bad_arguments_without_a_file_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and not captured.out


def test_determinism(tmp_path, capsys):
    path = tmp_path / "i.txt"
    path.write_text("x1*y2 - x2*y1\nx1*z2 - 2*x2*z1\n")
    rc1 = main(["gb", str(path)])
    out1 = capsys.readouterr().out
    rc2 = main(["gb", str(path)])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0 and out1 == out2


def test_toric_dual_graph_export(tmp_path, capsys):
    graphs_path = str(tmp_path / "graphs.json")
    rc, payload = run(capsys, "toric", "enumerate", "--n", "3",
                      "--classes", "--dual-graphs", graphs_path)
    assert rc == 0 and payload["classes"] == 3
    data = json.loads(open(graphs_path).read())
    assert len(data["graphs"]) == 3
    for g in data["graphs"]:
        labels = g["complex"]["labels"]
        assert labels.count("cube") == 1 and labels.count("prism") == 6
        degs = g["dual_graph"]["degrees"]
        assert len(degs) == 7


# numbers near the accepted ranges, lists of them, and arbitrary text
NUMBER = st.one_of(st.integers(-3, 40), st.integers(MAX_HILB - 2, 2 ** 70),
                   st.integers())
OPTION_TEXT = st.one_of(
    st.text(),
    NUMBER.map(str),
    st.lists(st.one_of(NUMBER.map(str), st.text(max_size=3)),
             max_size=4).map(",".join),
)
POLY_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        ["x1", "y2", "z1", "w1", "x3", "x0", "^", "2", "0", "*", "+", "-",
         "/", "1/2", " ", "(", "e", "."]), max_size=12).map("".join),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(option=st.sampled_from(["--u", "--box", "--poly"]),
       text=st.one_of(OPTION_TEXT, POLY_TEXT))
@example(option="--poly", text="--")  # argparse hands "--" over as []
@example(option="--box", text="--")
@example(option="--box", text="99999")
def test_option_fuzz_exits_0_or_2(tmp_path, capsys, option, text):
    # a monomial ideal: a normal form is one division test per term, so the
    # cost never grows with the degree of the text given
    path = tmp_path / "m.txt"
    path.write_text("x1*y2\n")
    command = "nf" if option == "--poly" else "hilb"
    rc = main([command, str(path), "%s=%s" % (option, text)])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error: ") and "Traceback" not in err
