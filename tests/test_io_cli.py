import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhlc import io_json
from nhlc.builders import build_simple_nlie, build_super_heis
from nhlc.cli import main
from nhlc.errors import AlgebraValidationError, DomainError, FormatError
from nhlc.grading import Bicharacter, GradingGroup

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _run_cli(args, stdin_text=None, env_extra=None):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "nhlc.cli", *args],
                          input=stdin_text, capture_output=True, text=True,
                          env=env)
    return proc


# -- file format ---------------------------------------------------------------

def test_round_trip_structural_equality(tmp_path, a4, super_heis):
    for A in (a4, super_heis):
        path = tmp_path / f"{A.name}.json"
        io_json.save(A, path)
        back = io_json.load(str(path))
        assert io_json.algebra_to_dict(back) == io_json.algebra_to_dict(A)


def test_save_load_save_is_identity(tmp_path, regraded_a4):
    first = io_json.dumps(regraded_a4)
    again = io_json.dumps(io_json.loads(first))
    assert first == again


def test_rational_strings():
    from fractions import Fraction
    assert io_json.parse_rational("3/4") == Fraction(3, 4)
    assert io_json.parse_rational("-2") == Fraction(-2)
    assert io_json.format_rational(Fraction(3, 4)) == "3/4"
    assert io_json.format_rational(Fraction(5)) == "5"
    with pytest.raises(FormatError):
        io_json.parse_rational("1/0")
    with pytest.raises(FormatError):
        io_json.parse_rational(0.5)


def test_parse_rational_is_canonical():
    """An integral rational parses to an int, whatever its spelling; any
    other stays a Fraction in lowest terms."""
    from fractions import Fraction
    for text in ("4/2", "2", 2, "-6/3", " -2 "):
        got = io_json.parse_rational(text)
        assert abs(got) == 2 and type(got) is int
    for text, want in (("1/2", Fraction(1, 2)), ("-3/6", Fraction(-1, 2))):
        got = io_json.parse_rational(text)
        assert got == want and type(got) is Fraction


def test_violation_json_renders_rationals_as_strings():
    """expected and actual carry rationals, never counts: an int there
    prints as the string a Fraction of the same value printed, nested in
    lists and dicts too, while bools stay bools and the witness keeps its
    indices as numbers."""
    from fractions import Fraction
    from nhlc.report import Violation
    got = Violation("jacobi", witness=((0, 1), (2, 3, 3)),
                    expected=[0, 1, Fraction(1, 2), -3],
                    actual={2: 5, 3: Fraction(-1, 2)}).to_json()
    assert got == {"check": "jacobi", "witness": [[0, 1], [2, 3, 3]],
                   "expected": ["0", "1", "1/2", "-3"],
                   "actual": {"2": "5", "3": "-1/2"}}
    old = Violation("x", witness=(4,), expected=[Fraction(0), Fraction(2)],
                    actual=Fraction(-7)).to_json()
    assert Violation("x", witness=(4,), expected=[0, 2],
                     actual=-7).to_json() == old
    assert old["witness"] == [4] and old["actual"] == "-7"
    flags = Violation("delta-derivation-equivalence", witness=(0, 1),
                      expected="both or neither derivations",
                      actual=(True, False)).to_json()
    assert flags["actual"] == [True, False] and flags["witness"] == [0, 1]
    assert Violation("y", expected=None, actual="text").to_json()[
        "expected"] is None


def test_non_monotone_args_rejected(a4):
    doc = io_json.algebra_to_dict(a4)
    doc["brackets"][0]["args"] = [2, 1, 3]
    with pytest.raises((FormatError, Exception)):
        io_json.dict_to_algebra(doc)


def test_duplicate_basis_names_rejected(a4):
    doc = io_json.algebra_to_dict(a4)
    doc["basis"][1]["name"] = doc["basis"][0]["name"]
    with pytest.raises(FormatError):
        io_json.dict_to_algebra(doc)


def test_torsion_incompatible_bicharacter_rejected(super_heis):
    doc = io_json.algebra_to_dict(super_heis)
    doc["bicharacter"] = [["2"]]
    with pytest.raises(AlgebraValidationError) as err:
        io_json.dict_to_algebra(doc)
    assert any(v.check.startswith("bicharacter") for v in err.value.report.violations)


def test_invalid_constants_rejected_on_load(a4):
    doc = io_json.algebra_to_dict(a4)
    doc["brackets"][0]["value"]["0"] = "1"  # off-target injection
    with pytest.raises(AlgebraValidationError):
        io_json.dict_to_algebra(doc)


@pytest.mark.parametrize("fixture, path, value, what", [
    ("a4", ["arity"], 3.7, "arity"),
    ("a4", ["arity"], True, "arity"),
    ("rational_heis", ["group", "free_rank"], 2.0, "free_rank"),
    ("super_heis", ["group", "torsion", 0], 2.0, "torsion modulus"),
    ("super_heis", ["group", "torsion", 0], True, "torsion modulus"),
    ("a4", ["brackets", 0, "args", 2], 2.9, "bracket argument"),
    ("a4", ["brackets", 0, "args", 1], True, "bracket argument"),
    ("super_heis", ["basis", 0, "degree", 0], 1.0, "degree coordinate"),
    ("rational_heis", ["basis", 0, "degree", 0], True, "degree coordinate"),
])
def test_non_integer_field_rejected(request, tmp_path, capsys, fixture, path,
                                    value, what):
    """An integer field holding a float or a bool is a format error, not a
    number to truncate: loading raises FormatError and validate exits 1
    with a load violation."""
    doc = io_json.algebra_to_dict(request.getfixturevalue(fixture))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(FormatError, match=f"{what} must be an integer"):
        io_json.dict_to_algebra(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert main(["validate", "--json", str(file)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["valid"] is False
    assert report["violations"][0]["check"] == "load"


@pytest.mark.parametrize("value", [[1], "1", 3, None],
                         ids=["list", "string", "number", "null"])
def test_non_object_bracket_value_rejected(tmp_path, capsys, a4, value):
    """A bracket "value" that is not a JSON object is a format error:
    validate exits 1 with a load violation, every other command that loads
    the file exits 1 with an error report."""
    doc = io_json.algebra_to_dict(a4)
    doc["brackets"][0]["value"] = value
    with pytest.raises(FormatError, match="must be an object"):
        io_json.dict_to_algebra(doc)
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(doc))
    assert main(["validate", "--json", str(file)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"][0]["check"] == "load"
    for args in (["spaces", "--kind", "der"], ["center"],
                 ["verify", "--all", "--k-max", "1"], ["tder", "--k-max", "1"]):
        assert main([*args, "--json", str(file)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"][0]["check"] == "error"
        assert "must be an object" in report["results"]["error"]


def test_bad_json_rejected():
    with pytest.raises(FormatError):
        io_json.loads("{not json")


# -- CLI -----------------------------------------------------------------------

def test_example_pipes_into_validate():
    emitted = _run_cli(["example", "a4"])
    assert emitted.returncode == 0
    checked = _run_cli(["validate", "-"], stdin_text=emitted.stdout)
    assert checked.returncode == 0


def test_example_all_names(tmp_path):
    for name in ("abelian", "a4", "simple-n", "twisted-a4", "super-heis"):
        out = tmp_path / f"{name}.json"
        proc = _run_cli(["example", name, "-o", str(out)])
        assert proc.returncode == 0
        assert io_json.load(str(out)).dim >= 1


def test_spaces_reports_dimension(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["spaces", "--kind", "der", "--k", "0", "--json", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["dimension"] == 6


def test_check_subcommand(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": [["0"] * 4 for _ in range(4)]}))
    proc = _run_cli(["check", "--kind", "der", "--k", "0",
                     "--map", str(mp), "--json", str(path)])
    assert proc.returncode == 0
    bad = tmp_path / "bad.json"
    rows = [["0"] * 4 for _ in range(4)]
    rows[0][0] = "1"
    bad.write_text(json.dumps({"matrix": rows}))
    proc = _run_cli(["check", "--kind", "der", "--k", "0",
                     "--map", str(bad), "--json", str(path)])
    assert proc.returncode == 1


def test_delta_subcommand(tmp_path):
    path = tmp_path / "a4.json"
    a4 = build_simple_nlie(3)
    io_json.save(a4, path)
    from nhlc.spaces import derivation_space
    D = derivation_space(a4, 0).maps()[0]
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"matrix": io_json.matrix_to_grid(D.matrix)}))
    proc = _run_cli(["delta", "--k", "0", "--map", str(mp), "--json", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["well_defined"] is True
    assert doc["results"]["equal_to_input"] is True


def test_center_subcommand(tmp_path):
    path = tmp_path / "sh.json"
    io_json.save(build_super_heis(), path)
    proc = _run_cli(["center", "--json", str(path)])
    doc = json.loads(proc.stdout)
    assert doc["results"]["dimension"] == 1


def test_centralizer_defaults_to_center(tmp_path):
    path = tmp_path / "sh.json"
    io_json.save(build_super_heis(), path)
    proc = _run_cli(["centralizer", "--json", str(path)])
    doc = json.loads(proc.stdout)
    assert doc["results"]["dimension"] == 1


def test_tder_subcommand_on_binary(tmp_path):
    path = tmp_path / "sh.json"
    io_json.save(build_super_heis(), path)
    proc = _run_cli(["tder", "--k-max", "0", "--json", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert sum(b["dim"] for b in doc["results"]["blocks"]) == 9


def test_tder_subcommand_from_inner(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["tder", "--source", "inn", "--k-max", "0", "--json",
                     str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert sum(b["dim"] for b in doc["results"]["blocks"]) == 6


def test_verify_exit_codes(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["verify", "--all", "--k-max", "1", str(path)])
    assert proc.returncode == 0
    assert "PASS axioms" in proc.stdout


@pytest.mark.parametrize("name, code", [("color_heis3", 0), ("sign_a4", 1)])
def test_verify_text_lines_match_the_json_report(tmp_path, request, capsys,
                                                 name, code):
    """The text form of verify has one line per check: PASS, SKIP with the
    reason, or FAIL with the violation count, then the total.  COLOR_HEIS3
    is not perfect, so checks are skipped; the sign twist of A4 fails the
    inner centralizer and triple invariance."""
    from nhlc.builders import build_yau_twist
    from nhlc.linalg import Matrix
    if name == "sign_a4":
        A = build_yau_twist(build_simple_nlie(3), Matrix(
            [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            name="SIGN_A4")
    else:
        A = request.getfixturevalue(name)
    path = tmp_path / "algebra.json"
    io_json.save(A, path)
    assert main(["verify", "--all", "--k-max", "1", "--json", str(path)]) == code
    doc = json.loads(capsys.readouterr().out)
    assert main(["verify", "--all", "--k-max", "1", str(path)]) == code
    head, lines, tail = [], [], []
    for line in capsys.readouterr().out.splitlines():
        (lines if line.startswith("  ") else tail if lines else head).append(line)
    assert head == ["command: verify", f"algebra: {A.name}", "k_max: 1"]
    assert tail == [f"violations: {len(doc['violations']) or 'none'}"]
    status = {"PASS": "passed", "SKIP": "skipped", "FAIL": "violated"}
    assert len(lines) == len(doc["results"]["checks"])
    for line, entry in zip(lines, doc["results"]["checks"]):
        m = re.fullmatch(r"  (PASS|SKIP|FAIL) ([^ :]+)"
                         r"(?:: (.+)| \((\d+) violations\))?", line)
        assert m, line
        word, check, reason, count = m.groups()
        assert (status[word], check) == (entry["status"], entry["check"])
        assert reason == entry.get("reason")
        assert count == (str(len(entry["violations"]))
                         if word == "FAIL" else None)
    words = [line.split()[0] for line in lines]
    assert ("SKIP" in words) == (name == "color_heis3")
    assert words.count("FAIL") == (2 if name == "sign_a4" else 0)


def test_verify_rejects_invalid_file(tmp_path):
    doc = io_json.algebra_to_dict(build_simple_nlie(3))
    doc["brackets"][0]["value"]["0"] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli(["verify", "--all", "--json", str(path)])
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["violations"]


def test_usage_error_exit_code():
    proc = _run_cli(["spaces", "--kind", "bogus", "nosuch.json"])
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [["verify", "--all"], ["tder"]])
def test_negative_k_max_is_usage_error(tmp_path, capsys, command):
    """--k-max -1 leaves every twist-power range empty; it is refused
    before any check runs instead of passing checks that test nothing."""
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--k-max", "-1", "--json", str(path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--k-max: must be nonnegative, got -1" in err


def test_negative_spaces_k_stays_valid(tmp_path, capsys):
    """A negative --k of spaces asks for a power of the inverse twist."""
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    assert main(["spaces", "--kind", "der", "--k", "-1", "--json",
                 str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dimension"] == 6


def test_missing_file_is_failure():
    proc = _run_cli(["validate", "/nonexistent/algebra.json"])
    assert proc.returncode == 1


def test_main_callable_directly(tmp_path, capsys):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    code = main(["center", "--json", str(path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["dimension"] == 0


def test_report_schema_stable(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    for args in (["validate"], ["center"], ["spaces", "--kind", "der"],
                 ["verify", "--all", "--k-max", "0"]):
        proc = _run_cli([args[0], *args[1:], "--json", str(path)])
        doc = json.loads(proc.stdout)
        assert set(doc) == {"command", "algebra", "parameters", "results",
                            "violations", "notices"}


def test_traced_verify_prints_the_untraced_report(tmp_path):
    """perfbench/tracer.py wraps nhlc functions by name and raises when one
    it names is gone; traced, a command prints the same bytes as untraced."""
    import os
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    args = ["verify", str(path), "--all", "--k-max", "0", "--json"]
    tracer = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tracer.py")
    traced = subprocess.run([sys.executable, tracer, str(tmp_path / "trace.json"),
                             "cli", *args], capture_output=True)
    plain = subprocess.run([sys.executable, "-m", "nhlc.cli", *args],
                           capture_output=True)
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0
    assert traced.stdout == plain.stdout


def test_threads_env_rejected_if_malformed(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["center", "--json", str(path)],
                    env_extra={"NHLC_THREADS": "zebra"})
    assert proc.returncode == 1


def test_verify_triple_only(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["verify", "--triple", "--k-max", "0", "--json", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    names = [c["check"] for c in doc["results"]["checks"]]
    assert names == ["triple-invariance", "triple-equals-derivations[Inn]",
                     "triple-equals-derivations[Der]"]


def test_spaces_inner_kind(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["spaces", "--kind", "inner", "--k", "0", "--json", str(path)])
    doc = json.loads(proc.stdout)
    assert doc["results"]["dimension"] == 6


def test_spaces_negative_k(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["spaces", "--kind", "der", "--k=-1", "--json", str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["dimension"] == 6
    # singular twist: negative powers are an error, reported not crashed
    from nhlc.builders import build_abelian
    from nhlc.linalg import Matrix
    sing = build_abelian(1, alpha=Matrix([[0]]), arity=2)
    spath = tmp_path / "sing.json"
    io_json.save(sing, spath)
    proc = _run_cli(["spaces", "--kind", "der", "--k=-1", "--json", str(spath)])
    assert proc.returncode == 1


def test_color_round_trip(tmp_path, color_heis3):
    path = tmp_path / "color.json"
    io_json.save(color_heis3, path)
    back = io_json.load(str(path))
    assert io_json.algebra_to_dict(back) == io_json.algebra_to_dict(color_heis3)
    proc = _run_cli(["verify", "--all", "--k-max", "1", str(path)])
    assert proc.returncode == 0


def test_check_with_nonzero_degree_map(tmp_path, color_heis3):
    """An odd-degree map on the graded ternary instance round-trips through
    the map-file degree field and the oracle."""
    from nhlc.spaces import derivation_space
    path = tmp_path / "color.json"
    io_json.save(color_heis3, path)
    odd = color_heis3.group.element(torsion=(1,))
    odd_maps = [m for m in derivation_space(color_heis3, 0).maps()
                if m.degree == odd]
    assert odd_maps
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"degree": [1],
                              "matrix": io_json.matrix_to_grid(odd_maps[0].matrix)}))
    proc = _run_cli(["check", "--kind", "der", "--k", "0", "--map", str(mp),
                     "--json", str(path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["ok"] is True


def test_tder_from_double_derivations(tmp_path):
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    proc = _run_cli(["tder", "--source", "dder", "--k-max", "0", "--json",
                     str(path)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert sum(b["dim"] for b in doc["results"]["blocks"]) == 6


# -- map files and input errors -------------------------------------------------

X_TO_X = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]


@pytest.mark.parametrize("doc, error", [
    ({"degree": [1], "matrix": X_TO_X}, "not homogeneous of degree (1)"),
    ({"matrix": [["1", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]]},
     "not homogeneous of degree (0)"),
    ({"degree": [0]}, "no 'matrix' field"),
    ({"degree": [0.0], "matrix": X_TO_X}, "degree coordinate must be an integer"),
    ({"degree": [False], "matrix": X_TO_X},
     "degree coordinate must be an integer"),
], ids=["declared-degree-contradicted", "inhomogeneous", "no-matrix",
        "float-degree", "bool-degree"])
def test_check_rejects_bad_map_file(tmp_path, doc, error):
    """On SUPER_HEIS (x, y odd, z even), x -> x has degree 0: a file that
    declares degree 1 for it used to be checked at degree 1."""
    path = tmp_path / "sh.json"
    io_json.save(build_super_heis(), path)
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(doc))
    proc = _run_cli(["check", "--kind", "der", "--map", str(mp), "--json",
                     str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert error in json.loads(proc.stdout)["results"]["error"]


def test_map_degree_inferred_from_support(tmp_path):
    """Without a "degree" field the degree comes from the support."""
    from nhlc.cli import _load_map
    from nhlc.spaces import derivation_space
    A = build_super_heis()
    odd = A.group.element(torsion=(1,))
    odd_der = next(m for m in derivation_space(A, 0).maps() if m.degree == odd)
    mp = tmp_path / "map.json"
    for grid, degree in ((X_TO_X, A.group.zero()),
                         (io_json.matrix_to_grid(odd_der.matrix), odd),
                         ([["0"] * 3 for _ in range(3)], A.group.zero())):
        mp.write_text(json.dumps({"matrix": grid}))
        assert _load_map(A, str(mp)).degree == degree


@pytest.mark.parametrize("args, code", [
    (["spaces", "--kind", "inner", "--k", "-1"], 1),
    (["spaces", "--kind", "der", "--k", "3000"], 0),
    (["centralizer", "--span", "missing.json"], 1),
    (["centralizer", "--span", "not-json.json"], 1),
    (["centralizer", "--span", "no-vectors.json"], 1),
    (["delta", "--map", "not-dder.json"], 1),
    (["check", "--kind", "dder", "--map", "missing.json"], 1),
])
def test_bad_input_gets_a_report(tmp_path, args, code):
    """No input ends in a traceback: the exit code is 0 or 1 and stdout
    carries a report."""
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    (tmp_path / "not-json.json").write_text("{")
    (tmp_path / "no-vectors.json").write_text("{}")
    projection = [["0"] * 4 for _ in range(4)]
    projection[0][0] = "1"
    (tmp_path / "not-dder.json").write_text(json.dumps({"matrix": projection}))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    proc = _run_cli([*args, "--json", str(path)])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == args[0]
    assert bool(doc["violations"]) == (code == 1)


def _two_degree_doc(size):
    """A binary algebra without brackets on two basis elements of degrees
    (size, 0) and (0, size) over Z^2, with eps(e1, e2) = 2."""
    return {"name": "two-degrees", "arity": 2,
            "group": {"free_rank": 2, "torsion": []},
            "bicharacter": [["1", "2"], ["1/2", "1"]],
            "basis": [{"name": "a", "degree": [size, 0]},
                      {"name": "b", "degree": [0, size]}],
            "alpha": [["1", "0"], ["0", "1"]], "brackets": []}


def test_huge_degrees_refused_at_load(tmp_path):
    """Degrees 10^6 under eps(e1, e2) = 2 would make eps values powers of 2
    with exponents near 10^12: loading refuses the file before it forms
    any, with exit 1 and a load report, well under a second.  The same
    file with degrees 10 loads and validates."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_two_degree_doc(10 ** 6)))
    proc = subprocess.run(
        [sys.executable, "-m", "nhlc.cli", "validate", "--json", str(path)],
        capture_output=True, text=True, timeout=20, env=_src_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    [violation] = json.loads(proc.stdout)["violations"]
    assert violation["check"] == "load"
    assert "degrees too large" in violation["actual"]
    start = time.perf_counter()
    with pytest.raises(FormatError, match="degrees too large"):
        io_json.loads(path.read_text())
    assert time.perf_counter() - start < 1
    small = io_json.dict_to_algebra(_two_degree_doc(10))
    assert io_json.eps_bit_bound(small.eps, small.degrees, 2) <= io_json.MAX_EPS_BITS


ZERO_ENTRY_DOC = {
    "name": "zero-entry", "arity": 2, "group": {"free_rank": 2, "torsion": []},
    "bicharacter": [["1", "0"], ["0", "1"]],
    "basis": [{"name": "a", "degree": [-1, 0]}, {"name": "b", "degree": [0, 1]},
              {"name": "c", "degree": [-1, 1]}],
    "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "brackets": [{"args": [0, 1], "value": {"2": "1"}}]}


@pytest.mark.parametrize("args", [
    ["validate"], ["spaces", "--kind", "der", "--k", "0"],
    ["verify", "--all", "--k-max", "0"]])
def test_zero_bicharacter_entry_refused_at_load(tmp_path, args):
    """A bicharacter takes values in Q^x.  A 0 entry, raised to the
    negative powers of the degrees (-1, 0) and (-1, 1), once ended these
    commands in a ZeroDivisionError; now the file is refused at load with
    exit 1 and a report naming the entry."""
    with pytest.raises(DomainError, match=r"entry \(0, 1\) is 0"):
        Bicharacter(GradingGroup(free_rank=2), [[1, 0], [0, 1]])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_ENTRY_DOC))
    proc = subprocess.run(
        [sys.executable, "-m", "nhlc.cli", *args, "--json", str(path)],
        capture_output=True, text=True, timeout=20, env=_src_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    [violation] = json.loads(proc.stdout)["violations"]
    assert "bicharacter entry (0, 1) is 0" in violation["actual"]


BAD_EPS_DOC = {
    "name": "bad-eps", "arity": 6, "group": {"free_rank": 0, "torsion": [2]},
    "bicharacter": [["2"]],
    "basis": [{"name": n, "degree": [d]} for n, d in
              [("a", 0), ("b", 1), ("c", 0), ("d", 1)]],
    "alpha": [[str(int(i == j)) for j in range(4)] for i in range(4)],
    "brackets": []}


@pytest.mark.parametrize("args", [
    ["validate"], ["spaces", "--kind", "der", "--k", "0"],
    ["verify", "--all", "--k-max", "0"]])
def test_invalid_bicharacter_refused_without_the_sweep(tmp_path, args):
    """eps(odd, odd) = 2 is no bicharacter of Z/2.  Loading once went on to
    the Jacobi sweep over every ordered tuple pair, 4^5 x 4^6 at arity 6,
    and ran for minutes; now the bicharacter report stands alone: exit 1,
    and every violation is a bicharacter one."""
    path = tmp_path / "bad-eps.json"
    path.write_text(json.dumps(BAD_EPS_DOC))
    proc = subprocess.run(
        [sys.executable, "-m", "nhlc.cli", *args, "--json", str(path)],
        capture_output=True, text=True, timeout=10, env=_src_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    violations = json.loads(proc.stdout)["violations"]
    assert violations and all(v["check"].startswith("bicharacter-")
                              for v in violations)


ZERO_4X4 = [["0"] * 4 for _ in range(4)]
K_HUGE = 10 ** 9


def _without_k(report):
    """A report with the echoed twist power left out."""
    for part in ("parameters", "results"):
        report[part].pop("k", None)
    return report


@pytest.mark.parametrize("args", [
    ["check", "--kind", "der"], ["check", "--kind", "dder"], ["delta"]])
@pytest.mark.parametrize("name, period", [("a4", 1), ("twisted_a4", 2)])
def test_huge_twist_power_is_read_at_its_class(tmp_path, request, name,
                                               period, args):
    """The twist of A4 has order 1 and that of TWISTED_A4 order 2; at
    --k 10^9 these commands once stepped through every power and were
    killed after 30 s.  Now alpha^k is read at the twist class of k: exit 0
    and the report at k mod the order, but for the echoed k."""
    path = tmp_path / "algebra.json"
    io_json.save(request.getfixturevalue(name), path)
    mp = tmp_path / "zero.json"
    mp.write_text(json.dumps({"matrix": ZERO_4X4}))

    def cmd(k):
        return [*args, "--k", str(k), "--map", str(mp), "--json", str(path)]
    proc = subprocess.run([sys.executable, "-m", "nhlc.cli", *cmd(K_HUGE)],
                          capture_output=True, text=True, timeout=10,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(cmd(K_HUGE % period)) == 0
    assert _without_k(json.loads(proc.stdout)) == \
        _without_k(json.loads(out.getvalue()))


def _without_k_max(report):
    """A report with the echoed largest twist power left out."""
    report["parameters"].pop("k_max")
    return report


@pytest.mark.parametrize("name, phi, code", [
    ("A4", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 0),
    ("SIGN_A4", [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 1)])
def test_huge_k_max_costs_the_distinct_twists(tmp_path, name, phi, code):
    """The identity twist of A4 has order 1 and the sign twist order 2; at
    --k-max 10^8 the inner centralizer once kept its blocks for every k and
    ran until killed (the sign twist's report at --k-max 10^6 was 164 MB).
    Now each verifier walks one k per distinct twist power: the exit code
    and the report at --k-max 3, but for the echoed k_max."""
    from nhlc.builders import build_yau_twist
    from nhlc.linalg import Matrix
    path = tmp_path / "algebra.json"
    io_json.save(build_yau_twist(build_simple_nlie(3), Matrix(phi), name=name),
                 path)

    def cmd(k_max):
        return ["verify", "--all", "--k-max", str(k_max), "--json", str(path)]
    proc = subprocess.run([sys.executable, "-m", "nhlc.cli", *cmd(10 ** 8)],
                          capture_output=True, text=True, timeout=10,
                          env=_src_env())
    assert proc.returncode == code, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(cmd(3)) == code
    assert _without_k_max(json.loads(proc.stdout)) == \
        _without_k_max(json.loads(out.getvalue()))


def test_twist_power_of_infinite_order_refused(tmp_path, color_heis3):
    """COLOR_HEIS3 with the twist y -> y + z is valid, and the twist has
    infinite order: its powers never repeat, so --k 10^9 would walk 10^9
    powers.  The walk stops at MAX_TWIST_POWERS with exit 1 and a report;
    below that, powers are formed as before."""
    from nhlc.algebra import MAX_TWIST_POWERS, ColorAlgebra
    from nhlc.linalg import Matrix
    A = color_heis3
    shear = Matrix([[int(i == j or (i, j) == (3, 2)) for j in range(4)]
                    for i in range(4)])
    path = tmp_path / "shear.json"
    io_json.save(ColorAlgebra("HEIS3_SHEAR", 3, A.group, A.eps, list(A.basis),
                              shear, A.constants), path)
    mp = tmp_path / "e11.json"
    mp.write_text(json.dumps({"matrix": [["1", "0", "0", "0"]] + ZERO_4X4[1:]}))

    def cmd(k):
        return ["check", "--kind", "dder", "--k", str(k), "--map", str(mp),
                "--json", str(path)]
    proc = subprocess.run([sys.executable, "-m", "nhlc.cli", *cmd(K_HUGE)],
                          capture_output=True, text=True, timeout=10,
                          env=_src_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    [violation] = json.loads(proc.stdout)["violations"]
    assert violation["actual"] == (
        f"twist power {K_HUGE} refused: the first {MAX_TWIST_POWERS} "
        f"powers of the twist of HEIS3_SHEAR repeat none")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd(MAX_TWIST_POWERS - 1)) == 0
        assert main(cmd(-K_HUGE)) == 1


ZERO_3X3 = [["0"] * 3 for _ in range(3)]


@pytest.mark.parametrize("args", [
    ["check", "--kind", "der"], ["check", "--kind", "tder"], ["delta"]])
def test_map_degree_outside_the_candidates_refused(tmp_path, rational_heis,
                                                   args):
    """On RATIONAL_HEIS (eps(e1, e2) = 2) the zero map of degree
    (10^9, 10^9) once ran `check --kind der` for seconds and `tder` until
    killed: no nonzero map has that degree, so the map file is refused
    with exit 1 and a report, in well under a second.  The zero map of a
    candidate degree is still checked."""
    path = tmp_path / "rh.json"
    io_json.save(rational_heis, path)
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps({"degree": [10 ** 9, 10 ** 9], "matrix": ZERO_3X3}))
    cmd = [*args, "--k", "0", "--map", str(mp), "--json", str(path)]
    proc = subprocess.run([sys.executable, "-m", "nhlc.cli", *cmd],
                          capture_output=True, text=True, timeout=10,
                          env=_src_env())
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    [violation] = json.loads(proc.stdout)["violations"]
    assert "is not a difference of two basis degrees" in violation["actual"]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(cmd) == 1
    assert time.perf_counter() - start < 1
    if args[0] == "check":
        mp.write_text(json.dumps({"degree": [1, -1], "matrix": ZERO_3X3}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(cmd) == 0


def test_stock_algebras_are_far_below_the_eps_bound(a4, super_heis, color_heis3,
                                                    rational_heis, regraded_a4):
    for A in (a4, super_heis, color_heis3, rational_heis, regraded_a4,
              build_simple_nlie(5)):
        assert io_json.eps_bit_bound(A.eps, A.degrees, A.arity) <= 64


ENTRIES = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 3]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_eps_bit_bound_holds_on_degree_sums(data):
    """Over Z^2 x Z/2 with any table, eps_bit_bound bounds log2 of the
    numerator and the denominator of eps on signed sums of up to 2n basis
    degrees, the extreme sums 2n d and +-2n e of basis degrees among them,
    and of the squares validate_bicharacter takes of the entries of the
    torsion row and column, also when every free coordinate is zero."""
    arity = data.draw(st.integers(2, 4))
    g = GradingGroup(free_rank=2, torsion=(2,))
    table = [[data.draw(st.sampled_from(ENTRIES)) for _ in range(3)]
             for _ in range(3)]
    eps = Bicharacter(g, table)
    degrees = [g.from_vector(v) for v in data.draw(st.lists(st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 1)),
        min_size=1, max_size=3))]

    def fits(x, bound):
        x = Fraction(x)
        return max(abs(x.numerator), x.denominator) <= 2 ** bound

    def degree_sum(drawn):
        return g.sum(g.neg(d) if negate else d for d, negate in drawn)
    bound = io_json.eps_bit_bound(eps, degrees, arity)
    terms = st.lists(st.tuples(st.sampled_from(degrees), st.booleans()),
                     max_size=2 * arity)
    assert fits(eps.value(degree_sum(data.draw(terms)),
                          degree_sum(data.draw(terms))), bound)
    for d in degrees:
        for e in degrees:
            for negate in (False, True):
                assert fits(eps.value(degree_sum([(d, False)] * 2 * arity),
                                      degree_sum([(e, negate)] * 2 * arity)),
                            bound)
    torsion_entries = table[2] + [row[2] for row in table]
    only_torsion = [g.from_vector((0, 0) + d.torsion) for d in degrees]
    for bound in (bound, io_json.eps_bit_bound(eps, only_torsion, arity)):
        assert all(fits(Fraction(t) ** 2, bound) for t in torsion_entries)
    lone = Bicharacter(GradingGroup(torsion=(2,)), [[2]])
    assert fits(2 ** 2, io_json.eps_bit_bound(lone, [], arity))


def test_cli_import_adds_no_dataclasses():
    """import nhlc.cli, over what a bare interpreter has loaded already,
    adds neither dataclasses nor inspect: together with ast, dis and
    tokenize they cost every command about 30 ms of start-up."""
    code = "import sys; {}print(' '.join(sorted(sys.modules)))"

    def loaded(statement):
        proc = subprocess.run([sys.executable, "-c", code.format(statement)],
                              capture_output=True, text=True, env=_src_env(),
                              timeout=60, check=True)
        return set(proc.stdout.split())
    added = loaded("import nhlc.cli; ") - loaded("")
    assert "nhlc.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


SOLVER = ("nhlc.delta", "nhlc.oracle", "nhlc.spaces", "nhlc.triple")


def test_cold_commands_load_no_solver(tmp_path):
    """import nhlc.cli, validate and example load none of the solver
    modules, and spaces loads neither delta, oracle nor triple: a command
    imports the modules it runs, so a process that only validates compiles
    no solver, and one that only solves spaces no oracle."""
    code = f"""
import contextlib, io, json, sys
from nhlc import cli
SOLVER = {SOLVER!r}
seen = [[m for m in SOLVER if m in sys.modules]]
for argv in (["example", "a4", "-o", "a4.json"],
             ["validate", "a4.json", "--json"], ["example", "a4"],
             ["spaces", "a4.json", "--kind", "der", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen.append([m for m in SOLVER if m in sys.modules])
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env(), cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, example_file, validate, example, spaces = json.loads(proc.stdout)
    assert imported == example_file == validate == example == []
    assert "nhlc.spaces" in spaces
    assert not {"nhlc.delta", "nhlc.oracle", "nhlc.triple"} & set(spaces), \
        spaces


# one run of each subcommand on A4 (written by `example a4`), with the zero
# map of A4 and a span file of one vector
SUBCOMMAND_RUNS = {
    "example": ["example", "a4"],
    "validate": ["validate", "a4.json", "--json"],
    "spaces": ["spaces", "a4.json", "--kind", "dder", "--k", "1", "--json"],
    "center": ["center", "a4.json", "--json"],
    "centralizer": ["centralizer", "a4.json", "--span", "span.json",
                    "--json"],
    "check": ["check", "a4.json", "--kind", "tder", "--map", "zero.json",
              "--json"],
    "delta": ["delta", "a4.json", "--map", "zero.json", "--json"],
    "tder": ["tder", "a4.json", "--k-max", "0", "--json"],
    "verify": ["verify", "a4.json", "--all", "--k-max", "1"],
}


def test_subcommand_runs_cover_the_parser():
    from nhlc.cli import build_parser
    commands = next(a for a in build_parser()._actions
                    if a.dest == "command")
    assert set(SUBCOMMAND_RUNS) == set(commands.choices)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_subcommand_in_a_fresh_process(tmp_path, command, monkeypatch):
    """Each subcommand prints the same report and exits with the same code
    in a fresh process as through cli.main in this one: in-process tests
    share one sys.modules, so only a fresh process shows that a command
    imports every module it runs."""
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["example", "a4", "-o", "a4.json"]) == 0
    (tmp_path / "zero.json").write_text(json.dumps({"matrix": [["0"] * 4] * 4}))
    (tmp_path / "span.json").write_text(
        json.dumps({"vectors": [["1", "0", "0", "0"]]}))
    argv = SUBCOMMAND_RUNS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    proc = subprocess.run([sys.executable, "-m", "nhlc.cli", *argv],
                          capture_output=True, text=True, env=_src_env(),
                          cwd=tmp_path, timeout=120)
    assert proc.stderr == ""
    assert (proc.stdout, proc.returncode) == (out.getvalue(), code)
    assert out.getvalue()


# -- fuzzing ------------------------------------------------------------------

REPORT_KEYS = {"command", "algebra", "parameters", "results", "violations",
               "notices"}

# the fields of each input file; "*" stands for every list entry or key
FIELDS = {
    "algebra": [
        ("name",), ("arity",), ("group",), ("group", "free_rank"),
        ("group", "torsion"), ("group", "torsion", "*"), ("bicharacter",),
        ("bicharacter", "*"), ("bicharacter", "*", "*"), ("basis",),
        ("basis", "*"), ("basis", "*", "name"), ("basis", "*", "degree"),
        ("basis", "*", "degree", "*"), ("alpha",), ("alpha", "*"),
        ("alpha", "*", "*"), ("brackets",), ("brackets", "*"),
        ("brackets", "*", "args"), ("brackets", "*", "args", "*"),
        ("brackets", "*", "value"), ("brackets", "*", "value", "*")],
    "map": [("degree",), ("degree", "*"), ("matrix",), ("matrix", "*"),
            ("matrix", "*", "*")],
    "span": [("vectors",), ("vectors", "*"), ("vectors", "*", "*")],
}

# (arguments, the file besides the algebra file that the command reads)
FUZZ_COMMANDS = [
    (["validate"], None),
    (["center"], None),
    (["spaces", "--kind", "der"], None),
    (["centralizer", "--span", "span.json"], "span"),
    (["check", "--kind", "der", "--map", "map.json"], "map"),
    (["check", "--kind", "dder", "--map", "map.json"], "map"),
    (["check", "--kind", "tder", "--map", "map.json"], "map"),
    (["delta", "--map", "map.json"], "map"),
    (["check", "--kind", "dder", "--k", "1000000000", "--map", "map.json"],
     "map"),
    (["delta", "--k", "1000000000", "--map", "map.json"], "map"),
    (["verify", "--all", "--k-max", "1000000000"], None),
]

# small JSON values to put in place of one field; huge integers go to --k
# and --k-max above, where a twist of finite order is read at the class of
# k and one of infinite order is refused past MAX_TWIST_POWERS.  Degree
# entries may also be +-10^9: huge degrees under a rational bicharacter are
# refused at load (test_huge_degrees_refused_at_load), and map degrees
# outside the candidate degrees when the map is read
# (test_map_degree_outside_the_candidates_refused)
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(
        [0.5, 2.0, "", "x", "1/2", "-1", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "x"]), inner, max_size=2),
    max_leaves=4)


@st.composite
def fuzz_cases(draw):
    """(algebra, command, file, field, entry, cut, value): the file is one
    the command reads; when cut is None, value replaces the entry-th
    occurrence of field in it, else its JSON is cut to cut percent."""
    command = draw(st.sampled_from(range(len(FUZZ_COMMANDS))))
    extra = FUZZ_COMMANDS[command][1]
    file = draw(st.sampled_from(["algebra"] + ([extra] if extra else [])))
    field = draw(st.sampled_from(FIELDS[file]))
    values = SMALL_JSON
    if field[-2:] == ("degree", "*"):
        values = values | st.sampled_from([10 ** 9, -10 ** 9])
    return (draw(st.sampled_from(["a4", "color_heis3", "rational_heis"])),
            command, file, field, draw(st.integers(0, 15)),
            draw(st.none() | st.integers(0, 99)), draw(values))


def _occurrences(node, field):
    """The paths in a JSON document that field names."""
    if not field:
        return [()]
    head, rest = field[0], field[1:]
    if head == "*":
        keys = (list(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else [])
    else:
        keys = [head] if isinstance(node, dict) and head in node else []
    return [(key,) + path for key in keys
            for path in _occurrences(node[key], rest)]


def _input_docs(A):
    """An algebra file of A, a map file with its first DDer^0 basis map
    (Der^0 when A is binary) and a span file of one vector."""
    from nhlc.spaces import derivation_space, double_derivation_space
    D = (double_derivation_space if A.arity >= 3
         else derivation_space)(A, 0).maps()[0]
    return {"algebra": io_json.algebra_to_dict(A),
            "map": {"degree": list(D.degree.free + D.degree.torsion),
                    "matrix": io_json.matrix_to_grid(D.matrix)},
            "span": {"vectors": [io_json.vector_to_list(A.basis_vector(0))]}}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(case=fuzz_cases())
@example(case=("a4", 0, "algebra", ("brackets", "*", "value"), 0, None, [1]))
def test_fuzzed_input_gets_a_report(request, fuzz_dir, case):
    """Valid A4, COLOR_HEIS3 or RATIONAL_HEIS inputs with one field replaced
    by a small JSON value, or with the JSON cut short: main returns 0 or 1,
    prints a report and lets no exception out.  The explicit example is a bracket
    value that is a list, which once escaped as AttributeError."""
    algebra, command, file, field, entry, cut, value = case
    docs = _input_docs(request.getfixturevalue(algebra))
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    if cut is not None:
        texts[file] = texts[file][:len(texts[file]) * cut // 100]
    else:
        paths = _occurrences(docs[file], field)
        assume(paths)
        path = paths[entry % len(paths)]
        parent = docs[file]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        texts[file] = json.dumps(docs[file])
    for name, text in texts.items():
        (fuzz_dir / f"{name}.json").write_text(text)
    args = [str(fuzz_dir / a) if a.endswith(".json") else a
            for a in FUZZ_COMMANDS[command][0]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*args, "--json", str(fuzz_dir / "algebra.json")])
    assert code in (0, 1)
    report = json.loads(out.getvalue())
    assert set(report) == REPORT_KEYS
    assert bool(report["violations"]) == (code == 1)


def test_spaces_labels_blocks_with_the_asked_k(tmp_path, capsys):
    """A solved space is one object per twist class, labelled by it, but
    `spaces` reports the twist power it was asked for: 7 on A4, whose
    twist is the identity (class 0)."""
    path = tmp_path / "a4.json"
    io_json.save(build_simple_nlie(3), path)
    for k in (0, 7):
        assert main(["spaces", "--kind", "der", "--k", str(k), "--json",
                     str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"]["k"] == k
        assert [b["k"] for b in doc["results"]["blocks"]] == [k]
