import json
import subprocess
import sys

import numpy as np
import pytest

from freeconvex.corpus import corpus_problems, write_corpus
from freeconvex.io import (ParseError, ProblemFile, dumps, emit_corpus,
                           parse_problem, run)


def light_corpus():
    heavy = {"hull-union-intervals", "monicize-tv"}
    return [c for c in corpus_problems() if c.name not in heavy]


def test_serialization_round_trip_exact():
    for item in corpus_problems():
        pf = parse_problem(json.dumps(item.problem))
        again = parse_problem(pf.dumps())
        assert again.to_dict() == pf.to_dict(), item.name


def test_seventeen_digit_floats():
    pf = ProblemFile("bounded", {"pencil": {
        "A0": {"rows": 1, "cols": 1, "re": [1.0 / 3.0], "im": [0.0]},
        "x_coeffs": [], "y_coeffs": []}})
    assert "0.33333333333333331" in pf.dumps()


def test_infinity_round_trip():
    s = dumps({"margin": -np.inf})
    assert '"-inf"' in s
    assert json.loads(s)["margin"] == "-inf"


def test_parse_error_unknown_kind():
    with pytest.raises(ParseError):
        parse_problem(json.dumps({"version": "1", "kind": "nope",
                                  "payload": {}}))


def test_parse_error_empty_tuple():
    bad = {"version": "1", "kind": "tracial",
           "payload": {"B": {"matrices": []}, "Y": {"matrices": []}}}
    with pytest.raises(ParseError, match="empty tuple"):
        parse_problem(json.dumps(bad))


def test_parse_error_imaginary_diagonal():
    bad = {"version": "1", "kind": "membership",
           "payload": {"pencil": {"A0": {"rows": 1, "cols": 1, "re": [1.0],
                                         "im": [0.0]},
                                  "x_coeffs": [], "y_coeffs": []},
                       "X": {"matrices": [{"rows": 1, "cols": 1, "re": [1.0],
                                           "im": [0.1]}]}}}
    with pytest.raises(ParseError, match="[Hh]ermitian"):
        parse_problem(json.dumps(bad))


def test_parse_error_dimension_mismatch():
    bad = {"version": "1", "kind": "membership",
           "payload": {"pencil": {"A0": {"rows": 2, "cols": 2,
                                         "re": [1, 0, 0, 1], "im": [0] * 4},
                                  "x_coeffs": [{"rows": 1, "cols": 1,
                                                "re": [1.0], "im": [0.0]}],
                                  "y_coeffs": []},
                       "X": {"matrices": [{"rows": 1, "cols": 1, "re": [0.0],
                                           "im": [0.0]}]}}}
    with pytest.raises(ParseError):
        parse_problem(json.dumps(bad))


def test_run_statuses_match_manifest():
    for item in light_corpus():
        rep = run(parse_problem(json.dumps(item.problem)))
        assert rep.status == item.expect, (item.name, rep.status)
        assert rep.exit_code == 0


def test_reports_are_deterministic():
    for item in light_corpus()[:6]:
        pf = parse_problem(json.dumps(item.problem))
        a = run(pf).to_dict()
        b = run(pf).to_dict()
        a.pop("timings")
        b.pop("timings")
        assert dumps(a) == dumps(b), item.name


def test_emit_corpus_and_manifest(tmp_path):
    names = emit_corpus(tmp_path)
    assert "manifest.json" in names
    assert "tvscreen-dual-grid.csv" in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["midpoint-cthull.json"]["expect"] == "INFEASIBLE"
    assert manifest["tvscreen-drop-origin.json"]["expect"] == "FEASIBLE"
    grid = (tmp_path / "tvscreen-dual-grid.csv").read_text().splitlines()
    assert grid[0] == "c1,c2,expected_status,q_sign"
    assert len(grid) == 1 + 41 * 41
    # every emitted problem parses back
    for name, meta in manifest.items():
        if name.endswith(".json"):
            parse_problem((tmp_path / name).read_bytes())


def test_cli_run_and_exit_codes(tmp_path):
    write_corpus(tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "freeconvex.cli", "run",
         str(tmp_path / "halfline-dominate.json"), "--format", "json"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rep = json.loads(out.stdout)
    assert rep["status"] == "FEASIBLE"
    out = subprocess.run(
        [sys.executable, "-m", "freeconvex.cli", "run",
         str(tmp_path / "tvscreen-drop-outside.json"), "--format", "text"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert "INFEASIBLE" in out.stdout
    out = subprocess.run(
        [sys.executable, "-m", "freeconvex.cli", "run", "/no/such/file.json"],
        capture_output=True, text=True)
    assert out.returncode == 4


def test_cli_option_overrides(tmp_path):
    write_corpus(tmp_path)
    out = subprocess.run(
        [sys.executable, "-m", "freeconvex.cli", "run",
         str(tmp_path / "interval-polar-inside.json"), "--tol", "1e-9",
         "--format", "json"],
        capture_output=True, text=True)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["tolerances"]["tol"] == 1e-9


def test_run_rejects_variable_count_mismatch():
    bad = {"version": "1", "kind": "interpolate",
           "payload": {"A": {"matrices": [{"rows": 1, "cols": 1, "re": [1.0],
                                           "im": [0.0]}]},
                       "B": {"matrices": [{"rows": 1, "cols": 1, "re": [1.0],
                                           "im": [0.0]},
                                          {"rows": 1, "cols": 1, "re": [0.0],
                                           "im": [0.0]}]}}}
    pf = parse_problem(json.dumps(bad))
    with pytest.raises(ValueError):
        run(pf)


def test_cli_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    import freeconvex.io
    from freeconvex.cli import main

    def failing_solve(*args, **kwargs):
        raise RuntimeError("recession solve failed: {}")

    monkeypatch.setattr(freeconvex.io, "is_bounded", failing_solve)
    pf = ProblemFile("bounded", {"pencil": {
        "A0": {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]},
        "x_coeffs": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}],
        "y_coeffs": []}})
    path = tmp_path / "bounded.json"
    path.write_text(pf.dumps())
    assert main(["run", str(path)]) == 3
    assert "solver error: recession solve failed" in capsys.readouterr().err


def test_cli_hull_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a failed lift-point solve in hull_of_union is a solver error, not an
    # input error
    import freeconvex.sdp
    from freeconvex.cli import main

    def failing_solve(problem, tol, max_iter):
        return freeconvex.sdp.SDPSolution(freeconvex.sdp.SolveStatus.ERROR,
                                          info={"reason": "forced"})

    monkeypatch.setattr(freeconvex.sdp, "_solve_optimize", failing_solve)
    doc = next(c.problem for c in corpus_problems()
               if c.name == "hull-union-intervals")
    path = tmp_path / "hull.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 3
    assert "solver error: lift point solve failed" in capsys.readouterr().err


def test_cli_support_solve_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a failed support solve in drop_level1_bounded is a solver error, as a
    # failed recession solve of is_bounded is, not an unbounded answer
    import freeconvex.sdp
    from freeconvex.cli import main

    def failing_solve(problem, tol, max_iter):
        return freeconvex.sdp.SDPSolution(freeconvex.sdp.SolveStatus.ERROR,
                                          info={"reason": "forced"})

    monkeypatch.setattr(freeconvex.sdp, "_solve_optimize", failing_solve)
    # 1 + 0 x + y >= 0: the lift recedes along x, so the support of x runs
    one = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
    zero = {"rows": 1, "cols": 1, "re": [0.0], "im": [0.0]}
    pf = ProblemFile("bounded", {"pencil": {"A0": one, "x_coeffs": [zero],
                                            "y_coeffs": [one]}})
    path = tmp_path / "bounded.json"
    path.write_text(pf.dumps())
    assert main(["run", str(path)]) == 3
    assert "solver error: support solve failed" in capsys.readouterr().err


def _corpus_doc_with(name, value, *path):
    """The corpus problem `name` with payload[path] set to value."""
    doc = json.loads(json.dumps(
        next(c.problem for c in corpus_problems() if c.name == name)))
    node = doc["payload"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("doc, locus", [
    (_corpus_doc_with("possatz-search-inside", "abc", "r"), "payload.r"),
    (_corpus_doc_with("possatz-search-inside", None, "r"), "payload.r"),
    (_corpus_doc_with("monicize-tv", 5, "xhat"), "payload.xhat"),
    (_corpus_doc_with("tvscreen-drop-inside", "a", "X", "matrices", 0, "rows"),
     "payload.X.matrices[0]"),
    (_corpus_doc_with("tracial-scalar-inside", {"matrices": [], "dim": "z"},
                      "B"), "payload.B"),
    (_corpus_doc_with("possatz-search-inside", 0.9, "r"), "payload.r"),
    (_corpus_doc_with("possatz-search-inside", True, "r"), "payload.r"),
    (_corpus_doc_with("possatz-search-inside", -1, "r"), "payload.r"),
    (_corpus_doc_with("interval-polar-inside", "no", "bounded"),
     "payload.bounded"),
    (_corpus_doc_with("interval-polar-inside", 0, "bounded"),
     "payload.bounded"),
    (_corpus_doc_with("halfline-dominate", "yes", "isometry"),
     "payload.isometry"),
    (_corpus_doc_with("opp-tracial-inside", "false", "opp"), "payload.opp"),
    (_corpus_doc_with("opp-tracial-inside", None, "opp"), "payload.opp"),
], ids=["r-string", "r-null", "xhat-number", "rows-string", "dim-string",
        "r-float", "r-bool", "r-negative", "bounded-string", "bounded-number",
        "isometry-string", "opp-string", "opp-null"])
def test_cli_malformed_payload_exits_4(doc, locus, tmp_path, capsys):
    from freeconvex.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"input error: {locus}: ")


def test_kinds_order():
    from freeconvex.io import KINDS

    assert KINDS == ("membership", "interpolate", "dominate", "polar", "drop",
                     "drop-polar", "tracial", "thull", "cthull", "exsitu",
                     "possatz-verify", "possatz-search", "bounded",
                     "monicize", "hull-union")


# kind, detail keys and witness keys of the report of every corpus problem
REPORT_SCHEMA = {
    "exsitu-inside": ("exsitu", (), ("choi",)),
    "exsitu-outside": ("exsitu", (), ()),
    "halfline-bounded": ("bounded", ("bounded",), ()),
    "halfline-dominate-isometry": ("dominate", ("isometry",), ()),
    "halfline-dominate": ("dominate", ("isometry",), ("V", "S_square")),
    "halfline-membership-boundary": ("membership", ("lambda_min",), ()),
    "halfline-membership-outside": ("membership", ("lambda_min",), ()),
    "halfline-polar-member": ("polar", (), ("V",)),
    "hull-union-intervals": ("hull-union", (), ("lift",)),
    "interval-bounded": ("bounded", ("bounded",), ()),
    "interval-polar-inside": ("polar", (), ("V",)),
    "interval-polar-outside": ("polar", (), ()),
    "midpoint-cthull": ("cthull", ("per_generator", "margins"), ()),
    "monicize-tv": ("monicize", ("shift",), ("pencil",)),
    "operator-system-interpolate-cp": ("interpolate", (), ("choi",)),
    "operator-system-interpolate-operation": ("interpolate", (), ()),
    "opp-tracial-inside": ("tracial", (), ("T",)),
    "opp-tracial-outside": ("tracial", (), ()),
    "possatz-search-inside": ("possatz-search", ("residual",), ("S", "G")),
    "possatz-search-outside": ("possatz-search", (), ()),
    "possatz-verify-halfline": ("possatz-verify",
                                ("coefficient_residual",), ()),
    "trace-mismatch-thull": ("thull", ("per_generator", "margins"), ()),
    "tracial-scalar-inside": ("tracial", (), ("T",)),
    "tracial-scalar-outside": ("tracial", (), ()),
    "tvscreen-drop-inside": ("drop", (), ("Y1",)),
    "tvscreen-drop-origin": ("drop", (), ("Y1",)),
    "tvscreen-drop-outside": ("drop", (), ()),
    "tvscreen-dual-inside": ("drop-polar", (), ("V",)),
    "tvscreen-dual-outside": ("drop-polar", (), ()),
}


def test_report_schema_golden():
    items = corpus_problems()
    assert {c.name for c in items} == set(REPORT_SCHEMA)
    for item in items:
        rep = run(parse_problem(json.dumps(item.problem)))
        got = (rep.kind, tuple(rep.detail), tuple(rep.witnesses))
        assert got == REPORT_SCHEMA[item.name], item.name
        assert list(rep.to_dict()) == ["kind", "status", "decision", "margin",
                                       "detail", "witnesses", "timings",
                                       "tolerances", "provenance"]
