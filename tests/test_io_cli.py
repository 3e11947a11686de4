import json
import subprocess
import sys

import numpy as np
import pytest

from freeconvex.algebra import LinearPencil
from freeconvex.corpus import corpus_problems, scalar_tuple, write_corpus
from freeconvex.io import (ParseError, ProblemFile, dumps, emit_corpus,
                           encode_pencil, encode_tuple, parse_problem, run)


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


@pytest.fixture
def decodes(monkeypatch):
    """The kinds of the payloads decoded so far, one entry per decode."""
    import freeconvex.io
    calls = []
    decode = freeconvex.io._decode_payload

    def counted(pf):
        calls.append(pf.kind)
        return decode(pf)
    monkeypatch.setattr(freeconvex.io, "_decode_payload", counted)
    return calls


def test_run_takes_the_parse_time_decode(decodes):
    for item in light_corpus():
        del decodes[:]
        pf = parse_problem(json.dumps(item.problem))
        first = run(pf).to_dict()
        assert len(decodes) == 1, item.name
        second = run(pf).to_dict()      # decodes afresh
        assert len(decodes) == 2, item.name
        del first["timings"], second["timings"]
        assert dumps(first) == dumps(second), item.name


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
    # the 1x1 lift -5e-8 + 0 x at X = 0: its margin stays inside the band
    # and the witness rescue fails, so the answer is MARGINAL (exit 2)
    lift = LinearPencil(np.array([[-5e-8]]), [np.zeros((1, 1))])
    (tmp_path / "drop-marginal.json").write_text(dumps(
        {"version": "1", "kind": "drop",
         "payload": {"lift": encode_pencil(lift),
                     "X": encode_tuple(scalar_tuple(0.0))}}))
    out = subprocess.run(
        [sys.executable, "-m", "freeconvex.cli", "run",
         str(tmp_path / "drop-marginal.json"), "--format", "json"],
        capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert json.loads(out.stdout)["status"] == "MARGINAL"
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


def test_cli_decodes_the_payload_once(decodes, tmp_path, capsys):
    import freeconvex.cli
    write_corpus(tmp_path)
    path = str(tmp_path / "interval-polar-inside.json")
    code = freeconvex.cli.main(["run", path, "--tol", "1e-9",
                                "--format", "json"])
    assert code == 0 and decodes == ["polar"]
    rep = json.loads(capsys.readouterr().out)
    assert rep["tolerances"]["tol"] == 1e-9
    assert rep["provenance"]["options"]["tol"] == 1e-9


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
    import freeconvex.spectra
    from freeconvex.cli import main

    def failing_solve(*args, **kwargs):
        raise RuntimeError("recession solve failed: {}")

    monkeypatch.setattr(freeconvex.spectra, "is_bounded", failing_solve)
    pf = ProblemFile("bounded", {"pencil": {
        "A0": {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]},
        "x_coeffs": [{"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}],
        "y_coeffs": []}})
    path = tmp_path / "bounded.json"
    path.write_text(pf.dumps())
    assert main(["run", str(path)]) == 3
    assert "solver error: recession solve failed" in capsys.readouterr().err


def test_cli_hull_generator_error_exits_3(tmp_path, monkeypatch, capsys):
    # a generator solve that ends in ERROR, the other INFEASIBLE: the hull
    # reads ERROR, not MARGINAL
    from freeconvex import tracial
    from freeconvex.cli import main
    from freeconvex.cp import InterpolationMode, InterpolationResult
    from freeconvex.sdp import SolveStatus

    solve = tracial.interpolate
    seen = []

    def second_fails(*args, **kwargs):
        seen.append(None)
        if len(seen) == 2:
            return InterpolationResult(SolveStatus.ERROR,
                                       mode=InterpolationMode.OPERATION)
        return solve(*args, **kwargs)

    monkeypatch.setattr(tracial, "interpolate", second_fails)
    write_corpus(tmp_path)
    assert main(["run", str(tmp_path / "midpoint-cthull.json"),
                 "--format", "text"]) == 3
    out = capsys.readouterr().out
    assert "status:   ERROR" in out
    assert "per_generator: ['INFEASIBLE', 'ERROR']" in out


def test_cli_hull_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a failed lift-point solve in hull_of_union is a solver error, not an
    # input error; only that solve, a drop membership at X = 0, fails here
    import freeconvex.sdp
    from freeconvex import spectra
    from freeconvex.cli import main

    membership = spectra.drop_membership

    def failing_lift_point(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_interior_y_point":
            return spectra.DropMembership(
                freeconvex.sdp.SolveStatus.ERROR, info={"reason": "forced"})
        return membership(*args, **kwargs)

    monkeypatch.setattr(spectra, "drop_membership", failing_lift_point)
    doc = next(c.problem for c in corpus_problems()
               if c.name == "hull-union-intervals")
    path = tmp_path / "hull.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 3
    assert "solver error: lift point solve failed" in capsys.readouterr().err


def test_cli_support_solve_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a failed face or certificate solve in drop_level1_bounded is a solver
    # error when no other solve decided, as a failed recession solve of
    # is_bounded is, not an unbounded answer
    import freeconvex.sdp
    from freeconvex.cli import main
    from freeconvex.sdp import HermitianProblem

    # I + diag(0, 1) x + diag(1, 0) y >= 0, i.e. x >= -1: the joint pencil
    # recedes, diag(1, 0) spans only part of Herm(2), and its face and
    # certificate solves both run; the set is not empty (A0 = I)
    def diag(*v):
        return {"rows": 2, "cols": 2, "re": list(np.diag(v).ravel()),
                "im": [0.0] * 4}

    pf = ProblemFile("bounded", {"pencil": {"A0": diag(1.0, 1.0),
                                            "x_coeffs": [diag(0.0, 1.0)],
                                            "y_coeffs": [diag(1.0, 0.0)]}})
    path = tmp_path / "bounded.json"
    path.write_text(pf.dumps())
    solve = HermitianProblem.solve
    for site in ("drop_level1_bounded", "_bound_certificates"):
        def failing_solve(self, *args, **kwargs):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):   # a comprehension
                caller = caller.f_back
            if caller.f_code.co_name == site:
                return freeconvex.sdp.SDPSolution(
                    freeconvex.sdp.SolveStatus.ERROR, info={"reason": "forced"})
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(HermitianProblem, "solve", failing_solve)
        assert main(["run", str(path)]) == 3
        assert "solver error: boundedness solve failed" in \
            capsys.readouterr().err


def test_cli_support_unbounded_face_exits_0(tmp_path, capsys):
    # 1 - 2x >= 0 and 1 - 3x - 3y >= 0: the projection x <= 1/2 is
    # unbounded; the +x support problem's optimal face recedes along
    # y -> -oo, and the -x problem certifies the ray
    from freeconvex.cli import main

    def diag(*v):
        return {"rows": 3, "cols": 3, "re": list(np.diag(v).ravel()),
                "im": [0.0] * 9}

    pf = ProblemFile("bounded", {"pencil": {
        "A0": diag(1.0, 1.0, 1.0), "x_coeffs": [diag(-2.0, -3.0, -3.0)],
        "y_coeffs": [diag(0.0, -3.0, -3.0)]}})
    path = tmp_path / "bounded.json"
    path.write_text(pf.dumps())
    assert main(["run", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "UNBOUNDED" and rep["decision"] is False


@pytest.mark.parametrize("xs", [[(0.0, 1.0)], [(0.0, 1.0), (0.0, -1.0)]],
                         ids=["one", "pair"])
def test_cli_empty_x_only_set_is_bounded(xs, tmp_path, capsys):
    # diag(-1, 1) + sum diag(a_j) x_j >= 0 has no point: BOUNDED
    from freeconvex.cli import main

    def diag(*v):
        return {"rows": 2, "cols": 2, "re": list(np.diag(v).ravel()),
                "im": [0.0] * 4}

    pf = ProblemFile("bounded", {"pencil": {
        "A0": diag(-1.0, 1.0), "x_coeffs": [diag(*a) for a in xs],
        "y_coeffs": []}})
    path = tmp_path / "bounded.json"
    path.write_text(pf.dumps())
    assert main(["run", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "BOUNDED" and rep["decision"] is True


def test_cli_undecodable_file_exits_4(tmp_path, monkeypatch, capsys):
    import io

    from freeconvex.cli import main
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "bounded", "note": "\xe9"}')
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err.startswith("input error: not UTF-8: ")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(path.read_bytes())))
    assert main(["run", "-"]) == 4
    assert capsys.readouterr().err.startswith("input error: not UTF-8: ")


def test_cli_stdin_is_read_as_bytes(tmp_path, monkeypatch, capsys):
    import io

    from freeconvex.cli import main
    write_corpus(tmp_path)
    data = (tmp_path / "halfline-dominate.json").read_bytes()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["run", "-", "--format", "text",
                 "--out", str(tmp_path / "report.txt")]) == 0
    assert capsys.readouterr().out == ""
    assert "FEASIBLE" in (tmp_path / "report.txt").read_text()


def test_cli_out_into_missing_directory_exits_4(tmp_path, capsys):
    from freeconvex.cli import main
    write_corpus(tmp_path)
    code = main(["run", str(tmp_path / "halfline-dominate.json"),
                 "--out", str(tmp_path / "missing" / "report.json")])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.out == ""


def test_cli_emit_corpus_under_a_file_exits_4(tmp_path, capsys):
    from freeconvex.cli import main
    (tmp_path / "file").write_text("")
    assert main(["emit-corpus", str(tmp_path / "file" / "corpus")]) == 4
    assert capsys.readouterr().err.startswith("input error: ")


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
     "payload.X.matrices[0].rows"),
    (_corpus_doc_with("tracial-scalar-inside", {"matrices": [], "dim": "z"},
                      "B"), "payload.B.dim"),
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
    (_corpus_doc_with("possatz-verify-halfline", "false", "pencil", "monic"),
     "payload.pencil.monic"),
    (_corpus_doc_with("possatz-verify-halfline", [0], "pencil", "monic"),
     "payload.pencil.monic"),
    (_corpus_doc_with("possatz-verify-halfline", False, "pencil", "monic"),
     "payload.pencil.monic"),
    (_corpus_doc_with("tvscreen-drop-inside", True, "lift", "monic"),
     "payload.lift.monic"),
    (_corpus_doc_with("possatz-verify-halfline", 7, "pencil", "d"),
     "payload.pencil.d"),
    (_corpus_doc_with("possatz-verify-halfline", 3, "pencil", "g"),
     "payload.pencil.g"),
    (_corpus_doc_with("possatz-verify-halfline", 2, "pencil", "h"),
     "payload.pencil.h"),
    (_corpus_doc_with("possatz-verify-halfline", "1", "pencil", "d"),
     "payload.pencil.d"),
    (_corpus_doc_with("halfline-dominate", True, "LA", "g"), "payload.LA.g"),
], ids=["r-string", "r-null", "xhat-number", "rows-string", "dim-string",
        "r-float", "r-bool", "r-negative", "bounded-string", "bounded-number",
        "isometry-string", "opp-string", "opp-null", "monic-string",
        "monic-list", "monic-mismatch", "monic-lift-mismatch", "d-mismatch",
        "g-mismatch", "h-mismatch", "d-string", "g-bool"])
def test_cli_malformed_payload_exits_4(doc, locus, tmp_path, capsys):
    from freeconvex.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"input error: {locus}: ")


@pytest.mark.parametrize("doc, locus", [
    (_corpus_doc_with("tvscreen-drop-inside", "inf", "X", "matrices", 0, "re",
                      0), "payload.X.matrices[0].re[0]"),
    (_corpus_doc_with("tvscreen-drop-inside", float("nan"), "X", "matrices", 1,
                      "im", 0), "payload.X.matrices[1].im[0]"),
    (_corpus_doc_with("tvscreen-drop-inside", float("-inf"), "lift", "A0", "re",
                      0), "payload.lift.A0.re[0]"),
    (_corpus_doc_with("operator-system-interpolate-cp", float("nan"), "B",
                      "matrices", 0, "re", 0), "payload.B.matrices[0].re[0]"),
    (_corpus_doc_with("monicize-tv", [0, "inf", 0.5], "xhat"), "payload.xhat[1]"),
    (_corpus_doc_with("monicize-tv", [0, 0, float("nan")], "xhat"),
     "payload.xhat[2]"),
    (_corpus_doc_with("monicize-tv", [10 ** 400, 0, 0.5], "xhat"),
     "payload.xhat[0]"),
], ids=["inf-string", "nan-literal", "minus-infinity-literal", "nan-in-B",
        "xhat-inf-string", "xhat-nan", "xhat-huge-integer"])
def test_cli_non_finite_entries_exit_4(doc, locus, tmp_path, capsys):
    """A matrix or xhat entry that is not a finite number is an input error
    at its locus, not a decision made on it (json.dumps writes NaN and
    Infinity literals, which the parser accepts)."""
    from freeconvex.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {locus}: expected a finite number")


def test_cli_huge_integer_tol_exits_4(tmp_path, capsys):
    """An integer tol beyond the float range is an input error, not an
    OverflowError escaping the exit-code contract."""
    from freeconvex.cli import main

    doc = _corpus_doc_with("possatz-search-inside", 0, "r")
    doc["options"] = {"tol": 10 ** 400}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err.startswith("input error: options.tol: ")


# each integer field by its locus: the corpus problem and the path to it
_INTEGER_FIELDS = {
    "payload.certificate.g": ("possatz-verify-halfline", "certificate", "g"),
    "payload.certificate.d": ("possatz-verify-halfline", "certificate", "d"),
    "payload.certificate.mu": ("possatz-verify-halfline", "certificate", "mu"),
    "payload.certificate.r": ("possatz-verify-halfline", "certificate", "r"),
    "payload.certificate.S.rows":
        ("possatz-verify-halfline", "certificate", "S", "rows"),
    "payload.certificate.G.cols":
        ("possatz-verify-halfline", "certificate", "G", "cols"),
    "payload.p.g": ("possatz-verify-halfline", "p", "g"),
    "payload.p.rows": ("possatz-verify-halfline", "p", "rows"),
    "payload.p.cols": ("possatz-verify-halfline", "p", "cols"),
    "payload.p.terms[1].word":
        ("possatz-verify-halfline", "p", "terms", 1, "word", 0),
    "payload.X.matrices[0].cols":
        ("tvscreen-drop-inside", "X", "matrices", 0, "cols"),
    "payload.B.dim": ("tracial-scalar-inside", "B"),
}


@pytest.mark.parametrize("value", [0.5, 1.0, "0", "1"],
                         ids=["half", "float-one", "string-zero", "string-one"])
@pytest.mark.parametrize("locus", list(_INTEGER_FIELDS))
def test_cli_non_integer_counts_exit_4(locus, value, tmp_path, capsys):
    """Integer fields take JSON integers only: a float or a string is an
    input error at the field's locus, not a count rounded or converted."""
    from freeconvex.cli import main

    name, *field = _INTEGER_FIELDS[locus]
    if locus.endswith(".dim"):            # dim is read for an empty tuple
        value = {"matrices": [], "dim": value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_corpus_doc_with(name, value, *field)))
    assert main(["run", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"input error: {locus}: ")


@pytest.mark.parametrize("options, flags, locus", [
    ({"max_iter": [200]}, [], "options.max_iter"),
    ({"max_iter": None}, [], "options.max_iter"),
    ({"max_iter": {"n": 200}}, [], "options.max_iter"),
    ({"max_iter": 0}, [], "options.max_iter"),
    ({"max_iter": -3}, [], "options.max_iter"),
    ({"max_iter": 2.5}, [], "options.max_iter"),
    ({"max_iter": True}, [], "options.max_iter"),
    ({"max_iter": "abc"}, [], "options.max_iter"),
    ({"tol": True}, [], "options.tol"),
    ({"tol": 0}, [], "options.tol"),
    ({"tol": -1e-8}, [], "options.tol"),
    ({"tol": "inf"}, [], "options.tol"),
    ({"tol": None}, [], "options.tol"),
    ({}, ["--max-iter", "0"], "options.max_iter"),
    ({}, ["--tol", "-1"], "options.tol"),
    ({}, ["--tol", "nan"], "options.tol"),
    ({}, ["--tol", "inf"], "options.tol"),
], ids=["iter-list", "iter-null", "iter-object", "iter-zero", "iter-negative",
        "iter-float", "iter-bool", "iter-string", "tol-bool", "tol-zero",
        "tol-negative", "tol-inf-string", "tol-null", "flag-iter-zero",
        "flag-tol-negative", "flag-tol-nan", "flag-tol-inf"])
def test_cli_malformed_options_exit_4(options, flags, locus, tmp_path, capsys):
    from freeconvex.cli import main

    doc = _corpus_doc_with("possatz-search-inside", 0, "r")
    doc["options"] = {**doc.get("options", {}), **options}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), *flags]) == 4
    assert capsys.readouterr().err.startswith(f"input error: {locus}: ")


@pytest.mark.parametrize("mode, code", [
    ([1], 4), (None, 4), ({"a": 1}, 4), (5, 4), ("foo", 4), ("unital", 0),
    ("UNITAL", 0),
], ids=["list", "null", "object", "number", "unknown", "unital",
        "unital-upper"])
def test_cli_interpolation_mode_option(mode, code, tmp_path, capsys):
    from freeconvex.cli import main

    doc = json.loads(json.dumps(next(
        c.problem for c in corpus_problems()
        if c.name == "operator-system-interpolate-cp")))
    doc["options"] = {**doc.get("options", {}), "mode": mode}
    path = tmp_path / "mode.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == code
    if code == 4:
        assert capsys.readouterr().err.startswith("input error: options.mode: ")


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
    "halfline-dominate": ("dominate", ("isometry",),
                          ("V", "S_square", "choi")),
    "halfline-membership-boundary": ("membership", ("lambda_min",), ()),
    "halfline-membership-outside": ("membership", ("lambda_min",), ()),
    "halfline-polar-member": ("polar", ("isometry",),
                              ("V", "S_square", "choi")),
    "hull-union-intervals": ("hull-union", (), ("lift", *(f"Y{k}" for k
                                                     in range(1, 11)))),
    "interval-bounded": ("bounded", ("bounded",), ()),
    "interval-polar-inside": ("polar", ("isometry",),
                              ("V", "S_square", "choi")),
    "interval-polar-outside": ("polar", ("isometry",), ()),
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
    "tvscreen-dual-inside": ("drop-polar", ("isometry",),
                             ("V", "S_square", "choi")),
    "tvscreen-dual-outside": ("drop-polar", ("isometry",), ()),
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
