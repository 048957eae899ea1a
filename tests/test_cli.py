"""Command-line contract: payload schemas and the exit-code table.

0 success, 1 assertion failure, 2 input error, 3 singular-orbit abort.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import outerlab
from outerlab import cli, jsonio
from outerlab.cli import main
from outerlab.dynamics import ConvexCurve
from outerlab.geometry import derive_orbit_polygon, regular_star

from conftest import SQUARE_VERTICES, TRIANGLE_VERTICES


@pytest.fixture()
def tri_curve_file(tmp_path):
    path = tmp_path / "triangle_curve.json"
    curve = ConvexCurve.polygon(TRIANGLE_VERTICES)
    jsonio.save_json(str(path), jsonio.curve_to_dict(curve))
    return str(path)


@pytest.fixture()
def square_poly_file(tmp_path):
    path = tmp_path / "square.json"
    poly = derive_orbit_polygon(SQUARE_VERTICES)
    jsonio.save_json(str(path), jsonio.polygon_to_dict(poly))
    return str(path)


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--json", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_orbit_periodic(tmp_path, tri_curve_file):
    code, payload = run_json(
        tmp_path,
        ["orbit", tri_curve_file, "--start", "0,-1", "--steps", "60"],
    )
    assert code == 0
    assert payload["period"] == 6
    assert payload["winding"] == 2
    assert payload["closure_residual"] == 0.0
    assert payload["singular_flag"] is False
    assert len(payload["orbit_polygon"]["vertices"]) == 6


def test_orbit_polygon_checked_against_curve(tmp_path, tri_curve_file, monkeypatch):
    # the midpoint check runs only when the curve reaches orbit_polygon
    seen = []
    real = cli.orbit_to_polygon

    def spy(rec, curve=None, tol=None):
        seen.append(curve)
        return real(rec, curve, tol)

    monkeypatch.setattr(cli, "orbit_to_polygon", spy)
    code, payload = run_json(
        tmp_path,
        ["orbit", tri_curve_file, "--start", "0,-1", "--steps", "60"],
    )
    assert code == 0
    assert len(payload["orbit_polygon"]["vertices"]) == 6
    assert len(seen) == 1 and isinstance(seen[0], ConvexCurve)
    assert np.array_equal(seen[0].points, TRIANGLE_VERTICES)


def test_orbit_svg_written(tmp_path, tri_curve_file):
    svg = tmp_path / "plot.svg"
    code = main(
        ["orbit", tri_curve_file, "--start", "0,-1", "--steps", "60",
         "--svg", str(svg), "--json", str(tmp_path / "o.json")]
    )
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text


def test_orbit_nonperiodic_payload(tmp_path, tri_curve_file):
    code, payload = run_json(
        tmp_path,
        ["orbit", tri_curve_file, "--start", "5.03,1.71", "--steps", "4"],
    )
    assert code == 0
    assert payload["period"] is None
    assert payload["closure_residual"] is None  # infinity maps to null
    assert "orbit_polygon" not in payload


def test_orbit_singular_start_exit_3(tmp_path, tri_curve_file, capsys):
    code = main(["orbit", tri_curve_file, "--start=-2,-0.5", "--steps", "5"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_orbit_inside_start_exit_2(tmp_path, tri_curve_file, capsys):
    code = main(["orbit", tri_curve_file, "--start", "0,0", "--steps", "5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_orbit_bad_point_syntax_exit_2(tri_curve_file):
    assert main(["orbit", tri_curve_file, "--start", "nope", "--steps", "5"]) == 2


def test_orbit_infinite_start_exit_2(tmp_path, tri_curve_file, capsys):
    code, payload = run_json(tmp_path, ["orbit", tri_curve_file, "--start", "inf,0"])
    assert code == 2 and payload is None
    assert "finite" in capsys.readouterr().err


def test_orbit_nan_start_exit_2(tmp_path, tri_curve_file, capsys):
    code, payload = run_json(tmp_path, ["orbit", tri_curve_file, "--start", "nan,1"])
    assert code == 2 and payload is None
    assert "finite" in capsys.readouterr().err


def test_orbit_curve_with_zero_tangents_exit_2(tmp_path, capsys):
    th = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"kind": "smooth", "points": pts.tolist(),
                                "tangents": np.zeros_like(pts).tolist()}))
    assert main(["orbit", str(path), "--start", "2,0"]) == 2
    assert "tangents" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_orbit_bad_period_tolerance_exit_2(tmp_path, tol, capsys):
    # an infinite tol would certify a false period; NaN, zero or a negative
    # tol could never certify one
    path = tmp_path / "unit_square.json"
    path.write_text(json.dumps({"kind": "polygon",
                                "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    code, payload = run_json(tmp_path, ["orbit", str(path), "--start", "2.3,0.7",
                                        "--steps", "20", f"--tol-period={tol}"])
    assert code == 2 and payload is None
    assert "tolerance" in capsys.readouterr().err


def test_orbit_star_polygon_curve_exit_2(tmp_path, capsys):
    # every turn of the pentagram is to the left, but it winds twice
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"kind": "polygon", "points": regular_star(5, 2).tolist()}))
    assert main(["orbit", str(path), "--start", "2,0.1", "--steps", "20"]) == 2
    assert "wind" in capsys.readouterr().err


def test_missing_file_exit_2(capsys):
    assert main(["orbit", "/does/not/exist.json", "--start", "2,2"]) == 2
    capsys.readouterr()


def test_element_special_minus_square(tmp_path, square_poly_file):
    code, payload = run_json(
        tmp_path, ["element", square_poly_file, "--special-minus"]
    )
    assert code == 0
    el = payload["element"]
    # the square has d = 0: both specials coincide with the zero vector
    assert el["c"] == [0.0, -0.0, 0.0, -0.0] or all(v == 0 for v in el["c"])
    assert el["is_valid"] is True
    assert el["is_convex"] is True
    assert max(abs(v) for v in payload["variety_residuals"]) < 1e-12
    # flat edges everywhere means every curvature is a corner value
    assert payload["curvature"]["kappa"] == ["inf"] * 4


def test_element_explicit_coefficients(tmp_path, square_poly_file):
    # on the variety but outside the convexity box: classified, no curvature
    code, payload = run_json(
        tmp_path,
        ["element", square_poly_file, "--c=-2,0,2,0"],
    )
    assert code == 0
    assert payload["element"]["is_valid"] is True
    assert payload["element"]["is_convex"] is False
    assert payload["curvature"] is None
    assert max(abs(v) for v in payload["variety_residuals"]) < 1e-12
    # inside the box but off the variety: flagged invalid
    code, payload = run_json(
        tmp_path,
        ["element", square_poly_file, "--c=-2,-2,-2,-2"],
    )
    assert code == 0
    assert payload["element"]["is_valid"] is False
    assert payload["curvature"] is None


def test_element_wrong_length_exit_2(tmp_path, square_poly_file):
    assert main(["element", square_poly_file, "--c", "1,2,3"]) == 2


def test_element_needs_a_choice_exit_2(square_poly_file):
    assert main(["element", square_poly_file]) == 2


def test_element_special_plus_on_odd_period_is_invalid(tmp_path):
    path = tmp_path / "pentagon.json"
    poly = derive_orbit_polygon(regular_star(5, 1))
    jsonio.save_json(str(path), jsonio.polygon_to_dict(poly))
    # c = +d is only an integral element for even n; the CLI computes the
    # classification anyway and reports is_valid false
    code, payload = run_json(tmp_path, ["element", str(path), "--special-plus"])
    assert code == 0
    assert payload["element"]["is_valid"] is False


def test_verify_small_run(tmp_path):
    code, payload = run_json(
        tmp_path, ["verify", "n3", "--trials", "20", "--seed", "5"]
    )
    assert code == 0
    assert payload["failures"] == 0
    assert payload["samples"] == 20
    assert payload["theorem"] == "n3"


def test_verify_unknown_theorem_exit_2(capsys):
    assert main(["verify", "n7", "--trials", "5"]) == 2
    capsys.readouterr()


def test_verify_thread_flag_gives_identical_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "n4", "--trials", "12", "--seed", "3",
                 "--threads", "1", "--json", str(a)]) == 0
    assert main(["verify", "n4", "--trials", "12", "--seed", "3",
                 "--threads", "3", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_round_trips_bit_identically(tmp_path):
    out = tmp_path / "poly.json"
    assert main(["sample", "6", "2", "--seed", "9", "--json", str(out)]) == 0
    text = out.read_text()
    poly = jsonio.polygon_from_dict(json.loads(text))
    assert poly.n == 6 and poly.winding == 2
    # shortest-repr floats reload exactly: re-serialization is a fixed point
    assert jsonio.dumps_canonical(jsonio.polygon_to_dict(poly)) == text


def test_sample_rejects_bad_pair(capsys):
    assert main(["sample", "6", "3", "--seed", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "n52", "--trials", "-3"],
    ["verify", "n52", "--seed", "-1"],
    ["sample", "5", "2", "--seed", "-1"],
    ["search-paradoxical", "--trials", "-2"],
])
def test_negative_count_or_seed_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_search_paradoxical_payload(tmp_path):
    code, payload = run_json(
        tmp_path, ["search-paradoxical", "--trials", "30", "--seed", "4"]
    )
    assert code == 0
    assert payload["samples"] == 30
    for find in payload["finds"]:
        assert find["margin"] > 0
        poly = derive_orbit_polygon(np.asarray(find["vertices"]))
        assert poly.n == 6 and poly.winding == 2


def test_stdout_when_no_json_path(capsys, square_poly_file):
    assert main(["element", square_poly_file, "--special-minus"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["element"]["is_valid"] is True


def _run_module(*argv):
    """Run ``python -m <argv>`` with this checkout's package importable, also
    when it is imported from the source tree rather than installed."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(outerlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path, square_poly_file):
    # the package runs as a subprocess tool; exit code travels through
    proc = _run_module("outerlab.cli", "element", square_poly_file, "--special-minus")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["element"]["is_convex"] is True


def test_element_tol_integral(tmp_path):
    # one entry of -d moved by 1e-6 of max|d|: off the variety at the
    # default threshold, accepted once the threshold is huge
    path = tmp_path / "star.json"
    assert main(["sample", "5", "2", "--seed", "7", "--json", str(path)]) == 0
    poly = jsonio.polygon_from_dict(json.loads(path.read_text()))
    c = -poly.dvec
    c[2] += 1e-6 * np.max(np.abs(c))
    arg = "--c=" + ",".join(repr(float(v)) for v in c)
    code, payload = run_json(tmp_path, ["element", str(path), arg])
    assert code == 0 and payload["element"]["is_valid"] is False
    code, payload = run_json(tmp_path, ["element", str(path), arg, "--tol-integral", "1"])
    assert code == 0 and payload["element"]["is_valid"] is True
    # the flags of the SVD classification are gone
    with pytest.raises(SystemExit) as exc:
        main(["element", str(path), arg, "--tol-rank", "1e-9"])
    assert exc.value.code == 2


def test_python_m_outerlab(square_poly_file):
    proc = _run_module("outerlab", "element", square_poly_file, "--special-minus")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["element"]["is_valid"] is True
    proc = _run_module("outerlab", "verify", "n7")
    assert proc.returncode == 2
