"""Serialization round trips and canonical-bytes guarantees."""

import numpy as np
import pytest

from outerlab.dynamics import ConvexCurve, iterate
from outerlab.elements import CurvatureProfile, special_element_minus
from outerlab.errors import InputError
from outerlab.lab import VerifierReport
from outerlab import jsonio

from conftest import TRIANGLE_VERTICES


def test_canonical_dumps_sorts_and_terminates():
    a = jsonio.dumps_canonical({"b": 1, "a": [1.5, 2.25]})
    b = jsonio.dumps_canonical({"a": [1.5, 2.25], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_non_finite_floats_never_reach_the_text():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            jsonio.dumps_canonical({"x": bad})
    # a failed n4 trial or n62 search has margin inf
    rep = VerifierReport(theorem="n4", samples=1, failures=1, worst_margin=np.inf,
                         notes="", seed=0)
    text = jsonio.dumps_canonical(jsonio.report_to_dict(rep))
    assert '"worst_margin": "inf"' in text


def test_polygon_round_trip(sampled):
    for poly in sampled[(7, 3)][:3]:
        data = jsonio.polygon_to_dict(poly)
        back = jsonio.polygon_from_dict(data)
        assert np.array_equal(back.vertices, poly.vertices)
        assert back.winding == poly.winding
    with pytest.raises(InputError):
        jsonio.polygon_from_dict({"points": []})


def test_curve_round_trip():
    tri = ConvexCurve.polygon(TRIANGLE_VERTICES)
    back = jsonio.curve_from_dict(jsonio.curve_to_dict(tri))
    assert back.kind == "polygon"
    assert np.array_equal(back.points, tri.points)

    circ = ConvexCurve.circle(radius=2.0, samples=64)
    back = jsonio.curve_from_dict(jsonio.curve_to_dict(circ))
    assert back.kind == "smooth"
    assert np.allclose(back.tangents, circ.tangents)
    with pytest.raises(InputError, match="unknown curve kind"):
        jsonio.curve_from_dict({"kind": "spline", "points": [[0, 0]]})


def test_profile_round_trip_with_corners():
    prof = CurvatureProfile(kappa=np.array([1.0, np.inf, 0.25]))
    data = jsonio.profile_to_dict(prof)
    assert data["kappa"][1] == "inf"
    back = jsonio.profile_from_dict(data)
    assert np.array_equal(np.isinf(back.kappa), np.isinf(prof.kappa))
    assert np.array_equal(back.kappa[[0, 2]], prof.kappa[[0, 2]])


def test_element_dict_shape(triangle):
    el = special_element_minus(triangle)
    data = jsonio.element_to_dict(el)
    assert sorted(data) == ["c", "is_convex", "is_valid", "rank_margin"]
    assert len(data["c"]) == 3


def test_record_dict_handles_open_orbits():
    curve = ConvexCurve.polygon(TRIANGLE_VERTICES)
    rec = iterate(curve, [4.2, 0.31], steps=3)
    data = jsonio.record_to_dict(rec)
    assert data["period"] is None
    assert data["closure_residual"] is None
    assert len(data["points"]) == 4
