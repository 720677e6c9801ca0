import numpy as np
import pytest

from vfindex.cli import load_scene
from vfindex.errors import ResolutionExhausted
from vfindex.expr import parse
from vfindex.fields import ExpressionField
from vfindex.indices import (HalfInteger, boundary_tangential_degree,
                             full_index, hypersurface_index)
from vfindex.manifold import Collar, DomainManifold, Hypersurface
from vfindex.zerofind import find_boundary_tangential_zeros

COLLAR = Collar("neg_g")


def disk():
    return DomainManifold(parse("x1^2 + x2^2 - 1", 2), 2, [[-1.5, 1.5]] * 2,
                          "ball_2")


def ball3():
    return DomainManifold(parse("x1^2 + x2^2 + x3^2 - 1", 3), 3,
                          [[-1.5, 1.5]] * 3, "ball_3")


class TestHalfInteger:
    def test_arithmetic(self):
        a = HalfInteger.halves(1)   # 1/2
        b = HalfInteger.halves(-3)  # -3/2
        assert a + b == HalfInteger.of(-1)
        assert a - b == HalfInteger.halves(4)
        assert -a == HalfInteger.halves(-1)
        assert 3 * a == HalfInteger.halves(3)
        assert sum([a, a, b], HalfInteger(0)) == HalfInteger.halves(-1)

    def test_exactness(self):
        # one hundred halves add to exactly fifty, no float drift
        total = HalfInteger(0)
        for _ in range(100):
            total = total + HalfInteger.halves(1)
        assert total == HalfInteger.of(50)
        assert int(total) == 50

    def test_strings(self):
        assert str(HalfInteger.halves(1)) == "1/2"
        assert str(HalfInteger.halves(-1)) == "-1/2"
        assert str(HalfInteger.halves(2)) == "1"
        assert str(HalfInteger.halves(0)) == "0"
        assert str(HalfInteger.halves(-4)) == "-2"

    def test_int_conversion_guard(self):
        with pytest.raises(ValueError):
            int(HalfInteger.halves(1))


def test_constant_field_on_disk():
    rep = full_index(disk(), COLLAR, ExpressionField.parse(["1", "0"]))
    assert rep.interior_index == 0
    assert str(rep.boundary_index) == "1"
    assert str(rep.total_index) == "1"
    assert rep.theorem_holds
    # inward source contributes +1/2, outward sink contributes -(-1)/2
    assert [str(b.half_index) for b in rep.boundary] == ["1/2", "1/2"]
    assert sorted(b.tangential_degree for b in rep.boundary) == [-1, 1]


def test_constant_field_on_ball3():
    rep = full_index(ball3(), COLLAR, ExpressionField.parse(["1", "0", "0"]))
    assert rep.interior_index == 0
    assert str(rep.boundary_index) == "0"
    assert rep.theorem_holds
    assert sorted(str(b.half_index) for b in rep.boundary) == ["-1/2", "1/2"]


def test_radial_special_case():
    rep = full_index(disk(), COLLAR, ExpressionField.parse(["x1", "x2"]))
    assert rep.special_boundary == "Outward"
    assert rep.interior_index == 1
    assert str(rep.boundary_index) == "0"
    rep = full_index(ball3(), COLLAR,
                     ExpressionField.parse(["x1", "x2", "x3"]))
    assert rep.special_boundary == "Outward"
    assert str(rep.boundary_index) == "-1"
    assert str(rep.total_index) == "0"


def test_inward_radial_special_case():
    rep = full_index(ball3(), COLLAR,
                     ExpressionField.parse(["0 - x1", "0 - x2", "0 - x3"]))
    assert rep.special_boundary == "Inward"
    assert rep.interior_index == -1
    assert str(rep.boundary_index) == "1"
    assert rep.theorem_holds


def test_saddle_plus_boundary():
    rep = full_index(disk(), COLLAR, ExpressionField.parse(["x1", "0 - x2"]))
    assert rep.interior_index == -1
    assert str(rep.boundary_index) == "2"
    assert rep.theorem_holds
    assert len(rep.boundary) == 4


def test_disk_with_holes():
    g = ("(x1^2 + x2^2 - 9)*((x1 - 1)^2 + x2^2 - 0.25)"
         "*((x1 + 1)^2 + x2^2 - 0.25)")
    M = DomainManifold(parse(g, 2), 2, [[-3.5, 3.5]] * 2, "disk_with_2_holes")
    rep = full_index(M, COLLAR, ExpressionField.parse(["1", "0"]))
    assert str(rep.total_index) == "-1"
    assert rep.chi == -1
    assert rep.theorem_holds


def test_morse_split_bookkeeping():
    rep = full_index(ball3(), COLLAR, ExpressionField.parse(["1", "0", "0"]))
    assert rep.morse_minus == 1
    assert rep.morse_plus == 1
    assert rep.morse_minus + rep.morse_plus == rep.chi_boundary
    assert rep.interior_index + rep.morse_minus == rep.chi


def test_report_dict_shape():
    rep = full_index(disk(), COLLAR, ExpressionField.parse(["1", "0"]))
    d = rep.as_dict()
    assert d["ind_boundary"] == "1"
    assert d["ind_total"] == "1"
    assert d["ind_interior"] == 0
    assert len(d["zeros"]) == 2
    assert d["zeros"][0]["kind"] == "BoundaryTangentialZero"


def test_hypersurface_index_sphere():
    S = Hypersurface(parse("x1^2 + x2^2 + x3^2 - 1", 3), 3,
                     [[-1.5, 1.5]] * 3, "sphere2")
    total, recs, degs = hypersurface_index(
        S, COLLAR, ExpressionField.parse(["0", "0", "1"]))
    assert total == 2
    assert len(recs) == 2
    assert degs == [1, 1]
    # the two zeros are the poles
    for r in recs:
        assert abs(abs(r.position[2]) - 1.0) < 1e-9


def test_hypersurface_index_torus():
    g = "(x1^2 + x2^2 + x3^2 + 3)^2 - 16*(x1^2 + x2^2)"
    T = Hypersurface(parse(g, 3), 3, [[-3.5, 3.5], [-3.5, 3.5], [-1.5, 1.5]],
                     "torus2")
    total, recs, degs = hypersurface_index(
        T, COLLAR, ExpressionField.parse(["1", "0", "0"]))
    assert total == 0
    assert sorted(degs) == [-1, -1, 1, 1]


@pytest.mark.parametrize("scene", [
    "ball2_constant", "ball2_saddle", "ball3_constant", "disk2holes_constant",
    "solid_torus_constant", "spherical_shell_constant", "sphere2_real"])
def test_chart_jacobian_sign_is_the_tangential_degree(scene):
    """At a nondegenerate tangential zero the degree in the chart is the
    sign of the chart Jacobian determinant the record carries."""
    sc = load_scene(scene)
    records = find_boundary_tangential_zeros(sc.manifold, COLLAR, sc.field)
    assert records
    for rec in records:
        k = boundary_tangential_degree(sc.manifold, COLLAR, sc.field, rec)
        assert abs(rec.jacobian_det) > 0.1
        assert np.sign(rec.jacobian_det) == k


def test_no_boundary_chart_in_the_index(monkeypatch):
    """Boundary degrees are taken on spheres in R^n: full_index and
    hypersurface_index call neither boundary_chart nor BoundaryChart.point."""
    from vfindex import indices, manifold, zerofind
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)

    for module in (manifold, zerofind, indices):
        monkeypatch.setattr(module, "boundary_chart", counted)
    monkeypatch.setattr(manifold.BoundaryChart, "point", counted)
    sc = load_scene("disk2holes_constant")
    rep = full_index(sc.manifold, COLLAR, sc.field)
    assert len(rep.boundary) == 6
    sc = load_scene("sphere2_real")
    total, records, _ = hypersurface_index(sc.manifold, COLLAR, sc.field)
    assert records
    assert calls == []


def test_hypersurface_index_refuses_degrees_that_miss_chi(monkeypatch):
    from vfindex import indices
    monkeypatch.setattr(indices, "boundary_tangential_degree",
                        lambda S, collar, v, record: 0)
    sc = load_scene("sphere2_real")
    with pytest.raises(ResolutionExhausted, match="chi crosscheck"):
        hypersurface_index(sc.manifold, COLLAR, sc.field)
