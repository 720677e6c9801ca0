import numpy as np
import pytest

from vfindex.errors import ChartTooSmall, VfError
from vfindex import manifold as mf
from vfindex.expr import parse


def disk():
    return mf.DomainManifold(parse("x1^2 + x2^2 - 1", 2), 2,
                             [[-1.5, 1.5]] * 2, "ball_2")


def ball3():
    return mf.DomainManifold(parse("x1^2 + x2^2 + x3^2 - 1", 3), 3,
                             [[-1.5, 1.5]] * 3, "ball_3")


def test_domain_must_fit_in_bbox():
    with pytest.raises(VfError):
        mf.DomainManifold(parse("x1^2 + x2^2 - 9", 2), 2, [[-1.5, 1.5]] * 2)


def test_projection_lands_on_boundary():
    M = disk()
    (p,) = mf.project_batch(M, np.array([[0.3, 0.2]]))
    assert abs(M.g.evaluate(p)) < 1e-10
    # projection along the gradient keeps the direction for a round g
    assert p == pytest.approx(np.array([0.3, 0.2]) / np.hypot(0.3, 0.2))


def test_decompose_is_orthogonal_split():
    M = disk()
    collar = mf.Collar("neg_g")
    p = np.array([[0.0, 1.0]])
    vec = np.array([[0.7, -0.4]])
    _, grads = M.g.jets(p)
    (v_par,), (v_perp,) = mf.decompose_batch(collar, p, grads, vec)
    assert v_par == pytest.approx([0.7, 0.0])
    # v_perp = -grad g . v = -(0, 2).(0.7, -0.4) = 0.8 > 0: inward
    assert v_perp == pytest.approx(0.8)
    assert mf.inwardness(v_perp) == mf.INWARD


def test_collar_kinds_agree_in_sign():
    M = disk()
    p = np.array([[0.6, 0.8]])
    _, grads = M.g.jets(p)
    vec = np.array([[-1.0, 0.3]])
    a = mf.Collar("neg_g").transverse(p, grads, vec)[0]
    b = mf.Collar("scaled").transverse(p, grads, vec)[0]
    assert np.sign(a) == np.sign(b)
    assert b == pytest.approx(a / 2.0)  # 1 + |p|^2 = 2 on the unit circle


def test_boundary_chart_roundtrip():
    M = ball3()
    center = np.array([0.0, 0.0, 1.0])
    chart = mf.boundary_chart(M, center)
    assert chart.dropped_axis == 2
    u = np.array([[0.05, -0.08]])
    x = chart.point(u)
    assert abs(M.g.evaluate(x[0])) < 1e-10
    params = x[:, chart.kept_axes] - center[chart.kept_axes]
    assert params == pytest.approx(u, abs=1e-12)


def test_chart_shrinks_or_raises():
    M = disk()
    chart = mf.boundary_chart(M, np.array([1.0, 0.0]))
    assert chart.radius > 1e-3
    with pytest.raises(ChartTooSmall):
        mf.boundary_chart(M, np.array([1.0, 0.0]), r0=1e-7, min_radius=1e-6)


def test_surface_samples_lie_on_boundary():
    M = ball3()
    pts = mf.surface_samples(M)
    assert len(pts) > 500
    assert np.max(np.abs(M.g.values(pts))) < 1e-9
    radii = np.linalg.norm(pts, axis=-1)
    assert np.max(np.abs(radii - 1.0)) < 1e-9


def test_interval_endpoints():
    M = mf.DomainManifold(parse("(x1 + 1)*(x1 - 2)", 1), 1, [[-1.5, 2.5]],
                          "interval")
    ends = mf.interval_endpoints(M)
    assert sorted(float(e) for e in ends) == pytest.approx([-1.0, 2.0])


def test_collar_bump_profile():
    w = 0.3
    assert mf.collar_bump(np.array([0.0]), w)[0] == 1.0
    assert mf.collar_bump(np.array([w]), w)[0] == 0.0
    assert mf.collar_bump(np.array([2 * w]), w)[0] == 0.0
    mid = mf.collar_bump(np.array([0.5 * w]), w)[0]
    assert 0.0 < mid < 1.0


def test_hypersurface_validation():
    S = mf.Hypersurface(parse("x1^2 + x2^2 + x3^2 - 1", 3), 3,
                        [[-1.5, 1.5]] * 3, "sphere2")
    assert S.diameter == pytest.approx(np.sqrt(27))
    # a sphere poking out through the box faces is rejected
    with pytest.raises(VfError):
        mf.Hypersurface(parse("x1^2 + x2^2 + x3^2 - 4", 3), 3,
                        [[-1.5, 1.5]] * 3)


@pytest.mark.parametrize("n, res, max_points, slabs", [
    (3, [7, 5, 3], 30, 4),     # two layers per slab
    (3, [7, 5, 3], 1, 7),      # a slab holds at least one layer
    (2, 9, 20, 5),
    (1, 6, 4, 2),
])
def test_grid_slabs_concatenate_to_grid_points(monkeypatch, n, res,
                                               max_points, slabs):
    monkeypatch.setattr(mf, "SLAB_POINTS", max_points)
    bbox = np.array([[-1.5, 2.0], [0.0, 1.0], [-3.0, -2.5]])[:n]
    parts = list(mf.grid_slabs(bbox, res))
    assert len(parts) == slabs
    assert np.array_equal(np.concatenate(parts), mf.grid_points(bbox, res))
