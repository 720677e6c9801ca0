import numpy as np
import pytest

from vfindex import zerofind as zf
from vfindex.degree import SphereMap, degree_for
from vfindex.errors import NotTame, ResolutionExhausted, ZeroOnBoundary
from vfindex.expr import parse
from vfindex.fields import (CallableField, ExpressionField,
                            random_polynomial_field)
from vfindex.manifold import (Collar, DomainManifold, surface_grid,
                              surface_samples, tangential_part, unit_normals)

COLLAR = Collar("neg_g")


def disk(r=1.0, name="ball_2"):
    return DomainManifold(parse(f"x1^2 + x2^2 - {r * r}", 2), 2,
                          [[-r - 0.5, r + 0.5]] * 2, name)


def ball3():
    return DomainManifold(parse("x1^2 + x2^2 + x3^2 - 1", 3), 3,
                          [[-1.5, 1.5]] * 3, "ball_3")


def test_interior_simple_zeros():
    M = disk()
    v = ExpressionField.parse(["x1", "0 - x2"])
    recs = zf.find_interior_zeros(M, v)
    assert len(recs) == 1
    assert recs[0].position == pytest.approx([0.0, 0.0], abs=1e-10)
    assert recs[0].jacobian_det == pytest.approx(-1.0)
    assert recs[0].isolation_radius > 0.1


def test_interior_multiple_zeros():
    M = disk(2.0, name="")
    v = ExpressionField.parse(["x1^2 - 1", "x2"])
    recs = zf.find_interior_zeros(M, v)
    pos = sorted(tuple(np.round(r.position, 8)) for r in recs)
    assert pos == [(-1.0, 0.0), (1.0, 0.0)]


def test_interior_degenerate_zero():
    # |x| x has a degenerate but isolated zero at the origin
    def radial(x):
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return r * x

    recs = zf.find_interior_zeros(ball3(), CallableField(3, radial))
    assert len(recs) == 1
    assert np.linalg.norm(recs[0].position) < 1e-6


def _greedy_dedup(points, radius):
    reps = []
    for p in points:
        if not any(np.linalg.norm(p - q) < radius for q in reps):
            reps.append(p)
    return reps


def test_dedup_keeps_the_greedy_representatives():
    rng = np.random.default_rng(7)
    radius = zf.DEDUP_RADIUS
    for case in range(60):
        n = 2 + case % 2
        centers = rng.uniform(-1.0, 1.0, size=(rng.integers(1, 6), n))
        # members spread over about two radii, so clusters chain and split
        members = [c + rng.normal(scale=radius, size=(rng.integers(1, 30), n))
                   for c in centers]
        pts = sorted(map(tuple, np.concatenate(members)))
        got = zf._dedup(pts, radius)
        want = _greedy_dedup([np.array(p) for p in pts], radius)
        assert len(got) == len(want) > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert zf._dedup([]) == []


def test_no_interior_zeros():
    M = disk()
    v = ExpressionField.parse(["1", "0"])
    assert zf.find_interior_zeros(M, v) == []


def test_boundary_zeros_constant_disk():
    M = disk()
    recs = zf.find_boundary_tangential_zeros(M, COLLAR,
                                             ExpressionField.parse(["1", "0"]))
    assert len(recs) == 2
    by_x = {round(float(r.position[0])): r for r in recs}
    assert by_x[-1].transverse_sign == "Inward"
    assert by_x[1].transverse_sign == "Outward"
    for r in recs:
        assert abs(abs(r.position[0]) - 1.0) < 1e-10
        assert abs(r.position[1]) < 1e-10


def test_boundary_zeros_constant_ball3():
    recs = zf.find_boundary_tangential_zeros(
        ball3(), COLLAR, ExpressionField.parse(["1", "0", "0"]))
    assert len(recs) == 2
    signs = sorted(r.transverse_sign for r in recs)
    assert signs == ["Inward", "Outward"]


def test_more_seeds_than_the_cap_raise(monkeypatch):
    M = disk()
    v = ExpressionField.parse(["1", "0"])
    pts = surface_samples(M, 24)
    _, grads = M.g.jets(pts)
    count = len(zf._boundary_seeds(M, v, pts, grads, surface_grid(M, 24)[1]))
    assert count > 1
    monkeypatch.setattr(zf, "MAX_SEEDS", 1)
    with pytest.raises(ResolutionExhausted,
                       match=f"^{count} boundary seeds, more than"):
        zf.find_boundary_tangential_zeros(M, COLLAR, v, resolution=24)


def test_radial_raises_not_tame_with_uniform_sign():
    M = disk()
    with pytest.raises(NotTame) as info:
        zf.find_boundary_tangential_zeros(
            M, COLLAR, ExpressionField.parse(["x1", "x2"]))
    assert info.value.uniform_sign == "Outward"
    with pytest.raises(NotTame) as info:
        zf.find_boundary_tangential_zeros(
            M, COLLAR, ExpressionField.parse(["0 - x1", "0 - x2"]))
    assert info.value.uniform_sign == "Inward"


def test_vanishing_on_boundary_detected():
    M = disk()
    v = ExpressionField.parse(["x1 - 1", "x2"])  # zero at (1, 0)
    with pytest.raises(ZeroOnBoundary):
        zf.find_boundary_tangential_zeros(M, COLLAR, v)


def test_endpoint_records_interval():
    M = DomainManifold(parse("(x1 + 1)*(x1 - 2)", 1), 1, [[-1.5, 2.5]],
                       "interval")
    recs = zf.find_boundary_tangential_zeros(M, COLLAR,
                                             ExpressionField.parse(["1"]))
    assert [float(r.position[0]) for r in recs] == pytest.approx([-1.0, 2.0])
    assert recs[0].transverse_sign == "Inward"
    assert recs[1].transverse_sign == "Outward"


def test_interior_degree_sum_matches_boundary_winding():
    """Sum of interior indices equals the winding of v on the circle."""
    rng = np.random.default_rng(42)
    M = disk()
    checked = 0
    for _ in range(12):
        v = random_polynomial_field(rng, 2, 2)
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        circle = np.stack([np.cos(th), np.sin(th)], axis=-1)
        if np.min(v.norms(circle)) < 0.1:
            continue  # zero too close to the test circle, skip honestly
        winding = degree_for(SphereMap(v.value, np.zeros(2), 1.0)).degree
        recs = zf.find_interior_zeros(M, v)
        total = 0
        for r in recs:
            total += degree_for(
                SphereMap(v.value, r.position, r.isolation_radius)).degree
        assert total == winding
        checked += 1
    assert checked >= 6


def test_interior_zero_outside_domain_is_pruned(monkeypatch):
    # the only zero, (1.3, 0), lies in the bbox but outside the unit disk;
    # g's interval bound drops every cell around it, so nothing is polished
    def no_polish(*args, **kwargs):
        raise AssertionError("a cell outside the domain survived")

    monkeypatch.setattr(zf, "_newton_polish", no_polish)
    v = ExpressionField.parse(["x1 - 1.3", "x2"])
    assert zf.find_interior_zeros(disk(), v) == []


def test_zero_free_is_proved_for_expression_fields():
    v = ExpressionField.parse(["x1", "0 - x2"])
    lo = np.array([[-0.5, -0.5], [0.5, -1.0], [-1e-9, 0.0]])
    hi = np.array([[0.5, 0.5], [1.0, 1.0], [0.0, 1.0]])
    # only the middle box misses the zero at the origin
    assert v.zero_free(lo, hi).tolist() == [False, True, False]
    assert (-v).zero_free(lo, hi).tolist() == [False, True, False]


def test_interval_and_sampled_exclusion_agree():
    """The sampled test of a CallableField finds the same zeros."""
    rng = np.random.default_rng(3)
    M = disk(2.0, name="")
    for _ in range(4):
        v = random_polynomial_field(rng, 2, 2)
        exact = zf.find_interior_zeros(M, v)
        sampled = zf.find_interior_zeros(
            M, CallableField(2, v.value, v.jacobian))
        assert len(exact) == len(sampled)
        for a, b in zip(exact, sampled):
            assert a.position == pytest.approx(b.position, abs=1e-9)


def _per_axis_polish(M, v, seeds, scale):
    """Reference: one Newton batch per dropped axis, each on the fixed rows
    of that axis, then the acceptance of ``_polish_boundary``."""
    _, grads = M.g.jets(seeds)
    dropped = np.argmax(np.abs(grads), axis=-1)
    out = []
    for axis in range(M.n):
        rows = [0] + [1 + i for i in range(M.n) if i != axis]

        def system(xm, _):
            val, jac = zf._boundary_system(M, v, xm)
            return val[:, rows], jac[:, rows]

        x = zf._newton_polish(system, seeds[dropped == axis], 35,
                              0.03 * M.diameter)
        resid = np.linalg.norm(zf._boundary_values(M, v, x), axis=-1)
        good = resid < 1e-10 * max(1.0, scale)
        good &= np.all((x >= M.bbox[:, 0]) & (x <= M.bbox[:, 1]), axis=-1)
        out.extend(x[good])
    return out


@pytest.mark.parametrize("shape", [disk, ball3])
def test_one_batch_boundary_polish_matches_per_axis_batches(shape):
    from vfindex.manifold import decompose_batch, surface_samples
    M = shape()
    rng = np.random.default_rng(M.n)
    pts = surface_samples(M, resolution=48 if M.n == 2 else 20)
    _, grads = M.g.jets(pts)
    converged = 0
    for _ in range(4):
        v = random_polynomial_field(rng, M.n, 3)
        v_par, _ = decompose_batch(COLLAR, pts, grads, v.value(pts))
        # the smallest |v_par|, and random seeds that mostly never settle
        order = np.argsort(np.linalg.norm(v_par, axis=-1))
        seeds = pts[np.concatenate([order[:200],
                                    rng.choice(order[200:], 200)])]
        scale = float(np.median(v.norms(pts)))
        got = zf._polish_boundary(M, v, seeds, scale)
        want = _per_axis_polish(M, v, seeds, scale)
        # the same points, bit for bit, in any order
        assert (sorted(map(tuple, np.asarray(got).view(np.int64)))
                == sorted(map(tuple, np.asarray(want).view(np.int64))))
        converged += len(got)
    assert converged > 0


@pytest.mark.parametrize("scene", ["ball2_constant", "annulus_rotational",
                                   "disk2holes_constant", "sphere2_real",
                                   "torus2_real"])
def test_boundary_system_jacobian_matches_central_differences(scene):
    from vfindex.cli import load_scene
    from vfindex.fields import central_difference
    from vfindex.manifold import decompose_batch, surface_samples
    M = load_scene(scene).manifold
    rng = np.random.default_rng(31)
    pts = surface_samples(M, resolution=24)
    # on the boundary and just off it: the formula needs only grad g != 0
    x = pts[rng.choice(len(pts), 12, replace=False)]
    x = np.vstack([x, x + rng.normal(scale=1e-3, size=x.shape)])
    expression_field = random_polynomial_field(rng, M.n, 3)
    for v in (expression_field, CallableField(M.n, expression_field.value)):

        def system(y):
            gv, gg = M.g.jets(y)
            v_par, _ = decompose_batch(COLLAR, y, gg, v.value(y))
            return np.concatenate([gv[:, None], v_par], axis=-1)

        values, exact = zf._boundary_system(M, v, x)
        assert np.allclose(values, system(x), rtol=1e-12, atol=1e-12)
        fd = central_difference(system, x)
        assert exact.shape == (len(x), M.n + 1, M.n)
        scale = np.max(np.abs(fd), axis=(1, 2), keepdims=True)
        assert np.max(np.abs(exact - fd) / scale) < 1e-6


@pytest.mark.parametrize("scene", ["ball2_constant", "disk2holes_constant",
                                   "ball3_constant", "sphere2_real"])
def test_chart_jacobian_det_matches_central_differences(scene):
    from vfindex.cli import load_scene
    from vfindex.fields import central_difference
    from vfindex.manifold import boundary_chart, decompose_batch
    sc = load_scene(scene)
    M = sc.manifold
    records = zf.find_boundary_tangential_zeros(M, COLLAR, sc.field)
    assert records
    for rec in records:
        # the reference: the tangential part in a graph chart at the zero
        chart = boundary_chart(M, rec.position)

        def f(u):
            x = chart.point(u)
            _, grads = M.g.jets(x)
            v_par, _ = decompose_batch(COLLAR, x, grads, sc.field.value(x))
            return v_par[:, chart.kept_axes]

        fd = central_difference(f, np.zeros((1, M.n - 1)), 1e-6)[0]
        want = np.linalg.det(fd)
        assert rec.jacobian_det == pytest.approx(want, rel=1e-6)


# criterion 7's shape cycle (tests/test_acceptance.py)
SWEEP_SHAPES = ["ball1_constant", "interval_plus1", "ball2_constant",
                "annulus_rotational", "disk2holes_constant", "ball3_constant",
                "solid_torus_rotational", "spherical_shell_constant"]


def _criterion_6_field(index):
    """Draw ``index`` of criterion 6's ball3_constant fields, and its
    ``full_index`` options."""
    from vfindex.cli import load_scene
    rng = np.random.default_rng(777)
    for shape in ("ball2_constant", "annulus_rotational"):
        n = load_scene(shape).manifold.n
        for _ in range(10):
            random_polynomial_field(rng, n, 2)
    M = load_scene("ball3_constant").manifold
    for _ in range(index):
        random_polynomial_field(rng, M.n, 2)
    return M, random_polynomial_field(rng, M.n, 2), dict(crosscheck=False)


def _sweep_field(seed, index):
    """Draw ``index`` of criterion 7's generator at ``seed``."""
    from vfindex.cli import load_scene
    rng = np.random.default_rng(seed)
    for i in range(index + 1):
        M = load_scene(SWEEP_SHAPES[i % len(SWEEP_SHAPES)]).manifold
        v = random_polynomial_field(rng, M.n, 3)
    return M, v, {}


def _rank_rule_zeros(M, v, pts, grads):
    """The boundary zeros found from the 4000 samples with the smallest
    |v_par|, the seeding rule before step lengths."""
    vals = v.value(pts)
    scale = float(np.median(np.linalg.norm(vals, axis=-1))) + 1e-30
    v_par = tangential_part(unit_normals(grads), vals)
    seeds = pts[np.argsort(np.linalg.norm(v_par, axis=-1))[:4000]]
    return zf._distinct(zf._polish_boundary(M, v, seeds, scale), "zeros")


@pytest.mark.parametrize("draw", [
    ("criterion 6", 8), (2026, 87), (2026, 94), (2026, 150), (31, 15),
    (31, 22), (31, 30), (31, 38), (31, 69), (31, 79)],
    ids=lambda d: f"{d[0]}-{d[1]}".replace(" ", "_"))
def test_step_seeds_find_the_zeros_of_the_rank_rule(monkeypatch, draw):
    """On fields where seeds at local minima of |v_par| lost a zero, every
    boundary search of the auto-tamed index finds the zeros that the 4000
    smallest |v_par| find, to 1e-9 (converged points of one zero differ in
    the last bits, by up to 5e-11 on the criterion-7 fields)."""
    from vfindex.indices import full_index
    source, index = draw
    if source == "criterion 6":
        M, v, options = _criterion_6_field(index)
    else:
        M, v, options = _sweep_field(source, index)
    seeding, searches = zf._boundary_seeds, []

    def compared(M, v, pts, grads, pitch):
        seeds = seeding(M, v, pts, grads, pitch)
        scale = float(np.median(v.norms(pts))) + 1e-30
        got = zf._distinct(zf._polish_boundary(M, v, seeds, scale), "zeros")
        want = _rank_rule_zeros(M, v, pts, grads)
        assert len(got) == len(want) > 0
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-9
        searches.append(len(got))
        return seeds

    monkeypatch.setattr(zf, "_boundary_seeds", compared)
    full_index(M, COLLAR, v, auto_tame=True, seed=index, **options)
    assert searches
