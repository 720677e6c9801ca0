import numpy as np
import pytest

from vfindex import expr as ex
from vfindex.errors import (ArityMismatch, DomainError, ExprSyntaxError,
                            UnknownVariable)


def fd_gradient(e, p, h=1e-6):
    p = np.asarray(p, float)
    out = np.zeros_like(p)
    for i in range(len(p)):
        dp = np.zeros_like(p)
        dp[i] = h
        out[i] = (e.evaluate(p + dp) - e.evaluate(p - dp)) / (2 * h)
    return out


def test_basic_evaluation():
    e = ex.parse("x1^2 + 2*x2 - 1", 2)
    assert e.evaluate([3.0, 0.5]) == pytest.approx(9.0)
    vals = e.values(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert vals == pytest.approx([-1.0, 2.0])


def test_precedence_and_unary():
    assert ex.parse("2 + 3*4", 1).evaluate([0.0]) == 14.0
    assert ex.parse("-x1^2", 1).evaluate([2.0]) == -4.0
    assert ex.parse("(2 + 3)*4", 1).evaluate([0.0]) == 20.0
    assert ex.parse("2 - 3 - 4", 1).evaluate([0.0]) == -5.0
    assert ex.parse("16/4/2", 1).evaluate([0.0]) == 2.0


def test_functions():
    e = ex.parse("sin(x1)^2 + cos(x1)^2", 1)
    for t in (0.0, 0.3, -2.0):
        assert e.evaluate([t]) == pytest.approx(1.0)
    assert ex.parse("exp(0)", 1).evaluate([5.0]) == 1.0
    assert ex.parse("sqrt(x1)", 1).evaluate([9.0]) == 3.0


def test_roundtrip_through_printer():
    texts = [
        "x1^2 + x2^2 - 1",
        "(x1 - 1)*(x1 + 1)/(x2 + 2)",
        "-x1*(x2 - 3)^2",
        "sqrt(x1^2 + x2^2)*x1",
        "x1 - x2 - 1",
        "x1/(x2*x1)",
    ]
    for t in texts:
        e = ex.parse(t, 2)
        again = ex.parse(str(e), 2)
        p = np.array([0.7, -1.3])
        assert again.evaluate(p) == pytest.approx(e.evaluate(p), abs=1e-14)


def test_every_node_kind_prints_and_reparses():
    """One expression rooted at each node kind prints, and its text parses
    back to the same values (SqrtSlope off its kink)."""
    a = ex.parse("x1^2 + 1", 1).root
    roots = {
        ex.Const: ex.Const(-2.5), ex.Var: ex.Var(0),
        ex.Add: ex.Add(a, ex.Var(0)), ex.Sub: ex.Sub(ex.Var(0), a),
        ex.Mul: ex.Mul(ex.Const(-2.0), a), ex.Div: ex.Div(ex.Var(0), a),
        ex.Pow: ex.Pow(a, 3), ex.Neg: ex.Neg(a), ex.Fun: ex.Fun("sqrt", a),
        ex.SqrtSlope: ex.SqrtSlope(a),
    }
    assert set(roots) == set(ex.Node.__subclasses__())
    x = np.random.default_rng(11).uniform(-2.0, 2.0, size=(16, 1))
    for root in roots.values():
        e = ex.Expression(root, 1)
        assert np.array_equal(ex.parse(str(e), 1).values(x), e.values(x)), \
            str(e)
    # in a product, a power and a derivative tree
    slope = ex.SqrtSlope(a)
    for root in (ex.Mul(slope, ex.Var(0)), ex.Mul(ex.Var(0), slope),
                 ex.Pow(slope, 3), ex.Div(ex.Const(1.0), slope)):
        e = ex.Expression(root, 1)
        assert np.allclose(ex.parse(str(e), 1).values(x), e.values(x),
                           rtol=1e-15, atol=0.0), str(e)
    e = ex.parse("sqrt(x1^2 + 1)", 1)
    assert str(e.derivatives[0]) == "2*(1/(2*sqrt(x1^2 + 1))*x1)"
    assert np.allclose(ex.parse(str(e.derivatives[0].derivatives[0]),
                                1).values(x),
                       (x[:, 0] ** 2 + 1.0) ** -1.5, rtol=1e-14, atol=0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    e = ex.parse("sin(x1*x2) + x3^3 - exp(x2)/2 + sqrt(x1^2 + 4)", 3)
    for _ in range(5):
        p = rng.uniform(-1.5, 1.5, size=3)
        grad = e.gradient(p)
        assert grad == pytest.approx(fd_gradient(e, p), rel=1e-5, abs=1e-6)


def test_jets_are_batched():
    e = ex.parse("x1*x2 + x2^2", 2)
    pts = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    vals, grads = e.jets(pts)
    assert vals.shape == (3,)
    assert grads.shape == (3, 2)
    assert grads[0] == pytest.approx([2.0, 5.0])


def test_sqrt_kink_at_zero():
    e = ex.parse("sqrt(x1^2 + x2^2)", 2)
    jv = e.eval_jet(np.array([0.0, 0.0]))
    assert jv.value == 0.0
    assert np.all(jv.partials == 0.0)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as info:
        ex.parse("x1 +", 1)
    assert info.value.offset == 4


def test_unknown_variable_and_arity():
    with pytest.raises(UnknownVariable):
        ex.parse("y + 1", 2)
    with pytest.raises(ArityMismatch):
        ex.parse("x3 + 1", 2)
    with pytest.raises(ArityMismatch):
        ex.parse("x1", 5)


def test_pow_requires_integer_exponent():
    with pytest.raises(ExprSyntaxError):
        ex.parse("x1^x2", 2)
    with pytest.raises(ExprSyntaxError):
        ex.parse("x1^(-2)", 1)


@pytest.mark.parametrize("k", range(7))
def test_integer_powers_match_libm(k):
    x = np.array([-3.7, -1.0, -0.3, -0.0, 0.0, 1e-3, 0.5, 1.0, 2.0, 11.3,
                  -123.456, 1e20])
    e = ex.parse(f"x1^{k}", 1)
    want = x ** k
    assert np.all(np.abs(e.values(x[:, None]) - want)
                  <= 4 * np.spacing(np.abs(want)))
    v, g = e.jets(x[:, None])
    assert np.all(np.abs(v - want) <= 4 * np.spacing(np.abs(want)))
    dwant = k * x ** (k - 1) if k else np.zeros_like(x)
    assert np.all(np.abs(g[:, 0] - dwant) <= 4 * np.spacing(np.abs(dwant)))


def _box_samples(rng, lo, hi, count):
    """The corners of each box and ``count`` uniform points inside it."""
    n = lo.shape[-1]
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * n, indexing="ij"))
    t = np.concatenate([corners.reshape(n, -1).T,
                        rng.uniform(size=(count, n))])
    return lo[:, None, :] + t[None, :, :] * (hi - lo)[:, None, :]


@pytest.mark.parametrize("text, arity, center, width", [
    ("-2.5", 1, 2.0, 1.0),                      # Const
    ("x2", 2, 2.0, 1.0),                        # Var
    ("x1 + x2", 2, 2.0, 1.0),
    ("x1 - x2", 2, 2.0, 1.0),
    ("x1*x2", 2, 2.0, 2.0),
    ("-x1", 1, 2.0, 1.0),
    ("x1/x2", 2, 2.0, 2.0),                     # denominators across 0
    ("x1/(x2^2 + 1)", 2, 2.0, 2.0),
    ("x1^0", 1, 2.0, 1.0),
    ("x1^1", 1, 2.0, 1.0),
    ("x1^2", 1, 1.0, 2.0),                      # even, across 0
    ("(x1 - 3)^4", 1, 1.0, 2.0),                # even, below 0
    ("x1^3", 1, 1.0, 2.0),                      # odd
    ("exp(x1)", 1, 3.0, 2.0),
    ("sqrt(x1^2 + x2^2)", 2, 1.0, 2.0),         # sqrt touching 0
    ("sin(x1)", 1, 4.0, 3.0),                   # across extrema
    ("cos(x1)", 1, 4.0, 3.0),
    ("sin(x1)", 1, 20.0, 9.0),                  # width above 2 pi
    ("cos(x1*x2)", 2, 4.0, 8.0),
    ("sin(x1*x2) + x3^3 - exp(x2)/2 + sqrt(x1^2 + 4)", 3, 1.5, 1.0),
])
def test_interval_encloses_sampled_values(text, arity, center, width):
    rng = np.random.default_rng(11)
    e = ex.parse(text, arity)
    lo = rng.uniform(-center, center, size=(200, arity))
    hi = lo + rng.uniform(0.0, width, size=(200, arity))
    ilo, ihi = e.interval(lo, hi)
    assert ilo.shape == ihi.shape == (200,)
    pts = _box_samples(rng, lo, hi, 40)
    flat = pts.reshape(-1, arity)
    with np.errstate(divide="ignore"):
        # a constant root returns a scalar
        vals = np.broadcast_to(e.root.val(flat), flat.shape[:-1])
    vals = vals.reshape(200, -1)
    assert np.all(ilo[:, None] <= vals)
    assert np.all(vals <= ihi[:, None])


def test_interval_sqrt_of_box_touching_zero():
    e = ex.parse("sqrt(x1)", 1)
    lo, hi = np.array([[0.0], [0.0]]), np.array([[4.0], [1e-300]])
    ilo, ihi = e.interval(lo, hi)
    assert np.all(ilo == 0.0)
    assert ihi[0] >= 2.0 and ihi[1] >= np.sqrt(1e-300)


def test_interval_special_cases():
    box = (np.array([[-1.0, -2.0]]), np.array([[3.0, 0.5]]))
    assert ex.parse("x1^2", 2).interval(*box)[0][0] == 0.0
    assert ex.parse("x1^2", 2).interval(*box)[1][0] >= 9.0
    assert ex.parse("x2^3", 2).interval(*box)[0][0] <= -8.0
    assert [b[0] for b in ex.parse("x1^0", 2).interval(*box)] == [1.0, 1.0]
    # a denominator interval that holds 0 leaves the quotient unbounded
    qlo, qhi = ex.parse("1/x2", 2).interval(*box)
    assert qlo[0] == -np.inf and qhi[0] == np.inf
    # sin reaches its maximum at pi/2 inside [-1, 3]
    assert ex.parse("sin(x1)", 2).interval(*box)[1][0] == 1.0
    wide = (np.array([[0.0]]), np.array([[7.0]]))
    assert [b[0] for b in ex.parse("cos(x1)", 1).interval(*wide)] == [-1.0, 1.0]


def test_interval_is_outward_rounded():
    # 0.1 + 0.2 is inexact in binary: the bound must straddle the sum
    e = ex.parse("x1 + x2", 2)
    p = np.array([[0.1, 0.2]])
    lo, hi = e.interval(p, p)
    assert lo[0] < 0.1 + 0.2 < hi[0]
    # a point box of an exact expression stays tight up to a few ulps
    lo, hi = ex.parse("x1*x2 - 1", 2).interval(p, p)
    assert hi[0] - lo[0] < 1e-15


# --------------------------------------------------------------------------
# Symbolic derivatives
# --------------------------------------------------------------------------

def _random_node(rng, arity, depth):
    """A seeded random tree over every node kind; denominators and sqrt
    arguments are kept away from 0."""
    if depth == 0:
        if rng.uniform() < 0.3:
            return ex.Const(float(np.round(rng.normal(), 2)))
        return ex.Var(int(rng.integers(arity)))
    a = _random_node(rng, arity, depth - 1)
    b = _random_node(rng, arity, depth - 1)
    kind = rng.integers(10)
    if kind == 0:
        return ex.Add(a, b)
    if kind == 1:
        return ex.Sub(a, b)
    if kind == 2:
        return ex.Mul(a, b)
    if kind == 3:
        return ex.Div(a, ex.Add(ex.Pow(b, 2), ex.Const(1.0)))
    if kind == 4:
        return ex.Pow(a, int(rng.integers(4)))
    if kind == 5:
        return ex.Neg(a)
    if kind == 9:
        return ex.Fun("sqrt", ex.Add(ex.Pow(a, 2), ex.Const(0.5)))
    return ex.Fun(("sin", "cos", "exp")[kind - 6], ex.Mul(ex.Const(0.5), a))


def _nodes(node):
    yield node
    for child in vars(node).values():
        if isinstance(child, ex.Node):
            yield from _nodes(child)


@pytest.mark.parametrize("seed", range(12))
def test_diff_matches_jets_and_central_differences(seed):
    from vfindex.fields import central_difference
    rng = np.random.default_rng(seed)
    arity = int(rng.integers(1, 4))
    e = ex.Expression(_random_node(rng, arity, 4), arity)
    x = rng.uniform(-1.2, 1.2, size=(32, arity))
    vals, grads = e.jets(x)
    assert np.array_equal(vals, e.values(x))
    fd = central_difference(e.values, x)
    for i in range(arity):
        d = e.derivatives[i]
        got = d.values(x)
        assert got.shape == (32,)
        # jets read the derivative expressions
        assert np.array_equal(grads[:, i], got)
        assert np.allclose(got, fd[:, i], rtol=1e-5, atol=1e-5)
        # the jets of a derivative are second derivatives
        second = central_difference(d.values, x)
        assert np.allclose(d.jets(x)[1], second, rtol=1e-5, atol=1e-5)


def test_diff_of_every_node_kind():
    cases = {
        "2.5": ["0", "0"],
        "x2": ["0", "1"],
        "x1 + x2": ["1", "1"],
        "x1 - x2": ["1", "-1"],
        "x1*x2": ["x2", "x1"],
        "x1/x2": ["1/x2", "(0 - x1/x2)/x2"],
        "x1^3": ["3*x1^2", "0"],
        "-x1": ["-1", "0"],
        "sin(x1)": ["cos(x1)", "0"],
        "cos(x2)": ["0", "-sin(x2)"],
        "exp(x1*x2)": ["exp(x1*x2)*x2", "exp(x1*x2)*x1"],
        "sqrt(x1^2 + 1)": ["x1/sqrt(x1^2 + 1)", "0"],
    }
    x = np.random.default_rng(3).uniform(0.5, 2.0, size=(16, 2))
    for text, want in cases.items():
        e = ex.parse(text, 2)
        for i in range(2):
            assert np.allclose(e.derivatives[i].values(x),
                               ex.parse(want[i], 2).values(x),
                               rtol=1e-13, atol=1e-13), (text, i)


def test_diff_of_sqrt_slope():
    """d/dx1 of 1/(2 sqrt(a)) is -a'/(4 a^(3/2)), and the second derivative
    of sqrt(x1^2 + 1) is (x1^2 + 1)^(-3/2)."""
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(16, 2))
    a = ex.parse("x1^2 + x2^2 + 1", 2)
    slope = ex.Expression(ex.SqrtSlope(a.root), 2)
    for i in range(2):
        want = -x[:, i] / (2.0 * a.values(x) ** 1.5)
        assert np.allclose(slope.derivatives[i].values(x), want,
                           rtol=1e-13, atol=1e-13)
    e = ex.parse("sqrt(x1^2 + 1)", 2)
    second = e.derivatives[0].derivatives[0]
    assert np.allclose(second.values(x), (x[:, 0] ** 2 + 1.0) ** -1.5,
                       rtol=1e-13, atol=1e-13)
    assert np.allclose(e.derivatives[0].jets(x)[1],
                       np.stack([(x[:, 0] ** 2 + 1.0) ** -1.5,
                                 np.zeros(16)], axis=-1),
                       rtol=1e-13, atol=1e-13)


def test_every_node_has_value_interval_and_diff():
    kinds = ex.Node.__subclasses__()
    assert {k.__name__ for k in kinds} == {
        "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg", "Fun",
        "SqrtSlope"}
    for kind in kinds:
        for method in ("val", "interval", "diff"):
            assert method in vars(kind), (kind.__name__, method)
        assert not hasattr(kind, "jet"), kind.__name__


def test_jets_raise_domain_errors():
    with pytest.raises(DomainError, match="division by zero"):
        ex.parse("1/x1", 1).jets(np.array([[1.0], [0.0]]))
    with pytest.raises(DomainError, match="sqrt of negative argument"):
        ex.parse("sqrt(x1)", 1).jets(np.array([[1.0], [-1.0]]))
    with pytest.raises(DomainError, match="sqrt of negative argument"):
        ex.parse("sqrt(x1 - x2)", 2).eval_jet([0.0, 1.0])


def test_diff_of_sqrt_at_its_kink_reads_zero():
    e = ex.parse("sqrt(x1^2 + x2^2)*x1 + sqrt(x2^2)", 2)
    x = np.array([[0.0, 0.0], [0.3, -0.4]])
    # by hand at (0.3, -0.4), where r = 0.5: x1^2/r + r and x1 x2/r - 1
    want = [[0.0, 0.68], [0.0, -1.24]]
    for i in range(2):
        got = e.derivatives[i].values(x)
        assert np.all(np.isfinite(got))
        assert got[0] == 0.0
        assert got == pytest.approx(want[i], rel=1e-12)
    # the slope node, its jet and the second derivatives all read 0 there
    slope = ex.Expression(ex.SqrtSlope(ex.parse("x1^2 + x2^2", 2).root), 2)
    v, g = slope.jets(x[:1])
    assert v[0] == 0.0 and np.all(g == 0.0)
    assert np.all(e.derivatives[0].jets(x[:1])[1] == 0.0)


def test_diff_folds_constants():
    rng = np.random.default_rng(8)
    from vfindex.fields import random_polynomial_expression
    for e in [random_polynomial_expression(rng, 3, 3) for _ in range(4)] + [
            ex.parse("x1^3*x2 - 2*x2^2 + 7 + 1*x1*1", 2)]:
        for d in e.derivatives:
            for node in _nodes(d.root):
                assert not (isinstance(node, ex.Const) and node.v == 0.0)
                if isinstance(node, ex.Mul):
                    assert node.a != ex.Const(1.0)
                    assert node.b != ex.Const(1.0)
                    assert not isinstance(node.b, ex.Const)
    assert ex.parse("x1^2", 2).derivatives[1] == ex.Expression(ex.Const(0.0), 2)
    assert str(ex.parse("3*x1^3*2", 1).derivatives[0]) == "18*x1^2"
    # the tuple is built once
    e = ex.parse("x1*x2", 2)
    assert e.derivatives is e.derivatives


@pytest.mark.parametrize("text, arity, center, width", [
    ("x1^2 + x2^2", 2, 1.0, 1.0),     # boxes around the kink at 0
    ("x1^2", 1, 1.0, 2.0),
    ("x1^2 + 4", 1, 3.0, 2.0),
    ("exp(x1) - 1", 1, 2.0, 1.0),
])
def test_sqrt_slope_interval_encloses_sampled_values(text, arity, center,
                                                      width):
    rng = np.random.default_rng(12)
    e = ex.Expression(ex.SqrtSlope(ex.parse(text, arity).root), arity)
    lo = rng.uniform(-center, center, size=(200, arity))
    hi = lo + rng.uniform(0.0, width, size=(200, arity))
    # a box from the kink, and a point box on it
    lo[0], hi[0] = 0.0, 0.5
    lo[1], hi[1] = 0.0, 0.0
    ilo, ihi = e.interval(lo, hi)
    assert ilo.shape == ihi.shape == (200,)
    pts = _box_samples(rng, lo, hi, 40)
    ok = ex.parse(text, arity).values(pts.reshape(-1, arity)) >= 0.0
    vals = np.where(ok, 0.0, np.nan)
    vals[ok] = e.values(pts.reshape(-1, arity)[ok])
    vals = vals.reshape(200, -1)
    inside = np.isnan(vals) | ((ilo[:, None] <= vals) & (vals <= ihi[:, None]))
    assert np.all(inside)


def test_sqrt_slope_interval_at_the_kink():
    slope = ex.Expression(ex.SqrtSlope(ex.Var(0)), 1)
    lo, hi = np.array([[0.0], [0.0], [-1.0], [4.0]]), np.array(
        [[0.0], [0.25], [0.0], [16.0]])
    ilo, ihi = slope.interval(lo, hi)
    # only the kink: exactly 0; from the kink up: unbounded above
    assert [ilo[0], ihi[0]] == [0.0, 0.0]
    assert [ilo[1], ihi[1]] == [0.0, np.inf]
    assert [ilo[2], ihi[2]] == [0.0, 0.0]
    assert ilo[3] <= 0.125 and 0.25 <= ihi[3] < 0.25 + 1e-15


@pytest.mark.parametrize("text", ["2", "-2.5", "x1*0 + 3", "sin(1)*2"])
def test_constant_rooted_expressions_are_batch_shaped(text):
    from vfindex.fields import ExpressionField
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, 2))
    e = ex.parse(text, 2)
    want = float(ex.parse(text, 2).evaluate([0.3, 0.1]))
    assert e.values(x).shape == (5,)
    assert np.all(e.values(x) == want)
    v, g = e.jets(x)
    assert v.shape == (5,) and g.shape == (5, 2)
    assert np.all(v == want) and np.all(g == 0.0)
    for d in e.derivatives:
        assert d.values(x).shape == (5,)
    field = ExpressionField.parse([text, "x2"])
    assert field.value(x).shape == (5, 2)
    assert np.all(field.value(x)[:, 0] == want)
    jac = field.jacobian(x)
    assert jac.shape == (5, 2, 2)
    assert np.all(jac[:, 0] == 0.0) and np.all(jac[:, 1] == [0.0, 1.0])
    const_field = ExpressionField.parse([text, "1"])
    assert np.all(const_field.jacobian(x) == 0.0)


# --------------------------------------------------------------------------
# Interval kernels against the plain nextafter reference
# --------------------------------------------------------------------------

_TINY = 5e-324
_HUGE = np.finfo(float).max
_SPECIAL = np.array([
    0.0, -0.0, _TINY, -_TINY, 2 * _TINY, -2 * _TINY, 5 * _TINY, -5 * _TINY,
    1e-310, -1e-310, np.finfo(float).tiny, -np.finfo(float).tiny,
    _HUGE, -_HUGE, np.nextafter(_HUGE, 0.0), -np.nextafter(_HUGE, 0.0),
    np.inf, -np.inf, 1.0, -1.0, 0.5 * np.pi, -np.pi, 1e300, -1e300])


def _nextafter_outward(lo, hi, ulps=1):
    """Reference widening: NaN to the whole line, then ``ulps`` passes of
    np.nextafter each way."""
    lo = np.where(np.isnan(lo), -np.inf, lo)
    hi = np.where(np.isnan(hi), np.inf, hi)
    for _ in range(ulps):
        lo = np.nextafter(lo, -np.inf)
        hi = np.nextafter(hi, np.inf)
    return lo, hi


def _reference_hull(*candidates):
    c = np.stack(candidates)
    return _nextafter_outward(np.min(c, axis=0), np.max(c, axis=0))


def _reference_mul_interval(self, lo, hi):
    """Four products, whatever the factors."""
    alo, ahi = self.a.interval(lo, hi)
    blo, bhi = self.b.interval(lo, hi)
    return _reference_hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)


def _reference_pow_interval(self, lo, hi):
    """Both endpoint powers widened both ways, then the bounds chosen."""
    alo, ahi = self.a.interval(lo, hi)
    if self.k == 0:
        one = np.ones_like(alo)
        return one, one
    if self.k == 1:
        return alo, ahi
    lo_down, lo_up = _nextafter_outward(alo ** self.k, alo ** self.k,
                                        ex._LIBM_ULPS)
    hi_down, hi_up = _nextafter_outward(ahi ** self.k, ahi ** self.k,
                                        ex._LIBM_ULPS)
    if self.k % 2:
        return lo_down, hi_up
    low = np.where(alo > 0.0, lo_down, np.where(ahi < 0.0, hi_down, 0.0))
    high = np.where(alo > 0.0, hi_up,
                    np.where(ahi < 0.0, lo_up, np.maximum(lo_up, hi_up)))
    return np.maximum(low, 0.0), high


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("ulps", [1, 2, 3, 4])
def test_outward_steps_like_nextafter(ulps):
    rng = np.random.default_rng(ulps)
    steps = np.arange(-6, 7) * _TINY
    ordinary = rng.normal(size=400) * 10.0 ** rng.integers(-320, 308, 400)
    x = np.concatenate([_SPECIAL, steps, -steps, [np.nan], ordinary])
    with np.errstate(over="ignore"):
        got = ex._outward(x, x, ulps)
        want = _nextafter_outward(x, x, ulps)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))
    # up from the largest negative subnormal, nextafter's first step is -0.0
    up = ex._outward(np.array([-_TINY]), np.array([-_TINY]), ulps)[1][0]
    assert up == (0.0 if ulps == 1 else (ulps - 1) * _TINY)
    assert np.signbit(up) == (ulps == 1)


def _any_node(rng, arity, depth):
    """A seeded random tree over every node kind, integer powers 0-6 and
    products with a constant factor on either side; denominators and sqrt
    arguments are left unguarded."""
    if depth == 0 or rng.uniform() < 0.15:
        if rng.uniform() < 0.3:
            return ex.Const(float(rng.choice(
                [0.0, -0.0, 1e-310, np.round(rng.normal() * 3.0, 2)])))
        return ex.Var(int(rng.integers(arity)))
    a = _any_node(rng, arity, depth - 1)
    kind = int(rng.integers(13))
    if kind < 4:
        b = _any_node(rng, arity, depth - 1)
        return (ex.Add, ex.Sub, ex.Mul, ex.Div)[kind](a, b)
    if kind == 4:
        return ex.Mul(ex.Const(float(np.round(rng.normal() * 3.0, 2))), a)
    if kind == 5:
        return ex.Mul(a, ex.Const(float(rng.choice([-2.5, 0.0, 1e-310]))))
    if kind in (6, 7):
        return ex.Pow(a, int(rng.integers(7)))
    if kind == 8:
        return ex.Neg(a)
    if kind == 9:
        return ex.SqrtSlope(a)
    return ex.Fun(("sin", "cos", "exp", "sqrt")[int(rng.integers(4))], a)


def _special_boxes(rng, count, arity):
    """Boxes whose corners mix ordinary values of many scales with ±0,
    subnormals, ±max float and ±inf; some are degenerate, many span 0."""
    def corners():
        ordinary = rng.normal(size=(count, arity)) \
            * 10.0 ** rng.integers(-3, 4, size=(count, arity))
        special = rng.choice(_SPECIAL, size=(count, arity))
        return np.where(rng.uniform(size=(count, arity)) < 0.3, special,
                        ordinary)

    a, b = corners(), corners()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lo, np.where(rng.uniform(size=(count, arity)) < 0.15, lo, hi)


def test_interval_kernels_match_the_nextafter_reference(monkeypatch):
    rng = np.random.default_rng(2024)
    kinds = set()
    for _ in range(2000):
        arity = int(rng.integers(1, 4))
        root = _any_node(rng, arity, int(rng.integers(1, 5)))
        kinds |= {type(node).__name__ + getattr(node, "name", "")
                  for node in _nodes(root)}
        lo, hi = _special_boxes(rng, 48, arity)
        with np.errstate(all="ignore"):
            got = root.interval(lo, hi)
            with monkeypatch.context() as m:
                m.setattr(ex, "_outward", _nextafter_outward)
                m.setattr(ex, "_hull", _reference_hull)
                m.setattr(ex.Mul, "interval", _reference_mul_interval)
                m.setattr(ex.Pow, "interval", _reference_pow_interval)
                want = root.interval(lo, hi)
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w)), repr(root)
    assert kinds == {"Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
                     "SqrtSlope", "Funsin", "Funcos", "Funexp", "Funsqrt"}
