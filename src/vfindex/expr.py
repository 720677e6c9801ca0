"""Scalar expressions over x1..xn with exact first derivatives.

The grammar is infix with standard precedence; ``^`` binds tightest and only
accepts a nonnegative integer literal exponent, which keeps differentiation
total and exact.  Admitted primitives are smooth: + - * / ^ unary minus and
sin, cos, exp, sqrt.  Evaluation is vectorized over numpy point batches.
A constant evaluates to a numpy scalar; the public ``Expression`` methods
broadcast a result that is not batch-shaped to the batch.

Every node has a value, an interval and a symbolic derivative.
``Node.diff(i)`` builds the partial derivative as a new tree, folding
constants as it goes (``0`` terms are dropped, ``1`` factors and products of
constants are folded), and ``Expression.derivatives`` caches the n
derivative expressions.  ``jets`` is the value together with the values of
the derivative expressions.  Being expressions themselves, the derivatives
have derivatives, jets and intervals, which gives exact second derivatives
(the Hessian of g) and exact Jacobians of expression fields.

sqrt at exactly 0 evaluates to value 0 with zero partials; this makes
fields such as ``sqrt(x1^2+x2^2)*x1`` C^1 at the origin with the expected
zero derivative.  The symbolic derivative keeps this: d sqrt(a) is
``SqrtSlope(a) * da``, and ``SqrtSlope`` reads 0 where a == 0.

``interval`` is the natural interval extension over a batch of boxes.  numpy
has no directed rounding, so every rounded endpoint is widened outward (by
more than the error of each math function), so the bounds enclose every
value of the expression on the box (directed rounding as in Moore, Kearfott
& Cloud, *Introduction to Interval Analysis*, SIAM 2009).  A NaN endpoint
(inf - inf, 0 * inf) widens to -inf or +inf.  A one-float widening is one
``np.nextafter`` pass; a widening by k floats is one step of k on the
positions of the floats in their order, read from their int64 bits, and
gives bit for bit what k ``nextafter`` passes give, the -0.0 that
``nextafter`` returns just below 0 included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArityMismatch, DomainError, ExprSyntaxError, UnknownVariable

SQRT_NEG_TOL = 1e-12
# parsed trees with more nodes than this on a path from the root are
# refused: evaluation, bounds, derivatives and printing recurse once per
# node, and at this depth a tree still takes two derivatives and prints
# within Python's default recursion limit
MAX_DEPTH = 100

_FUNCTIONS = ("sin", "cos", "exp", "sqrt")

# precedence levels used by the printer
_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


def _fmt(v: float) -> str:
    return format(v, ".17g")


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

# the bits of -0.0 and of +inf, as int64
_NEG_ZERO_BITS = np.int64(np.iinfo(np.int64).min)
_INF_BITS = np.int64(0x7FF0000000000000)


def _ordinal(x):
    """The position of each float in their order as int64: consecutive
    floats are one apart, and -0.0 and +0.0 are both 0."""
    bits = x.view(np.int64)
    return np.where(bits < 0, _NEG_ZERO_BITS - bits, bits)


def _outward(lo, hi, ulps=1):
    """Widen [lo, hi] by ``ulps`` floats on each side, exactly as that many
    ``np.nextafter`` passes towards -inf and +inf would; NaN (inf - inf,
    0 * inf) widens to the whole line."""
    lo = np.fmax(lo, -np.inf)
    hi = np.fmin(hi, np.inf)
    if ulps == 1:
        return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    # one step on the ordinals; an ordinal of 0 came from above on the low
    # side (+0.0) and from below on the high side (-0.0), as with nextafter
    down = np.maximum(_ordinal(lo) - ulps, -_INF_BITS)
    up = np.minimum(_ordinal(hi) + ulps, _INF_BITS)
    lo = np.where(down < 0, _NEG_ZERO_BITS - down, down).view(np.float64)
    hi = np.where(up > 0, up, _NEG_ZERO_BITS - up).view(np.float64)
    return lo, hi


def _hull(*candidates):
    """Outward-rounded [min, max] of candidate endpoint values."""
    low = high = candidates[0]
    for c in candidates[1:]:
        low, high = np.minimum(low, c), np.maximum(high, c)
    return _outward(low, high)


# exp, sin, cos and integer powers are not correctly rounded; their error
# is within a few ulps, and outward widening by this many covers it
_LIBM_ULPS = 4
# beyond this argument the period test below loses its resolution
_TRIG_ARG_MAX = 1e6


def _contains_phase(lo, hi, phase):
    """Whether [lo, hi] may contain phase + 2 pi k for an integer k; errs
    towards yes, which only loosens the bound."""
    slack = 1e-9
    first = np.ceil((lo - phase) / (2.0 * np.pi) - slack)
    last = np.floor((hi - phase) / (2.0 * np.pi) + slack)
    return first <= last


def _trig_interval(f, lo, hi, top, bottom):
    """Range of the 2 pi-periodic f (sin or cos) with maximum 1 at phase
    ``top`` and minimum -1 at phase ``bottom``."""
    with np.errstate(invalid="ignore"):
        flo, fhi = f(lo), f(hi)
        flo, fhi = _outward(np.minimum(flo, fhi), np.maximum(flo, fhi),
                            _LIBM_ULPS)
        wide = ~np.isfinite(lo) | ~np.isfinite(hi) | (hi - lo >= 2.0 * np.pi)
        wide |= np.maximum(np.abs(lo), np.abs(hi)) > _TRIG_ARG_MAX
        fhi = np.where(wide | _contains_phase(lo, hi, top), 1.0, fhi)
        flo = np.where(wide | _contains_phase(lo, hi, bottom), -1.0, flo)
    return np.maximum(flo, -1.0), np.minimum(fhi, 1.0)


class Node:
    prec = _P_ATOM

    def val(self, x):
        raise NotImplementedError

    def interval(self, lo, hi):
        """Enclosure [l, u] of the values over boxes lo <= x <= hi, each
        an (m, n) array; returns two (m,) arrays."""
        raise NotImplementedError

    def diff(self, i):
        """The partial derivative in x{i+1} as a node, constants folded."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    v: float

    def val(self, x):
        return np.float64(self.v)

    def interval(self, lo, hi):
        v = np.full(lo.shape[:-1], self.v)
        return v, v

    def diff(self, i):
        return _ZERO

    def __str__(self):
        return _fmt(self.v)


@dataclass(frozen=True)
class Var(Node):
    i: int  # zero-based

    def val(self, x):
        return x[..., self.i]

    def interval(self, lo, hi):
        return lo[..., self.i], hi[..., self.i]

    def diff(self, i):
        return _ONE if i == self.i else _ZERO

    def __str__(self):
        return f"x{self.i + 1}"


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node
    prec = _P_ADD

    def val(self, x):
        return self.a.val(x) + self.b.val(x)

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        blo, bhi = self.b.interval(lo, hi)
        return _outward(alo + blo, ahi + bhi)

    def diff(self, i):
        return _add(self.a.diff(i), self.b.diff(i))


@dataclass(frozen=True)
class Sub(Node):
    a: Node
    b: Node
    prec = _P_ADD

    def val(self, x):
        return self.a.val(x) - self.b.val(x)

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        blo, bhi = self.b.interval(lo, hi)
        return _outward(alo - bhi, ahi - blo)

    def diff(self, i):
        return _sub(self.a.diff(i), self.b.diff(i))


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node
    prec = _P_MUL

    def val(self, x):
        return self.a.val(x) * self.b.val(x)

    def interval(self, lo, hi):
        # a constant factor c leaves two distinct products, c*lo and c*hi
        if isinstance(self.a, Const):
            return _hull(*(self.a.v * b for b in self.b.interval(lo, hi)))
        if isinstance(self.b, Const):
            return _hull(*(a * self.b.v for a in self.a.interval(lo, hi)))
        alo, ahi = self.a.interval(lo, hi)
        blo, bhi = self.b.interval(lo, hi)
        return _hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)

    def diff(self, i):
        return _add(_mul(self.a.diff(i), self.b), _mul(self.a, self.b.diff(i)))


@dataclass(frozen=True)
class Div(Node):
    a: Node
    b: Node
    prec = _P_MUL

    def val(self, x):
        vb = self.b.val(x)
        if np.any(vb == 0.0):
            raise DomainError("division by zero")
        return self.a.val(x) / vb

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        blo, bhi = self.b.interval(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            qlo, qhi = _hull(alo / blo, alo / bhi, ahi / blo, ahi / bhi)
        # a denominator interval that holds 0 leaves the quotient unbounded
        spans_zero = (blo <= 0.0) & (bhi >= 0.0)
        return (np.where(spans_zero, -np.inf, qlo),
                np.where(spans_zero, np.inf, qhi))

    def diff(self, i):
        # (a' - (a/b) b') / b
        return _div(_sub(self.a.diff(i), _mul(self, self.b.diff(i))), self.b)


def _int_power(a, k):
    """a ** k for an integer k >= 0 by repeated multiplication, which is
    several times faster than libm's pow for the small literal exponents
    of the grammar."""
    if k == 0:
        return np.ones_like(a)
    out = a
    for _ in range(k - 1):
        out = out * a
    return out


@dataclass(frozen=True)
class Pow(Node):
    a: Node
    k: int
    prec = _P_POW

    def val(self, x):
        return _int_power(self.a.val(x), self.k)

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        if self.k == 0:
            one = np.ones_like(alo)
            return one, one
        if self.k == 1:
            return alo, ahi
        # each endpoint's power, of the signed endpoint: numpy's (-x)**k
        # and x**k can differ in the last bit
        plo, phi = alo ** self.k, ahi ** self.k
        if self.k % 2:
            return _outward(plo, phi, _LIBM_ULPS)
        # even powers fall towards 0 and have minimum 0 on an interval
        # that holds it; the widening is monotone, so it may come after
        # the choice of bound
        low = np.where(alo > 0.0, plo, np.where(ahi < 0.0, phi, 0.0))
        high = np.where(alo > 0.0, phi,
                        np.where(ahi < 0.0, plo, np.maximum(plo, phi)))
        low, high = _outward(low, high, _LIBM_ULPS)
        return np.maximum(low, 0.0), high

    def diff(self, i):
        return _mul(_mul(Const(float(self.k)), _pow(self.a, self.k - 1)),
                    self.a.diff(i))


@dataclass(frozen=True)
class Neg(Node):
    a: Node
    prec = _P_UNARY

    def val(self, x):
        return -self.a.val(x)

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        return -ahi, -alo

    def diff(self, i):
        return _neg(self.a.diff(i))


@dataclass(frozen=True)
class Fun(Node):
    name: str
    a: Node

    def val(self, x):
        va = self.a.val(x)
        if self.name == "sin":
            return np.sin(va)
        if self.name == "cos":
            return np.cos(va)
        if self.name == "exp":
            return np.exp(va)
        # sqrt
        if np.any(va < -SQRT_NEG_TOL):
            raise DomainError("sqrt of negative argument")
        return np.sqrt(np.maximum(va, 0.0))

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        if self.name == "sin":
            return _trig_interval(np.sin, alo, ahi, 0.5 * np.pi, -0.5 * np.pi)
        if self.name == "cos":
            return _trig_interval(np.cos, alo, ahi, 0.0, np.pi)
        if self.name == "exp":
            with np.errstate(over="ignore"):
                elo, ehi = _outward(np.exp(alo), np.exp(ahi), _LIBM_ULPS)
            return np.maximum(elo, 0.0), ehi
        # sqrt: monotone; like val, a slightly negative argument reads 0
        slo, shi = _outward(np.sqrt(np.maximum(alo, 0.0)),
                            np.sqrt(np.maximum(ahi, 0.0)))
        return np.maximum(slo, 0.0), shi

    def diff(self, i):
        da = self.a.diff(i)
        if self.name == "sin":
            return _mul(Fun("cos", self.a), da)
        if self.name == "cos":
            return _neg(_mul(Fun("sin", self.a), da))
        if self.name == "exp":
            return _mul(self, da)
        return _mul(SqrtSlope(self.a), da)


@dataclass(frozen=True)
class SqrtSlope(Node):
    """d sqrt(a) / da = 1 / (2 sqrt(a)), read as 0 where a == 0: the
    derivative node of sqrt, with sqrt's convention of zero partials at the
    kink.  Like sqrt, an argument slightly below 0 reads as 0."""

    a: Node

    def _slope(self, va):
        if np.any(va < -SQRT_NEG_TOL):
            raise DomainError("sqrt of negative argument")
        va = np.maximum(va, 0.0)
        at_kink = va == 0.0
        safe = np.where(at_kink, 1.0, va)
        return np.where(at_kink, 0.0, 0.5 / np.sqrt(safe))

    def val(self, x):
        return self._slope(self.a.val(x))

    def interval(self, lo, hi):
        alo, ahi = self.a.interval(lo, hi)
        alo, ahi = np.maximum(alo, 0.0), np.maximum(ahi, 0.0)
        with np.errstate(divide="ignore"):
            slo, shi = _outward(0.5 / np.sqrt(ahi), 0.5 / np.sqrt(alo), 2)
        # decreasing in a > 0; an interval that reaches a == 0 holds the
        # kink value 0 and, if it goes above 0, values without bound
        low = np.where(alo > 0.0, np.maximum(slo, 0.0), 0.0)
        high = np.where(alo > 0.0, shi, np.where(ahi > 0.0, np.inf, 0.0))
        return low, high

    def diff(self, i):
        # d/da (1 / (2 sqrt(a))) = -2 s^3, which is 0 at the kink too
        return _mul(_mul(Const(-2.0), _pow(self, 3)), self.a.diff(i))


# --------------------------------------------------------------------------
# Folding constructors of derivative trees
# --------------------------------------------------------------------------

_ZERO, _ONE = Const(0.0), Const(1.0)


def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.v == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.v + b.v)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.v - b.v)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a):
    if _is_const(a):
        return Const(-a.v)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def _coefficient(node):
    """(c, rest) with node = c * rest; rest is None for a constant."""
    if isinstance(node, Const):
        return node.v, None
    if isinstance(node, Mul) and isinstance(node.a, Const):
        return node.a.v, node.b
    if isinstance(node, Neg):
        c, rest = _coefficient(node.a)
        return -c, rest
    return 1.0, node


def _mul(a, b):
    """a * b with the constant factors of both multiplied into one leading
    constant, which is dropped when it is 1; a 0 factor gives 0."""
    ca, ra = _coefficient(a)
    cb, rb = _coefficient(b)
    c = ca * cb
    if c == 0.0 or (ra is None and rb is None):
        return Const(c)
    rest = rb if ra is None else ra if rb is None else Mul(ra, rb)
    if c == 1.0:
        return rest
    return _neg(rest) if c == -1.0 else Mul(Const(c), rest)


def _div(a, b):
    if _is_const(a, 0.0) or _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(a, k):
    if k == 0:
        return _ONE
    if k == 1:
        return a
    return Pow(a, k)


# --------------------------------------------------------------------------
# Lexer / parser
# --------------------------------------------------------------------------

@dataclass
class _Tok:
    kind: str   # num ident op lparen rparen end
    text: str
    pos: int
    value: float = 0.0


def _lex(text):
    toks = []
    i, m = 0, len(text)
    while i < m:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < m and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < m and text[j] in "eE":
                k = j + 1
                if k < m and text[k] in "+-":
                    k += 1
                if k < m and text[k].isdigit():
                    while k < m and text[k].isdigit():
                        k += 1
                    j = k
            lit = text[i:j]
            try:
                v = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {lit!r}", i)
            toks.append(_Tok("num", lit, i, v))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < m and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            toks.append(_Tok("op", c, i))
            i += 1
            continue
        if c == "(":
            toks.append(_Tok("lparen", c, i))
            i += 1
            continue
        if c == ")":
            toks.append(_Tok("rparen", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", m))
    return toks


class _Parser:
    def __init__(self, text, arity):
        self.text = text
        self.arity = arity
        self.toks = _lex(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, what):
        t = self.next()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {what}", t.pos)
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected token {t.text!r}", t.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            e = self.next()
            if e.kind != "num" or e.value != int(e.value) or e.value < 0:
                raise ExprSyntaxError("exponent must be a nonnegative integer literal", e.pos)
            node = Pow(node, int(e.value))
        return node

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return Const(t.value)
        if t.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if t.kind == "ident":
            if t.text in _FUNCTIONS:
                self.expect("lparen", "'(' after function name")
                arg = self.expr()
                self.expect("rparen", "')'")
                return Fun(t.text, arg)
            if len(t.text) > 1 and t.text[0] == "x" and t.text[1:].isdigit():
                idx = int(t.text[1:])
                if not 1 <= idx <= self.arity:
                    raise ArityMismatch(
                        f"variable {t.text} exceeds arity {self.arity}")
                return Var(idx - 1)
            raise UnknownVariable(f"unknown identifier {t.text!r}")
        raise ExprSyntaxError("expected a value", t.pos)


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class JetValue:
    value: float
    partials: np.ndarray


@dataclass(frozen=True)
class Expression:
    """Immutable parsed expression of a fixed arity; evaluation is pure."""

    root: Node
    arity: int

    def __str__(self):
        return _print(self.root)

    def _points(self, point):
        x = np.asarray(point, dtype=float)
        if x.shape[-1] != self.arity:
            raise ArityMismatch(
                f"point has length {x.shape[-1]}, expected {self.arity}")
        return x

    def evaluate(self, point) -> float:
        x = self._points(point)
        v = _batch_shaped(self.root.val(x), x.shape[:-1])
        if not np.all(np.isfinite(v)):
            raise DomainError("non-finite value in evaluation")
        return float(v) if x.ndim == 1 else v

    def values(self, points) -> np.ndarray:
        """Batch evaluation over an (m, n) array of points."""
        return self.evaluate(points)

    def _jet(self, point):
        x = self._points(point)
        v = _batch_shaped(self.root.val(x), x.shape[:-1])
        g = np.empty(x.shape)
        for i, d in enumerate(self.derivatives):
            g[..., i] = d.root.val(x)
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(g))):
            raise DomainError("non-finite value in jet evaluation")
        return v, g

    def eval_jet(self, point) -> JetValue:
        v, g = self._jet(point)
        return JetValue(float(v), g)

    def jets(self, points):
        """Batch jets: returns (values (m,), gradients (m, n)), the
        gradients from the derivative expressions."""
        return self._jet(points)

    def gradient(self, point) -> np.ndarray:
        return self.eval_jet(point).partials

    def interval(self, lo, hi):
        """Outward-rounded bounds (l, u) of the values over a batch of boxes
        lo <= x <= hi, given as (m, n) arrays of corners."""
        return self.root.interval(self._points(lo), self._points(hi))

    @cached_property
    def derivatives(self):
        """The n first partial derivatives, in x1..xn, as expressions of
        the same arity; built once."""
        return tuple(Expression(self.root.diff(i), self.arity)
                     for i in range(self.arity))


def _batch_shaped(a, shape):
    """a broadcast to shape as a new array, unless it has that shape; a
    constant node returns a scalar."""
    if np.shape(a) == shape:
        return a
    return np.array(np.broadcast_to(a, shape))


def parse(text: str, arity: int) -> Expression:
    """Parse ``text`` over variables x1..x{arity}; arity must be 1, 2 or 3."""
    if arity not in (1, 2, 3):
        raise ArityMismatch(f"arity must be 1, 2 or 3, got {arity}")
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, arity)
    try:
        root = parser.parse()
    except RecursionError:
        at = parser.toks[min(parser.pos, len(parser.toks) - 1)].pos
        raise ExprSyntaxError("expression nested too deeply to parse",
                              at) from None
    if _depth(root) > MAX_DEPTH:
        raise ExprSyntaxError(
            f"expression nested deeper than MAX_DEPTH = {MAX_DEPTH}", 0)
    return Expression(root, arity)


def _depth(root):
    """The number of nodes on the longest path from root to a leaf, counted
    with a stack of its own rather than by recursion."""
    deepest, stack = 0, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in
                     (getattr(node, "a", None), getattr(node, "b", None))
                     if isinstance(child, Node))
    return deepest


def _print(node, parent_prec=0):
    if isinstance(node, Const):
        s = _fmt(node.v)
        # a leading minus inside a tighter context needs parentheses
        if node.v < 0 and parent_prec > _P_ADD:
            return f"({s})"
        return s
    if isinstance(node, Var):
        return str(node)
    if isinstance(node, Fun):
        return f"{node.name}({_print(node.a)})"
    if isinstance(node, Neg):
        s = "-" + _print(node.a, _P_UNARY)
        return f"({s})" if parent_prec > _P_UNARY else s
    if isinstance(node, Pow):
        s = f"{_print(node.a, _P_POW + 1)}^{node.k}"
        return f"({s})" if parent_prec > _P_POW else s
    if isinstance(node, SqrtSlope):
        # no syntax of its own; this reparses to the same values off the kink
        s = f"1/(2*sqrt({_print(node.a)}))"
        return f"({s})" if parent_prec > _P_MUL else s
    ops = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}
    sym = ops[type(node)]
    prec = node.prec
    # left operand may share the level; the right one needs a strictly
    # tighter level so reparsing rebuilds the identical tree
    s = _print(node.a, prec) + sym + _print(node.b, prec + 1)
    return f"({s})" if parent_prec > prec else s

