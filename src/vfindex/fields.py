"""Vector fields on subsets of R^n.

Two concrete kinds are used throughout:

* ``ExpressionField`` -- n expression-backed components with exact Jacobians,
  the values of the components' derivative expressions; this is what scene
  files produce.
* ``CallableField`` -- components given by a vectorized callable, with a
  central finite-difference Jacobian.  Perturbed fields built by the
  verification layer are of this kind (their cutoff factors have no closed
  expression in the parser grammar).

``central_difference`` is the one finite-difference Jacobian of the
package.  Its users are the Jacobian of a callable field (with step
``FD_STEP``) and the Lipschitz estimate of the complex square norm.

All evaluation is batched: ``value`` maps an (m, n) array of points to an
(m, n) array of vectors and ``jacobian`` to (m, n, n) matrices.

``zero_free`` is the exclusion test of the interior zero search.  An
expression field proves it with outward-rounded interval bounds of its
components.  A callable has no expression to bound, so a callable field
falls back to a sampled test: a cell counts as zero-free when the least
sampled ||v|| beats (largest sampled ||Dv||) * diameter.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import expr as ex

FD_STEP = 1e-6


def central_difference(fn, x, h=FD_STEP):
    """Central-difference Jacobians of the batch map fn at the points x.

    fn maps (m, n) points to (m, k) values, or to (m,) scalars; the result
    is (m, k, n), or (m, n) for a scalar map.  Complex values are allowed.
    """
    x = np.asarray(x, float)
    n = x.shape[-1]
    cols = []
    for i in range(n):
        dx = np.zeros(n)
        dx[i] = h
        cols.append((fn(x + dx) - fn(x - dx)) / (2.0 * h))
    return np.stack(cols, axis=-1)


class VectorField:
    n: int

    def value(self, x):
        raise NotImplementedError

    def jacobian(self, x):
        raise NotImplementedError

    def value_at(self, p):
        return self.value(np.asarray(p, float)[None, :])[0]

    def jacobian_at(self, p):
        return self.jacobian(np.asarray(p, float)[None, :])[0]

    def norms(self, x):
        return np.linalg.norm(self.value(x), axis=-1)

    def zero_free(self, lo, hi, paranoid=False):
        """Boolean (m,) mask of the boxes lo <= x <= hi ((m, n) corner
        arrays) on which the field has no zero."""
        raise NotImplementedError

    def __neg__(self):
        return NegatedField(self)


class ExpressionField(VectorField):
    def __init__(self, components):
        components = list(components)
        arities = {c.arity for c in components}
        if len(arities) != 1 or len(components) not in arities:
            raise ex.ArityMismatch(
                "field needs n components of arity n, got "
                f"{len(components)} components with arities {sorted(arities)}")
        self.components = components
        self.n = len(components)

    @classmethod
    def parse(cls, texts):
        texts = list(texts)
        return cls([ex.parse(t, len(texts)) for t in texts])

    def value(self, x):
        x = np.asarray(x, float)
        return np.stack([c.values(x) for c in self.components], axis=-1)

    def jacobian(self, x):
        """Exact: the values of the components' derivative expressions."""
        x = np.asarray(x, float)
        return np.stack([np.stack([d.values(x) for d in c.derivatives],
                                  axis=-1) for c in self.components],
                        axis=-2)

    def zero_free(self, lo, hi, paranoid=False):
        """Proved: some component's interval bound excludes 0."""
        free = np.zeros(len(lo), dtype=bool)
        for c in self.components:
            clo, chi = c.interval(lo, hi)
            free |= (clo > 0.0) | (chi < 0.0)
        return free

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"


class CallableField(VectorField):
    def __init__(self, n, fn, jac=None):
        self.n = n
        self.fn = fn
        self._jac = jac

    def value(self, x):
        return self.fn(np.asarray(x, float))

    def jacobian(self, x):
        x = np.asarray(x, float)
        if self._jac is not None:
            return self._jac(x)
        return central_difference(self.fn, x)

    def zero_free(self, lo, hi, paranoid=False):
        """Sampled, not proved: 3 probes per axis (5 with ``paranoid``)."""
        offsets = _probe_offsets(self.n, 5 if paranoid else 3)
        m = len(lo)
        pts = lo[:, None, :] + offsets[None, :, :] * (hi - lo)[:, None, :]
        flat = pts.reshape(-1, self.n)
        norms = self.norms(flat).reshape(m, -1)
        jacs = self.jacobian(flat)
        jnorm = np.sqrt(np.sum(jacs * jacs, axis=(-2, -1))).reshape(m, -1)
        diam = np.linalg.norm(hi - lo, axis=-1)
        return ~(norms.min(axis=1) - jnorm.max(axis=1) * diam <= 0.0)


def _probe_offsets(n, per_axis):
    fr = np.linspace(0.0, 1.0, per_axis)
    return np.array(list(itertools.product(fr, repeat=n)))


class NegatedField(VectorField):
    def __init__(self, base):
        self.base = base
        self.n = base.n

    def value(self, x):
        return -self.base.value(x)

    def jacobian(self, x):
        return -self.base.jacobian(x)

    def zero_free(self, lo, hi, paranoid=False):
        return self.base.zero_free(lo, hi, paranoid)


# --------------------------------------------------------------------------
# Polynomial constructors (tests and the random sweeps use these heavily)
# --------------------------------------------------------------------------

def monomials(n, max_degree):
    """Exponent tuples alpha with |alpha| <= max_degree, in a fixed order."""
    out = []
    for alpha in itertools.product(range(max_degree + 1), repeat=n):
        if sum(alpha) <= max_degree:
            out.append(alpha)
    out.sort(key=lambda a: (sum(a), a))
    return out


def polynomial_expression(coeffs, n):
    """Build an Expression from {exponent tuple: coefficient}."""
    root = None
    for alpha, c in coeffs.items():
        if c == 0.0:
            continue
        term = ex.Const(float(c))
        for i, k in enumerate(alpha):
            if k == 0:
                continue
            factor = ex.Var(i) if k == 1 else ex.Pow(ex.Var(i), k)
            term = ex.Mul(term, factor)
        root = term if root is None else ex.Add(root, term)
    if root is None:
        root = ex.Const(0.0)
    return ex.Expression(root, n)


def random_polynomial_expression(rng, n, max_degree, scale=1.0):
    coeffs = {}
    for alpha in monomials(n, max_degree):
        coeffs[alpha] = float(rng.normal(scale=scale))
    return polynomial_expression(coeffs, n)


def random_polynomial_field(rng, n, max_degree, scale=1.0):
    return ExpressionField(
        [random_polynomial_expression(rng, n, max_degree, scale) for _ in range(n)])
