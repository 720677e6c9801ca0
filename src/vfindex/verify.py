"""Tameness repair and numerical checks of the index identities.

A field is tame when it has no zeros on the boundary and every tangential
boundary zero has a nonzero transverse component.  ``make_tame`` repairs a
field that is not, by adding perturbations supported in a collar of the
boundary (a smooth bump of the approximate boundary distance):

* ``half_ball_shift`` evaluates the field at points shifted inward, pushing
  a genuine boundary zero of the field into the interior;
* ``collar_blend`` adds a small tangential field, splitting up degenerate
  tangential behavior without touching the transverse component;
* ``random_linear_jiggle`` adds a small affine field as a last resort.

The tameness check searches the boundary for tangential zeros; the census
it takes of the field ``make_tame`` returns is the one that
``full_index(auto_tame=True)`` and ``invariance_verdict`` build the index
from, so each auto-tamed index takes one boundary search.

The verdicts below each test one consequence of the boundary index theorem
and report pass/fail together with the numbers involved.  Each is a pure
function of the reports it compares, which ``run_all`` computes once each;
only ``invariance_verdict`` builds its own (boundary-only) reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degree import SphereMap, degree_for
from .errors import CannotTame, NotTame, ZeroOnBoundary
from .euler import chi_boundary_for
from .fields import CallableField
from .indices import HalfInteger, _boundary_part, full_index
from .manifold import (GRAD_FLOOR, TANGENT, Collar, collar_bump,
                       surface_samples)
from .zerofind import find_boundary_tangential_zeros

MAX_TAME_ATTEMPTS = 10
# size of the first repair perturbation; it halves every third attempt
TAME_EPS = 1e-2


@dataclass
class Verdict:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extras = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{status} {self.name}: {extras}"


# --------------------------------------------------------------------------
# Collar perturbations
# --------------------------------------------------------------------------

def _depth_and_normal(M, x):
    """Approximate boundary distance |g|/|grad g| and the inward unit normal."""
    vals, grads = M.g.jets(np.asarray(x, float))
    gn = np.linalg.norm(grads, axis=-1)
    safe = np.maximum(gn, GRAD_FLOOR)
    depth = np.abs(vals) / safe
    inward = -grads / safe[..., None]
    return depth, inward, grads, safe


def _boundary_scale(M, v):
    pts = surface_samples(M)
    return float(np.median(np.linalg.norm(v.value(pts), axis=-1))) + 1e-30


def half_ball_shift(M, v, eps):
    """Evaluate v at inward-shifted points; the shift dies out off the collar."""
    width = M.collar_band()
    shift = eps * width

    def fn(x):
        depth, inward, _, _ = _depth_and_normal(M, x)
        bump = collar_bump(depth, width)
        return v.value(x + shift * bump[..., None] * inward)

    entry = {"kind": "half_ball_shift", "eps": eps, "shift": shift}
    return CallableField(M.n, fn), entry


def collar_blend(M, collar, v, rng, eps):
    """Add a bump-localized tangential field; the transverse part is untouched."""
    width = M.collar_band()
    w = rng.normal(size=M.n)
    w /= np.linalg.norm(w)
    amp = eps * _boundary_scale(M, v)

    def fn(x):
        depth, _, grads, gn = _depth_and_normal(M, x)
        nhat = grads / gn[..., None]
        w_tan = w[None, :] - (nhat @ w)[..., None] * nhat
        bump = collar_bump(depth, width)
        return v.value(x) + amp * bump[..., None] * w_tan

    entry = {"kind": "collar_blend", "eps": eps,
             "direction": [float(c) for c in w]}
    return CallableField(M.n, fn), entry


def random_linear_jiggle(M, v, rng, eps):
    width = M.collar_band()
    A = rng.normal(size=(M.n, M.n))
    b = rng.normal(size=M.n)
    amp = eps * _boundary_scale(M, v) / max(1.0, M.diameter)

    def fn(x):
        depth, _, _, _ = _depth_and_normal(M, x)
        bump = collar_bump(depth, width)
        return v.value(x) + amp * bump[..., None] * (x @ A.T + b[None, :])

    entry = {"kind": "random_linear_jiggle", "eps": eps}
    return CallableField(M.n, fn), entry


# --------------------------------------------------------------------------
# Tameness
# --------------------------------------------------------------------------

def _tameness(M, collar, v, resolution=None):
    """tameness_status with the boundary census behind it: the ZeroRecords
    when 'tame', the NotTame of the uniform transverse case when 'special',
    and None otherwise."""
    try:
        records = find_boundary_tangential_zeros(M, collar, v,
                                                 resolution=resolution)
    except ZeroOnBoundary:
        return "zero_on_boundary", None
    except NotTame as exc:
        if exc.uniform_sign is None:
            return "mixed_tangent", None
        return "special", exc
    if any(r.transverse_sign == TANGENT for r in records):
        return "tangent_zero", None
    return "tame", records


def tameness_status(M, collar, v):
    """'tame', 'special' (tangential part vanishes with a uniform transverse
    sign, handled exactly downstream), or the reason the field is not tame."""
    return _tameness(M, collar, v)[0]


def make_tame(M, collar, v, seed=0):
    """Return a tame field and the list of perturbations applied to get it.

    The input is returned unchanged when it is already tame, or when it falls
    under the exact uniform-transverse special case.
    """
    return _tame(M, collar, v, seed)[:2]


def _tame(M, collar, v, seed=0, resolution=None):
    """make_tame, also returning the boundary census (see ``_tameness``) of
    the returned field, taken at ``resolution`` by its tameness check."""
    status, census = _tameness(M, collar, v, resolution)
    if status in ("tame", "special"):
        return v, [], census
    return _perturb(M, collar, v, status, seed, resolution=resolution)


def _perturb(M, collar, v, status, seed=0, resolution=None):
    """The repair loop of make_tame, for a v of the given tameness status."""
    rng = np.random.default_rng(seed)
    log = []
    current = v
    for attempt in range(MAX_TAME_ATTEMPTS):
        scale = TAME_EPS * 0.5 ** (attempt // 3)
        if status == "zero_on_boundary":
            candidate, entry = half_ball_shift(M, current, scale)
        elif attempt % 3 == 2:
            candidate, entry = random_linear_jiggle(M, current, rng, scale)
        else:
            candidate, entry = collar_blend(M, collar, current, rng, scale)
        got, census = _tameness(M, collar, candidate, resolution)
        if got == "tame":
            log.append(entry)
            return candidate, log, census
        if got != status and got != "special":
            # partial progress: keep the perturbation and fix the new defect
            log.append(entry)
            current, status = candidate, got
    raise CannotTame(
        f"no tame perturbation found in {MAX_TAME_ATTEMPTS} attempts "
        f"(last status: {status})")


# --------------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------------

def theorem_verdict(rep):
    """The total index of one report equals chi (even n) or 0 (odd n)."""
    return Verdict(
        "total index equals chi (even n) or 0 (odd n)",
        rep.theorem_holds,
        {"total": str(rep.total_index), "expected": rep.expected_total,
         "interior": rep.interior_index, "boundary": str(rep.boundary_index),
         "shape": rep.shape})


def negation_verdict(rep, neg):
    """Both index parts of -v (``neg``) are (-1)^n times those of v."""
    s = (-1) ** rep.n
    ok = (neg.interior_index == s * rep.interior_index
          and neg.boundary_index == s * rep.boundary_index
          and rep.theorem_holds and neg.theorem_holds)
    return Verdict(
        "negation scales both index parts by (-1)^n",
        ok,
        {"interior": rep.interior_index, "neg_interior": neg.interior_index,
         "boundary": str(rep.boundary_index),
         "neg_boundary": str(neg.boundary_index), "n": rep.n,
         "shape": rep.shape})


def suspension_verdict(a, radius=0.5, center=None):
    """deg of b(x, t) = (a(x), -t) is minus the degree of a.

    a is a field on R^n (n in {1, 2}) with an isolated zero at the given
    center; the degrees are taken on spheres of the given radius around it.
    """
    n = a.n
    c = np.zeros(n) if center is None else np.asarray(center, float)
    deg_a = degree_for(SphereMap(a.value, c, radius)).degree

    def b(y):
        y = np.atleast_2d(y)
        top = a.value(y[:, :n])
        return np.concatenate([top, -y[:, n:]], axis=-1)

    deg_b = degree_for(SphereMap(b, np.append(c, 0.0), radius)).degree
    ok = deg_b == -deg_a
    return Verdict(
        "suspension by -t negates the index",
        ok, {"deg_a": deg_a, "deg_b": deg_b})


def doubling_verdict(rep):
    """Index sum of the doubled field on the double equals chi of the double.

    The doubled field carries each interior zero twice (once per copy; a
    reflection preserves degrees) and turns each tangential boundary zero of
    tangential degree k into a zero of index +-k, with the sign of the
    transverse direction, so the sum is twice the interior index plus twice
    the boundary index.  (In the uniform transverse case each of the
    chi(boundary) tangential zeros of a taming blend contributes the same
    +-1, which is twice the report's boundary index +-chi(boundary)/2.)
    chi of the double is 2 chi(M) - chi(boundary).
    """
    doubled = 2 * rep.interior_index + 2 * rep.boundary_index
    chi_double = 2 * rep.chi - rep.chi_boundary
    ok = doubled == HalfInteger.of(chi_double)
    return Verdict(
        "doubled field index sum equals chi of the double",
        ok, {"doubled_sum": str(doubled), "chi_double": chi_double,
             "shape": rep.shape})


def collar_independence_verdict(reports):
    """The boundary index does not depend on the transverse coordinate;
    ``reports`` maps "neg_g" and "scaled" to one field's report under each."""
    a, b = reports["neg_g"], reports["scaled"]
    ok = (a.boundary_index == b.boundary_index
          and a.interior_index == b.interior_index)
    return Verdict(
        "boundary index is collar independent",
        ok, {"neg_g": str(a.boundary_index), "scaled": str(b.boundary_index),
             "shape": a.shape})


def invariance_verdict(M, collar, v, trials=5, seed=0):
    """Fresh collar perturbations never change the boundary index.  Each
    trial perturbs v with its own seed from v's tameness status, checked
    once, and computes only the boundary index."""
    status = tameness_status(M, collar, v)
    chi_b = chi_boundary_for(M)
    values = []
    for t in range(trials):
        vt, _, census = _perturb(M, collar, v, status, seed + 1000 * (t + 1))
        part = _boundary_part(M, collar, vt, census, chi_b)
        values.append(part["boundary_index"])
    ok = all(val == values[0] for val in values)
    return Verdict(
        "boundary index is invariant under collar perturbations",
        ok, {"values": [str(val) for val in values], "shape": M.name})


def morse_verdict(rep):
    """Tangential degree sums satisfy the two Morse identities.

    A report built with the chi crosscheck on has passed the first identity
    already; callers that want it tested rather than assumed pass a
    ``full_index(..., crosscheck=False)`` report.
    """
    first = rep.morse_minus + rep.morse_plus == rep.chi_boundary
    second = rep.interior_index + rep.morse_minus == rep.chi
    return Verdict(
        "Morse identities for the tangential degree sums",
        first and second,
        {"morse_minus": rep.morse_minus, "morse_plus": rep.morse_plus,
         "chi_boundary": rep.chi_boundary, "interior": rep.interior_index,
         "chi": rep.chi, "shape": rep.shape})


def run_all(M, collar, v, seed=0):
    """Every verdict for one scene, as a list.  The auto-tamed reports of v,
    of -v and of v under the other collar are each computed once."""
    rep = full_index(M, collar, v, auto_tame=True, seed=seed)
    neg = full_index(M, collar, -v, auto_tame=True, seed=seed)
    other = Collar("scaled" if collar.kind == "neg_g" else "neg_g")
    alt = full_index(M, other, v, auto_tame=True, seed=seed)
    return [theorem_verdict(rep), negation_verdict(rep, neg),
            doubling_verdict(rep),
            collar_independence_verdict({collar.kind: rep, other.kind: alt}),
            invariance_verdict(M, collar, v, seed=seed), morse_verdict(rep)]
