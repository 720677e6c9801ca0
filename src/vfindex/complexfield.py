"""Complex tangential fields on closed surfaces and the square-norm test.

An ambient pair (xi, eta) of real fields induces the complex tangential
field w = P xi + i P eta on a closed surface, with P the orthogonal
projection onto the tangent plane.  Its complex-bilinear square norm is

    q = |P xi|^2 - |P eta|^2 + 2 i <P xi, P eta>,

a complex-valued function on the surface.  q vanishes nowhere exactly when
w is never a real multiple of (1 +- i) times a real vector pair with equal
lengths and orthogonal directions; when q is nonvanishing the surface admits
a nonvanishing real tangential line-up of the pair and its Euler
characteristic must be 0.  ``complex_verdict`` certifies nonvanishing by
sampling (minimum of |q| beats a Lipschitz-scaled sampling pitch) or
produces a witness point where |q| nearly vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionExhausted
from .euler import chi_for
from .fields import central_difference
from .manifold import (Hypersurface, surface_samples, tangential_part,
                       unit_normals)

# certification margin: projected grid samples form a net of the surface
# whose covering radius is about sqrt(3)/2 grid pitches, and |q| can drop by
# at most (Lipschitz bound) * (covering radius) between samples; SAFETY = 2
# doubles that allowance
SAFETY = 2.0
COVERING_FACTOR = np.sqrt(3.0) / 2.0
RESOLUTIONS = (48, 96, 192)
# a witness decides "q vanishes" below this fraction of the median |q|
WITNESS_TOL = 1e-3
# |Re q| at or below this reads as 0 in ``partition``
PARTITION_TOL = 1e-9


@dataclass
class ComplexField:
    """Tangential complex field on a closed surface from an ambient pair."""

    surface: Hypersurface
    xi: object   # ambient VectorField
    eta: object  # ambient VectorField

    def tangential_parts(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        nhat = unit_normals(self.surface.g.jets(pts)[1])
        return (tangential_part(nhat, self.xi.value(pts)),
                tangential_part(nhat, self.eta.value(pts)))

    def square_norm(self, pts):
        """q = |xi_T|^2 - |eta_T|^2 + 2i <xi_T, eta_T> at each point."""
        xi_t, eta_t = self.tangential_parts(pts)
        re = np.sum(xi_t * xi_t, axis=-1) - np.sum(eta_t * eta_t, axis=-1)
        im = 2.0 * np.sum(xi_t * eta_t, axis=-1)
        return re + 1j * im


def xi1_family(xi_t, eta_t, t, sign=+1):
    """The interpolates (1 - t(2 - t)) xi_T + sign * t(2 - t) eta_T.

    At t = 0 this is xi_T and at t = 1 it is sign * eta_T; when the square
    norm of the pair never vanishes, neither does any interpolate.
    """
    s = t * (2.0 - t)
    return (1.0 - s) * xi_t + sign * s * eta_t


def partition(cf: ComplexField, pts):
    """Labels '+', '-', '0' by the sign of |xi_T|^2 - |eta_T|^2."""
    re = cf.square_norm(pts).real
    out = np.full(len(re), "0", dtype="<U1")
    out[re > PARTITION_TOL] = "+"
    out[re < -PARTITION_TOL] = "-"
    return out


@dataclass
class SquareNormVerdict:
    nonvanishing: bool
    decided: bool
    min_abs: float
    threshold: float
    resolution: int
    witness: list = None
    chi: int = None
    consistent: bool = None
    note: str = ""

    def line(self):
        if not self.decided:
            return "FAIL square-norm test: undecided"
        status = "PASS" if self.consistent else "FAIL"
        return (f"{status} square-norm test: nonvanishing={self.nonvanishing} "
                f"chi={self.chi} min|q|={self.min_abs:.3e} {self.note}")


def _lipschitz_estimate(cf, pts, h):
    """Max sampled |partial q| via central differences along the axes."""
    sub = pts[:: max(1, len(pts) // 2000)]
    return float(np.max(np.abs(central_difference(cf.square_norm, sub, h))))


def complex_verdict(cf: ComplexField):
    """Certify q nonvanishing or exhibit a near-zero witness, then compare
    with chi of the surface.

    Certification is sampling-based: the minimum of |q| over a pitch-dense
    net of the surface must exceed SAFETY * (net covering radius) * (sampled
    Lipschitz bound).  A witness decides the other way once |q| drops below
    WITNESS_TOL times the median of |q|.
    """
    S = cf.surface
    for res in RESOLUTIONS:
        pts = surface_samples(S, resolution=res, max_points=200000)
        if len(pts) == 0:
            continue
        q = cf.square_norm(pts)
        absq = np.abs(q)
        scale = float(np.median(absq)) + 1e-30
        pitch = S.diameter / res
        lip = _lipschitz_estimate(cf, pts, 0.25 * pitch)
        threshold = SAFETY * COVERING_FACTOR * pitch * lip
        min_abs = float(np.min(absq))
        chi = chi_for(S)
        if min_abs > threshold:
            return SquareNormVerdict(
                nonvanishing=True, decided=True, min_abs=min_abs,
                threshold=threshold, resolution=res, chi=chi,
                consistent=(chi == 0),
                note="certified nonvanishing, chi must be 0")
        if min_abs < WITNESS_TOL * scale:
            w = pts[int(np.argmin(absq))]
            return SquareNormVerdict(
                nonvanishing=False, decided=True, min_abs=min_abs,
                threshold=threshold, resolution=res,
                witness=[float(c) for c in w], chi=chi, consistent=True,
                note="witness of a (near) zero of q, no constraint on chi")
    raise ResolutionExhausted(
        "square-norm test undecided at the maximum sampling resolution")
