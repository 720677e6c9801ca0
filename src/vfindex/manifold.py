"""Sublevel domains {g <= 0}, closed hypersurfaces {g = 0}, collars and charts.

The collar map is never materialized globally; only the boundary projection
(phi1) and the derivative of the transverse level coordinate (phi2) along
the field, ``Collar.transverse``, are used, which is all the index
definitions need.  Two built-in phi2 choices exist so that
collar-independence of the boundary index can be checked computationally:

* ``neg_g``:  phi2 = -g
* ``scaled``: phi2 = -g / (1 + ||x||^2)

Both vanish exactly on the boundary and are positive on the interior side,
and they induce the same Inward/Outward classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (ChartTooSmall, DegenerateBoundary, NoConvergence,
                     VfError)
from .expr import Expression

BOUNDARY_BAND = 1e-7
COLLAR_BAND_FRACTION = 0.05
GRAD_FLOOR = 1e-8
# points per slab when a fine grid is evaluated slab by slab
SLAB_POINTS = 65_536

INWARD = "Inward"
OUTWARD = "Outward"
TANGENT = "Tangent"
# |v_perp| / |grad g| at or below this reads as tangent
INWARDNESS_TOL = 1e-10


def _bbox_array(bbox, n):
    try:
        b = np.asarray(bbox, dtype=float)
    except (TypeError, ValueError):
        raise VfError(f"bbox must be {n} finite nonempty intervals, "
                      f"got {bbox!r}")
    if b.shape != (n, 2) or not np.all(np.isfinite(b)) or np.any(b[:, 0] >= b[:, 1]):
        raise VfError(f"bbox must be {n} finite nonempty intervals")
    return b


def _face_points(bbox, per_axis=9):
    """Sample points on every face of the box."""
    n = bbox.shape[0]
    if n == 1:
        return bbox.reshape(2, 1)
    axes = [np.linspace(bbox[i, 0], bbox[i, 1], per_axis) for i in range(n)]
    pts = []
    for i in range(n):
        others = [axes[j] for j in range(n) if j != i]
        grid = np.array(list(itertools.product(*others)))
        for side in (0, 1):
            face = np.empty((len(grid), n))
            face[:, i] = bbox[i, side]
            face[:, [j for j in range(n) if j != i]] = grid
            pts.append(face)
    return np.vstack(pts)


def _grid_axes(bbox, res_per_axis):
    n = bbox.shape[0]
    if np.isscalar(res_per_axis):
        res = [int(res_per_axis)] * n
    else:
        res = [int(r) for r in res_per_axis]
    return [bbox[i, 0] + (np.arange(res[i]) + 0.5) * (bbox[i, 1] - bbox[i, 0]) / res[i]
            for i in range(n)]


def _mesh(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def grid_points(bbox, res_per_axis):
    """Cell-center grid over the box; res may be an int or per-axis list."""
    return _mesh(_grid_axes(bbox, res_per_axis))


def grid_slabs(bbox, res_per_axis):
    """``grid_points`` in slabs of whole first-axis layers, in order.

    Each slab holds at most ``SLAB_POINTS`` points (at least one layer), so
    work on a fine grid needs memory for one slab only; the slabs
    concatenate to exactly ``grid_points(bbox, res_per_axis)``.
    """
    axes = _grid_axes(bbox, res_per_axis)
    layer = int(np.prod([len(a) for a in axes[1:]]))
    step = max(1, SLAB_POINTS // layer)
    for start in range(0, len(axes[0]), step):
        yield _mesh([axes[0][start:start + step]] + axes[1:])


@dataclass
class DomainManifold:
    """Compact domain {g <= 0} strictly inside its bounding box."""

    g: Expression
    n: int
    bbox: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.n not in (1, 2, 3) or self.g.arity != self.n:
            raise VfError(f"dimension {self.n} unsupported or arity mismatch")
        self.bbox = _bbox_array(self.bbox, self.n)
        _check_inside_bbox(self)
        _check_nondegenerate_boundary(self)

    @property
    def diameter(self):
        return float(np.linalg.norm(self.bbox[:, 1] - self.bbox[:, 0]))

    def collar_band(self):
        return COLLAR_BAND_FRACTION * self.diameter


@dataclass
class Hypersurface:
    """Closed level surface {g = 0} inside its bounding box (no boundary)."""

    g: Expression
    n: int
    bbox: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.n not in (2, 3) or self.g.arity != self.n:
            raise VfError(f"ambient dimension {self.n} unsupported or arity mismatch")
        self.bbox = _bbox_array(self.bbox, self.n)
        _check_inside_bbox(self, require_positive=False)
        _check_nondegenerate_boundary(self)

    @property
    def diameter(self):
        return float(np.linalg.norm(self.bbox[:, 1] - self.bbox[:, 0]))


def _check_inside_bbox(M, require_positive=True):
    vals = M.g.values(_face_points(M.bbox))
    if require_positive:
        ok = np.all(vals > 0.0)
    else:
        ok = np.all(vals > 0.0) or np.all(vals < 0.0)
    if not ok:
        raise VfError(
            f"the level set of g reaches the bounding box faces of {M.name or 'manifold'}")


def _check_nondegenerate_boundary(M, res=24):
    pts = grid_points(M.bbox, res)
    vals, grads = M.g.jets(pts)
    scale = float(np.median(np.abs(vals))) + 1e-30
    near = np.abs(vals) < 0.2 * scale
    if not np.any(near):
        return
    gnorm = np.linalg.norm(grads[near], axis=-1)
    # zoom in: points whose g-value is genuinely small compared to the pitch
    tight = np.abs(vals[near]) < 0.5 * gnorm * (M.diameter / res) + 1e-12
    if np.any(tight) and np.min(gnorm[tight]) < GRAD_FLOOR:
        raise DegenerateBoundary(
            "grad g vanishes near the boundary of " + (M.name or "manifold"))


# --------------------------------------------------------------------------
# Collar
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Collar:
    """Transverse coordinate choice; phi1 is always nearest-boundary Newton."""

    kind: str = "neg_g"

    def __post_init__(self):
        if self.kind not in ("neg_g", "scaled"):
            raise VfError(f"unknown collar kind {self.kind!r}")

    def transverse(self, x, grad_g, vec):
        """v_perp = T(phi2) applied to vec at a boundary point x."""
        raw = -np.sum(grad_g * vec, axis=-1)
        if self.kind == "neg_g":
            return raw
        return raw / (1.0 + np.sum(np.asarray(x, float) ** 2, axis=-1))


# --------------------------------------------------------------------------
# Projection
# --------------------------------------------------------------------------

def project_batch(M, pts):
    """Project points onto {g = 0} by damped Newton along grad g; silently
    drops the non-converged ones."""
    x = np.array(pts, dtype=float)
    for _ in range(50):
        v, grad = M.g.jets(x)
        if np.all(np.abs(v) < 1e-12):
            break
        g2 = np.sum(grad * grad, axis=-1)
        ok = g2 > GRAD_FLOOR ** 2
        step = np.where(ok, v / np.maximum(g2, 1e-300), 0.0)
        # damping: never move more than a fraction of the box diagonal
        cap = 0.1 * M.diameter
        norm = np.abs(step) * np.sqrt(g2)
        scale = np.minimum(1.0, cap / np.maximum(norm, 1e-300))
        x = x - (step * scale)[:, None] * grad
    v = M.g.values(x)
    good = np.abs(v) < 1e-10
    good &= np.all((x >= M.bbox[:, 0]) & (x <= M.bbox[:, 1]), axis=-1)
    return x[good]


# --------------------------------------------------------------------------
# Tangential / transverse decomposition
# --------------------------------------------------------------------------

def unit_normals(grads):
    """grads / |grads|, the unit normals of the level sets of g."""
    gn = np.linalg.norm(grads, axis=-1, keepdims=True)
    return grads / np.maximum(gn, 1e-300)


def tangential_part(nhat, vecs):
    """vecs - (vecs.n) n: the part of vecs tangent to the level sets with
    unit normals nhat."""
    return vecs - np.sum(vecs * nhat, axis=-1, keepdims=True) * nhat


def decompose_batch(collar, pts, grads, vecs):
    """Split vecs at boundary points pts, where g has gradients grads, into
    (tangential parts, transverse values)."""
    v_par = tangential_part(unit_normals(grads), vecs)
    v_perp = collar.transverse(pts, grads, vecs)
    return v_par, v_perp


def inwardness(v_perp):
    if v_perp > INWARDNESS_TOL:
        return INWARD
    if v_perp < -INWARDNESS_TOL:
        return OUTWARD
    return TANGENT


# --------------------------------------------------------------------------
# Boundary charts (graph parameterizations).  No index uses them; they stay
# because benchmarks/layers.py looks boundary_chart and BoundaryChart.point
# up by name.
# --------------------------------------------------------------------------

@dataclass
class BoundaryChart:
    M: object
    center: np.ndarray
    dropped_axis: int          # zero-based
    radius: float
    kept_axes: list = field(default_factory=list)

    def point(self, u):
        """Map chart parameters (m, n-1) to boundary points (m, n)."""
        u = np.atleast_2d(np.asarray(u, float))
        x = np.repeat(self.center[None, :], len(u), axis=0)
        x[:, self.kept_axes] += u
        x = _solve_dropped(self.M, x, self.dropped_axis)
        return x


def _solve_dropped(M, x, axis, max_iter=40):
    for _ in range(max_iter):
        v, grad = M.g.jets(x)
        gi = grad[:, axis]
        if np.any(np.abs(gi) < 1e-12):
            raise NoConvergence("chart Newton hit a vanishing partial")
        x[:, axis] -= np.clip(v / gi, -0.2 * M.diameter, 0.2 * M.diameter)
        if np.max(np.abs(v)) < 1e-13:
            break
    if np.max(np.abs(M.g.values(x))) > 1e-9:
        raise NoConvergence("chart Newton did not reach the level set")
    return x


def _probe_ring(n, r, count=16):
    if n == 2:
        return np.array([[-r], [r]] * (count // 2))[:count]
    th = 2.0 * np.pi * np.arange(count) / count
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def boundary_chart(M, center, r0=None, min_radius=1e-6):
    """Graph chart at a boundary point, dropping the steepest axis of g."""
    center = np.asarray(center, float)
    grad = M.g.gradient(center)
    if np.linalg.norm(grad) < GRAD_FLOOR:
        raise DegenerateBoundary("grad g vanishes at the chart center")
    dropped = int(np.argmax(np.abs(grad)))
    kept = [i for i in range(M.n) if i != dropped]
    chart = BoundaryChart(M, center, dropped, 0.0, kept)
    if r0 is None:
        r0 = 0.25 * float(np.min(M.bbox[:, 1] - M.bbox[:, 0]))
    r = r0
    for _ in range(40):
        if r < min_radius:
            raise ChartTooSmall(f"no valid chart radius above {min_radius}")
        try:
            pts = chart.point(_probe_ring(M.n, r))
            if np.max(np.abs(M.g.values(pts))) < 1e-9 and np.all(
                    (pts >= M.bbox[:, 0]) & (pts <= M.bbox[:, 1])):
                chart.radius = r
                return chart
        except NoConvergence:
            pass
        r *= 0.5
    raise ChartTooSmall("chart probe never converged")


# --------------------------------------------------------------------------
# Boundary sampling
# --------------------------------------------------------------------------

def surface_grid(M, resolution=None):
    """(resolution, pitch) of the grid that ``surface_samples`` projects: by
    default 192 cells per axis in 2-D and 40 in 3-D, and the pitch is the
    longest side of the bbox over the resolution."""
    if resolution is None:
        resolution = 192 if M.n == 2 else 40
    return resolution, float(np.max(M.bbox[:, 1] - M.bbox[:, 0])) / resolution


def surface_samples(M, resolution=None, max_points=20000):
    """Points on {g = 0} obtained by projecting a grid band.

    Deterministic: grid centers with |g| below a gradient-scaled pitch are
    pushed onto the level set by Newton projection.
    """
    if M.n == 1:
        return interval_endpoints(M).reshape(-1, 1)
    resolution, pitch = surface_grid(M, resolution)
    seeds = []
    for pts in grid_slabs(M.bbox, resolution):
        vals, grads = M.g.jets(pts)
        gnorm = np.linalg.norm(grads, axis=-1)
        near = np.abs(vals) <= 1.2 * pitch * np.maximum(gnorm, GRAD_FLOOR)
        seeds.append(pts[near])
    seeds = np.concatenate(seeds)
    if len(seeds) > max_points:
        idx = np.linspace(0, len(seeds) - 1, max_points).astype(int)
        seeds = seeds[idx]
    out = project_batch(M, seeds)
    if len(out) == 0:
        raise VfError("no boundary points found; is the level set inside the bbox?")
    return out


def interval_endpoints(M):
    """Boundary of a 1-dimensional domain: the roots of g in the bbox."""
    lo, hi = M.bbox[0]
    xs = np.linspace(lo, hi, 4099)
    vs = M.g.values(xs[:, None])
    roots = [float(x) for x, v in zip(xs, vs) if v == 0.0]
    sign_change = np.nonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) < 0)[0]
    for i in sign_change:
        a, b = xs[i], xs[i + 1]
        fa = vs[i]
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = M.g.evaluate([m])
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    return np.array(sorted(roots))


def collar_bump(t, width):
    """Smooth cutoff on the collar level: 1 at t=0, 0 for t >= width.

    Uses exp(t / (width * (t - width))) on 0 < t < width, which extends
    smoothly by 1 at t = 0 and by 0 beyond the band.
    """
    t = np.asarray(t, float)
    out = np.zeros_like(t)
    inside = (t > 0) & (t < width)
    ti = t[inside]
    out[inside] = np.exp(ti / (width * (ti - width)))
    out[t <= 0] = 1.0
    return out
