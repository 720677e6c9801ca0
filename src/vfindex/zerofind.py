"""Zero isolation: interior zeros of a field, tangential zeros on the boundary.

Interior search bisects the bounding box in uniform levels, followed by
Newton polishing of the surviving cell centers.  Level k halves every cell
along axis k mod n, so depth is the number of halvings per axis and all
cells of a level have the same shape.  Before each split a cell is dropped
when the interval bound of g is positive on it (it lies outside the domain)
or when ``v.zero_free`` holds on it.  For expression fields that test is an
outward-rounded interval bound, so a cell is dropped only on proof; only a
``CallableField`` falls back to sampled norms and Jacobian norms.  Paranoid
mode doubles the depth, and the probe density of the sampled test.

Boundary search projects a dense grid band onto {g = 0}, polishes seeds
among those samples with Newton on the augmented system {g = 0, kept
components of the tangential part = 0}, and classifies each zero by the
sign of the transverse component.  A point keeps the components other than
its dropped axis, the steepest of g at the point.  The seeds are chosen by
one Newton step from every sample (``_boundary_seeds``): a sample seeds
when its step is shorter than two grid pitches and is the shortest step
whose predicted zero falls in its half-pitch cell.  A step length is a
distance to the zero whatever the slope of the field; the size of the
tangential part is not, and seeds at its local minima lose zeros that lie
close together where it is large.

Both searches polish with the one batched Newton loop, ``_newton_polish``,
which stops each point once its own step settles; its system is told which
start points are still moving, so the boundary search polishes all its
seeds in one batch, each on the rows of its own dropped axis.  The interior
search gives it the field's value and Jacobian; the boundary search gives
it the augmented system together with that system's exact Jacobian,
``_boundary_system``: row 0 is grad g, and the tangential part
v_par = v - (v.n)n, n = grad g / |grad g|, has

    D(v_par) = Dv - n (n^T Dv + v^T Dn) - (v.n) Dn,
    Dn = (I - n n^T) H / |grad g|,

with H the Hessian of g, the values of g's second derivative expressions
(the ``jets`` of each of g's derivative expressions).  Dv is the field's own
Jacobian (exact for expression fields).  Both searches then reduce the
converged points to distinct zeros with ``_distinct``.

The degree k of the tangential part at a boundary zero z needs no chart.
Let d be the dropped axis (the steepest of g at z) and F = (g, v_par
without component d).  Where dg/dx_d keeps its sign, x -> (g, x without
x_d) is a diffeomorphism with Jacobian determinant (-1)^d dg/dx_d.  It turns
F into (s, h(u, s)), where h(u, 0) is the tangential part in the graph
chart, and the homotopy (s, h(u, ts)) gives k = (-1)^d sign(dg/dx_d(z))
deg_z F.  The chart Jacobian determinant is det DF(z) (-1)^d / dg/dx_d(z).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import fibonacci_sphere
from .errors import (ResolutionExhausted, SuspectedNonIsolatedZero, NotTame,
                     ZeroOnBoundary)
from .manifold import (BOUNDARY_BAND, INWARD, OUTWARD, TANGENT,
                       decompose_batch, inwardness, surface_grid,
                       surface_samples, interval_endpoints, tangential_part,
                       unit_normals)
# unused here; benchmarks/layers.py wraps zerofind.boundary_chart by name
from .manifold import boundary_chart  # noqa: F401

INTERIOR = "InteriorZero"
BOUNDARY_TANGENTIAL = "BoundaryTangentialZero"

ZERO_NORM_TOL = 1e-9
ISOLATION_FLOOR = 1e-6
DEDUP_RADIUS = 1e-6
CLUSTER_RADIUS = 1e-4
CELL_CAP = 400_000
# boundary seeds (_boundary_seeds): first Newton steps shorter than
# SEED_REACH grid pitches, the shortest per cell, SEED_CELL pitches wide, of
# the predicted zeros
SEED_REACH = 2.0
SEED_CELL = 0.5
# more boundary seeds than this raise ResolutionExhausted; it is also the
# batch size of the first Newton step over the surface samples
MAX_SEEDS = 4000


@dataclass
class ZeroRecord:
    position: np.ndarray
    kind: str
    isolation_radius: float
    jacobian_det: float
    transverse_sign: str = None  # boundary kind only

    def as_dict(self):
        d = {
            "position": [float(c) for c in self.position],
            "kind": self.kind,
            "isolation_radius": self.isolation_radius,
            "jacobian_det": self.jacobian_det,
        }
        if self.kind == BOUNDARY_TANGENTIAL:
            d["transverse_sign"] = self.transverse_sign
        return d


def unit_sphere_samples(n):
    if n == 1:
        return np.array([[-1.0], [1.0]])
    if n == 2:
        th = 2.0 * np.pi * np.arange(48) / 48
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    return fibonacci_sphere(96)


# --------------------------------------------------------------------------
# Shared by both searches
# --------------------------------------------------------------------------

def _newton_polish(system, x0, max_iter, step_cap):
    """Batched Newton on the square systems F = 0 from the rows of x0.

    ``system(x, which)`` maps the (m, n) points still moving, which are the
    rows ``which`` of x0, to their values F (m, n) and Jacobians DF
    (m, n, n); through ``which`` each start point may have a system of its
    own.  Each step is capped at ``step_cap`` in length.  A point whose
    Jacobian is singular stays where it is.  Every point's iterates depend
    on that point alone, not on the rest of the batch.
    """
    x = np.array(x0, dtype=float)
    moving = np.arange(len(x))
    for _ in range(max_iter):
        xm = x[moving]
        val, jm = system(xm, moving)
        ok = np.abs(np.linalg.det(jm)) > 1e-300
        step = np.zeros_like(val)
        step[ok] = np.linalg.solve(jm[ok], val[ok][..., None])[..., 0]
        norms = np.linalg.norm(step, axis=-1, keepdims=True)
        step *= np.minimum(1.0, step_cap / np.maximum(norms, 1e-300))
        x[moving] = xm - step
        # linear-rate convergence at degenerate zeros needs the full budget,
        # so a point stops once its own (uncapped) step settles rather than
        # on a small residual
        moving = moving[norms[:, 0] >= 1e-14]
        if len(moving) == 0:
            break
    return x


def _dedup(points, radius=DEDUP_RADIUS):
    """Greedy representatives, in order: a point is kept unless an earlier
    kept point lies within ``radius`` of it."""
    rest = np.asarray(points, dtype=float)
    reps = []
    while len(rest):
        # a copy, so that records do not keep the whole batch alive
        reps.append(rest[0].copy())
        rest = rest[1:]
        rest = rest[~(np.linalg.norm(rest - reps[-1], axis=-1) < radius)]
    return reps


def _distinct(converged, what):
    """The distinct zeros among converged points, in sorted order.  More
    than 8 of them within CLUSTER_RADIUS of one suggest a zero set that is
    not isolated."""
    zeros = _dedup(sorted(map(tuple, converged)))
    for z in zeros:
        nearby = sum(1 for w in zeros if np.linalg.norm(z - w) < CLUSTER_RADIUS)
        if nearby > 8:
            raise SuspectedNonIsolatedZero(
                f"{nearby} {what} within {CLUSTER_RADIUS} of {z}")
    return zeros


def _separation(z, zeros):
    """Distance from z to the nearest other zero (inf when there is none)."""
    return min((np.linalg.norm(z - w) for w in zeros
                if np.linalg.norm(z - w) > 0), default=np.inf)


def _isolation_radius(z, all_zeros, r, isolated):
    """The first of r, r/2, r/4, ... that lies below 0.45 times the distance
    to the nearest other zero and at which ``isolated(r)`` holds."""
    sep = _separation(z, all_zeros)
    for _ in range(45):
        if r < 0.45 * sep and isolated(r):
            return r
        r *= 0.5
    raise ResolutionExhausted(f"no isolation radius found for the zero at {z}")


# --------------------------------------------------------------------------
# Interior zeros
# --------------------------------------------------------------------------

def _interior_cells(M, v, depth, paranoid):
    """The cells (lo, hi) of the bounding box that reach the Newton polish.

    M.n * depth uniform levels, depth doubled when paranoid: level k drops
    the cells proved outside the domain or free of zeros of v, then halves
    the rest along axis k % M.n, left halves first.  The last level's cells
    are not tested.
    """
    if paranoid:
        depth *= 2
    lo = M.bbox[:, 0][None, :].copy()
    hi = M.bbox[:, 1][None, :].copy()
    for level in range(M.n * depth):
        outside = M.g.interval(lo, hi)[0] > 0.0
        keep = ~(outside | v.zero_free(lo, hi, paranoid))
        lo, hi = lo[keep], hi[keep]
        if len(lo) == 0:
            break
        axis = level % M.n
        mid = 0.5 * (lo[:, axis] + hi[:, axis])
        left_hi = hi.copy()
        left_hi[:, axis] = mid
        right_lo = lo.copy()
        right_lo[:, axis] = mid
        lo = np.vstack([lo, right_lo])
        hi = np.vstack([left_hi, hi])
        if len(lo) > CELL_CAP:
            raise ResolutionExhausted(
                f"interior subdivision exceeded {CELL_CAP} active cells")
    return lo, hi


def find_interior_zeros(M, v, depth=9, paranoid=False):
    """Isolated zeros of v in the interior of {g <= 0}: the polished
    centers of the cells of ``_interior_cells``, with depth halvings of the
    bounding box per axis (twice as many when paranoid)."""
    lo, hi = _interior_cells(M, v, depth, paranoid)
    if len(lo) == 0:
        return []
    centers = 0.5 * (lo + hi)
    polished = _newton_polish(lambda x, _: (v.value(x), v.jacobian(x)),
                              centers, 90, 0.25 * M.diameter)
    res = v.norms(polished)
    inside = np.all((polished >= M.bbox[:, 0]) & (polished <= M.bbox[:, 1]), axis=-1)
    converged = polished[(res < ZERO_NORM_TOL * 1e-2) & inside]
    zeros = _distinct(converged, "converged zeros")
    records = []
    kept = []
    for z in zeros:
        gz = M.g.evaluate(z)
        if abs(gz) < BOUNDARY_BAND:
            raise ZeroOnBoundary(f"field vanishes on the boundary near {z}")
        if gz > 0:
            continue  # converged to a zero outside the domain
        kept.append(z)
    for z in kept:
        r = _isolation_radius_interior(M, v, z, kept)
        det = float(np.linalg.det(v.jacobian_at(z)))
        records.append(ZeroRecord(z, INTERIOR, r, det))
    records.sort(key=lambda rec: tuple(rec.position))
    return records


def _isolation_radius_interior(M, v, z, all_zeros):
    sphere = unit_sphere_samples(M.n)

    def isolated(r):
        pts = z[None, :] + r * sphere
        return (np.all((pts >= M.bbox[:, 0]) & (pts <= M.bbox[:, 1]))
                and np.max(M.g.values(pts)) < 0.0
                and np.min(v.norms(pts)) > ISOLATION_FLOOR)

    return _isolation_radius(z, all_zeros, 1.0, isolated)


# --------------------------------------------------------------------------
# Boundary tangential zeros
# --------------------------------------------------------------------------

def find_boundary_tangential_zeros(M, collar, v, resolution=None):
    if M.n == 1:
        return _endpoint_records(M, collar, v)
    pts = surface_samples(M, resolution)
    vals = v.value(pts)
    vnorm = np.linalg.norm(vals, axis=-1)
    scale = float(np.median(vnorm)) + 1e-30
    if np.min(vnorm) < 1e-7 * scale:
        raise ZeroOnBoundary("field appears to vanish on the boundary")
    _, grads = M.g.jets(pts)
    gnorm = np.linalg.norm(grads, axis=-1)
    v_par, v_perp = decompose_batch(collar, pts, grads, vals)
    par_norm = np.linalg.norm(v_par, axis=-1)
    if np.max(par_norm) < 1e-8 * scale:
        signs = v_perp / np.maximum(gnorm, 1e-300)
        if np.all(signs > 1e-10):
            uniform = INWARD
        elif np.all(signs < -1e-10):
            uniform = OUTWARD
        else:
            uniform = None
        raise NotTame("tangential component vanishes identically on the boundary",
                      uniform_sign=uniform)
    seeds = _boundary_seeds(M, v, pts, grads, surface_grid(M, resolution)[1])
    converged = _polish_boundary(M, v, seeds, scale)
    zeros = _distinct(converged, "tangential zeros")
    records = []
    for z in zeros:
        if np.linalg.norm(v.value_at(z)) < ZERO_NORM_TOL:
            raise ZeroOnBoundary(f"field vanishes on the boundary at {z}")
        records.append(_boundary_record(M, collar, v, z, zeros))
    records.sort(key=lambda rec: tuple(rec.position))
    return records


def _kept_rows(grads):
    """For each point where g has the gradient grads, the rows of (g, v_par)
    kept by the boundary Newton: g and the tangential components other than
    its dropped axis, the steepest of g there."""
    n = grads.shape[-1]
    dropped = np.argmax(np.abs(grads), axis=-1)
    return np.array([[0] + [1 + i for i in range(n) if i != axis]
                     for axis in range(n)])[dropped]


def _boundary_seeds(M, v, pts, grads, pitch):
    """The surface samples pts (where g has the gradients grads) that seed
    the boundary Newton, in the order of their first Newton step's length.

    The step is the first step of ``_polish_boundary`` on each sample's
    kept rows, taken in batches of MAX_SEEDS points.  A sample qualifies
    when its step is shorter than SEED_REACH pitches, and of the qualifying
    samples whose predicted zeros x - DF^-1 F share a cell SEED_CELL
    pitches wide, only the one with the shortest step seeds.  A step
    length estimates the distance to a zero whatever the field's slope,
    where the size of v_par does not.
    """
    rows = _kept_rows(grads)
    step = np.full(pts.shape, np.inf)
    for start in range(0, len(pts), MAX_SEEDS):
        part = slice(start, start + MAX_SEEDS)
        val, jac = _boundary_system(M, v, pts[part])
        at, kept = np.arange(len(val))[:, None], rows[part]
        F, DF = val[at, kept], jac[at, kept]
        ok = np.abs(np.linalg.det(DF)) > 1e-300
        step[part][ok] = np.linalg.solve(DF[ok], F[ok][..., None])[..., 0]
    length = np.linalg.norm(step, axis=-1)
    near = np.nonzero(length < SEED_REACH * pitch)[0]
    near = near[np.argsort(length[near], kind="stable")]
    cells = np.floor((pts[near] - step[near] - M.bbox[:, 0])
                     / (SEED_CELL * pitch))
    # np.unique returns the first, so the shortest, step of each cell
    _, first = np.unique(cells, axis=0, return_index=True)
    seeds = near[np.sort(first)]
    if len(seeds) > MAX_SEEDS:
        raise ResolutionExhausted(
            f"{len(seeds)} boundary seeds, more than MAX_SEEDS = {MAX_SEEDS}")
    return pts[seeds]


def _polish_boundary(M, v, seeds, scale):
    """Seeds polished in one Newton batch, each on g and the tangential
    components other than its dropped axis (the steepest of g at the
    seed); returns the polished points that zero the whole system."""
    if len(seeds) == 0:
        return []
    rows = _kept_rows(M.g.jets(seeds)[1])

    def system(xm, which):
        val, jac = _boundary_system(M, v, xm)
        at, kept = np.arange(len(xm))[:, None], rows[which]
        return val[at, kept], jac[at, kept]

    x = _newton_polish(system, seeds, 35, 0.03 * M.diameter)
    # accept on the full tangential norm, not just the kept components:
    # a seed polished under the wrong dropped axis can zero its kept
    # components while the remaining tangential component stays nonzero
    resid = np.linalg.norm(_boundary_values(M, v, x), axis=-1)
    good = resid < 1e-10 * max(1.0, scale)
    good &= np.all((x >= M.bbox[:, 0]) & (x <= M.bbox[:, 1]), axis=-1)
    return x[good]


def _boundary_values(M, v, x):
    """The augmented system (g, v_par) at the points x, (m, n + 1)."""
    gv, gg = M.g.jets(x)
    v_par = tangential_part(unit_normals(gg), v.value(x))
    return np.concatenate([gv[:, None], v_par], axis=-1)


def _boundary_system(M, v, x):
    """The augmented system (g, v_par) at the points x, (m, n + 1), and its
    exact Jacobian (m, n + 1, n): row 0 is grad g, rows 1..n are D(v_par)."""
    jets = [d.jets(x) for d in M.g.derivatives]
    grad = np.stack([val for val, _ in jets], axis=-1)
    hess = np.stack([row for _, row in jets], axis=-2)
    vals, dv = v.value(x), v.jacobian(x)
    gnorm = np.linalg.norm(grad, axis=-1)
    nhat = unit_normals(grad)
    # Dn = (I - n n^T) H / |grad g|
    nh = np.einsum("mi,mij->mj", nhat, hess)
    dn = (hess - nhat[:, :, None] * nh[:, None, :]) \
        / np.maximum(gnorm, 1e-300)[:, None, None]
    # n^T Dv + v^T Dn, the derivative of v.n
    dvn = np.einsum("mi,mij->mj", nhat, dv) + np.einsum("mi,mij->mj", vals, dn)
    vn = np.sum(vals * nhat, axis=-1)
    dpar = dv - nhat[:, :, None] * dvn[:, None, :] - vn[:, None, None] * dn
    return (np.concatenate([M.g.values(x)[:, None],
                            tangential_part(nhat, vals)], axis=-1),
            np.concatenate([grad[:, None, :], dpar], axis=-2))


def _boundary_record(M, collar, v, z, all_zeros):
    vals = v.value_at(z)
    _, grads = M.g.jets(z[None, :])
    v_perp = float(collar.transverse(z[None, :], grads, vals[None, :])[0])
    sign = inwardness(v_perp / np.linalg.norm(grads[0]))
    F, d, _, det = boundary_map(M, v, z)
    r = _isolation_radius_boundary(M, F, d, z, all_zeros)
    return ZeroRecord(z, BOUNDARY_TANGENTIAL, r, det, sign)


def boundary_map(M, v, z):
    """(F, d, (-1)^d sign(dg/dx_d(z)), chart Jacobian determinant) at the
    boundary zero z (see the module docstring).  Each row of F is divided by
    the norm of its gradient at z, which keeps its zeros and its degree."""
    jac = _boundary_system(M, v, z[None, :])[1][0]
    d = int(np.argmax(np.abs(jac[0])))
    rows = [0] + [1 + i for i in range(M.n) if i != d]
    dF = jac[rows]
    norms = np.linalg.norm(dF, axis=-1)
    scale = np.where(norms > 0.0, norms, 1.0)

    def F(x):
        return _boundary_values(M, v, x)[:, rows] / scale

    det = float(np.linalg.det(dF)) * (-1) ** d / jac[0, d]
    return F, d, (-1) ** d * int(np.sign(jac[0, d])), det


def _isolation_radius_boundary(M, F, d, z, all_zeros):
    """F stays away from 0 on the sphere, and the interval of dg/dx_d on
    the box around it excludes 0, so x -> (g, x without x_d) is a
    diffeomorphism there."""
    sphere = unit_sphere_samples(M.n)
    slope = M.g.derivatives[d]

    def isolated(r):
        lo, hi = slope.interval(z[None, :] - r, z[None, :] + r)
        return ((lo[0] > 0.0 or hi[0] < 0.0)
                and np.min(np.linalg.norm(F(z[None, :] + r * sphere),
                                          axis=-1)) > ISOLATION_FLOOR)

    r0 = 0.25 * float(np.min(M.bbox[:, 1] - M.bbox[:, 0]))
    return _isolation_radius(z, all_zeros, r0, isolated)


def _endpoint_records(M, collar, v):
    ends = interval_endpoints(M)
    if len(ends) == 0:
        raise ZeroOnBoundary("no boundary points found for the interval domain")
    records = []
    for e in ends:
        z = np.array([e])
        val = v.value_at(z)
        if abs(val[0]) < ZERO_NORM_TOL:
            raise ZeroOnBoundary(f"field vanishes at the endpoint {e}")
        _, grads = M.g.jets(z[None, :])
        grad = grads[0]
        v_perp = float(collar.transverse(z[None, :], grads, val[None, :])[0])
        sign = inwardness(v_perp / np.linalg.norm(grad))
        if sign == TANGENT:
            raise NotTame(f"transverse component vanishes at the endpoint {e}")
        sep = min((abs(e - o) for o in ends if o != e), default=2.0)
        records.append(ZeroRecord(z, BOUNDARY_TANGENTIAL, 0.45 * sep, 1.0,
                                  sign))
    records.sort(key=lambda rec: tuple(rec.position))
    return records

