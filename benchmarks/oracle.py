"""Independent answers the benchmark checks vfindex against.

Nothing here calls vfindex's geometry, zero finding, degree or chi code.
Each catalog shape has its own explicit parametrization of its boundary, and
the sum of interior indices of a field is computed as the Kronecker degree of
v/|v| on that boundary, with the boundary oriented outward from the domain:

* 1-D: (sign v(b) - sign v(a)) / 2 on each interval [a, b];
* 2-D: winding numbers, counterclockwise on the outer circle and clockwise
  on every hole;
* 3-D: signed solid angles of v/|v| over a parametric mesh of every
  boundary sphere and torus, refined where v/|v| turns fast and oriented
  away from the domain, divided by 4 pi.

Together with the chi table below this pins every index vfindex reports:
the interior sum is the degree, the total is chi (n even) or 0 (n odd), so
the boundary sum is the difference, and the second Morse identity
interior + (inward tangential degrees) = chi ties the inward/outward split.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np


class OracleError(Exception):
    """The oracle could not decide (field vanishes on or near its boundary)."""


@dataclass(frozen=True)
class Component:
    """One boundary component of a catalog shape.

    ``kind`` is "points", "circle", "sphere" or "torus".  ``sign`` is +1 when
    the component's own outward normal points away from the domain and -1
    when it points into the domain (holes and inner spheres).
    """

    kind: str
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 1.0
    minor: float = 0.0
    sign: int = 1
    points: tuple = ()


@dataclass(frozen=True)
class Shape:
    dim: int
    chi: int
    chi_boundary: int
    boundary: tuple


# The catalog shapes as the bundled scenes define them (g in the .scene files).
SHAPES = {
    "ball_1": Shape(1, 1, 2, (Component("points", points=(-1.0, 1.0)),)),
    "interval": Shape(1, 1, 2, (Component("points", points=(-1.0, 2.0)),)),
    "ball_2": Shape(2, 1, 0, (Component("circle", (0.0, 0.0), 1.0),)),
    "annulus": Shape(2, 0, 0, (Component("circle", (0.0, 0.0), 3.0),
                               Component("circle", (0.0, 0.0), 1.0, sign=-1))),
    "disk_with_2_holes": Shape(2, -1, 0, (
        Component("circle", (0.0, 0.0), 3.0),
        Component("circle", (1.0, 0.0), 0.5, sign=-1),
        Component("circle", (-1.0, 0.0), 0.5, sign=-1))),
    "ball_3": Shape(3, 1, 2, (Component("sphere", (0.0, 0.0, 0.0), 1.0),)),
    "solid_torus": Shape(3, 0, 0, (
        Component("torus", (0.0, 0.0, 0.0), 2.0, minor=1.0),)),
    "spherical_shell": Shape(3, 2, 4, (
        Component("sphere", (0.0, 0.0, 0.0), 2.0),
        Component("sphere", (0.0, 0.0, 0.0), 1.0, sign=-1))),
    # closed surfaces: the surface itself is the only component
    "sphere2": Shape(3, 2, 0, (Component("sphere", (0.0, 0.0, 0.0), 1.0),)),
    "torus2": Shape(3, 0, 0, (
        Component("torus", (0.0, 0.0, 0.0), 2.0, minor=1.0),)),
}


def expected_total(shape):
    """chi(M) in even dimensions, 0 in odd dimensions."""
    s = SHAPES[shape]
    return s.chi if s.dim % 2 == 0 else 0


# --------------------------------------------------------------------------
# Boundary parametrizations
# --------------------------------------------------------------------------

def circle_points(comp, count):
    th = 2.0 * np.pi * np.arange(count) / count
    c = np.asarray(comp.center, float)
    return c + comp.radius * np.stack([np.cos(th), np.sin(th)], axis=-1)


def surface_points(comp, s, t):
    """Points of a sphere or torus at parameter fractions s, t in [0, 1].

    Spheres run from pole to pole in s; the torus is periodic in both.  In
    both, the cross product of the s and t derivatives is the outward normal
    of the component itself.
    """
    c = np.asarray(comp.center, float)
    s, t = np.asarray(s, float), np.asarray(t, float)
    if comp.kind == "sphere":
        th, ph = np.pi * s, 2.0 * np.pi * t
        unit = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                         np.cos(th)], axis=-1)
        return c + comp.radius * unit
    if comp.kind == "torus":
        ph, ps = 2.0 * np.pi * s, 2.0 * np.pi * t
        ring = comp.radius + comp.minor * np.cos(ps)
        return c + np.stack([ring * np.cos(ph), ring * np.sin(ph),
                             comp.minor * np.sin(ps)], axis=-1)
    raise ValueError(f"no surface parametrization for {comp.kind}")


def surface_grid(comp, n1, n2):
    """(n1 + 1) x n2 grid of surface points, as an (m, 3) array."""
    s, t = np.meshgrid(np.arange(n1 + 1) / n1, np.arange(n2) / n2,
                       indexing="ij")
    return surface_points(comp, s.ravel(), t.ravel())


def surface_normals(comp, pts):
    """Outward unit normals of the component's own surface at pts."""
    d = np.asarray(pts, float) - np.asarray(comp.center, float)
    if comp.kind == "sphere":
        return d / np.linalg.norm(d, axis=-1, keepdims=True)
    # torus: away from the nearest point of the core circle
    rho = np.linalg.norm(d[..., :2], axis=-1, keepdims=True)
    core = np.concatenate([comp.radius * d[..., :2] / rho,
                           np.zeros_like(rho)], axis=-1)
    out = d - core
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def boundary_samples(shape, count=64):
    """A few points on every boundary component, for checking a scene's g."""
    out = []
    for comp in SHAPES[shape].boundary:
        if comp.kind == "points":
            out.append(np.array(comp.points, float)[:, None])
        elif comp.kind == "circle":
            out.append(circle_points(comp, count))
        else:
            out.append(surface_grid(comp, 8, 16))
    return out


# --------------------------------------------------------------------------
# Degrees
# --------------------------------------------------------------------------

def _unit(vals, where):
    norms = np.linalg.norm(vals, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norms)) or np.min(norms) <= 0.0:
        raise OracleError(f"field vanishes on the {where}")
    return vals / norms


def _endpoint_degree(f, comp):
    a, b = comp.points
    va, vb = f(np.array([[a], [b]]))[:, 0]
    if va == 0.0 or vb == 0.0:
        raise OracleError("field vanishes at an endpoint")
    return int((np.sign(vb) - np.sign(va)) // 2)


def winding_number(f, comp, start=256, limit=2 ** 18):
    """Counterclockwise winding of f around the circle, refined until every
    step turns by less than pi / 4."""
    count = start
    while count <= limit:
        u = _unit(f(circle_points(comp, count)), "circle")
        ang = np.arctan2(u[:, 1], u[:, 0])
        inc = np.diff(np.append(ang, ang[0]))
        inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(inc)) < np.pi / 4:
            return int(round(float(np.sum(inc)) / (2.0 * np.pi)))
        count *= 2
    raise OracleError("winding number did not resolve")


def _solid_angles(u, tri):
    a, b, c = u[tri[:, 0]], u[tri[:, 1]], u[tri[:, 2]]
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = (1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c)
           + np.einsum("ij,ij->i", c, a))
    return 2.0 * np.arctan2(num, den)


def _corners(a, b, h):
    return [(a, b), (a + h, b), (a + h, b + h), (a, b + h)]


def _on_segment(line, lo, hi):
    """Sorted lattice positions on a line between lo and hi inclusive."""
    return line[bisect.bisect_left(line, lo):bisect.bisect_right(line, hi)]


def surface_degree(f, comp, base=(8, 16), depth=12, max_turn=np.pi / 4):
    """Degree of f/|f| on a sphere or torus with its own outward orientation.

    The parameter square is cut into cells on an integer lattice, and a cell
    is split in four until the images of its corners lie within max_turn of
    each other.  Each leaf cell becomes the polygon of every lattice vertex
    on its border, hanging vertices of finer neighbours included, so the
    cells tile the closed surface edge to edge and their signed solid angles
    sum to 4 pi times an integer.
    """
    n1, n2 = base
    size = 1 << depth
    L1, L2 = n1 * size, n2 * size
    periodic1 = comp.kind == "torus"

    def canon(key):
        a, b = key
        return (a % L1 if periodic1 else a, b % L2)

    unit = {}

    def evaluate(keys):
        new = list(dict.fromkeys(k for k in map(canon, keys) if k not in unit))
        if new:
            ab = np.array(new, float)
            pts = surface_points(comp, ab[:, 0] / L1, ab[:, 1] / L2)
            unit.update(zip(new, _unit(f(pts), comp.kind)))

    cos_max = np.cos(max_turn)
    todo = [(i * size, j * size, size) for i in range(n1) for j in range(n2)]
    leaves = []
    while todo:
        evaluate(k for a, b, h in todo for k in _corners(a, b, h))
        us = np.array([[unit[canon(k)] for k in _corners(a, b, h)]
                       for a, b, h in todo])
        close = np.einsum("mik,mjk->mij", us, us).min(axis=(1, 2)) > cos_max
        nxt = []
        for (a, b, h), ok in zip(todo, close):
            if ok:
                leaves.append((a, b, h))
            elif h == 1:
                raise OracleError(f"{comp.kind} degree did not resolve")
            else:
                k = h // 2
                nxt += [(a, b, k), (a + k, b, k), (a, b + k, k),
                        (a + k, b + k, k)]
        todo = nxt

    rows, cols = {}, {}
    for a, b, h in leaves:
        for x, y in _corners(a, b, h):
            xs = (0, L1) if periodic1 and x in (0, L1) else (x,)
            ys = (0, L2) if y in (0, L2) else (y,)
            for xx in xs:
                for yy in ys:
                    rows.setdefault(yy, set()).add(xx)
                    cols.setdefault(xx, set()).add(yy)
    rows = {k: sorted(v) for k, v in rows.items()}
    cols = {k: sorted(v) for k, v in cols.items()}

    index, tris = {}, []
    for a, b, h in leaves:
        ring = ([(x, b) for x in _on_segment(rows[b], a, a + h)]
                + [(a + h, y) for y in _on_segment(cols[a + h], b, b + h)][1:]
                + [(x, b + h) for x in
                   _on_segment(rows[b + h], a, a + h)][::-1][1:]
                + [(a, y) for y in _on_segment(cols[a], b, b + h)][::-1][1:-1])
        ids = [index.setdefault(canon(k), len(index)) for k in ring]
        tris += [(ids[0], ids[i], ids[i + 1]) for i in range(1, len(ids) - 1)]
    u = np.array([unit[k] for k in index])
    raw = float(np.sum(_solid_angles(u, np.array(tris)))) / (4.0 * np.pi)
    deg = int(round(raw))
    if abs(raw - deg) > 1e-6:
        raise OracleError(f"solid-angle sum {raw} is not an integer")
    return deg


def interior_degree(shape, f):
    """Sum of the interior zero indices of the field f on the catalog shape.

    ``f`` maps an (m, n) array of points to (m, n) vectors.
    """
    total = 0
    for comp in SHAPES[shape].boundary:
        if comp.kind == "points":
            total += _endpoint_degree(f, comp)
        elif comp.kind == "circle":
            total += comp.sign * winding_number(f, comp)
        else:
            total += comp.sign * surface_degree(f, comp)
    return total


# --------------------------------------------------------------------------
# Random cubic fields (the criterion-7 generator, rebuilt)
# --------------------------------------------------------------------------

def monomial_exponents(n, degree):
    """Exponent tuples of total degree <= degree, by (degree, lexicographic)."""
    out = [a for a in itertools.product(range(degree + 1), repeat=n)
           if sum(a) <= degree]
    out.sort(key=lambda a: (sum(a), a))
    return out


def draw_polynomial_field(rng, n, degree=3):
    """n coefficient dicts {exponent tuple: coefficient}, drawn the way
    ``vfindex.fields.random_polynomial_field`` draws them."""
    exps = monomial_exponents(n, degree)
    return [{a: float(rng.normal()) for a in exps} for _ in range(n)]


def polynomial_values(coeffs, x):
    """Evaluate the coefficient dicts at an (m, n) array of points."""
    x = np.asarray(x, float)
    top = max(max(alpha) for comp in coeffs for alpha in comp)
    powers = [[x[:, i] ** k for k in range(top + 1)]
              for i in range(x.shape[1])]
    cols = []
    for comp in coeffs:
        acc = np.zeros(len(x))
        for alpha, c in comp.items():
            term = c
            for i, k in enumerate(alpha):
                term = term * powers[i][k]
            acc += term
        cols.append(acc)
    return np.stack(cols, axis=-1)


# --------------------------------------------------------------------------
# Complex square norm
# --------------------------------------------------------------------------

def square_norm(comp, xi, eta, pts):
    """q = |xi_T|^2 - |eta_T|^2 + 2i <xi_T, eta_T> with the component's own
    normals; xi and eta are ambient value arrays at pts."""
    nhat = surface_normals(comp, pts)

    def tangential(vals):
        return vals - np.sum(vals * nhat, axis=-1, keepdims=True) * nhat

    a, b = tangential(xi), tangential(eta)
    return (np.sum(a * a, axis=-1) - np.sum(b * b, axis=-1)
            + 2j * np.sum(a * b, axis=-1))


def distance_to_surface(comp, pts):
    d = np.asarray(pts, float) - np.asarray(comp.center, float)
    if comp.kind == "sphere":
        return np.abs(np.linalg.norm(d, axis=-1) - comp.radius)
    rho = np.linalg.norm(d[..., :2], axis=-1)
    return np.abs(np.hypot(rho - comp.radius, d[..., 2]) - comp.minor)
