"""Brouwer degree of self-maps of S^0, S^1, S^2 given as ambient maps.

Algorithm choice per dimension: sign test on S^0, adaptively refined winding
angle accumulation on S^1, signed solid angles over an icosphere mesh on
S^2.  ``degree_oracle`` is an independent cross-check that counts signed
preimages of random regular target directions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (NoRegularValue, ResolutionExhausted, VanishingOnSphere)

RESIDUAL_LIMIT = 0.1
# S^1: samples of the first winding pass, doubled until the steps are small
S1_SAMPLES = 64
MAX_WINDING_SAMPLES = 2 ** 20
# S^2: icosphere level of the first pass, refined until the residual is small
S2_START_LEVEL = 5
MAX_ICO_LEVEL = 8


@dataclass(frozen=True)
class SphereMap:
    """Ambient map f restricted to the sphere of given center and radius."""

    f: object            # vectorized callable (m, k+1) -> (m, k+1)
    center: np.ndarray
    radius: float

    @property
    def k(self):
        return len(np.atleast_1d(self.center)) - 1

    def sample(self, unit_points):
        pts = np.atleast_1d(self.center) + self.radius * np.atleast_2d(unit_points)
        out = np.atleast_2d(self.f(pts))
        norms = np.linalg.norm(out, axis=-1)
        if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
            raise VanishingOnSphere("map vanishes on a sphere sample")
        return out / norms[:, None]


@dataclass(frozen=True)
class DegreeResult:
    degree: int
    residual: float
    samples_used: int


def degree_empty() -> DegreeResult:
    """Degree of the self-map of the empty sphere S^-1 (the convention is 1)."""
    return DegreeResult(1, 0.0, 0)


def degree_s0(m: SphereMap) -> DegreeResult:
    u = m.sample(np.array([[-1.0], [1.0]]))
    s_minus, s_plus = np.sign(u[:, 0])
    return DegreeResult(int((s_plus - s_minus) / 2), 0.0, 2)


def _wrap(d):
    w = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    w[w == -np.pi] = np.pi
    return w


def degree_s1(m: SphereMap) -> DegreeResult:
    n = S1_SAMPLES
    while n <= MAX_WINDING_SAMPLES:
        th = 2.0 * np.pi * np.arange(n) / n
        u = m.sample(np.stack([np.cos(th), np.sin(th)], axis=-1))
        ang = np.arctan2(u[:, 1], u[:, 0])
        inc = _wrap(np.diff(np.append(ang, ang[0])))
        if np.max(np.abs(inc)) < np.pi / 2:
            raw = float(np.sum(inc) / (2.0 * np.pi))
            deg = int(round(raw))
            return DegreeResult(deg, abs(raw - deg), n)
        n *= 2
    raise ResolutionExhausted("winding refinement exceeded 2^20 samples")


# --------------------------------------------------------------------------
# Icosphere meshes (cached per subdivision level)
# --------------------------------------------------------------------------

_ICO_CACHE = {}


def _icosphere(level):
    if level in _ICO_CACHE:
        return _ICO_CACHE[level]
    if level == 0:
        t = (1.0 + np.sqrt(5.0)) / 2.0
        verts = np.array([
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1]], dtype=float)
        verts /= np.linalg.norm(verts, axis=-1, keepdims=True)
        faces = np.array([
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])
    else:
        verts0, faces0 = _icosphere(level - 1)
        verts = list(verts0)
        midpoint = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        faces = []
        for a, b, c in faces0:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts)
        faces = np.array(faces)
    # enforce outward (counterclockwise from outside) orientation
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), a + b + c) < 0
    faces[flip] = faces[flip][:, ::-1]
    _ICO_CACHE[level] = (verts, faces)
    return verts, faces


def _solid_angle_sum(u, faces):
    a, b, c = u[faces[:, 0]], u[faces[:, 1]], u[faces[:, 2]]
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
    denom = 1.0 + np.einsum("ij,ij->i", a, b) \
        + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return float(np.sum(2.0 * np.arctan2(det, denom)))


def degree_s2(m: SphereMap) -> DegreeResult:
    for level in range(S2_START_LEVEL, MAX_ICO_LEVEL + 1):
        verts, faces = _icosphere(level)
        u = m.sample(verts)
        raw = _solid_angle_sum(u, faces) / (4.0 * np.pi)
        deg = int(round(raw))
        if abs(raw - deg) < RESIDUAL_LIMIT:
            return DegreeResult(deg, abs(raw - deg), len(verts))
    raise ResolutionExhausted("icosphere refinement exceeded level 8")


def degree_for(m: SphereMap) -> DegreeResult:
    if m.k == -1:
        return degree_empty()
    if m.k == 0:
        return degree_s0(m)
    if m.k == 1:
        return degree_s1(m)
    if m.k == 2:
        return degree_s2(m)
    raise ResolutionExhausted(f"degree on S^{m.k} not supported")


def fibonacci_sphere(count):
    """count points spread evenly over S^2 on a Fibonacci spiral."""
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=-1)


# --------------------------------------------------------------------------
# Independent oracle: signed preimage counting at random regular targets
# --------------------------------------------------------------------------

def _oracle_s1_trial(m, psi, samples):
    th = 2.0 * np.pi * np.arange(samples) / samples
    u = m.sample(np.stack([np.cos(th), np.sin(th)], axis=-1))
    gap = _wrap(np.arctan2(u[:, 1], u[:, 0]) - psi)

    def g_of(theta):
        uu = m.sample(np.array([[np.cos(theta), np.sin(theta)]]))[0]
        return float(_wrap(np.array([np.arctan2(uu[1], uu[0]) - psi]))[0])

    signs = []
    nxt = np.roll(gap, -1)
    crossing = (gap * nxt < 0) & (np.abs(gap) < np.pi / 2) & (np.abs(nxt) < np.pi / 2)
    for j in np.nonzero(crossing)[0]:
        a, b = th[j], th[j] + 2.0 * np.pi / samples
        fa = gap[j]
        for _ in range(60):
            c = 0.5 * (a + b)
            fc = g_of(c)
            if fa * fc <= 0:
                b = c
            else:
                a, fa = c, fc
        root = 0.5 * (a + b)
        h = 1e-6
        slope = (g_of(root + h) - g_of(root - h)) / (2.0 * h)
        if abs(slope) < 1e-6:
            return None  # near-critical target
        signs.append(int(np.sign(slope)))
    return sum(signs)


def _frame(d):
    helper = np.array([1.0, 0.0, 0.0])
    if abs(d[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    f1 = np.cross(d, helper)
    f1 /= np.linalg.norm(f1)
    f2 = np.cross(d, f1)
    # (f1, f2, d) right-handed
    if np.dot(np.cross(f1, f2), d) < 0:
        f2 = -f2
    return f1, f2


def _oracle_s2_trial(m, d, rng, seeds=3000):
    f1, f2 = _frame(d)
    xs = fibonacci_sphere(seeds)
    u = m.sample(xs)
    close = u @ d > np.cos(0.35)
    x = xs[close]
    if len(x) == 0:
        return 0
    if len(x) > 800:
        x = x[np.linspace(0, len(x) - 1, 800).astype(int)]

    def h_of(x):
        uu = m.sample(x)
        return np.stack([uu @ f1, uu @ f2], axis=-1)

    def frames(x):
        helper = np.zeros_like(x)
        small = np.argmin(np.abs(x), axis=-1)
        helper[np.arange(len(x)), small] = 1.0
        e1 = np.cross(x, helper)
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
        e2 = np.cross(x, e1)
        flip = np.einsum("ij,ij->i", np.cross(e1, e2), x) < 0
        e2[flip] = -e2[flip]
        return e1, e2

    step = 1e-6
    for _ in range(40):
        e1, e2 = frames(x)
        h0 = h_of(x)
        if np.max(np.linalg.norm(h0, axis=-1)) < 1e-12:
            break
        jc1 = (h_of(_retract(x, e1, step)) - h_of(_retract(x, e1, -step))) / (2 * step)
        jc2 = (h_of(_retract(x, e2, step)) - h_of(_retract(x, e2, -step))) / (2 * step)
        jac = np.stack([jc1, jc2], axis=-1)
        dets = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        ok = np.abs(dets) > 1e-12
        du = np.zeros_like(h0)
        du[ok] = np.linalg.solve(jac[ok], h0[ok][..., None])[..., 0]
        du = np.clip(du, -0.2, 0.2)
        x = _retract2(x, e1, e2, -du)
    h0 = h_of(x)
    u = m.sample(x)
    conv = (np.linalg.norm(h0, axis=-1) < 1e-10) & (u @ d > 0.0)
    x = x[conv]
    if len(x) == 0:
        return 0
    # deduplicate preimages
    reps = []
    for p in x:
        if not any(np.linalg.norm(p - q) < 1e-4 for q in reps):
            reps.append(p)
    total = 0
    for p in reps:
        pp = p[None, :]
        e1, e2 = frames(pp)
        jc1 = (h_of(_retract(pp, e1, step)) - h_of(_retract(pp, e1, -step))) / (2 * step)
        jc2 = (h_of(_retract(pp, e2, step)) - h_of(_retract(pp, e2, -step))) / (2 * step)
        det = jc1[0, 0] * jc2[0, 1] - jc1[0, 1] * jc2[0, 0]
        if abs(det) < 1e-8:
            return None  # target too close to a critical value
        total += int(np.sign(det))
    return total


def _retract(x, e, t):
    y = x + t * e
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _retract2(x, e1, e2, du):
    y = x + du[:, 0:1] * e1 + du[:, 1:2] * e2
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def degree_oracle(m: SphereMap, trials: int = 5, seed: int = 0) -> DegreeResult:
    """Count signed preimages of random regular target directions."""
    rng = np.random.default_rng(seed)
    if m.k == 0:
        # signed count over the preimage of the target direction +1
        u = m.sample(np.array([[-1.0], [1.0]]))
        total = 0
        for x_sign, ux in ((-1, u[0, 0]), (1, u[1, 0])):
            if np.sign(ux) > 0:
                total += x_sign
        return DegreeResult(total, 0.0, 2)
    counts = []
    used = 0
    for _ in range(trials):
        if m.k == 1:
            psi = float(rng.uniform(0, 2 * np.pi))
            got = _oracle_s1_trial(m, psi, 4096)
            used += 4096
        else:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            got = _oracle_s2_trial(m, d, rng)
            used += 3000
        if got is not None:
            counts.append(got)
    if not counts:
        raise NoRegularValue("all oracle trials hit near-critical targets")
    top, freq = Counter(counts).most_common(1)[0]
    return DegreeResult(int(top), 1.0 - freq / len(counts), used)
