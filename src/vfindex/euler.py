"""Euler characteristic oracles: voxelized cubical complexes and a catalog.

A voxel is included when g at its center is <= 0 (domains) or when the
distance proxy |g|/|grad g| is within one voxel diagonal (hypersurface
thickening, homotopy equivalent to the surface once the resolution is fine
enough).  chi is the alternating sum of
cell counts of the voxel union, where every shared lower-dimensional face is
counted exactly once.  A result is only reported once it is stable under one
resolution doubling.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .errors import UnknownShape, Unstable
from .manifold import DomainManifold, Hypersurface, grid_slabs

MAX_REFINEMENTS = 3

_CATALOG = {
    "ball_1": 1, "ball_2": 1, "ball_3": 1,
    "interval": 1,
    "annulus": 0,
    "solid_torus": 0,
    "spherical_shell": 2,
    "sphere2": 2,
    "torus2": 0,
    "circle": 0,
}

# chi of the boundary, used by the outward/inward-pointing special case and
# by the doubling bookkeeping.  Closed shapes have empty boundary.
_BOUNDARY_CATALOG = {
    "ball_1": 2, "ball_2": 0, "ball_3": 2,
    "interval": 2,
    "annulus": 0,
    "solid_torus": 0,
    "spherical_shell": 4,
    "sphere2": 0,
    "torus2": 0,
    "circle": 0,
}

_HOLES_RE = re.compile(r"^disk_with_(\d+)_holes$")


def chi_catalog(name: str) -> int:
    if name in _CATALOG:
        return _CATALOG[name]
    m = _HOLES_RE.match(name)
    if m:
        return 1 - int(m.group(1))
    raise UnknownShape(f"shape {name!r} is not in the catalog")


def chi_boundary_catalog(name: str) -> int:
    if name in _BOUNDARY_CATALOG:
        return _BOUNDARY_CATALOG[name]
    if _HOLES_RE.match(name):
        return 0  # k+1 disjoint circles
    raise UnknownShape(f"shape {name!r} is not in the catalog")


def _occupancy(g, bbox, resolution, thickened):
    n = bbox.shape[0]
    res = [int(resolution)] * n
    pitch = np.array([(bbox[i, 1] - bbox[i, 0]) / res[i] for i in range(n)])
    diag = float(np.linalg.norm(pitch))
    # evaluate in slabs along the first axis to bound memory
    occ = np.empty(res, dtype=bool)
    start = 0
    for pts in grid_slabs(bbox, res):
        if thickened:
            # distance proxy |g|/|grad g|: the band must be measured against
            # the local scale of g, which can vary by orders of magnitude
            vals, grads = g.jets(pts)
            gn = np.linalg.norm(grads, axis=-1)
            inside = np.abs(vals) <= diag * np.maximum(gn, 1e-12)
        else:
            inside = g.values(pts) <= 0.0
        slab = inside.reshape((-1,) + tuple(res[1:]))
        occ[start:start + len(slab)] = slab
        start += len(slab)
    return occ


def cubical_chi(occ) -> int:
    """chi of the union of voxels, counting shared faces once."""
    n = occ.ndim
    padded = np.pad(occ, 1)
    total = 0
    for spanning in itertools.product((False, True), repeat=n):
        b = padded
        for axis, span in enumerate(spanning):
            if span:
                sl = [slice(None)] * n
                sl[axis] = slice(1, -1)
                b = b[tuple(sl)]
            else:
                lo = [slice(None)] * n
                hi = [slice(None)] * n
                lo[axis] = slice(0, -1)
                hi[axis] = slice(1, None)
                b = b[tuple(lo)] | b[tuple(hi)]
        k = sum(spanning)
        total += (-1) ** k * int(np.count_nonzero(b))
    return total


def chi_voxel(M, resolution: int = 64) -> int:
    """Voxel chi of a domain (or hypersurface thickening), refined to stability."""
    if resolution < 16:
        raise Unstable("resolution must be at least 16")
    thickened = isinstance(M, Hypersurface)
    res = int(resolution)
    prev = cubical_chi(_occupancy(M.g, M.bbox, res, thickened))
    for _ in range(MAX_REFINEMENTS):
        res *= 2
        cur = cubical_chi(_occupancy(M.g, M.bbox, res, thickened))
        if cur == prev:
            return cur
        prev = cur
    raise Unstable(f"voxel chi did not stabilize up to resolution {res}")


def chi_for(M, resolution: int = 64) -> int:
    """Catalog value when the manifold carries a known shape name, else voxel."""
    shape = getattr(M, "name", "")
    try:
        return chi_catalog(shape)
    except UnknownShape:
        return chi_voxel(M, resolution)


def chi_boundary_for(M, resolution: int = 64) -> int:
    shape = getattr(M, "name", "")
    try:
        return chi_boundary_catalog(shape)
    except UnknownShape:
        pass
    if isinstance(M, Hypersurface):
        return 0
    surface = Hypersurface.__new__(Hypersurface)
    surface.g = M.g
    surface.n = M.n
    surface.bbox = M.bbox
    surface.name = ""
    return chi_voxel(surface, resolution)
