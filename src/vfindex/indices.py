"""Index computation: interior indices, boundary half-indices, and totals.

The index of an isolated interior zero is the Brouwer degree of the
normalized field on a small sphere around it.  A tangential boundary zero
contributes half of the degree k of the tangential part on the boundary,
signed by the transverse direction of the field there: +k/2 when the field
points inward, -k/2 when it points outward.  k, too, is a degree on spheres
in R^n around the zero, of the augmented map ``zerofind.boundary_map``.
Boundary contributions are kept as exact half-integers; no floating-point
equality tests are involved in the final bookkeeping.

The total (interior plus boundary) equals chi(M) in even dimensions and 0 in
odd dimensions; ``full_index`` computes everything and records whether that
identity holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .degree import SphereMap, degree_for
from .errors import (DegreeUnstable, NotTame, ResolutionExhausted,
                     VanishingOnSphere)
from .euler import chi_boundary_for, chi_for
from .manifold import INWARD, OUTWARD, Hypersurface
# unused here; benchmarks/layers.py wraps indices.boundary_chart by name
from .manifold import boundary_chart  # noqa: F401
from .zerofind import (ZeroRecord, boundary_map,
                       find_boundary_tangential_zeros, find_interior_zeros)


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Exact multiple of 1/2, stored as its doubled value."""

    twice: int

    @classmethod
    def of(cls, value):
        if isinstance(value, HalfInteger):
            return value
        if isinstance(value, (int, np.integer)):
            return cls(2 * int(value))
        raise TypeError(f"cannot build a half-integer from {value!r}")

    @classmethod
    def halves(cls, k):
        return cls(int(k))

    @property
    def is_integer(self):
        return self.twice % 2 == 0

    def __add__(self, other):
        return HalfInteger(self.twice + HalfInteger.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInteger(self.twice - HalfInteger.of(other).twice)

    def __neg__(self):
        return HalfInteger(-self.twice)

    def __mul__(self, k):
        return HalfInteger(self.twice * int(k))

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            return self.twice == HalfInteger.of(other).twice
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(("HalfInteger", self.twice))

    def __float__(self):
        return self.twice / 2.0

    def __int__(self):
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __str__(self):
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInteger({self.twice})"


ZERO = HalfInteger(0)


@dataclass
class BoundaryContribution:
    record: ZeroRecord
    tangential_degree: int
    half_index: HalfInteger

    def as_dict(self):
        d = self.record.as_dict()
        d["tangential_degree"] = self.tangential_degree
        d["half_index"] = str(self.half_index)
        return d


@dataclass
class IndexReport:
    shape: str
    n: int
    interior_zeros: list
    interior_indices: list
    boundary: list  # BoundaryContribution entries
    interior_index: int
    boundary_index: HalfInteger
    total_index: HalfInteger
    chi: int
    chi_boundary: int
    morse_minus: int
    morse_plus: int
    expected_total: int
    theorem_holds: bool
    special_boundary: str = None  # set when the tangential part vanishes identically
    perturbations: list = field(default_factory=list)

    def as_dict(self):
        zeros = [dict(r.as_dict(), index=k)
                 for r, k in zip(self.interior_zeros, self.interior_indices)]
        zeros += [b.as_dict() for b in self.boundary]
        return {
            "shape": self.shape,
            "dim": self.n,
            "zeros": zeros,
            "ind_interior": self.interior_index,
            "ind_boundary": str(self.boundary_index),
            "ind_total": str(self.total_index),
            "chi": self.chi,
            "chi_boundary": self.chi_boundary,
            "morse_minus": self.morse_minus,
            "morse_plus": self.morse_plus,
            "expected_total": self.expected_total,
            "theorem_holds": self.theorem_holds,
            "special_boundary": self.special_boundary,
            "perturbations": list(self.perturbations),
        }


# radius halvings _stable_degree tries after the first radius
DEGREE_HALVINGS = 6


def _stable_degree(make_map, r0, where):
    """Degree on spheres of shrinking radius, accepted once two consecutive
    radii agree.

    The degree of an isolated zero is radius independent below the isolation
    radius, so shrinking is always legitimate; it guards against an isolation
    estimate that was slightly too optimistic.  A radius where the map
    vanishes on a sphere sample is skipped the same way.
    """
    r = r0
    prev = None
    for _ in range(DEGREE_HALVINGS + 1):
        try:
            cur = degree_for(make_map(r)).degree
        except VanishingOnSphere:
            cur = None
        if cur is not None and cur == prev:
            return cur
        prev = cur
        r *= 0.5
    raise DegreeUnstable(
        f"degree at {where} did not stabilize over {DEGREE_HALVINGS} radius "
        f"halvings from {r0}")


def interior_index(M, v, record):
    """Degree of v/|v| on a sphere around an isolated interior zero."""
    return _stable_degree(lambda rr: SphereMap(v.value, record.position, rr),
                          record.isolation_radius, record.position)


def boundary_tangential_degree(M, v, record):
    """Degree k of the tangential part around a boundary zero: the degree
    of the augmented map F on spheres around it in R^n, times the
    orientation of its dropped axis (``zerofind.boundary_map``).

    For n = 1 the relevant sphere is empty and the degree is 1 by convention.
    """
    if M.n == 1:
        return 1
    z = record.position
    F, _, orientation, _ = boundary_map(M, v, z)
    return orientation * _stable_degree(lambda rr: SphereMap(F, z, rr),
                                        record.isolation_radius, z)


def boundary_zero_index(record, k):
    """+-k/2 from the transverse direction at the tangential zero."""
    if record.transverse_sign == INWARD:
        return HalfInteger.halves(k)
    if record.transverse_sign == OUTWARD:
        return HalfInteger.halves(-k)
    raise NotTame(
        f"transverse component vanishes at the boundary zero {record.position}")


def morse_split(contributions):
    """(sum of k over inward zeros, sum of k over outward zeros)."""
    minus = sum(b.tangential_degree for b in contributions
                if b.record.transverse_sign == INWARD)
    plus = sum(b.tangential_degree for b in contributions
               if b.record.transverse_sign == OUTWARD)
    return minus, plus


def full_index(M, collar, v, crosscheck=True, auto_tame=False, seed=0,
               paranoid=False, depth=9, resolution=None):
    """All zeros, their indices, and the theorem bookkeeping for one field.

    ``crosscheck`` verifies the boundary zero census against chi of the
    boundary (the inward and outward tangential degrees must sum to it) and
    refuses to return a report that fails it.  ``auto_tame`` perturbs the
    field within the collar when it is not tame (a zero on the boundary, or a
    tangential zero with vanishing transverse part) and reports the applied
    perturbations; the boundary census that decided the returned field is
    tame is then the one the index is built from, not searched again.
    ``resolution`` is the boundary sampling resolution of that census.
    """
    census, log = None, []
    if auto_tame:
        from .verify import _tame
        v, log, census = _tame(M, collar, v, seed=seed, resolution=resolution)
    chi = chi_for(M)
    chi_b = chi_boundary_for(M)
    expected = chi if M.n % 2 == 0 else 0
    interior = find_interior_zeros(M, v, depth=depth, paranoid=paranoid)
    int_indices = [interior_index(M, v, rec) for rec in interior]
    ind_interior = int(sum(int_indices))
    part = _boundary_part(M, collar, v, census, chi_b, crosscheck, resolution)
    total = part["boundary_index"] + ind_interior
    return IndexReport(
        shape=M.name, n=M.n, interior_zeros=interior,
        interior_indices=int_indices, interior_index=ind_interior,
        total_index=total, chi=chi, chi_boundary=chi_b,
        expected_total=expected, perturbations=log,
        theorem_holds=(total == HalfInteger.of(expected)), **part)


def _boundary_part(M, collar, v, census, chi_b, crosscheck=True,
                   resolution=None):
    """The boundary fields of full_index's report for v, as a dict keyed by
    IndexReport field.  ``census`` is v's boundary census: a list of
    ZeroRecords, the NotTame of the uniform transverse case, or None to
    search the boundary (at ``resolution``) here."""
    if census is None:
        try:
            census = find_boundary_tangential_zeros(M, collar, v,
                                                    resolution=resolution)
        except NotTame as exc:
            if exc.uniform_sign is None:
                raise
            census = exc
    if isinstance(census, NotTame):
        inward = census.uniform_sign == INWARD
        return dict(
            boundary=[], special_boundary=census.uniform_sign,
            boundary_index=HalfInteger.halves(chi_b if inward else -chi_b),
            morse_minus=chi_b if inward else 0,
            morse_plus=0 if inward else chi_b)
    contributions = []
    for rec in census:
        k = boundary_tangential_degree(M, v, rec)
        contributions.append(
            BoundaryContribution(rec, k, boundary_zero_index(rec, k)))
    morse_minus, morse_plus = morse_split(contributions)
    if crosscheck and morse_minus + morse_plus != chi_b:
        raise ResolutionExhausted(
            "boundary census failed the chi crosscheck: inward degrees "
            f"{morse_minus} + outward degrees {morse_plus} != "
            f"chi(boundary) = {chi_b}; some tangential zero was likely "
            "missed or misclassified")
    return dict(
        boundary=contributions,
        boundary_index=sum((b.half_index for b in contributions), ZERO),
        morse_minus=morse_minus, morse_plus=morse_plus)


def hypersurface_index(S, collar, v):
    """Sum of tangential zero indices of v projected onto a closed surface.

    v is an ambient field that must not vanish on the surface; its tangential
    projection may.  The sum equals chi of the surface; a census whose
    degrees do not sum to it is refused, like the chi crosscheck of
    ``full_index``.
    """
    if not isinstance(S, Hypersurface):
        raise TypeError("hypersurface_index needs a Hypersurface")
    records = find_boundary_tangential_zeros(S, collar, v)
    degrees = [boundary_tangential_degree(S, v, rec) for rec in records]
    total = int(sum(degrees))
    chi = chi_for(S)
    if total != chi:
        raise ResolutionExhausted(
            f"tangential census failed the chi crosscheck: degrees sum to "
            f"{total} != chi(surface) = {chi}")
    return total, records, degrees
