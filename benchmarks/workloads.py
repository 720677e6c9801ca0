"""The benchmark's workloads: operations on vfindex and their checks.

An ``Op`` is one user-visible unit of work: one auto-tamed ``full_index``
call on one field (the census workloads), or one scene's verify or one
``chi_voxel`` call (the verify workload).  The short verify operations
appear ``SHORT_OP_CALLS`` times in a round under one name.  Each op knows how to check its own
result against the independent answers in ``oracle.py``; ``check`` returns a
list of problems, empty when the result is right.

The random fields come from the criterion-7 generator of the acceptance
suite at its seed 2026, rebuilt in ``oracle.draw_polynomial_field``.  The
pool is fixed so that the fields known to fail stay the same in every run;
the benchmark's ``--seed`` only orders the operations of each round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle
from vfindex import complexfield, degree, euler, indices, verify
from vfindex.cli import load_scene
from vfindex.errors import ResolutionExhausted
from vfindex.fields import ExpressionField, polynomial_expression
from vfindex.manifold import Collar

GEN_SEED = 2026
# the criterion-7 shape cycle: field i lives on GEN_SCENES[i % 8]
GEN_SCENES = ["ball1_constant", "interval_plus1", "ball2_constant",
              "annulus_rotational", "disk2holes_constant", "ball3_constant",
              "solid_torus_rotational", "spherical_shell_constant"]
_SCENE_SHAPES = {"ball1_constant": "ball_1", "interval_plus1": "interval",
                 "ball2_constant": "ball_2", "annulus_rotational": "annulus",
                 "disk2holes_constant": "disk_with_2_holes",
                 "ball3_constant": "ball_3",
                 "solid_torus_rotational": "solid_torus",
                 "spherical_shell_constant": "spherical_shell"}
CENSUS2D_DRAWS = 120
CENSUS3D_FIELDS = (5, 6, 7)

# Fields whose chi crosscheck fails on every run: boundary_chart accepts a
# radius whose probes land on another boundary component (ROADMAP item 3).
KNOWN_FAULTS = {20: "disk_with_2_holes", 28: "disk_with_2_holes",
                108: "disk_with_2_holes"}

VERIFY_DOMAIN_SCENES = ["ball2_radial", "ball2_saddle", "annulus_suspension",
                        "disk2holes_constant", "ball3_radial"]
REAL_SURFACE_SCENES = ["sphere2_real", "torus2_real"]
COMPLEX_SCENES = ["sphere2_complex", "torus2_complex"]
CATALOG_SCENES = ["ball1_constant", "interval_plus1", "ball2_constant",
                  "annulus_rotational", "disk2holes_constant",
                  "ball3_constant", "solid_torus_rotational",
                  "spherical_shell_constant", "sphere2_real", "torus2_real"]

# The verify operations that take under a second run this many times per
# round, each time on its own freshly loaded scene, and an operation's time
# is the median of its calls: one sub-second call spreads by 10-20% on a
# shared machine, and the median operation of verify is one of them.
SHORT_OP_CALLS = 5
SHORT_COMPLEX_SCENES = ["sphere2_complex"]

COLLAR = Collar("neg_g")
ICO_WARM_LEVEL = 5  # degree_s2 starts at this icosphere level


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable                # result -> list of problems
    describe: Callable             # result -> JSON-able summary
    known_fault: bool = False


@dataclass
class Workload:
    ops: list
    uses_s2: bool = False


# --------------------------------------------------------------------------
# Scenes and fields
# --------------------------------------------------------------------------

def load_checked(name):
    """Load a bundled scene and check that the oracle's own boundary of its
    shape lies on the scene's {g = 0}."""
    scene = load_scene(name)
    M = scene.manifold
    shape = oracle.SHAPES[M.name]
    if shape.dim != M.n:
        raise SystemExit(f"scene {name}: dimension {M.n} != {shape.dim}")
    for pts in oracle.boundary_samples(M.name):
        if np.max(np.abs(M.g.values(pts))) > 1e-8:
            raise SystemExit(f"scene {name}: the oracle's boundary of "
                             f"{M.name} is not on g = 0")
    return scene


def cubic_fields(count, seed=GEN_SEED):
    """(index, scene name, coefficient dicts) of the first count draws."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        name = GEN_SCENES[i % len(GEN_SCENES)]
        dim = oracle.SHAPES[_SCENE_SHAPES[name]].dim
        out.append((i, name, oracle.draw_polynomial_field(rng, dim)))
    return out


def field_of(coeffs):
    n = len(coeffs)
    return ExpressionField([polynomial_expression(c, n) for c in coeffs])


def _twice(text):
    """Doubled value of a HalfInteger as printed ("3", "-1/2")."""
    text = str(text)
    return int(text[:-2]) if text.endswith("/2") else 2 * int(text)


# --------------------------------------------------------------------------
# Census
# --------------------------------------------------------------------------

def _census_op(i, M, coeffs):
    v = field_of(coeffs)
    shape = M.name

    def run():
        return indices.full_index(M, COLLAR, v, auto_tame=True, seed=i)

    def check(rep):
        want = oracle.interior_degree(
            shape, lambda x: oracle.polynomial_values(coeffs, x))
        return report_problems(rep, shape, want)

    def describe(rep):
        return {"interior": rep.interior_index,
                "boundary": str(rep.boundary_index),
                "total": str(rep.total_index),
                "morse": [rep.morse_minus, rep.morse_plus],
                "zeros": [len(rep.interior_zeros), len(rep.boundary)],
                "perturbations": len(rep.perturbations)}

    return Op(f"field-{i:03d}-{shape}", run, check, describe,
              known_fault=KNOWN_FAULTS.get(i) == shape)


def report_problems(rep, shape, want_interior):
    """Compare one IndexReport with the oracle's interior degree and the
    chi table."""
    s = oracle.SHAPES[shape]
    expected = oracle.expected_total(shape)
    problems = []
    if rep.interior_index != want_interior:
        problems.append(f"interior index {rep.interior_index} != boundary "
                        f"degree {want_interior}")
    if sum(rep.interior_indices) != rep.interior_index:
        problems.append("interior indices do not sum to ind_interior")
    if (rep.chi, rep.chi_boundary) != (s.chi, s.chi_boundary):
        problems.append(f"chi {rep.chi}/{rep.chi_boundary} != table "
                        f"{s.chi}/{s.chi_boundary}")
    if rep.total_index.twice != 2 * expected:
        problems.append(f"ind_total {rep.total_index} != {expected}")
    if rep.boundary_index.twice != 2 * (expected - want_interior):
        problems.append(f"ind_boundary {rep.boundary_index} != "
                        f"{expected - want_interior}")
    if rep.boundary and sum(b.half_index.twice for b in rep.boundary) \
            != rep.boundary_index.twice:
        problems.append("half-indices do not sum to ind_boundary")
    if rep.interior_index + rep.morse_minus != s.chi:
        problems.append(f"second Morse identity: {rep.interior_index} + "
                        f"{rep.morse_minus} != {s.chi}")
    if rep.morse_minus + rep.morse_plus != s.chi_boundary:
        problems.append(f"first Morse identity: {rep.morse_minus} + "
                        f"{rep.morse_plus} != {s.chi_boundary}")
    if not rep.theorem_holds:
        problems.append("theorem_holds is false")
    return problems


def is_known_fault_error(op, exc):
    """The diagnosed wrong-chart failure: the chi crosscheck refuses."""
    return (op.known_fault and isinstance(exc, ResolutionExhausted)
            and "chi crosscheck" in str(exc))


def census(keep, draws):
    """Ops on the fields among the first draws for which keep(i, n) holds."""
    fields = [(i, name, coeffs) for i, name, coeffs in cubic_fields(draws)
              if keep(i, len(coeffs))]
    scenes = {name: load_checked(name) for _, name, _ in fields}
    ops = [_census_op(i, scenes[name].manifold, coeffs)
           for i, name, coeffs in fields]
    return Workload(ops, uses_s2=any(len(c) == 3 for _, _, c in fields))


# --------------------------------------------------------------------------
# Verify battery
# --------------------------------------------------------------------------

def _run_all_op(scene):
    M, v = scene.manifold, scene.field
    seed = (scene.options or {}).get("seed", 0)
    s = oracle.SHAPES[M.name]
    expected = oracle.expected_total(M.name)

    def run():
        return verify.run_all(M, COLLAR, v, seed=seed)

    def check(verdicts):
        want = oracle.interior_degree(M.name, v.value)
        want_neg = oracle.interior_degree(M.name, lambda x: -v.value(x))
        problems = [f"verdict failed: {vd.line()}" for vd in verdicts
                    if not vd.passed]
        d = {vd.name: vd.details for vd in verdicts}
        theorem = d["total index equals chi (even n) or 0 (odd n)"]
        if theorem["interior"] != want:
            problems.append(f"interior {theorem['interior']} != {want}")
        if _twice(theorem["boundary"]) != 2 * (expected - want):
            problems.append(f"boundary {theorem['boundary']} != "
                            f"{expected - want}")
        neg = d["negation scales both index parts by (-1)^n"]
        if neg["neg_interior"] != want_neg:
            problems.append(f"-v interior {neg['neg_interior']} != "
                            f"{want_neg}")
        if _twice(neg["neg_boundary"]) != 2 * (expected - want_neg):
            problems.append(f"-v boundary {neg['neg_boundary']} != "
                            f"{expected - want_neg}")
        dbl = d["doubled field index sum equals chi of the double"]
        if dbl["chi_double"] != 2 * s.chi - s.chi_boundary:
            problems.append(f"chi of the double {dbl['chi_double']}")
        inv = d["boundary index is invariant under collar perturbations"]
        if any(_twice(x) != 2 * (expected - want) for x in inv["values"]):
            problems.append(f"perturbed boundary indices {inv['values']}")
        morse = d["Morse identities for the tangential degree sums"]
        if (morse["interior"] + morse["morse_minus"] != s.chi
                or morse["morse_minus"] + morse["morse_plus"]
                != s.chi_boundary):
            problems.append(f"Morse identities: {morse}")
        return problems

    def describe(verdicts):
        return [[vd.name, vd.passed,
                 {k: str(x) for k, x in vd.details.items()}]
                for vd in verdicts]

    return Op(f"verify-{scene.name}", run, check, describe)


def _surface_op(scene):
    S, v = scene.manifold, scene.field
    chi = oracle.SHAPES[S.name].chi

    def run():
        return (indices.hypersurface_index(S, COLLAR, v)[0],
                indices.hypersurface_index(S, COLLAR, -v)[0])

    def check(totals):
        if totals != (chi, chi):
            return [f"tangential index sums of v, -v {totals} != chi {chi}"]
        return []

    return Op(f"verify-{scene.name}", run, check, list)


def _complex_op(scene):
    cf = scene.cfield
    comp = oracle.SHAPES[cf.surface.name].boundary[0]
    chi = oracle.SHAPES[cf.surface.name].chi

    def run():
        return complexfield.complex_verdict(cf)

    def check(vd):
        problems = []
        if not vd.decided or vd.chi != chi:
            problems.append(f"undecided or chi {vd.chi} != {chi}")
        grid = oracle.surface_grid(comp, 64, 128)
        q = oracle.square_norm(comp, cf.xi.value(grid), cf.eta.value(grid),
                               grid)
        scale = float(np.median(np.abs(q)))
        if vd.nonvanishing:
            if chi != 0:
                problems.append("nonvanishing square norm with chi != 0")
            if np.min(np.abs(q)) < 1e-3 * scale:
                problems.append(f"certified nonvanishing, but |q| = "
                                f"{np.min(np.abs(q))} on the oracle's grid")
        else:
            w = np.array([vd.witness])
            qw = abs(oracle.square_norm(comp, cf.xi.value(w),
                                        cf.eta.value(w), w)[0])
            if oracle.distance_to_surface(comp, w)[0] > 1e-6:
                problems.append(f"witness {vd.witness} is off the surface")
            if qw > 1e-3 * scale or abs(qw - vd.min_abs) > 1e-9 * scale:
                problems.append(f"|q| at the witness is {qw}, reported "
                                f"{vd.min_abs}")
        if not vd.consistent:
            problems.append("verdict inconsistent with chi")
        return problems

    def describe(vd):
        return [vd.nonvanishing, vd.resolution, vd.chi, vd.witness]

    return Op(f"verify-{scene.name}", run, check, describe)


def _chi_op(scene):
    M = scene.manifold
    chi = oracle.SHAPES[M.name].chi

    def run():
        return euler.chi_voxel(M, 64)

    def check(got):
        return [f"chi_voxel {got} != {chi}"] if got != chi else []

    return Op(f"chi_voxel-{scene.name}", run, check, int)


def _calls(make_op, name, calls=1):
    """calls ops on one scene, each on its own freshly loaded copy of the
    scene so that nothing kept on a scene object is reused."""
    return [make_op(load_checked(name) if k == 0 else load_scene(name))
            for k in range(calls)]


def verify_battery():
    ops = []
    for name in VERIFY_DOMAIN_SCENES:
        ops += _calls(_run_all_op, name)
    for name in REAL_SURFACE_SCENES:
        ops += _calls(_surface_op, name, SHORT_OP_CALLS)
    for name in COMPLEX_SCENES:
        ops += _calls(_complex_op, name, SHORT_OP_CALLS
                      if name in SHORT_COMPLEX_SCENES else 1)
    for name in CATALOG_SCENES:
        ops += _calls(_chi_op, name, SHORT_OP_CALLS)
    return Workload(ops, uses_s2=True)


WORKLOADS = {
    "census3d": lambda: census(lambda i, n: i in CENSUS3D_FIELDS,
                               max(CENSUS3D_FIELDS) + 1),
    "census2d": lambda: census(lambda i, n: n <= 2, CENSUS2D_DRAWS),
    "verify": verify_battery,
}


def build(name):
    """Set up a workload: scenes loaded and checked, fields built, and the
    lazy icosphere cache warmed when S^2 degrees will be taken."""
    wl = WORKLOADS[name]()
    if wl.uses_s2:
        degree._icosphere(ICO_WARM_LEVEL)
    return wl
