"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test prints its verdict line directly to the terminal (bypassing
pytest's capture) so a full run shows exactly one line per criterion.
Tolerances are pinned in the asserts; index comparisons are exact
(half-integer arithmetic), timing budgets are wall-clock seconds.
"""

import time

import numpy as np
import pytest

from vfindex import euler
from vfindex.cli import load_scene
from vfindex.complexfield import complex_verdict
from vfindex.degree import SphereMap, degree_for, degree_oracle
from vfindex.errors import VfError
from vfindex.fields import ExpressionField, random_polynomial_field
from vfindex.indices import HalfInteger, full_index, hypersurface_index
from vfindex.manifold import Collar
from vfindex.verify import (collar_independence_verdict, invariance_verdict,
                            morse_verdict, negation_verdict,
                            suspension_verdict)

COLLAR = Collar("neg_g")

DOMAIN_SCENES = [
    "ball1_constant", "ball1_radial", "interval_plus1",
    "ball2_constant", "ball2_radial", "ball2_saddle",
    "ball3_constant", "ball3_radial",
    "annulus_rotational", "annulus_suspension",
    "disk2holes_constant",
    "solid_torus_rotational", "solid_torus_constant",
    "spherical_shell_constant",
]
REAL_SURFACE_SCENES = ["sphere2_real", "torus2_real"]
CATALOG_SHAPES = [
    "ball1_constant", "interval_plus1", "ball2_constant",
    "annulus_rotational", "disk2holes_constant", "ball3_constant",
    "solid_torus_rotational", "spherical_shell_constant",
    "sphere2_real", "torus2_real",
]


@pytest.fixture
def say(capsys):
    def emit(line):
        with capsys.disabled():
            print(line, flush=True)
    return emit


def _domain(scene_name):
    return load_scene(scene_name).manifold


def test_criterion_01_constant_field_on_balls(say):
    """ind_b = 0 (n=1,3), 1 (n=2); ind_int = 0; total = chi or 0; < 30 s each."""
    want_boundary = {1: "0", 2: "1", 3: "0"}
    ok = True
    for name in ("ball1_constant", "ball2_constant", "ball3_constant"):
        scene = load_scene(name)
        t0 = time.time()
        rep = full_index(scene.manifold, COLLAR, scene.field)
        elapsed = time.time() - t0
        n = scene.manifold.n
        ok &= rep.interior_index == 0
        ok &= str(rep.boundary_index) == want_boundary[n]
        ok &= rep.theorem_holds and elapsed < 30.0
        assert rep.interior_index == 0
        assert str(rep.boundary_index) == want_boundary[n]
        assert rep.theorem_holds
        assert elapsed < 30.0, f"{name} took {elapsed:.1f} s"
    say(f"{'PASS' if ok else 'FAIL'} criterion 1: constant field on balls, "
        "ind_b exactly 0/1/0 for n=1/2/3")


def test_criterion_02_radial_field_on_balls(say):
    """|x| x: ind_int = 1; ind_b = -1 (n=1,3), 0 (n=2); exact; < 60 s each."""
    want_boundary = {1: "-1", 2: "0", 3: "-1"}
    ok = True
    for name in ("ball1_radial", "ball2_radial", "ball3_radial"):
        scene = load_scene(name)
        t0 = time.time()
        rep = full_index(scene.manifold, COLLAR, scene.field)
        elapsed = time.time() - t0
        n = scene.manifold.n
        ok &= rep.interior_index == 1
        ok &= str(rep.boundary_index) == want_boundary[n]
        ok &= rep.theorem_holds and elapsed < 60.0
        assert rep.interior_index == 1
        assert str(rep.boundary_index) == want_boundary[n]
        assert rep.theorem_holds
        assert elapsed < 60.0, f"{name} took {elapsed:.1f} s"
    say(f"{'PASS' if ok else 'FAIL'} criterion 2: radial field |x| x on "
        "balls, ind_int 1 and ind_b -1/0/-1 exactly")


def test_criterion_03_boundary_sign_rule(say):
    """Per-zero half contributions on the disk and the 3-ball, exactly."""
    rep2 = full_index(_domain("ball2_constant"), COLLAR,
                      ExpressionField.parse(["1", "0"]))
    by_sign2 = {b.record.transverse_sign: b for b in rep2.boundary}
    # inward source: +1/2; outward sink (tangential degree -1): -(-1)/2
    assert str(by_sign2["Inward"].half_index) == "1/2"
    assert by_sign2["Inward"].tangential_degree == 1
    assert str(by_sign2["Outward"].half_index) == "1/2"
    assert by_sign2["Outward"].tangential_degree == -1

    rep3 = full_index(_domain("ball3_constant"), COLLAR,
                      ExpressionField.parse(["1", "0", "0"]))
    by_sign3 = {b.record.transverse_sign: b for b in rep3.boundary}
    assert str(by_sign3["Inward"].half_index) == "1/2"
    assert str(by_sign3["Outward"].half_index) == "-1/2"
    assert by_sign3["Inward"].tangential_degree == 1
    assert by_sign3["Outward"].tangential_degree == 1
    say("PASS criterion 3: boundary sign rule, +-1/2 per zero on disk and "
        "3-ball exactly")


def test_criterion_04_suspension_lemma_sweep(say):
    """20 random fields with a transverse zero at 0: ind flips under
    suspension by -t; 100% exact; < 5 min."""
    t0 = time.time()
    rng = np.random.default_rng(404)
    passes = 0
    for trial in range(20):
        n = 1 + trial % 2
        while True:
            A = rng.normal(size=(n, n))
            if np.linalg.svd(A, compute_uv=False).min() > 0.3:
                break
        coeffs = rng.normal(scale=0.1, size=(n, n, n))

        def a_of(x, A=A, coeffs=coeffs, n=n):
            lin = x @ A.T
            quad = np.einsum("mi,mj,kij->mk", x, x, coeffs)
            return lin + quad

        class F:
            pass

        f = F()
        f.n = n
        f.value = a_of
        verdict = suspension_verdict(f, radius=0.05)
        assert verdict.passed, f"trial {trial}: {verdict.details}"
        assert verdict.details["deg_a"] == int(np.sign(np.linalg.det(A)))
        passes += 1
    elapsed = time.time() - t0
    assert passes == 20
    assert elapsed < 300.0, f"suite took {elapsed:.1f} s"
    say(f"PASS criterion 4: suspension lemma on 20 random transverse zeros, "
        f"20/20 exact in {elapsed:.0f} s")


def test_criterion_05_negation_parity_all_scenes(say):
    """ind(-v) parts are (-1)^n times ind(v) parts on every catalog scene."""
    for name in DOMAIN_SCENES:
        scene = load_scene(name)
        rep, neg = (full_index(scene.manifold, COLLAR, v, auto_tame=True)
                    for v in (scene.field, -scene.field))
        verdict = negation_verdict(rep, neg)
        assert verdict.passed, f"{name}: {verdict.details}"
    # closed surfaces: the index sum of the projected field equals chi for
    # both v and -v (the domain statement has no half-indices here)
    for name in REAL_SURFACE_SCENES:
        scene = load_scene(name)
        chi = euler.chi_for(scene.manifold)
        for v in (scene.field, -scene.field):
            total, _, _ = hypersurface_index(scene.manifold, COLLAR, v)
            assert total == chi, f"{name}: {total} != {chi}"
    say(f"PASS criterion 5: negation parity exact on all {len(DOMAIN_SCENES)}"
        f" domain scenes and both real surface scenes")


def test_criterion_06_morse_identities(say):
    """Both Morse identities on 30 seeded random fields (disk, annulus,
    3-ball), computed with the chi crosscheck disabled."""
    rng = np.random.default_rng(777)
    count = 0
    for shape in ("ball2_constant", "annulus_rotational", "ball3_constant"):
        M = _domain(shape)
        for i in range(10):
            v = random_polynomial_field(rng, M.n, 2)
            rep = full_index(M, COLLAR, v, crosscheck=False, auto_tame=True,
                             seed=i)
            verdict = morse_verdict(rep)
            assert verdict.passed, f"{M.name} draw {i}: {verdict.details}"
            assert rep.morse_minus + rep.morse_plus == rep.chi_boundary
            assert rep.interior_index + rep.morse_minus == rep.chi
            count += 1
    assert count == 30
    say("PASS criterion 6: Morse identities exact on 30/30 seeded random "
        "fields over disk, annulus, 3-ball")


# criterion 7's shape cycle: field i lives on SWEEP_SHAPES[i % 8]
SWEEP_SHAPES = ["ball1_constant", "interval_plus1", "ball2_constant",
                "annulus_rotational", "disk2holes_constant", "ball3_constant",
                "solid_torus_rotational", "spherical_shell_constant"]


def _sweep_fields(count):
    """(i, manifold, field) for criterion 7's first ``count`` seeded
    random degree-<=3 fields."""
    rng = np.random.default_rng(2026)
    for i in range(count):
        M = _domain(SWEEP_SHAPES[i % len(SWEEP_SHAPES)])
        yield i, M, random_polynomial_field(rng, M.n, 3)


def test_criterion_07_theorem_sweep(say):
    """100 seeded random degree-<=3 fields across the catalog, auto-tamed:
    100/100 exact passes, with no diagnosed failure; < 30 min."""
    t0 = time.time()
    passes, diagnosed = 0, []
    for i, M, v in _sweep_fields(100):
        try:
            rep = full_index(M, COLLAR, v, auto_tame=True, seed=i)
            assert rep.theorem_holds, \
                f"field {i} on {M.name}: total {rep.total_index} != " \
                f"{rep.expected_total} with no diagnostic"
            passes += 1
        except VfError as exc:
            diagnosed.append((i, M.name, type(exc).__name__, str(exc)))
    elapsed = time.time() - t0
    assert passes == 100, f"{passes}/100 passed; diagnosed: {diagnosed}"
    assert elapsed < 1800.0, f"sweep took {elapsed:.0f} s"
    say(f"PASS criterion 7: theorem sweep {passes}/100 exact "
        f"({len(diagnosed)} diagnosed failures) in {elapsed:.0f} s")


def test_sweep_boundary_zeros_near_another_circle():
    """Fields 20, 28 and 108 of the sweep each have a boundary zero on
    disk_with_2_holes where a graph chart's degree once read 0, because the
    chart's probes landed on another boundary circle.  Without the chi
    crosscheck, every tangential degree is the sign of the chart Jacobian
    determinant, and the inward and outward degrees sum to chi(boundary)."""
    for i, M, v in _sweep_fields(109):
        if i not in (20, 28, 108):
            continue
        assert M.name == "disk_with_2_holes"
        rep = full_index(M, COLLAR, v, crosscheck=False, auto_tame=True,
                         seed=i)
        for b in rep.boundary:
            assert b.tangential_degree == np.sign(b.record.jacobian_det), \
                f"field {i}: zero at {b.record.position}"
        assert rep.morse_minus + rep.morse_plus == rep.chi_boundary


def test_criterion_08_collar_and_perturbation_invariance(say):
    """Both collars and 5 fresh perturbations agree on ind_b, per scene."""
    for name in DOMAIN_SCENES:
        scene = load_scene(name)
        reports = {kind: full_index(scene.manifold, Collar(kind), scene.field,
                                    auto_tame=True)
                   for kind in ("neg_g", "scaled")}
        verdict = collar_independence_verdict(reports)
        assert verdict.passed, f"{name}: {verdict.details}"
        verdict = invariance_verdict(scene.manifold, COLLAR, scene.field,
                                     trials=5)
        assert verdict.passed, f"{name}: {verdict.details}"
    say(f"PASS criterion 8: collar independence and 5-trial perturbation "
        f"invariance on all {len(DOMAIN_SCENES)} domain scenes")


def test_criterion_09_degree_oracle_equivalence(say):
    """Primary degree algorithm equals the preimage-count oracle on 20
    random nonvanishing maps per sphere dimension."""
    rng = np.random.default_rng(909)

    # S^0: random affine maps, nonvanishing at the two points
    trial = 0
    while trial < 20:
        a, b = rng.normal(size=2)
        if abs(a) < 0.2 or min(abs(b - a), abs(b + a)) < 0.1:
            continue
        m = SphereMap(lambda x, a=a, b=b: a * x + b, np.zeros(1), 1.0)
        assert degree_for(m).degree == degree_oracle(m, seed=trial).degree
        trial += 1

    # S^1: rotations of power maps plus a small nonvanishing perturbation
    for trial in range(20):
        k = int(rng.integers(-3, 4))
        theta = rng.uniform(0, 2 * np.pi)
        eps = rng.uniform(0, 0.3)

        def f(x, k=k, theta=theta, eps=eps):
            z = x[:, 0] + 1j * x[:, 1]
            w = (z ** k if k >= 0 else np.conj(z) ** (-k))
            w = w * np.exp(1j * theta) + eps
            return np.stack([w.real, w.imag], axis=-1)

        m = SphereMap(f, np.zeros(2), 1.0)
        assert degree_for(m).degree == k
        assert degree_oracle(m, seed=trial).degree == k

    # S^2: invertible linear maps composed with suspensions of z^k
    for trial in range(20):
        k = int(rng.integers(-2, 3))
        while True:
            A = rng.normal(size=(3, 3))
            if abs(np.linalg.det(A)) > 0.3:
                break
        want = k * int(np.sign(np.linalg.det(A)))

        def f(x, k=k, A=A):
            z = x[:, 0] + 1j * x[:, 1]
            w = (z ** k if k >= 0 else np.conj(z) ** (-k))
            s = np.stack([w.real, w.imag, x[:, 2]], axis=-1)
            return s @ A.T

        m = SphereMap(f, np.zeros(3), 1.0)
        assert degree_for(m).degree == want
        assert degree_oracle(m, seed=trial, trials=7).degree == want
    say("PASS criterion 9: degree algorithms match the preimage oracle on "
        "20 random maps per sphere dimension")


def test_criterion_10_euler_oracle_consistency(say):
    """chi_voxel equals chi_catalog for every catalog shape at resolution 64."""
    for name in CATALOG_SHAPES:
        M = load_scene(name).manifold
        want = euler.chi_catalog(M.name)
        got = euler.chi_voxel(M, resolution=64)
        assert got == want, f"{M.name}: voxel {got} != catalog {want}"
    say(f"PASS criterion 10: voxel chi equals catalog chi on all "
        f"{len(CATALOG_SHAPES)} catalog shapes at resolution 64")


def test_criterion_11_complex_field_corollary(say):
    """Torus pair certifies nonvanishing with chi = 0; sphere pair yields a
    witness of modulus < 1e-3 within the 3-step refinement schedule."""
    torus = load_scene("torus2_complex")
    vt = complex_verdict(torus.cfield)
    assert vt.decided and vt.nonvanishing
    assert vt.chi == 0 and vt.consistent
    sphere = load_scene("sphere2_complex")
    vs = complex_verdict(sphere.cfield)
    assert vs.decided and not vs.nonvanishing
    assert vs.min_abs < 1e-3
    assert vs.consistent
    say("PASS criterion 11: square-norm corollary, torus certified "
        f"(min |q| {vt.min_abs:.3f} > {vt.threshold:.3f}), sphere witness "
        f"|q| = {vs.min_abs:.1e}")
