import numpy as np
import pytest

from vfindex.expr import parse
from vfindex.fields import ExpressionField, random_polynomial_field
from vfindex import indices
from vfindex.indices import full_index
from vfindex.manifold import Collar, DomainManifold
from vfindex import verify as vf
from vfindex.zerofind import find_boundary_tangential_zeros

COLLAR = Collar("neg_g")


def disk():
    return DomainManifold(parse("x1^2 + x2^2 - 1", 2), 2, [[-1.5, 1.5]] * 2,
                          "ball_2")


def ball3():
    return DomainManifold(parse("x1^2 + x2^2 + x3^2 - 1", 3), 3,
                          [[-1.5, 1.5]] * 3, "ball_3")


def test_tameness_status():
    M = disk()
    assert vf.tameness_status(M, COLLAR,
                              ExpressionField.parse(["1", "0"])) == "tame"
    assert vf.tameness_status(M, COLLAR,
                              ExpressionField.parse(["x1", "x2"])) == "special"
    assert vf.tameness_status(
        M, COLLAR, ExpressionField.parse(["x1 - 1", "x2"])) == "zero_on_boundary"


def test_make_tame_leaves_tame_fields_alone():
    M = disk()
    v = ExpressionField.parse(["1", "0"])
    out, log = vf.make_tame(M, COLLAR, v)
    assert out is v
    assert log == []


def test_make_tame_repairs_boundary_zero():
    M = disk()
    v = ExpressionField.parse(["x1 - 1", "x2"])
    out, log = vf.make_tame(M, COLLAR, v, seed=1)
    assert log, "a perturbation should have been applied"
    assert vf.tameness_status(M, COLLAR, out) == "tame"
    # the repaired field has the same total index
    rep = full_index(M, COLLAR, out)
    assert rep.theorem_holds


@pytest.fixture
def searches(monkeypatch):
    """The resolution of every boundary search made through verify or
    indices."""
    calls = []

    def counting(M, collar, v, resolution=None, **kwargs):
        calls.append(resolution)
        return find_boundary_tangential_zeros(M, collar, v,
                                              resolution=resolution, **kwargs)

    for mod in (vf, indices):
        monkeypatch.setattr(mod, "find_boundary_tangential_zeros", counting)
    return calls


def test_auto_tame_searches_the_boundary_once(searches):
    rep = full_index(disk(), COLLAR, ExpressionField.parse(["1", "0"]),
                     auto_tame=True)
    assert searches == [None]
    assert str(rep.boundary_index) == "1"


def test_auto_tame_reports_the_census_of_the_tamed_field(searches):
    M = disk()
    v = ExpressionField.parse(["x1 - 1", "x2"])
    rep = full_index(M, COLLAR, v, auto_tame=True, seed=1)
    assert rep.perturbations and rep.theorem_holds
    tamed, log = vf.make_tame(M, COLLAR, v, seed=1)
    assert log == rep.perturbations
    fresh = find_boundary_tangential_zeros(M, COLLAR, tamed)
    assert len(rep.boundary) == len(fresh) > 0
    for b, rec in zip(rep.boundary, fresh):
        assert np.array_equal(b.record.position, rec.position)
        assert b.record.transverse_sign == rec.transverse_sign


def test_auto_tame_keeps_the_special_case(searches):
    v = ExpressionField.parse(["x1", "x2"])
    plain = full_index(disk(), COLLAR, v)
    searches.clear()
    rep = full_index(disk(), COLLAR, v, auto_tame=True)
    assert searches == [None]
    assert rep.special_boundary == plain.special_boundary == "Outward"
    assert rep.boundary_index == plain.boundary_index
    assert rep.perturbations == []


def test_auto_tame_census_uses_the_requested_resolution(searches):
    rep = full_index(disk(), COLLAR, ExpressionField.parse(["1", "0"]),
                     auto_tame=True, resolution=96)
    assert searches == [96]
    assert str(rep.boundary_index) == "1"


def test_collar_blend_preserves_radial_outwardness():
    M = ball3()
    v = ExpressionField.parse(["x1", "x2", "x3"])
    out, log = vf.make_tame(M, COLLAR, v, always_perturb=True)
    assert log
    rep = full_index(M, COLLAR, out)
    assert rep.special_boundary is None
    assert all(b.record.transverse_sign == "Outward" for b in rep.boundary)
    assert str(rep.boundary_index) == "-1"


def test_suspension_lemma_basic():
    for comps, want in [(["x1"], 1), (["0 - x1"], -1),
                        (["x1", "x2"], 1), (["x1", "0 - x2"], -1),
                        (["x1^2 - x2^2", "2*x1*x2"], 2)]:
        a = ExpressionField.parse(comps)
        verdict = vf.suspension_verdict(a)
        assert verdict.passed
        assert verdict.details["deg_b"] == -want


def test_negation_verdict_disk_and_ball():
    for M, v in [(disk(), ExpressionField.parse(["1", "0"])),
                 (ball3(), ExpressionField.parse(["1", "0", "0"]))]:
        verdict, rep, neg = vf.negation_verdict(M, COLLAR, v)
        assert verdict.passed
        s = (-1) ** M.n
        assert neg.interior_index == s * rep.interior_index
        assert neg.boundary_index == s * rep.boundary_index


def test_doubling_verdict():
    verdict, rep = vf.doubling_verdict(disk(), COLLAR,
                                       ExpressionField.parse(["1", "0"]))
    assert verdict.passed
    assert verdict.details["chi_double"] == 2  # double of the disk is a sphere
    verdict, rep = vf.doubling_verdict(ball3(), COLLAR,
                                       ExpressionField.parse(["x1", "x2", "x3"]))
    assert verdict.passed
    assert verdict.details["chi_double"] == 0


def test_collar_independence():
    verdict, reports = vf.collar_independence_verdict(
        disk(), ExpressionField.parse(["1", "0"]))
    assert verdict.passed
    assert reports["neg_g"].boundary_index == reports["scaled"].boundary_index


def test_perturbation_invariance():
    verdict = vf.invariance_verdict(disk(), COLLAR,
                                    ExpressionField.parse(["1", "0"]),
                                    trials=3)
    assert verdict.passed
    assert verdict.details["values"] == ["1", "1", "1"]


def test_invariance_trials_reuse_the_tameness_census(searches):
    vf.invariance_verdict(disk(), COLLAR, ExpressionField.parse(["1", "0"]),
                          trials=3)
    # per trial: the input's status, then the accepted collar blend's census
    assert len(searches) == 6


def test_morse_verdict_random_fields():
    rng = np.random.default_rng(11)
    M = disk()
    done = 0
    for _ in range(6):
        v = random_polynomial_field(rng, 2, 2)
        try:
            verdict, rep = vf.morse_verdict(M, COLLAR, v, seed=3)
        except Exception:
            continue  # non-tame beyond repair for this draw, skip honestly
        assert verdict.passed
        done += 1
    assert done >= 3


def test_verdict_line_format():
    verdict = vf.Verdict("sample check", True, {"value": 3})
    assert verdict.line() == "PASS sample check: value=3"
    assert vf.Verdict("sample check", False).line().startswith("FAIL")
