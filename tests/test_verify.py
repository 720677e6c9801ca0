import numpy as np
import pytest

from vfindex.errors import VfError
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
    out, log, _ = vf._perturb(M, COLLAR, v, vf.tameness_status(M, COLLAR, v))
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


def tamed(M, v, collar=COLLAR, **kwargs):
    return full_index(M, collar, v, auto_tame=True, **kwargs)


def test_negation_verdict_disk_and_ball():
    for M, v in [(disk(), ExpressionField.parse(["1", "0"])),
                 (ball3(), ExpressionField.parse(["1", "0", "0"]))]:
        rep, neg = tamed(M, v), tamed(M, -v)
        verdict = vf.negation_verdict(rep, neg)
        assert verdict.passed
        s = (-1) ** M.n
        assert neg.interior_index == s * rep.interior_index
        assert neg.boundary_index == s * rep.boundary_index


def test_doubling_verdict():
    verdict = vf.doubling_verdict(tamed(disk(),
                                        ExpressionField.parse(["1", "0"])))
    assert verdict.passed
    assert verdict.details["chi_double"] == 2  # double of the disk is a sphere
    # the radial field is the uniform transverse (special) case
    rep = tamed(ball3(), ExpressionField.parse(["x1", "x2", "x3"]))
    assert rep.special_boundary == "Outward"
    verdict = vf.doubling_verdict(rep)
    assert verdict.passed
    assert verdict.details["chi_double"] == 0
    assert verdict.details["doubled_sum"] == "0"


def test_collar_independence():
    v = ExpressionField.parse(["1", "0"])
    reports = {kind: tamed(disk(), v, Collar(kind))
               for kind in ("neg_g", "scaled")}
    verdict = vf.collar_independence_verdict(reports)
    assert verdict.passed
    assert verdict.details == {"neg_g": "1", "scaled": "1", "shape": "ball_2"}


def test_perturbation_invariance():
    verdict = vf.invariance_verdict(disk(), COLLAR,
                                    ExpressionField.parse(["1", "0"]),
                                    trials=3)
    assert verdict.passed
    assert verdict.details["values"] == ["1", "1", "1"]


def test_invariance_trials_reuse_the_tameness_census(searches):
    vf.invariance_verdict(disk(), COLLAR, ExpressionField.parse(["1", "0"]),
                          trials=3)
    # the input's status once, then the accepted collar blend's census per
    # trial
    assert len(searches) == 4


def test_run_all_computes_each_report_once(monkeypatch, searches):
    """3 auto-tamed reports (v, -v, v under the other collar) with one
    interior and one boundary search each, then the invariance trials: one
    tameness check of v and one boundary search per trial, no interior."""
    calls = {"full_index": 0, "interior": 0}

    def counted(mod, name, key):
        orig = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    counted(vf, "full_index", "full_index")
    counted(indices, "find_interior_zeros", "interior")
    verdicts = vf.run_all(disk(), COLLAR, ExpressionField.parse(["1", "0"]))
    assert calls == {"full_index": 3, "interior": 3}
    assert len(searches) == 9
    assert all(vd.passed for vd in verdicts)
    assert [vd.details for vd in verdicts] == [
        {"total": "1", "expected": 1, "interior": 0, "boundary": "1",
         "shape": "ball_2"},
        {"interior": 0, "neg_interior": 0, "boundary": "1",
         "neg_boundary": "1", "n": 2, "shape": "ball_2"},
        {"doubled_sum": "2", "chi_double": 2, "shape": "ball_2"},
        {"neg_g": "1", "scaled": "1", "shape": "ball_2"},
        {"values": ["1"] * 5, "shape": "ball_2"},
        {"morse_minus": 1, "morse_plus": -1, "chi_boundary": 0,
         "interior": 0, "chi": 1, "shape": "ball_2"},
    ]


def test_morse_verdict_random_fields():
    rng = np.random.default_rng(11)
    M = disk()
    done = 0
    for _ in range(6):
        v = random_polynomial_field(rng, 2, 2)
        try:
            # crosscheck off, so that the first identity is tested, not
            # assumed
            rep = full_index(M, COLLAR, v, crosscheck=False, auto_tame=True,
                             seed=3)
        except VfError:
            continue  # non-tame beyond repair for this draw, skip honestly
        assert vf.morse_verdict(rep).passed
        done += 1
    assert done >= 3


def test_verdict_line_format():
    verdict = vf.Verdict("sample check", True, {"value": 3})
    assert verdict.line() == "PASS sample check: value=3"
    assert vf.Verdict("sample check", False).line().startswith("FAIL")
