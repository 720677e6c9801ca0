"""Self-tests of the benchmark: its oracle, its checks and its generator.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads
from layers import LayerTrace
from vfindex import indices
from vfindex.cli import load_scene
from vfindex.errors import VfError
from vfindex.fields import ExpressionField, random_polynomial_field


def _scene_degree(name, shift=None):
    """Oracle degree of the scene's field, or of x - shift on its shape."""
    scene = load_scene(name)
    if shift is None:
        return oracle.interior_degree(scene.manifold.name, scene.field.value)
    return oracle.interior_degree(scene.manifold.name,
                                  lambda x: x - np.asarray(shift))


@pytest.mark.parametrize("name, want", [
    ("ball1_constant", 0), ("ball1_radial", 1), ("interval_plus1", 0),
    ("ball2_constant", 0), ("ball2_radial", 1), ("ball2_saddle", -1),
    ("ball3_constant", 0), ("ball3_radial", 1),
    ("annulus_rotational", 0), ("disk2holes_constant", 0),
    ("solid_torus_constant", 0), ("spherical_shell_constant", 0),
])
def test_oracle_degrees_of_bundled_scenes(name, want):
    assert _scene_degree(name) == want


@pytest.mark.parametrize("name, shift, want", [
    ("annulus_rotational", (2.0, 0.0), 1),
    ("annulus_rotational", (0.0, 0.0), 0),          # zero inside the hole
    ("disk2holes_constant", (0.0, 2.0), 1),
    ("disk2holes_constant", (1.0, 0.0), 0),         # zero inside a hole
    ("solid_torus_constant", (2.0, 0.0, 0.0), 1),
    ("solid_torus_constant", (0.0, 0.0, 0.0), 0),   # zero in the torus hole
    ("spherical_shell_constant", (0.0, 1.5, 0.0), 1),
    ("spherical_shell_constant", (0.0, 0.0, 0.0), 0),
])
def test_oracle_counts_a_shifted_radial_zero_only_inside(name, shift, want):
    assert _scene_degree(name, shift) == want


def _flipped(shape, k):
    s = oracle.SHAPES[shape]
    comps = list(s.boundary)
    comps[k] = dataclasses.replace(comps[k], sign=-comps[k].sign)
    return dataclasses.replace(s, boundary=tuple(comps))


@pytest.mark.parametrize("shape, k, zero", [
    ("annulus", 1, (0.0, 0.0)),
    ("disk_with_2_holes", 2, (-1.0, 0.0)),
    ("solid_torus", 0, (2.0, 0.0, 0.0)),
    ("spherical_shell", 1, (0.0, 0.0, 0.0)),
])
def test_flipped_boundary_orientation_changes_the_degree(monkeypatch, shape,
                                                         k, zero):
    def f(x):
        return x - np.asarray(zero)

    right = oracle.interior_degree(shape, f)
    monkeypatch.setitem(oracle.SHAPES, shape, _flipped(shape, k))
    assert oracle.interior_degree(shape, f) != right


def test_flipped_boundary_orientation_is_rejected(monkeypatch):
    M = load_scene("annulus_rotational").manifold
    v = ExpressionField.parse(["x1", "x2"])
    rep = indices.full_index(M, workloads.COLLAR, v, auto_tame=True)
    right = oracle.interior_degree("annulus", v.value)
    assert workloads.report_problems(rep, "annulus", right) == []
    monkeypatch.setitem(oracle.SHAPES, "annulus", _flipped("annulus", 1))
    wrong = oracle.interior_degree("annulus", v.value)
    assert workloads.report_problems(rep, "annulus", wrong)


def test_planted_wrong_interior_index_is_rejected():
    scene = load_scene("ball2_saddle")
    rep = indices.full_index(scene.manifold, workloads.COLLAR, scene.field)
    want = oracle.interior_degree("ball_2", scene.field.value)
    assert workloads.report_problems(rep, "ball_2", want) == []
    planted = dataclasses.replace(rep, interior_index=rep.interior_index + 1,
                                  interior_indices=[rep.interior_index + 1])
    assert workloads.report_problems(planted, "ball_2", want)
    flipped = dataclasses.replace(rep, morse_minus=rep.morse_plus,
                                  morse_plus=rep.morse_minus)
    assert workloads.report_problems(flipped, "ball_2", want)


def test_generator_is_deterministic_and_matches_criterion_7():
    a = workloads.cubic_fields(24)
    b = workloads.cubic_fields(24)
    assert a == b
    assert workloads.cubic_fields(24, seed=7) != a
    rng = np.random.default_rng(workloads.GEN_SEED)
    for i, name, coeffs in a:
        n = len(coeffs)
        want = random_polynomial_field(rng, n, 3)
        assert str(workloads.field_of(coeffs)) == str(want), i


def test_polynomial_values_match_the_program():
    rng = np.random.default_rng(3)
    for i, name, coeffs in workloads.cubic_fields(8):
        x = rng.normal(size=(50, len(coeffs)))
        got = oracle.polynomial_values(coeffs, x)
        np.testing.assert_allclose(got, workloads.field_of(coeffs).value(x),
                                   rtol=1e-12, atol=1e-12)


def test_known_faults_are_disk_with_2_holes_draws():
    fields = {i: name for i, name, _ in workloads.cubic_fields(200)}
    for i, shape in workloads.KNOWN_FAULTS.items():
        assert workloads._SCENE_SHAPES[fields[i]] == shape


def test_short_verify_operations_are_called_several_times():
    calls = Counter(op.name for op in workloads.verify_battery().ops)
    assert len(calls) == 19
    assert sum(calls.values()) == 71
    for name in ("chi_voxel-ball1_constant", "verify-sphere2_real",
                 "verify-sphere2_complex"):
        assert calls[name] == workloads.SHORT_OP_CALLS
    for name in ("verify-ball3_radial", "verify-disk2holes_constant",
                 "verify-torus2_complex"):
        assert calls[name] == 1


def test_rounds_time_every_call_and_count_failures():
    def fail():
        raise VfError("planted")

    ops = [workloads.Op("a", lambda: 1, None, None)] * 3 \
        + [workloads.Op("b", fail, None, None)]
    op_times, round_times, attempted, failed, outcomes = run.run_rounds(
        ops, seed=1, seconds=0)
    assert (attempted, failed, len(round_times)) == (4, 1, 1)
    assert {k: len(v) for k, v in op_times.items()} == {"a": 3, "b": 1}
    assert round_times[0] == pytest.approx(sum(map(sum, op_times.values())))
    assert outcomes["a"] == (1, None)
    assert isinstance(outcomes["b"][1], VfError)


def test_layer_trace_counts_and_restores():
    scene = load_scene("ball2_saddle")
    original = indices.find_interior_zeros
    with LayerTrace() as trace:
        indices.full_index(scene.manifold, workloads.COLLAR, scene.field)
        trace.end_round()
    assert indices.find_interior_zeros is original
    m = trace.metrics(1)
    assert m["indices.full_index_calls"][0] == 1
    assert m["zerofind.interior_calls"][0] == 1
    assert m["zerofind.boundary_zeros"][0] == 4
    assert m["degree.calls"][0] >= 5
    assert m["indices.degree_calls_per_zero"][0] >= 2
    assert m["expr.jets_points"][0] > 0
    assert m["verify.full_index_per_input"][0] == 1
    bench = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())
    assert {k: u for k, (_, u) in m.items()} == {
        p["name"]: p["unit"] for p in bench["per_layer"]}
