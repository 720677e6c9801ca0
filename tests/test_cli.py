import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vfindex
from vfindex import cli
from vfindex.errors import SceneParseError, SchemaError


def run(args):
    return cli.main(args)


def test_catalog_lists_bundled_scenes(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("ball2_constant", "ball3_radial", "interval_plus1",
                 "torus2_complex", "sphere2_real"):
        assert name in out


def test_index_constant_disk(tmp_path, capsys):
    report = tmp_path / "rep.json"
    assert run(["index", "ball2_constant", "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["ind_boundary"] == "1"
    assert d["ind_interior"] == 0
    assert d["ind_total"] == "1"
    assert d["chi"] == 1
    assert d["theorem_holds"] is True


def test_index_interval_half_contributions(tmp_path):
    report = tmp_path / "rep.json"
    assert run(["index", "interval_plus1", "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["ind_boundary"] == "0"
    halves = sorted(z["half_index"] for z in d["zeros"])
    assert halves == ["-1/2", "1/2"]


def test_index_ball3_radial(tmp_path):
    report = tmp_path / "rep.json"
    assert run(["index", "ball3_radial", "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["ind_interior"] == 1
    assert d["ind_boundary"] == "-1"
    assert d["ind_total"] == "0"


def test_index_annulus_rotational_no_zeros(tmp_path):
    report = tmp_path / "rep.json"
    assert run(["index", "annulus_rotational", "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["zeros"] == []


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["index", "ball2_saddle", "--seed", "7", "--out", str(a)])
    run(["index", "ball2_saddle", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_exit_codes(tmp_path):
    assert run(["verify", "ball2_constant",
                "--out", str(tmp_path / "v.json")]) == 0
    assert run(["verify", "torus2_complex",
                "--out", str(tmp_path / "c.json")]) == 0


def test_chi_command(tmp_path):
    report = tmp_path / "chi.json"
    assert run(["chi", "disk2holes_constant", "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["chi"] == -1
    assert d["chi_boundary"] == 0
    assert run(["chi", "ball2_constant", "--voxel",
                "--out", str(report)]) == 0
    assert json.loads(report.read_text())["chi"] == 1


def test_plot_writes_svg(tmp_path):
    out = tmp_path / "plot.svg"
    assert run(["plot", "ball2_saddle", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "circle" in text and "line" in text


def test_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text(json.dumps({
        "name": "bad", "dim": 4,
        "manifold": {"kind": "domain", "g": "x1", "bbox": [[0, 1]]},
        "field": {"kind": "real", "v": ["1"]}}))
    assert run(["index", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_error"
    assert err["detail"]["key"] == "dim"

    with pytest.raises(SchemaError):
        cli.load_scene(str(bad))


def test_parse_errors(tmp_path, capsys):
    assert run(["index", str(tmp_path / "missing.scene")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "scene_parse_error"

    garbled = tmp_path / "garbled.scene"
    garbled.write_text("{not json")
    with pytest.raises(SceneParseError):
        cli.load_scene(str(garbled))


def test_missing_keys_named(tmp_path):
    s = tmp_path / "s.scene"
    s.write_text(json.dumps({"name": "x", "dim": 2}))
    with pytest.raises(SchemaError) as info:
        cli.load_scene(str(s))
    assert info.value.key == "manifold"


@pytest.mark.parametrize("scene, section, key, value", [
    ("torus2_complex", "field", "xi", 5),
    ("ball2_constant", "manifold", "bbox", [["a", 1.5], [-1.5, 1.5]]),
    ("ball2_constant", "manifold", "g", 7),
    ("ball2_constant", "field", "v", [1, 0]),
    ("ball2_constant", "options", "depth", "x"),
    ("ball2_constant", "options", "depth", -1),
    ("ball2_constant", "options", "resolution", "x"),
    ("ball2_constant", "options", "resolution", 2.5),
    ("ball2_constant", "options", "seed", "x"),
    ("ball2_constant", "options", "seed", -1),
    ("ball2_constant", "options", "auto_tame", "yes"),
    ("ball2_constant", "options", "auto_tame", 1),
], ids=["xi", "bbox", "g", "v", "depth", "depth-negative", "resolution",
        "resolution-float", "seed", "seed-negative", "auto_tame",
        "auto_tame-int"])
def test_malformed_scene_values_exit_2(tmp_path, capsys, scene, section,
                                       key, value):
    data = json.loads((Path(vfindex.__file__).parent / "scenes"
                       / f"{scene}.scene").read_text())
    data.setdefault(section, {})[key] = value
    bad = tmp_path / "bad.scene"
    bad.write_text(json.dumps(data))
    assert run(["index", str(bad)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert key in err["message"]


def _with_expression(tmp_path, section, key, text):
    """ball2_saddle's scene with one expression replaced by ``text``."""
    data = json.loads((Path(vfindex.__file__).parent / "scenes"
                       / "ball2_saddle.scene").read_text())
    if key == "v":
        data[section]["v"][0] = text
    else:
        data[section][key] = text
    path = tmp_path / "deep.scene"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("section, key, text", [
    ("manifold", "g", "(" * 250 + "x1^2 + x2^2 - 1" + ")" * 250),
    ("manifold", "g", " + ".join(["0*x1"] * 1000) + " + x1^2 + x2^2 - 1"),
    ("field", "v", "-" * 2000 + "x1"),
], ids=["g-250-parentheses", "g-1001-terms", "v-2000-minus-signs"])
@pytest.mark.parametrize("command", ["index", "verify"])
def test_deeply_nested_expressions_exit_2(tmp_path, capsys, command, section,
                                          key, text):
    """Too deep for the parser, or parsed deeper than expr.MAX_DEPTH: a
    diagnosed syntax error, not a RecursionError."""
    assert run([command, _with_expression(tmp_path, section, key, text)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "syntax_error"
    assert "nested" in err["message"]


@pytest.mark.parametrize("scene, chi", [("sphere2_real", 2),
                                        ("torus2_real", 0)])
def test_index_and_verify_on_real_hypersurfaces(tmp_path, capsys, scene,
                                                chi):
    report = tmp_path / "index.json"
    assert run(["index", scene, "--out", str(report)]) == 0
    d = json.loads(report.read_text())
    assert d["ind_total"] == d["chi"] == chi
    assert d["theorem_holds"] is True
    assert sum(z["tangential_degree"] for z in d["zeros"]) == chi
    report = tmp_path / "verify.json"
    assert run(["verify", scene, "--out", str(report)]) == 0
    assert capsys.readouterr().out == (
        f"PASS tangential zero indices sum to chi: total={chi} chi={chi}\n")
    assert json.loads(report.read_text()) == {
        "scene": scene, "ind_total": chi, "chi": chi, "passed": True}


@pytest.mark.parametrize("flag, value", [
    ("--resolution", "0"), ("--depth", "-1"), ("--seed", "-1"),
])
def test_malformed_option_flags_exit_2(capsys, flag, value):
    """The flags meet the checks of the scene options."""
    assert run(["index", "ball2_constant", flag, value]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "schema_error" and flag in err["message"]


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_quiet(flags):
    """``vfindex catalog | head -1``: the reader goes before the output
    is written, whether that write happens in print or in the last flush."""
    env = dict(os.environ, PYTHONPATH=str(Path(vfindex.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "vfindex.cli", "catalog"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0
