"""Command line front end: index, verify, chi, plot, catalog.

Scenes are JSON files describing a domain or closed surface, a defining
function g, a bounding box, and either a real field or a complex pair.  The
subcommands accept a path to a scene file or the name of a bundled scene.

Exit codes: 0 when everything ran and every checked identity held, 1 when
the computation ran but an identity failed, 2 on any error (the error is
printed to stderr as a one-line JSON object).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .complexfield import ComplexField, complex_verdict
from .errors import SceneParseError, SchemaError, VfError
from .euler import chi_boundary_for, chi_for, chi_voxel
from .fields import ExpressionField
from .indices import full_index, hypersurface_index
from .manifold import Collar, DomainManifold, Hypersurface
from .verify import run_all


@dataclass
class Scene:
    name: str
    kind: str  # "domain" or "hypersurface"
    manifold: object
    field: object = None
    cfield: object = None
    options: dict = None
    note: str = ""


def _bundled_names():
    root = resources.files("vfindex") / "scenes"
    return sorted(p.name[:-6] for p in root.iterdir() if p.name.endswith(".scene"))


def _read_scene_text(spec):
    root = resources.files("vfindex") / "scenes"
    bundled = root / (spec + ".scene")
    if bundled.is_file():
        return bundled.read_text()
    try:
        with open(spec) as f:
            return f.read()
    except OSError as exc:
        raise SceneParseError(f"cannot read scene {spec!r}: {exc}")


def _expression_texts(texts, n, key):
    """texts, checked to be a list of n expression strings."""
    if not (isinstance(texts, list) and len(texts) == n
            and all(isinstance(t, str) for t in texts)):
        raise SchemaError(f"{key} must list {n} component expressions",
                          key="field")
    return texts


# options with a fixed type, from a scene or a flag: (check, what the value
# must be)
_OPTION_CHECKS = {
    "seed": (lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    "depth": (lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    "resolution": (lambda x: x is None or (_is_int(x) and x >= 1),
                   "an integer >= 1 or null"),
    "auto_tame": (lambda x: isinstance(x, bool), "true or false"),
}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_option(name, value, where, key):
    if name in _OPTION_CHECKS:
        ok, what = _OPTION_CHECKS[name]
        if not ok(value):
            raise SchemaError(f"{where} must be {what}, got {value!r}",
                              key=key)


def load_scene(spec) -> Scene:
    """Build a Scene from a bundled name or a path to a .scene JSON file."""
    text = _read_scene_text(spec)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"scene {spec!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SceneParseError(f"scene {spec!r} must be a JSON object")
    for key in ("name", "dim", "manifold", "field"):
        if key not in data:
            raise SchemaError(f"scene is missing the key {key!r}", key=key)
    n = data["dim"]
    if n not in (1, 2, 3):
        raise SchemaError(f"dim must be 1, 2 or 3, got {n!r}", key="dim")
    man = data["manifold"]
    for key in ("kind", "g", "bbox"):
        if not isinstance(man, dict) or key not in man:
            raise SchemaError(f"manifold is missing the key {key!r}",
                              key="manifold")
    kind = man["kind"]
    if kind not in ("domain", "hypersurface"):
        raise SchemaError(
            f"manifold.kind must be 'domain' or 'hypersurface', got {kind!r}",
            key="manifold")
    from .expr import parse
    if not isinstance(man["g"], str):
        raise SchemaError("manifold.g must be an expression string",
                          key="manifold")
    g = parse(man["g"], n)
    cls = DomainManifold if kind == "domain" else Hypersurface
    M = cls(g, n, man["bbox"], man.get("shape", ""))
    fd = data["field"]
    if not isinstance(fd, dict) or fd.get("kind") not in ("real", "complex"):
        raise SchemaError("field.kind must be 'real' or 'complex'",
                          key="field")
    field = None
    cfield = None
    if fd["kind"] == "real":
        field = ExpressionField.parse(
            _expression_texts(fd.get("v"), n, "field.v"))
    else:
        if kind != "hypersurface":
            raise SchemaError("complex pairs are only defined on hypersurfaces",
                              key="field")
        pair = [_expression_texts(fd.get(part), n, f"field.{part}")
                for part in ("xi", "eta")]
        cfield = ComplexField(M, *map(ExpressionField.parse, pair))
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options must be an object", key="options")
    for name, value in options.items():
        _check_option(name, value, f"options.{name}", "options")
    return Scene(data["name"], kind, M, field, cfield, options,
                 data.get("note", ""))


def write_report(obj, out=None):
    text = json.dumps(obj, indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as f:
            f.write(text)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _opt(args, scene, name, default):
    """CLI flag if given, else the scene's options entry, else the default.
    A flag is checked here, a scene entry by ``load_scene``."""
    val = getattr(args, name, None)
    if val is not None:
        _check_option(name, val, f"--{name}", name)
        return val
    return (scene.options or {}).get(name, default)


def _report_out(args):
    return args.report or args.out


def _cmd_index(args):
    scene = load_scene(args.scene)
    collar = Collar(_opt(args, scene, "collar", "neg_g"))
    seed = _opt(args, scene, "seed", 0)
    depth = _opt(args, scene, "depth", 9)
    resolution = _opt(args, scene, "resolution", None)
    auto_tame = args.auto_tame or (scene.options or {}).get("auto_tame", False)
    from . import __version__
    if scene.kind == "domain":
        rep = full_index(scene.manifold, collar, scene.field,
                         auto_tame=auto_tame, seed=seed,
                         paranoid=args.paranoid, depth=depth,
                         resolution=resolution)
        out = {"scene": scene.name, "seed": seed, "depth": depth,
               "resolution": resolution, "collar": collar.kind}
        out.update(rep.as_dict())
        out["version"] = __version__
        write_report(out, _report_out(args))
        return 0 if rep.theorem_holds else 1
    if scene.field is None:
        raise SchemaError("the index command needs a real field on the "
                          "hypersurface; use 'verify' for complex pairs",
                          key="field")
    # hypersurface_index raises unless the total is chi of the surface
    total, records, degrees = hypersurface_index(scene.manifold, collar,
                                                 scene.field)
    write_report({
        "scene": scene.name,
        "shape": scene.manifold.name,
        "dim": scene.manifold.n,
        "zeros": [dict(r.as_dict(), tangential_degree=k)
                  for r, k in zip(records, degrees)],
        "ind_total": total,
        "chi": total,
        "theorem_holds": True,
        "version": __version__,
    }, _report_out(args))
    return 0


def _cmd_verify(args):
    scene = load_scene(args.scene)
    collar = Collar(_opt(args, scene, "collar", "neg_g"))
    seed = _opt(args, scene, "seed", 0)
    if scene.cfield is not None:
        v = complex_verdict(scene.cfield)
        print(v.line())
        write_report({
            "scene": scene.name, "kind": "complex",
            "nonvanishing": v.nonvanishing, "min_abs": v.min_abs,
            "threshold": v.threshold, "resolution": v.resolution,
            "witness": v.witness, "chi": v.chi, "consistent": v.consistent,
        }, _report_out(args))
        return 0 if v.consistent else 1
    if scene.kind == "hypersurface":
        # hypersurface_index raises unless the total is chi of the surface
        total, _, _ = hypersurface_index(scene.manifold, collar, scene.field)
        print(f"PASS tangential zero indices sum to chi: "
              f"total={total} chi={total}")
        write_report({"scene": scene.name, "ind_total": total, "chi": total,
                      "passed": True}, _report_out(args))
        return 0
    verdicts = run_all(scene.manifold, collar, scene.field, seed=seed)
    for v in verdicts:
        print(v.line())
    write_report({
        "scene": scene.name,
        "verdicts": [{"name": v.name, "passed": v.passed,
                      "details": {k: str(val) for k, val in v.details.items()}}
                     for v in verdicts],
        "all_passed": all(v.passed for v in verdicts),
    }, _report_out(args))
    return 0 if all(v.passed for v in verdicts) else 1


def _cmd_chi(args):
    scene = load_scene(args.scene)
    M = scene.manifold
    out = {"scene": scene.name, "shape": M.name}
    if args.voxel:
        out["chi"] = chi_voxel(M, args.resolution)
        out["method"] = "voxel"
    else:
        out["chi"] = chi_for(M, args.resolution)
        out["method"] = "catalog-or-voxel"
    if scene.kind == "domain":
        out["chi_boundary"] = chi_boundary_for(M, args.resolution)
    write_report(out, _report_out(args))
    return 0


def _cmd_catalog(args):
    rows = []
    for name in _bundled_names():
        scene = load_scene(name)
        rows.append({
            "scene": name, "kind": scene.kind, "shape": scene.manifold.name,
            "dimension": scene.manifold.n, "chi": chi_for(scene.manifold),
            "note": scene.note,
        })
        print(f"{name:28s} {scene.kind:8s} {scene.manifold.name:18s} "
              f"chi={rows[-1]['chi']:3d}  {scene.note}")
    if args.out:
        write_report(rows, args.out)
    return 0


# --------------------------------------------------------------------------
# SVG plot (2-dimensional domains)
# --------------------------------------------------------------------------

def _marching_squares(g, bbox, res=256):
    """Line segments of {g = 0} over the box, by linear interpolation."""
    xs = np.linspace(bbox[0][0], bbox[0][1], res)
    ys = np.linspace(bbox[1][0], bbox[1][1], res)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    vals = g.values(pts).reshape(res, res)
    segs = []

    def interp(p, q, a, b):
        t = a / (a - b)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    for i in range(res - 1):
        for j in range(res - 1):
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            cv = [vals[i, j], vals[i + 1, j], vals[i + 1, j + 1], vals[i, j + 1]]
            crossings = []
            for k in range(4):
                a, b = cv[k], cv[(k + 1) % 4]
                if (a < 0) != (b < 0):
                    crossings.append(interp(corners[k], corners[(k + 1) % 4], a, b))
            if len(crossings) >= 2:
                segs.append((crossings[0], crossings[1]))
            if len(crossings) == 4:
                segs.append((crossings[2], crossings[3]))
    return segs


def _svg_plot(scene, collar, size=640):
    M = scene.manifold
    if M.n != 2:
        raise VfError("plotting is only implemented for 2-dimensional scenes")
    bbox = M.bbox
    span = max(bbox[0][1] - bbox[0][0], bbox[1][1] - bbox[1][0])

    def to_px(p):
        x = (p[0] - bbox[0][0]) / span * (size - 40) + 20
        y = size - ((p[1] - bbox[1][0]) / span * (size - 40) + 20)
        return x, y

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for a, b in _marching_squares(M.g, bbox):
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                     f'y2="{y2:.1f}" stroke="black" stroke-width="1.5"/>')
    v = scene.field
    if v is not None:
        grid = np.linspace(0.05, 0.95, 24)
        gx, gy = np.meshgrid(bbox[0][0] + grid * (bbox[0][1] - bbox[0][0]),
                             bbox[1][0] + grid * (bbox[1][1] - bbox[1][0]))
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        inside = M.g.values(pts) < 0 if scene.kind == "domain" else \
            np.abs(M.g.values(pts)) < 0.05 * span
        pts = pts[inside]
        vals = v.value(pts)
        norms = np.linalg.norm(vals, axis=-1, keepdims=True)
        unit = vals / np.maximum(norms, 1e-300)
        streak = 0.018 * span
        for p, u in zip(pts, unit):
            (x1, y1) = to_px(p - 0.5 * streak * u)
            (x2, y2) = to_px(p + 0.5 * streak * u)
            parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                         f'y2="{y2:.1f}" stroke="steelblue" stroke-width="1"/>')
            parts.append(f'<circle cx="{x2:.1f}" cy="{y2:.1f}" r="1.6" '
                         'fill="steelblue"/>')
        rep = full_index(M, collar, v, auto_tame=True)
        for z, k in zip(rep.interior_zeros, rep.interior_indices):
            x, y = to_px(z.position)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" '
                         'fill="crimson"/>')
            parts.append(f'<text x="{x + 8:.1f}" y="{y - 8:.1f}" '
                         f'font-size="14">{k}</text>')
        for b in rep.boundary:
            x, y = to_px(b.record.position)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" '
                         'fill="darkorange"/>')
            parts.append(f'<text x="{x + 8:.1f}" y="{y - 8:.1f}" '
                         f'font-size="14">{b.half_index}</text>')
        parts.append(f'<text x="20" y="{size - 6}" font-size="14">'
                     f'{scene.name}: total index {rep.total_index}, '
                     f'chi {rep.chi}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(args):
    scene = load_scene(args.scene)
    svg = _svg_plot(scene, Collar(_opt(args, scene, "collar", "neg_g")))
    out = args.out or (scene.name + ".svg")
    with open(out, "w", newline="\n") as f:
        f.write(svg)
    print(f"wrote {out}")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="vfindex",
        description="Vector field indices on domains and closed surfaces")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, field_opts=True):
        sp.add_argument("scene", help="bundled scene name or path to a .scene file")
        sp.add_argument("--out", "-o", default=None, help="write the JSON report here")
        sp.add_argument("--report", default=None,
                        help="synonym for --out, takes precedence")
        if field_opts:
            sp.add_argument("--collar", choices=("neg_g", "scaled"),
                            default=None)
            sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("index", help="compute all zero indices and the total")
    common(sp)
    sp.add_argument("--depth", type=int, default=None,
                    help="interior subdivision depth per axis")
    sp.add_argument("--resolution", type=int, default=None,
                    help="boundary sampling resolution")
    sp.add_argument("--auto-tame", action="store_true",
                    help="perturb non-tame fields inside the collar")
    sp.add_argument("--paranoid", action="store_true",
                    help="deeper interior search (twice the depth), plus "
                         "denser probes for callable fields")
    sp.set_defaults(fn=_cmd_index)

    sp = sub.add_parser("verify", help="check the index identities for a scene")
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("chi", help="Euler characteristics of the scene shape")
    common(sp, field_opts=False)
    sp.add_argument("--resolution", type=int, default=64)
    sp.add_argument("--voxel", action="store_true",
                    help="force the voxel computation, bypassing the catalog")
    sp.set_defaults(fn=_cmd_chi)

    sp = sub.add_parser("plot", help="SVG picture of a 2-dimensional scene")
    common(sp)
    sp.set_defaults(fn=_cmd_plot)

    sp = sub.add_parser("catalog", help="list the bundled scenes")
    sp.add_argument("--out", "-o", default=None)
    sp.set_defaults(fn=_cmd_catalog)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # a reader that has gone makes this flush fail here, not at exit
        sys.stdout.flush()
        return code
    except VfError as exc:
        sys.stderr.write(json.dumps(exc.as_dict()) + "\n")
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone (``vfindex catalog | head -1``);
        # pointing stdout at devnull keeps the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
