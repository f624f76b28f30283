"""Command line driver.

Every subcommand reads a flat ``key = value`` configuration (file via
``--config``, inline overrides via ``--param key=value``, dedicated flags for
the common knobs), parses each key by the type its record in ``COMMANDS``
declares, and writes its artifacts plus a ``report.json`` into the output
directory.  Artifacts are self-describing: CSV files carry comment headers
with the artifact kind, the generating command, the weight profile, and the
sha256 of the fully resolved configuration, so ``verify`` can re-run the
matching residual oracle on them without any side channel.  All numeric text
uses 17 significant digits in lowercase scientific notation and no artifact
embeds timestamps, so identical configurations produce byte-identical files.

Exit protocol: 0 on success, 1 for validation errors (bad flags, malformed
configs, inputs outside scope), 2 for numerical failures (divergence, residual
above threshold, singular transforms, arithmetic and linear-algebra errors).
Both failure paths, usage errors included, leave a machine readable
``error.json`` next to the other outputs when the directory is writable.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .calabi import (GridSplines, dual_profile, from_lorentz, make_theta,
                     natural_theta, to_lorentz)
from .errors import NumericalError
from .profiles import (ProfileError, WeightProfile, expression_callable,
                       make_builtin, make_custom)
from .solvers import (CATENARY_GRAPH, ProfileCurve, compute_lambda,
                      first_integral_drift, fit_asymptotics, solve_bowl,
                      solve_catenary, solve_catenoid)
from .surfaces import (EUCLIDEAN, FLOAT, LORENTZIAN, GraphPatch,
                       SurfaceMesh, cylinder_patch, extrude_cylinder,
                       fe_residual, grid_from_table, grid_rows, lfe_residual,
                       mean_curvature_residual, open_table, read_table,
                       revolve, rotational_patch, save_obj, save_ply,
                       tilt_cylinder, write_table)
from .weierstrass import (FIELD_RESIDUAL_BOUND, GaussField,
                          bjorling_from_json, gauss_field_from_table,
                          gauss_pde_residual, integrate_representation,
                          load_gauss_field, rotational_gauss_field,
                          save_gauss_field, solve_bjorling)

def _fmt(x) -> str:
    """Canonical numeric text: 17 significant digits, lowercase scientific."""
    return FLOAT % float(x)


# ---------------------------------------------------------------------------
# weight profile spec strings
# ---------------------------------------------------------------------------
#
# One-line grammar shared by config values and artifact headers:
#
#   linear slope=<v>
#   log alpha=<v>
#   series L=<v> b=<v> [c=<v1>,<v2>,...]
#   custom dphi=<expression in z> [domain=<lo>,<hi>] [anchor=<v>]
#          [growth_alpha=<v>] [asymptote=<L>,<b>]
#
# Expressions must not contain whitespace (tokens are space separated).

def _spec_pairs(tokens) -> Dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ProfileError(f"malformed profile token {tok!r} "
                               "(expected key=value)")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def _parse_float_pair(text: str, what: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ProfileError(f"{what} needs two comma separated numbers, "
                           f"got {text!r}")
    return float(parts[0]), float(parts[1])


def profile_from_spec(text: str) -> WeightProfile:
    """Build a weight profile from its one-line spec string."""
    tokens = text.split()
    if not tokens:
        raise ProfileError("empty profile spec")
    kind, kv = tokens[0].lower(), _spec_pairs(tokens[1:])
    if kind == "linear":
        return make_builtin("linear", float(kv.get("slope", "1")))
    if kind == "log":
        return make_builtin("log", float(kv.get("alpha", "1")))
    if kind == "series":
        coeffs = [float(c) for c in kv.get("c", "").split(",") if c]
        return make_builtin("series", float(kv.get("L", "0")),
                            float(kv.get("b", "1")), coeffs)
    if kind == "custom":
        expr = kv.get("dphi")
        if not expr:
            raise ProfileError("custom profile spec needs "
                               "dphi=<expression in z>")
        domain_text = kv.get("domain", "-inf,inf")
        params = {"dphi": expr, "domain_spec": domain_text}
        extra = {}
        for key in ("anchor", "growth_alpha"):
            if key in kv:
                extra[key] = float(kv[key])
                params[f"{key}_spec"] = kv[key]
        if "asymptote" in kv:
            extra["asymptote"] = _parse_float_pair(kv["asymptote"],
                                                   "asymptote")
            params["asymptote_spec"] = kv["asymptote"]
        return make_custom(expression_callable(expr),
                           domain=_parse_float_pair(domain_text, "domain"),
                           params=params, **extra)
    raise ProfileError(f"unknown profile kind {kind!r} "
                       "(expected linear, log, series, or custom)")


def profile_to_spec(profile: WeightProfile) -> str:
    """Serialize a profile back to the spec grammar (builtin kinds and
    expression-backed customs only)."""
    p = profile.params
    if profile.kind == "linear":
        return f"linear slope={_fmt(p['slope'])}"
    if profile.kind == "log":
        return f"log alpha={_fmt(p['alpha'])}"
    if profile.kind == "series":
        spec = f"series L={_fmt(p['L'])} b={_fmt(p['b'])}"
        if p.get("coeffs"):
            spec += " c=" + ",".join(_fmt(c) for c in p["coeffs"])
        return spec
    if profile.kind == "custom" and "dphi" in p:
        spec = f"custom dphi={p['dphi']} domain={p['domain_spec']}"
        for key in ("anchor", "growth_alpha", "asymptote"):
            if f"{key}_spec" in p:
                spec += f" {key}={p[f'{key}_spec']}"
        return spec
    raise ValueError(f"{profile.kind} profile has no spec string; build it "
                     "from one to make artifacts self-describing")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class Key(NamedTuple):
    """One config key of a command: the canonical string it takes when
    nothing sets it (``config_sha256`` hashes the strings), its type (a
    key of ``_PARSERS``) and its domain.  A key whose default is empty is
    optional, and empty text reads as None."""
    default: str
    type: str
    positive: bool = False          # number: above zero
    finite: bool = False            # number, tuple: no NaN or infinity
    minimum: int = 1                # integer: the least value
    limit: Optional[int] = None     # integer: the largest; grid: most nodes
    arity: int = 0                  # tuple: how many numbers
    choices: Tuple[str, ...] = ()   # choice: the words it takes

    def parse(self, key: str, text: str):
        """The typed value of ``text``, checked against the domain."""
        if not text and not self.default:
            return None
        return _PARSERS[self.type](key, self, text)


def _convert(convert: Callable, key: str, text: str, what: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r} needs {what}, got "
                         f"{text!r}") from exc


def _parse_number(key: str, spec: Key, text: str) -> float:
    val = _convert(float, key, text, "a number")
    if spec.positive and not val > 0:
        raise ValueError(f"config key {key!r} must be positive, got {val}")
    if spec.finite and not math.isfinite(val):
        # infinite tol stalls the ODE steps; NaN anchor makes every vertex NaN
        raise ValueError(f"config key {key!r} must be finite")
    return val


def _parse_integer(key: str, spec: Key, text: str) -> int:
    val = _convert(int, key, text, "an integer")
    if val < spec.minimum:
        raise ValueError(f"config key {key!r} must be >= {spec.minimum}, "
                         f"got {val}")
    if val > spec.limit:
        raise ValueError(f"config key {key!r} must be <= {spec.limit}, "
                         f"got {val}")
    return val


def _parse_grid(key: str, spec: Key, text: str) -> Tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must look like NxM, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"grid must hold integers, got {text!r}") from exc
    if n < 3 or m < 3:
        raise ValueError(f"grid needs at least 3 nodes per axis, "
                         f"got {n}x{m}")
    if n * m > spec.limit:
        raise ValueError(f"grid may have at most {spec.limit} nodes, "
                         f"got {n}x{m}")
    return n, m


def _parse_flag(key: str, spec: Key, text: str) -> bool:
    text = text.lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"config key {key!r} needs a boolean, got {text!r}")


def _parse_tuple(key: str, spec: Key, text: str) -> Tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != spec.arity:
        raise ValueError(f"config key {key!r} needs {spec.arity} comma "
                         f"separated numbers, got {text!r}")
    return tuple(_parse_number(key, spec, p) for p in parts)


def _parse_choice(key: str, spec: Key, text: str) -> str:
    if text not in spec.choices:
        raise ValueError(f"{key} must be one of {', '.join(spec.choices)}, "
                         f"got {text!r}")
    return text


_PARSERS: Dict[str, Callable[[str, Key, str], object]] = {
    "number": _parse_number, "integer": _parse_integer, "grid": _parse_grid,
    "weight": lambda key, spec, text: profile_from_spec(text),
    "flag": _parse_flag, "path": lambda key, spec, text: Path(text),
    "tuple": _parse_tuple, "choice": _parse_choice}


class RunConfig:
    """Fully resolved run configuration.

    ``values`` maps every key to its canonical string form, and
    ``cfg[key]`` reads the value its type parsed; the output directory is
    deliberately excluded from the hash so rerunning the same
    configuration into a different directory yields byte-identical
    artifacts.
    """

    def __init__(self, command: str, values: Dict[str, str], out_dir: Path,
                 typed: Optional[Dict[str, object]] = None):
        self.command = command
        self.values = dict(values)
        self.out_dir = Path(out_dir)
        self.typed = dict(typed or {})

    def __getitem__(self, key: str):
        return self.typed[key]

    def sha256(self) -> str:
        lines = [f"command={self.command}"]
        lines += [f"{k}={v}" for k, v in sorted(self.values.items())]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def input_path(self, key: str, what: str) -> Path:
        path = self[key]
        if path is None:
            raise ValueError(f"{self.command} needs {key}=<path to {what}> "
                             "(positional argument, config key, or --param)")
        if not path.exists():
            raise ValueError(f"{key} path {path} does not exist")
        return path


def _parse_config_file(path: Path) -> Dict[str, str]:
    if not path.exists():
        raise ValueError(f"config file {path} does not exist")
    out = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, "
                             f"got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


# the keys a command may own that have a flag of their own
_KEY_FLAGS = {"format": "mesh format", "tol": "tolerance / residual threshold",
              "grid": "grid as NxM where the command samples a rectangle"}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then preset, config file, ``--param``, positional argument
    and flags; every key is parsed by its type before any work is done."""
    command = COMMANDS[args.command]
    values = {key: spec.default for key, spec in command.keys.items()}
    out: Optional[str] = None

    if getattr(args, "preset", None):
        values.update(command.presets[args.preset])

    if args.config:
        file_values = _parse_config_file(Path(args.config))
        out = file_values.pop("out", out)
        values.update(file_values)

    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param needs key=value, got {item!r}")
        key, val = (t.strip() for t in item.split("=", 1))
        if key == "out":
            out = val
        else:
            values[key] = val

    if getattr(args, "input", ""):
        values[command.positional] = args.input
    for key in _KEY_FLAGS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    if args.out:
        out = args.out

    unknown = sorted(set(values) - set(command.keys))
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: "
                         f"{', '.join(unknown)} (allowed: "
                         f"{', '.join(sorted(command.keys))})")
    typed = {key: spec.parse(key, values[key])
             for key, spec in command.keys.items()}
    return RunConfig(args.command, values, Path(out or "out"), typed)


# ---------------------------------------------------------------------------
# artifacts: a handler returns each file as (name, kind, write); its header
# lines are built with the entry, its rows only when ``_finish`` calls
# ``write(path, head)`` with the artifact header every file starts with
# ---------------------------------------------------------------------------

File = Tuple[str, str, Callable[[Path, list], None]]


def _curve_file(curve: ProfileCurve, name: str) -> File:
    initial = " ".join(f"{k}={_fmt(v)}"
                       for k, v in sorted(curve.initial_data.items())
                       if isinstance(v, (int, float)))
    extra = [f"curve_kind = {curve.curve_kind}",
             f"profile = {profile_to_spec(curve.profile)}"]
    if initial:
        extra.append(f"initial = {initial}")
    return name, "profile_curve", lambda path, head: write_table(
        path, head + extra, "s,x,z,theta",
        np.column_stack([curve.s, curve.x, curve.z, curve.theta]))


def _patch_file(patch: GraphPatch, name: str, profile_line: str,
                extra: Sequence[str] = ()) -> File:
    def write(path: Path, head: list) -> None:
        shape, rows = grid_rows(patch.x, patch.y, patch.u)
        write_table(path, [*head, f"signature = {patch.signature}",
                           f"profile = {profile_line}", shape, *extra],
                    "x,y,u", rows)
    return name, "graph_patch", write


def _mesh_files(fmt: str, build: Callable[[], SurfaceMesh], stem: str,
                extra: Sequence[str]) -> list:
    """The files of the mesh ``build()`` makes, which their writer calls:
    a mesh that no check needs is made when it is written, so that one
    such mesh is alive at a time.  A CSV mesh is made for its vertex file
    and dropped after its face file, the next one ``_finish`` writes."""
    if fmt != "csv":
        save = save_obj if fmt == "obj" else save_ply
        return [(f"{stem}.{fmt}", "mesh", lambda path, head: save(
            build(), path, comments=[*head, *extra]))]
    held = []  # the mesh, from its vertex file to its face file

    def vertices(path: Path, head: list) -> None:
        mesh = build()
        held.append(mesh)
        write_table(path, [*head, *extra, f"signature = {EUCLIDEAN}"],
                    "x,y,z,nx,ny,nz", mesh.vertex_blocks())

    return [(f"{stem}.csv", "mesh", vertices),
            (f"{stem}_faces.csv", "mesh_faces", lambda path, head: write_table(
                path, [*head, *extra], "i,j,k", held.pop().face_blocks(),
                cell="%d"))]


def _field_file(field: GaussField) -> File:
    return "field.csv", "gauss_field", lambda path, head: save_gauss_field(
        field, path, comments=head)


def _patch_from_csv(path: Path, table: Tuple[Dict[str, str], str, np.ndarray]
                    ) -> Tuple[GraphPatch, Dict[str, str]]:
    """Graph patch and headers from the table ``read_table(path)`` read."""
    meta, colnames, data = table
    if colnames != "x,y,u":
        raise ValueError(f"{path} is not a graph patch artifact "
                         f"(columns {colnames!r})")
    x, y, (u,) = grid_from_table(path, meta, data)
    signature = meta.get("signature", "")
    if signature not in (EUCLIDEAN, LORENTZIAN):
        raise ValueError(f"{path} lacks a valid signature header")
    return GraphPatch(x, y, u, signature=signature), meta


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _jsonable(value):
    """Canonical strings for floats; exotic objects drop out of dicts."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, np.ndarray):
        if value.size <= 16:
            return [_jsonable(v) for v in value.reshape(-1)]
        return f"array shape {value.shape}"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        pairs = ((str(k), _jsonable(v)) for k, v in sorted(value.items()))
        return {k: v for k, v in pairs if v is not None}
    if isinstance(value, complex):
        return {"re": _fmt(value.real), "im": _fmt(value.imag)}
    return None


def _finish(cfg: RunConfig, files: Sequence[File], report: dict) -> int:
    """The exit path of every command that writes a report, entered after
    the handler's last check: each file under its artifact header, then
    ``report.json`` with every number in canonical text.  Where a writer
    raises, the files written before it, and its own, are removed before
    the error goes on, so that a failed run leaves ``error.json`` alone."""
    head = [f"config_sha256 = {cfg.sha256()}", f"command = {cfg.command}"]
    names = sorted(name for name, _, _ in files)
    written = []
    try:
        for name, kind, write in files:
            written.append(cfg.out_dir / name)
            write(written[-1], [f"artifact = {kind}", *head])
        written.append(cfg.out_dir / "report.json")
        _write_json(written[-1],
                    {"command": cfg.command, "config_sha256": cfg.sha256(),
                     "config": dict(sorted(cfg.values.items())),
                     "artifacts": names, "report": _jsonable(report)})
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise
    print(f"{cfg.command}: wrote {', '.join(names + ['report.json'])} to "
          f"{cfg.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# patch-side weight reconstruction from artifact headers
# ---------------------------------------------------------------------------

def _patch_weight_from_header(meta: Dict[str, str], path: Path
                              ) -> Tuple[WeightProfile, Optional[object]]:
    """Patch-side weight and, for transformed patches, the primitive hint."""
    text = meta.get("profile", "")
    if not text:
        raise ValueError(f"{path} carries no profile header; cannot pick a "
                         "residual oracle for it")
    if text.startswith("dual-of "):
        source = profile_from_spec(text[len("dual-of "):])
        # the primitive that made the patch: "natural" names the closed form
        # with its canonical constant, a number the height it vanishes at
        base = meta.get("theta_base", "natural")
        return dual_profile(source, natural_theta(source) if base == "natural"
                            else make_theta(source, float(base)))
    return profile_from_spec(text), None


def _dual_header(dual: WeightProfile, weight_line: str,
                 base: Optional[float]) -> Tuple[str, list]:
    """Profile line of the dual of the weight ``weight_line`` names and,
    for a ``dual-of`` line, the ``theta_base`` line of the primitive
    (pinned at ``base``) that made it."""
    try:
        return profile_to_spec(dual), []
    except ValueError:
        pass
    if weight_line.startswith("dual-of "):
        # the dual of a dual weight is the source weight the line names
        return weight_line[len("dual-of "):], []
    return f"dual-of {weight_line}", [
        "theta_base = " + ("natural" if base is None else _fmt(base))]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_profile(cfg: RunConfig) -> int:
    prof = cfg["profile"]
    curve = solve_catenary(prof, cfg["u0"], cfg["x_max"], tol=cfg["tol"],
                           n_samples=cfg["n_samples"])
    report = {"curve_kind": curve.curve_kind, "n_samples": curve.n_samples,
              "x_end": curve.x[-1], "u_end": curve.z[-1],
              "first_integral_drift": first_integral_drift(curve, prof),
              "meta": curve.meta}
    return _finish(cfg, [_curve_file(curve, "curve.csv")], report)


def _cmd_lambda(cfg: RunConfig) -> int:
    rep = compute_lambda(cfg["profile"], cfg["u0"])
    return _finish(cfg, [], {"lambda": rep.lambda_u0, "finite": rep.finite,
                             "fitted_constants": rep.fitted_constants,
                             "residual_decay_rate": rep.residual_decay_rate})


def _cmd_bowl(cfg: RunConfig) -> int:
    prof, z0, window = cfg["profile"], cfg["z0"], cfg["r_window"]
    curve = solve_bowl(prof, z0, cfg["s_max"], tol=cfg["tol"],
                       n_samples=cfg["n_samples"])
    _gate("s,x,z,theta", "curve has profile ODE residual",
          _rotational_ode_residual(curve, prof))
    fit = None if window is None else fit_asymptotics(curve, prof, window)
    mesh = revolve(curve, cfg["n_theta"])
    launch = float((curve.theta[1] - curve.theta[0])
                   / (curve.s[1] - curve.s[0]))
    report = {"curve_kind": curve.curve_kind,
              "r_end": curve.x[-1], "u_end": curve.z[-1],
              "launch_slope": launch,
              "launch_slope_predicted": float(prof.dphi(z0)) / 2.0,
              "mesh_mean_curvature_residual": np.nanmax(
                  np.abs(mean_curvature_residual(mesh, prof))),
              "meta": curve.meta}
    if fit is not None:
        report["far_field"] = {
            "omega_plus": fit.lambda_u0,
            "finite": fit.finite,
            "fitted_constants": fit.fitted_constants,
            "residual_decay_rate": fit.residual_decay_rate}
    return _finish(cfg, [_curve_file(curve, "curve.csv"),
                         *_mesh_files(cfg["format"], lambda: mesh, "bowl",
                                      [f"profile = {profile_to_spec(prof)}"])],
                   report)


def _cmd_catenoid(cfg: RunConfig) -> int:
    prof = cfg["profile"]
    right, left = solve_catenoid(prof, cfg["x0"], cfg["z0"], cfg["s_max"],
                                 tol=cfg["tol"], n_samples=cfg["n_samples"])
    files = []
    for side, curve in (("right", right), ("left", left)):
        _gate("s,x,z,theta", f"{side} branch has profile ODE residual",
              _rotational_ode_residual(curve, prof))
        files.append(_curve_file(curve, f"curve_{side}.csv"))
    for side, curve in (("right", right), ("left", left)):
        # no check reads a branch's mesh: its writer revolves it
        files += _mesh_files(
            cfg["format"], lambda curve=curve: revolve(curve, cfg["n_theta"]),
            f"catenoid_{side}", [f"profile = {profile_to_spec(prof)}"])
    # solve_catenoid refuses any crossing of the two branches
    report = {"min_axis_distance": min(right.x.min(), left.x.min()),
              "self_intersections": right.meta["self_intersections"],
              "right_meta": right.meta, "left_meta": left.meta}
    return _finish(cfg, files, report)


def _cmd_tilt(cfg: RunConfig) -> int:
    prof = cfg["profile"]
    curve = solve_catenary(prof, cfg["u0"], cfg["x_max"], tol=cfg["tol"],
                           n_samples=cfg["n_samples"])
    angle, y_half, ny = cfg["angle"], cfg["y_half"], cfg["n_rulings"]
    mesh = tilt_cylinder(curve, angle, y_range=(-y_half, y_half), ny=ny)
    # at angle 0 the tilt is the identity: its mesh is the extruded one
    flat = mesh if angle == 0.0 else extrude_cylinder(
        curve, (-y_half, y_half), ny)
    tilted = np.nanmax(np.abs(mean_curvature_residual(mesh, prof)))
    report = {"angle": angle, "residual_tilted": tilted,
              "residual_flat": tilted if flat is mesh else np.nanmax(
                  np.abs(mean_curvature_residual(flat, prof)))}
    return _finish(cfg, [_curve_file(curve, "curve.csv"),
                         *_mesh_files(cfg["format"], lambda: mesh, "tilted",
                                      [f"profile = {profile_to_spec(prof)}",
                                       f"angle = {_fmt(angle)}"])], report)


# the verification report of a transform, as both calabi commands give it
_TRANSFORM_REPORT = ("residual_max", "gradient_pairing_max", "hh_abs_max",
                     "hh_rel_max", "kk_abs_max", "path_disagreement",
                     "newton_iters")


def _cmd_calabi_l3(cfg: RunConfig) -> int:
    prof, (nx, ny), patch_kind = cfg["profile"], cfg["grid"], cfg["patch"]
    if patch_kind == "reaper":
        curve = solve_catenary(prof, cfg["u0"], cfg["x_max"], tol=cfg["tol"])
        patch = cylinder_patch(curve, cfg["half_x"], cfg["half_y"], nx, ny)
    else:
        curve = solve_bowl(prof, cfg["z0"], cfg["s_max"], tol=cfg["tol"])
        patch = rotational_patch(curve, cfg["halfwidth"], nx, ny)

    spec = profile_to_spec(prof)
    lor, dual = to_lorentz(patch, prof)
    profile_line, pin = _dual_header(dual, spec, lor.meta["theta_base"])
    origin = "origin_hint = " + " ".join(map(_fmt, lor.meta["origin_hint"]))
    report = {"patch": patch_kind,
              "dual_kind": dual.kind,
              "source_shape": [len(patch.x), len(patch.y)],
              "lorentz_shape": [len(lor.x), len(lor.y)],
              **{key: lor.meta[key] for key in _TRANSFORM_REPORT}}
    return _finish(cfg, [_patch_file(patch, "source.csv", spec),
                         _patch_file(lor, "lorentz.csv", profile_line,
                                     [f"source_profile = {spec}", *pin,
                                      origin])], report)


def _cmd_calabi_r3(cfg: RunConfig) -> int:
    in_path = cfg.input_path("input", "Lorentzian patch CSV")
    patch, meta = _patch_from_csv(in_path, read_table(in_path))
    if patch.signature != LORENTZIAN:
        raise ValueError(f"{in_path} is not a Lorentzian patch; "
                         "calabi-to-r3 transforms spacelike graphs back")
    weight, patch.meta["theta_hint"] = _patch_weight_from_header(meta,
                                                                  in_path)
    hint = meta.get("origin_hint", "").split()
    if len(hint) == 2:
        patch.meta["origin_hint"] = (float(hint[0]), float(hint[1]))
    back, back_weight = from_lorentz(patch, weight)
    profile_line, pin = _dual_header(back_weight, meta["profile"],
                                     back.meta["theta_base"])
    report = {"recovered_kind": back_weight.kind,
              "recovered_shape": [len(back.x), len(back.y)],
              **{key: back.meta[key] for key in _TRANSFORM_REPORT}}

    source_path = cfg["source"] or in_path.parent / "source.csv"
    if source_path.exists():
        source_patch, _ = _patch_from_csv(source_path,
                                          read_table(source_path))
        report["source"] = str(source_path)
        report["roundtrip_sup_difference"] = _patch_sup_difference(
            back, source_patch)
    else:
        report["roundtrip_sup_difference"] = ("unavailable "
                                              "(no source artifact found)")
    origin = "origin_hint = " + " ".join(map(_fmt, back.meta["origin_hint"]))
    return _finish(cfg, [_patch_file(back, "roundtrip.csv", profile_line,
                                     [*pin, origin])], report)


def _patch_sup_difference(a: GraphPatch, b: GraphPatch) -> float:
    """Sup of |height difference| over the overlap rectangle, sampled on a
    fixed 101 x 101 lattice through cubic spline interpolants."""
    x_lo = max(a.x[0], b.x[0])
    x_hi = min(a.x[-1], b.x[-1])
    y_lo = max(a.y[0], b.y[0])
    y_hi = min(a.y[-1], b.y[-1])
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError("patches do not overlap; no height comparison")
    xg = np.linspace(x_lo, x_hi, 101)
    yg = np.linspace(y_lo, y_hi, 101)
    diff = None
    for patch, sign in ((a, 1.0), (b, -1.0)):
        spl = GridSplines(patch.x, patch.y, (patch.u,),
                          kx=min(3, len(patch.x) - 1),
                          ky=min(3, len(patch.y) - 1))
        vals = sign * spl.on_grid(xg, yg, ((0, 0, 0),))[0]
        diff = vals if diff is None else diff + vals
    return float(np.max(np.abs(diff)))


# the verification report of a reconstructed surface
_MESH_REPORT = ("path_disagreement", "conformal_defect", "gauss_map_defect",
                "identity_residuals", "mean_curvature_residual")


def _cmd_weierstrass(cfg: RunConfig) -> int:
    base = None if cfg["base"] is None else complex(*cfg["base"])
    from_file = cfg["input"] is not None
    if from_file:
        field = load_gauss_field(cfg.input_path("input", "field CSV"))
    else:
        curve = solve_bowl(cfg["profile"], cfg["z0"], cfg["s_max"])
        n_u, n_v = cfg["grid"]
        field = rotational_gauss_field(
            curve, cfg["k"], (cfg["s_lo"], cfg["s_hi"]), n_u=n_u,
            v_halfwidth=cfg["v_half"], n_v=n_v)

    residual = gauss_pde_residual(field)
    if not from_file:
        # k and the weight are separate keys that must agree (k = 1 for a
        # linear weight, alpha = 2/(k - 1) for log): refuse a built field
        # that verify would reject before integrating it
        _gate("u,v,re_g,im_g",
              f"the rotational field with k = {cfg.values['k']} does not "
              f"solve the field equation of the weight "
              f"'{cfg.values['profile']}' (k must belong to the weight): "
              f"gauss_pde_residual", residual)
    mesh = integrate_representation(field, base=base, anchor=cfg["anchor"])
    files = [] if from_file else [_field_file(field)]
    report = {"k": field.k_param,
              "field_shape": list(field.shape),
              "pde_residual_max": residual,
              **{key: mesh.meta[key] for key in _MESH_REPORT}}
    return _finish(cfg, files + _mesh_files(
        cfg["format"], lambda: mesh, "surface",
        [f"k = {_fmt(field.k_param)}"]), report)


def _cmd_bjorling(cfg: RunConfig) -> int:
    data_path = cfg.input_path("data", "strip data JSON")
    data, k = bjorling_from_json(data_path.read_text(encoding="utf-8"))
    n_u, n_v = cfg["grid"]
    field = solve_bjorling(data, k, cfg["halfwidth"], n_u=n_u, n_v=n_v)
    files = [_field_file(field)]
    report = {"k": k,
              "curve_kind": data.curve_kind,
              "degree": data.degree,
              "certificate": field.meta["certificate"],
              "branch": field.meta["branch"],
              "branch_disagreement": field.meta["branch_disagreement"]}
    if cfg["reconstruct"]:
        mesh = integrate_representation(field)
        files += _mesh_files(cfg["format"], lambda: mesh, "surface",
                             [f"k = {_fmt(k)}"])
        report.update((key, mesh.meta[key]) for key in _MESH_REPORT)
    return _finish(cfg, files, report)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _rotational_ode_residual(curve: ProfileCurve,
                             profile: WeightProfile) -> float:
    """Midpoint finite-difference residual of the rotational profile system
    x' = cos th, z' = sin th, th' = dphi(z) cos th - sin th / x."""
    ds = np.diff(curve.s)
    if np.any(ds <= 0):
        raise ValueError("curve artifact has non-increasing arc length")
    xm = 0.5 * (curve.x[1:] + curve.x[:-1])
    zm = 0.5 * (curve.z[1:] + curve.z[:-1])
    tm = 0.5 * (curve.theta[1:] + curve.theta[:-1])
    r1 = np.diff(curve.x) / ds - np.cos(tm)
    r2 = np.diff(curve.z) / ds - np.sin(tm)
    away = xm > 1e-6
    r3 = (np.diff(curve.theta) / ds
          - (np.asarray(profile.dphi(zm), dtype=float) * np.cos(tm)
             - np.where(away, np.sin(tm) / np.where(away, xm, 1.0), 0.0)))
    r3 = r3[away]
    return float(max(np.max(np.abs(r1)), np.max(np.abs(r2)),
                     np.max(np.abs(r3)) if r3.size else 0.0))


def _gate(columns: str, what: str, residual: float) -> None:
    """The bound ``verify`` applies to the artifact kind ``columns``,
    applied before the artifact is written: what a solver accepts can
    still fail it (a catenoid branch whose axis term is lost in the steps
    of a neck far wider than s_max, a bowl whose series launch is invalid
    for a steep weight, a field whose k belongs to another weight)."""
    bound = _VERIFIED[columns].bound
    if not residual <= bound:
        raise NumericalError(f"{what} {_fmt(residual)} above the verify "
                             f"threshold {_fmt(bound)}")


def _verify_curve(path: Path, meta: Dict[str, str], colnames: str,
                  body: Callable[[], np.ndarray]) -> Dict[str, float]:
    data = body()
    kind = meta.get("curve_kind", "")
    if not kind:
        raise ValueError(f"{path} lacks the curve_kind header")
    profile = profile_from_spec(meta.get("profile", ""))
    curve = ProfileCurve(s=data[:, 0], x=data[:, 1], z=data[:, 2],
                         theta=data[:, 3], curve_kind=kind, profile=profile,
                         initial_data={})
    if kind == CATENARY_GRAPH:
        return {"first_integral_drift": first_integral_drift(curve, profile)}
    return {"ode_residual": _rotational_ode_residual(curve, profile)}


def _verify_patch(path: Path, meta: Dict[str, str], colnames: str,
                  body: Callable[[], np.ndarray]) -> Dict[str, float]:
    patch, _ = _patch_from_csv(path, (meta, colnames, body()))
    weight, _ = _patch_weight_from_header(meta, path)
    residual = (lfe_residual if patch.signature == LORENTZIAN
                else fe_residual)(patch, weight)
    return {"graph_equation_residual": float(np.nanmax(np.abs(residual)))}


def _verify_field(path: Path, meta: Dict[str, str], colnames: str,
                  body: Callable[[], np.ndarray]) -> Dict[str, float]:
    # the table dies once the field holds its values, before the oracle runs
    field = gauss_field_from_table(path, (meta, colnames, body()))
    return {"gauss_pde_residual": gauss_pde_residual(field)}


# the artifact kinds verify judges, by the column line of their table: the
# kind, its check (which parses the body itself and calls its oracle by the
# module's name for it) and the default bound the pre-write gates apply too
_Kind = NamedTuple("_Kind", [("kind", str), ("check", Callable),
                             ("bound", float)])
_VERIFIED = {"s,x,z,theta": _Kind("profile_curve", _verify_curve, 1e-3),
             "x,y,u": _Kind("graph_patch", _verify_patch, 5e-2),
             "u,v,re_g,im_g": _Kind("gauss_field", _verify_field,
                                    FIELD_RESIDUAL_BOUND)}


def _cmd_verify(cfg: RunConfig) -> int:
    path = cfg.input_path("input", "artifact CSV")
    # the column line decides the kind before the body is parsed
    with open_table(path) as (meta, colnames, body):
        if colnames not in _VERIFIED:
            if colnames in ("x,y,z,nx,ny,nz", "i,j,k"):
                raise ValueError(f"{path} is a mesh export; the residual "
                                 "oracles work on curve, patch, and field "
                                 "artifacts")
            raise ValueError(f"{path} has unrecognized columns "
                             f"{colnames!r}")
        kind, check, bound = _VERIFIED[colnames]
        checks = check(path, meta, colnames, body)
    threshold = cfg["tol"] or bound
    max_residual = max(checks.values())
    passed = bool(max_residual <= threshold)
    doc = {"command": cfg.command, "config_sha256": cfg.sha256(),
           "input": str(path), "kind": kind, "checks": checks,
           "max_residual": max_residual, "threshold": threshold,
           "passed": passed}
    _write_json(cfg.out_dir / "verify.json", _jsonable(doc))
    status = "PASS" if passed else "FAIL"
    print(f"verify: {status} (max residual {_fmt(max_residual)} vs "
          f"threshold {_fmt(threshold)})")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# the commands
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    """Everything the driver knows of one command: the parser reads the
    description, the positional key, the flags the keys own and the
    presets; ``_resolve_config`` the keys; ``main`` the handler."""
    description: str
    handler: Callable[[RunConfig], int]
    keys: Dict[str, Key]
    positional: Optional[str] = None  # the key a positional argument sets
    presets: Dict[str, Dict[str, str]] = {}  # name -> values over defaults


def _number(default: str) -> Key:
    return Key(default, "number")


def _positive(default: str) -> Key:
    return Key(default, "number", positive=True)


_WEIGHT = Key("linear slope=1", "weight")
_TOL = Key("1e-10", "number", positive=True, finite=True)
_FORMAT = Key("obj", "choice", choices=("obj", "ply", "csv"))
_PATH = Key("", "path")
_GRID = Key("121x121", "grid", limit=1_000_000)
_N_SAMPLES = Key("801", "integer", minimum=3, limit=20_000)
_N_THETA = Key("129", "integer", minimum=3, limit=2_048)
_EXP_WEIGHT = ("custom dphi=exp(-1/z) domain=0.01,inf growth_alpha=0 "
               "asymptote=0,1")

# Gallery presets are complete parameter sets for the stock examples; each
# belongs to the one command whose record holds it.
COMMANDS: Dict[str, Command] = {
    "profile": Command(
        "solve a planar generating curve and export it as CSV", _cmd_profile,
        {"profile": _WEIGHT, "u0": _number("0"), "x_max": _positive("1"),
         "tol": _TOL, "n_samples": _N_SAMPLES}),
    "lambda": Command(
        "half-width of the maximal catenary interval", _cmd_lambda,
        {"profile": _WEIGHT, "u0": _number("0")}),
    "bowl": Command(
        "rotational graph through the axis, exported as a mesh", _cmd_bowl,
        {"profile": _WEIGHT, "z0": _number("0"), "s_max": _positive("4"),
         "tol": _TOL, "n_samples": _N_SAMPLES._replace(default="1201"),
         "n_theta": _N_THETA, "r_window": Key("", "tuple", arity=2),
         "format": _FORMAT},
        presets={
            "bowl-exp-weight": {"profile": _EXP_WEIGHT, "z0": "1",
                                "s_max": "8"},
            "bowl-quadratic-weight": {
                "profile": "custom dphi=z**2 domain=0,inf growth_alpha=2",
                "z0": "1", "s_max": "8"}}),
    "catenoid": Command(
        "rotational neck solution, both branches", _cmd_catenoid,
        {"profile": _WEIGHT, "x0": _positive("1"), "z0": _number("1"),
         "s_max": _positive("4"), "tol": _TOL,
         "n_samples": _N_SAMPLES._replace(default="1201"),
         "n_theta": _N_THETA, "format": _FORMAT},
        presets={"catenoid-exp-weight": {"profile": _EXP_WEIGHT, "x0": "1",
                                         "z0": "2", "s_max": "6"}}),
    "tilt": Command(
        "tilt an extruded catenary cylinder", _cmd_tilt,
        {"profile": _WEIGHT, "u0": _number("0"), "x_max": _positive("1"),
         "angle": _number("0.7853981633974483"), "y_half": _positive("1"),
         "tol": _TOL, "n_samples": _N_SAMPLES,
         "n_rulings": Key("41", "integer", minimum=3, limit=2_048),
         "format": _FORMAT},
        presets={
            "grim-reaper-cylinder": {
                "profile": "linear slope=1", "angle": "0", "x_max": "1.45",
                "y_half": "2", "n_rulings": "41"},
            "tilted-grim-reaper": {
                "profile": "linear slope=1", "angle": "0.7853981633974483",
                "x_max": "1.45", "y_half": "2", "n_rulings": "41"}}),
    "calabi-to-l3": Command(
        "transform a Euclidean graph patch to its spacelike dual",
        _cmd_calabi_l3,
        {"profile": _WEIGHT,
         "patch": Key("reaper", "choice", choices=("reaper", "bowl")),
         "u0": _number("0"), "x_max": _positive("1.3"),
         "half_x": _positive("1.2"), "half_y": _positive("1.2"),
         "z0": _number("0.5"), "s_max": _positive("6"),
         "halfwidth": _positive("1.0"), "tol": _TOL, "grid": _GRID},
        presets={
            "lorentz-soliton-pair": {
                "profile": "linear slope=1", "patch": "reaper",
                "x_max": "1.3", "half_x": "1.2", "half_y": "1.2",
                "grid": "121x121"},
            "lorentz-winglike-pair": {
                "profile": "linear slope=1", "patch": "bowl", "z0": "0.5",
                "s_max": "6", "halfwidth": "1.0", "grid": "121x121"}}),
    "calabi-to-r3": Command(
        "transform a spacelike patch back to the Euclidean side",
        _cmd_calabi_r3, {"input": _PATH, "source": _PATH},
        positional="input"),
    "weierstrass": Command(
        "integrate a surface from a unit-disk valued field",
        _cmd_weierstrass,
        {"profile": _WEIGHT, "k": _number("1"), "z0": _number("0.5"),
         "s_max": _positive("6"), "s_lo": _number("1"), "s_hi": _number("4"),
         "v_half": _positive("1"), "grid": _GRID._replace(default="161x121"),
         "input": _PATH, "base": Key("", "tuple", finite=True, arity=2),
         "anchor": Key("", "tuple", finite=True, arity=3), "format": _FORMAT},
        positional="input"),
    "bjorling": Command(
        "solve the strip problem from curve and normal data", _cmd_bjorling,
        {"data": _PATH, "halfwidth": _positive("0.5"),
         "grid": _GRID._replace(default="201x201"),
         "reconstruct": Key("true", "flag"), "format": _FORMAT},
        positional="data"),
    "verify": Command(
        "re-run the residual oracle on a saved artifact", _cmd_verify,
        {"input": _PATH, "tol": _TOL._replace(default="")},
        positional="input"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so usage mistakes map to exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _build_parser(command_name: str = "") -> argparse.ArgumentParser:
    """The parser of the command ``command_name`` alone, or of every
    command where it names none (``phimin --help``, a misspelt command)."""
    parser = _Parser(
        prog="phimin",
        description="Weighted minimal surface toolkit: profile ODE solvers, "
                    "surface builders, the Lorentzian correspondence, and "
                    "the complex representation, with residual verification "
                    "for every artifact.",
        epilog="Rendering, remote execution, and result caching are out of "
               "scope.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        if command_name and name != command_name:
            continue
        p = sub.add_parser(name, help=command.description,
                           description=command.description)
        if command.positional:
            p.add_argument("input", nargs="?", default="",
                           help=f"path stored under the "
                                f"{command.positional!r} config key")
        p.add_argument("--config", help="key = value configuration file")
        if command.presets:
            p.add_argument("--preset", choices=sorted(command.presets),
                           help="named parameter set; see README")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory (default: out)")
        for key, text in _KEY_FLAGS.items():
            if key in command.keys:
                spec = command.keys[key]
                p.add_argument(f"--{key}", choices=spec.choices or None,
                               help=f"{text} (default: "
                                    f"{spec.default or 'unset'})")
    return parser


def _argv_out(argv: Sequence[str]) -> Path:
    """The ``--out`` directory of ``argv``, read as the command's parser
    reads it, even where that parser refuses the rest; ``out`` without."""
    parser = _Parser(add_help=False)
    parser.add_argument("--out")
    try:
        return Path(parser.parse_known_args(argv)[0].out or "out")
    except ValueError:
        return Path("out")


def _emit_error(out_dir: Path, command: str, sha: str, err: Exception,
                code: int) -> None:
    doc = {"command": command,
           "config_sha256": sha,
           "error": {"type": type(err).__name__,
                     "message": str(err),
                     "exit_code": code}}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "error.json", doc)
    except OSError:
        pass
    print(f"error: {err}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # read from argv first, so that a usage error keeps the contract too
    command = argv[0] if argv and argv[0] in COMMANDS else ""
    out_guess, sha = _argv_out(argv), ""
    try:
        cfg = _resolve_config(_build_parser(command).parse_args(argv))
        out_guess = cfg.out_dir
        sha = cfg.sha256()
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[cfg.command].handler(cfg)
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as err:
        # ArithmeticError covers overflow, zero division and floating point
        # errors; LinAlgError must map here before its ValueError base does
        _emit_error(out_guess, command, sha, err, 2)
        return 2
    except (ValueError, OSError) as err:
        _emit_error(out_guess, command, sha, err, 1)
        return 1
    except Exception as err:  # an internal fault keeps the contract too
        _emit_error(out_guess, command, sha, err, 2)
        return 2


if __name__ == "__main__":
    sys.exit(main())
