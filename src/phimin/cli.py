"""Command line driver.

Every subcommand reads a flat ``key = value`` configuration (file via
``--config``, inline overrides via ``--param key=value``, dedicated flags for
the common knobs), resolves it against per-command defaults, and writes its
artifacts plus a ``report.json`` into the output directory.  Artifacts are
self-describing: CSV files carry comment headers with the artifact kind, the
generating command, the weight profile, and the sha256 of the fully resolved
configuration, so ``verify`` can re-run the matching residual oracle on them
without any side channel.  All numeric text uses 17 significant digits in
lowercase scientific notation and no artifact embeds timestamps, so identical
configurations produce byte-identical files.

Exit protocol: 0 on success, 1 for validation errors (bad flags, malformed
configs, inputs outside scope), 2 for numerical failures (divergence, residual
above threshold, singular transforms, arithmetic and linear-algebra errors).
Both failure paths leave a machine readable ``error.json`` next to the other
outputs when the directory is writable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .calabi import (dual_profile, from_lorentz, make_theta, natural_theta,
                     to_lorentz)
from .errors import NumericalError
from .profiles import (ProfileError, WeightProfile, expression_callable,
                       make_builtin, make_custom)
from .solvers import (CATENARY_GRAPH, ProfileCurve, compute_lambda,
                      count_self_intersections, first_integral_drift,
                      fit_asymptotics, solve_bowl, solve_catenary,
                      solve_catenoid)
from .surfaces import (EUCLIDEAN, FLOAT, LORENTZIAN, GraphPatch,
                       SurfaceMesh, cylinder_patch, fe_residual,
                       grid_from_table, grid_rows, lfe_residual,
                       mean_curvature_residual, read_table, revolve,
                       rotational_patch, save_obj, save_ply, tilt_cylinder,
                       write_table)
from .weierstrass import (bjorling_from_json, gauss_field_from_table,
                          gauss_pde_residual, integrate_representation,
                          load_gauss_field, reconstruction_residuals,
                          rotational_gauss_field, save_gauss_field,
                          solve_bjorling)

_FORMATS = ("obj", "ply", "csv")


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
        if "anchor" in kv:
            extra["anchor"] = float(kv["anchor"])
            params["anchor_spec"] = kv["anchor"]
        if "growth_alpha" in kv:
            extra["growth_alpha"] = float(kv["growth_alpha"])
            params["growth_alpha_spec"] = kv["growth_alpha"]
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

_COMMON_DEFAULTS = {"format": "obj", "seed": "0"}

_DEFAULTS: Dict[str, Dict[str, str]] = {
    "profile": {"profile": "linear slope=1", "u0": "0", "x_max": "1",
                "tol": "1e-10", "n_samples": "801"},
    "lambda": {"profile": "linear slope=1", "u0": "0", "tol": "1e-10"},
    "bowl": {"profile": "linear slope=1", "z0": "0", "s_max": "4",
             "tol": "1e-10", "n_samples": "1201", "n_theta": "129",
             "r_window": ""},
    "catenoid": {"profile": "linear slope=1", "x0": "1", "z0": "1",
                 "s_max": "4", "tol": "1e-10", "n_samples": "1201",
                 "n_theta": "129"},
    "tilt": {"profile": "linear slope=1", "u0": "0", "x_max": "1",
             "angle": "0.7853981633974483", "y_half": "1", "tol": "1e-10",
             "n_samples": "801", "n_rulings": "41"},
    "calabi-to-l3": {"profile": "linear slope=1", "patch": "reaper",
                     "u0": "0", "x_max": "1.3", "half_x": "1.2",
                     "half_y": "1.2", "z0": "0.5", "s_max": "6",
                     "halfwidth": "1.0", "tol": "1e-10", "path_tol": "",
                     "grid": "121x121"},
    "calabi-to-r3": {"input": "", "source": "", "path_tol": ""},
    "weierstrass": {"profile": "linear slope=1", "k": "1", "z0": "0.5",
                    "s_max": "6", "s_lo": "1", "s_hi": "4", "v_half": "1",
                    "grid": "161x121", "input": "", "base": "", "anchor": "",
                    "path_tol": ""},
    "bjorling": {"data": "", "halfwidth": "0.5", "grid": "201x201",
                 "reconstruct": "true", "tol": "1e-3"},
    "verify": {"input": "", "tol": ""},
}

# Upper bounds on sizes, checked before anything is allocated.
SIZE_LIMITS = {"n_samples": 20_000, "n_theta": 2_048, "n_rulings": 2_048}
GRID_NODES = 1_000_000

# Gallery presets: complete parameter sets for the stock examples.  Each
# belongs to one subcommand; ``--preset`` refuses to cross-apply them.
PRESETS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "grim-reaper-cylinder": ("tilt", {
        "profile": "linear slope=1", "angle": "0", "x_max": "1.45",
        "y_half": "2", "n_rulings": "41"}),
    "tilted-grim-reaper": ("tilt", {
        "profile": "linear slope=1", "angle": "0.7853981633974483",
        "x_max": "1.45", "y_half": "2", "n_rulings": "41"}),
    "bowl-exp-weight": ("bowl", {
        "profile": "custom dphi=exp(-1/z) domain=0.01,inf growth_alpha=0 "
                   "asymptote=0,1",
        "z0": "1", "s_max": "8"}),
    "bowl-quadratic-weight": ("bowl", {
        "profile": "custom dphi=z**2 domain=0,inf growth_alpha=2",
        "z0": "1", "s_max": "8"}),
    "catenoid-exp-weight": ("catenoid", {
        "profile": "custom dphi=exp(-1/z) domain=0.01,inf growth_alpha=0 "
                   "asymptote=0,1",
        "x0": "1", "z0": "2", "s_max": "6"}),
    "lorentz-soliton-pair": ("calabi-to-l3", {
        "profile": "linear slope=1", "patch": "reaper", "x_max": "1.3",
        "half_x": "1.2", "half_y": "1.2", "grid": "121x121"}),
    "lorentz-winglike-pair": ("calabi-to-l3", {
        "profile": "linear slope=1", "patch": "bowl", "z0": "0.5",
        "s_max": "6", "halfwidth": "1.0", "grid": "121x121"}),
}


class RunConfig:
    """Fully resolved run configuration.

    ``values`` maps every key to its canonical string form; the output
    directory is deliberately excluded from the hash so rerunning the same
    configuration into a different directory yields byte-identical artifacts.
    """

    def __init__(self, command: str, values: Dict[str, str], out_dir: Path):
        self.command = command
        self.values = dict(values)
        self.out_dir = Path(out_dir)

    def sha256(self) -> str:
        lines = [f"command={self.command}"]
        lines += [f"{k}={v}" for k, v in sorted(self.values.items())]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    # -- typed getters -----------------------------------------------------

    def text(self, key: str) -> str:
        return self.values.get(key, "")

    def float_(self, key: str, positive: bool = False) -> float:
        try:
            val = float(self.values[key])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"config key {key!r} needs a number, got "
                             f"{self.values.get(key)!r}") from exc
        if positive and not val > 0:
            raise ValueError(f"config key {key!r} must be positive, "
                             f"got {val}")
        return val

    def maybe_float(self, key: str, positive: bool = False
                    ) -> Optional[float]:
        if not self.values.get(key, ""):
            return None
        return self.float_(key, positive=positive)

    def int_(self, key: str, minimum: int = 1) -> int:
        try:
            val = int(self.values[key])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"config key {key!r} needs an integer, got "
                             f"{self.values.get(key)!r}") from exc
        if val < minimum:
            raise ValueError(f"config key {key!r} must be >= {minimum}, "
                             f"got {val}")
        if val > SIZE_LIMITS.get(key, val):
            raise ValueError(f"config key {key!r} must be <= "
                             f"{SIZE_LIMITS[key]}, got {val}")
        return val

    def grid(self) -> Tuple[int, int]:
        text = self.values.get("grid", "")
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
        if n * m > GRID_NODES:
            raise ValueError(f"grid may have at most {GRID_NODES} nodes, "
                             f"got {n}x{m}")
        return n, m

    def tuple_(self, key: str, n: int) -> Optional[Tuple[float, ...]]:
        text = self.values.get(key, "")
        if not text:
            return None
        parts = text.split(",")
        if len(parts) != n:
            raise ValueError(f"config key {key!r} needs {n} comma separated "
                             f"numbers, got {text!r}")
        return tuple(float(p) for p in parts)

    def flag(self, key: str) -> bool:
        text = self.values.get(key, "").lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key!r} needs a boolean, got {text!r}")

    def input_path(self, key: str, what: str) -> Path:
        text = self.values.get(key, "")
        if not text:
            raise ValueError(f"{self.command} needs {key}=<path to {what}> "
                             "(positional argument, config key, or --param)")
        path = Path(text)
        if not path.exists():
            raise ValueError(f"{key} path {path} does not exist")
        return path

    def profile(self) -> WeightProfile:
        return profile_from_spec(self.values["profile"])


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


_POSITIONAL_KEY = {"verify": "input", "calabi-to-r3": "input",
                   "weierstrass": "input", "bjorling": "data"}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    values = dict(_COMMON_DEFAULTS)
    values.update(_DEFAULTS[command])
    out: Optional[str] = None

    if args.preset:
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}; available: "
                             + ", ".join(sorted(PRESETS)))
        preset_command, preset_values = PRESETS[args.preset]
        if preset_command != command:
            raise ValueError(f"preset {args.preset!r} belongs to the "
                             f"{preset_command} command")
        values.update(preset_values)

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

    positional = getattr(args, "input", None)
    if positional:
        values[_POSITIONAL_KEY[command]] = positional

    if args.format:
        values["format"] = args.format
    if args.tol is not None:
        values["tol"] = args.tol
    if args.grid:
        values["grid"] = args.grid
    if args.seed is not None:
        values["seed"] = str(args.seed)
    if args.out:
        out = args.out

    allowed = set(_COMMON_DEFAULTS) | set(_DEFAULTS[command]) | {"tol"}
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: "
                         f"{', '.join(unknown)} (allowed: "
                         f"{', '.join(sorted(allowed))})")

    cfg = RunConfig(command, values, Path(out or "out"))
    if cfg.values["format"] not in _FORMATS:
        raise ValueError(f"format must be one of {', '.join(_FORMATS)}, "
                         f"got {cfg.values['format']!r}")
    cfg.int_("seed", minimum=-(10 ** 18))
    if cfg.values.get("tol", "") and \
            not math.isfinite(cfg.float_("tol", positive=True)):
        # an infinite tolerance stalls the ODE step control
        raise ValueError("config key 'tol' must be finite")
    if "grid" in _DEFAULTS[command]:
        cfg.grid()
    for key in sorted(SIZE_LIMITS.keys() & values.keys()):
        cfg.int_(key)
    if "profile" in values:
        cfg.profile()
    return cfg


# ---------------------------------------------------------------------------
# artifact writing and reading
# ---------------------------------------------------------------------------

def _artifact_comments(cfg: RunConfig, kind: str,
                       extra: Sequence[str] = ()) -> list:
    lines = [f"artifact = {kind}",
             f"config_sha256 = {cfg.sha256()}",
             f"command = {cfg.command}"]
    lines.extend(extra)
    return lines


def _write_curve_csv(cfg: RunConfig, curve: ProfileCurve, name: str) -> str:
    initial = " ".join(f"{k}={_fmt(v)}"
                       for k, v in sorted(curve.initial_data.items())
                       if isinstance(v, (int, float)))
    extra = [f"curve_kind = {curve.curve_kind}",
             f"profile = {profile_to_spec(curve.profile)}"]
    if initial:
        extra.append(f"initial = {initial}")
    data = np.column_stack([curve.s, curve.x, curve.z, curve.theta])
    write_table(cfg.out_dir / name,
                _artifact_comments(cfg, "profile_curve", extra),
                "s,x,z,theta", data)
    return name


def _write_patch_csv(cfg: RunConfig, patch: GraphPatch, name: str,
                     profile_line: str, extra: Sequence[str] = ()) -> str:
    shape, rows = grid_rows(patch.x, patch.y, patch.u)
    comments = [f"signature = {patch.signature}",
                f"profile = {profile_line}", shape, *extra]
    write_table(cfg.out_dir / name,
                _artifact_comments(cfg, "graph_patch", comments), "x,y,u",
                rows)
    return name


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


def _write_mesh(cfg: RunConfig, mesh: SurfaceMesh, stem: str,
                extra: Sequence[str] = ()) -> list:
    comments = _artifact_comments(cfg, "mesh", extra)
    fmt = cfg.values["format"]
    if fmt == "obj":
        save_obj(mesh, cfg.out_dir / f"{stem}.obj", comments=comments)
        return [f"{stem}.obj"]
    if fmt == "ply":
        save_ply(mesh, cfg.out_dir / f"{stem}.ply", comments=comments)
        return [f"{stem}.ply"]
    write_table(cfg.out_dir / f"{stem}.csv",
                comments + [f"signature = {mesh.signature}"],
                "x,y,z,nx,ny,nz", np.hstack([mesh.vertices, mesh.normals]))
    write_table(cfg.out_dir / f"{stem}_faces.csv",
                _artifact_comments(cfg, "mesh_faces", extra), "i,j,k",
                mesh.faces, cell="%d")
    return [f"{stem}.csv", f"{stem}_faces.csv"]


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _jsonable(value):
    """Reports hold canonical strings for floats and drop exotic objects."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        if value.size <= 16:
            return [_jsonable(v) for v in value.reshape(-1)]
        return f"array shape {value.shape}"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, complex):
        return {"re": _fmt(value.real), "im": _fmt(value.imag)}
    return None


def _meta_report(meta: dict) -> dict:
    out = {}
    for key, value in meta.items():
        converted = _jsonable(value)
        if converted is not None:
            out[key] = converted
    return out


def _finish(cfg: RunConfig, artifacts: list, report: dict) -> None:
    doc = {"command": cfg.command,
           "config_sha256": cfg.sha256(),
           "config": dict(sorted(cfg.values.items())),
           "artifacts": sorted(artifacts),
           "report": report}
    _write_json(cfg.out_dir / "report.json", doc)
    artifacts = sorted(artifacts) + ["report.json"]
    print(f"{cfg.command}: wrote {', '.join(artifacts)} to {cfg.out_dir}")


# ---------------------------------------------------------------------------
# patch-side weight reconstruction from artifact headers
# ---------------------------------------------------------------------------

def _patch_weight_from_header(meta: Dict[str, str], path: Path
                              ) -> Tuple[WeightProfile, Optional[object]]:
    """Patch-side weight and, for transformed patches, the primitive hint."""
    text = meta.get("profile", "")
    if not text or text == "unserialized":
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_profile(cfg: RunConfig) -> int:
    prof = cfg.profile()
    curve = solve_catenary(prof, cfg.float_("u0"),
                           cfg.float_("x_max", positive=True),
                           tol=cfg.float_("tol", positive=True),
                           n_samples=cfg.int_("n_samples", minimum=3))
    artifacts = [_write_curve_csv(cfg, curve, "curve.csv")]
    report = {"curve_kind": curve.curve_kind,
              "n_samples": curve.n_samples,
              "x_end": _fmt(curve.x[-1]),
              "u_end": _fmt(curve.z[-1]),
              "first_integral_drift": _fmt(first_integral_drift(curve, prof)),
              "meta": _meta_report(curve.meta)}
    _finish(cfg, artifacts, report)
    return 0


def _cmd_lambda(cfg: RunConfig) -> int:
    rep = compute_lambda(cfg.profile(), cfg.float_("u0"),
                         tol=cfg.float_("tol", positive=True))
    report = {"lambda": _fmt(rep.lambda_u0),
              "finite": rep.finite,
              "fitted_constants": _meta_report(rep.fitted_constants),
              "residual_decay_rate": _fmt(rep.residual_decay_rate)}
    _finish(cfg, [], report)
    return 0


def _cmd_bowl(cfg: RunConfig) -> int:
    prof = cfg.profile()
    z0 = cfg.float_("z0")
    curve = solve_bowl(prof, z0, cfg.float_("s_max", positive=True),
                       tol=cfg.float_("tol", positive=True),
                       n_samples=cfg.int_("n_samples", minimum=3))
    mesh = revolve(curve, cfg.int_("n_theta", minimum=3))
    artifacts = [_write_curve_csv(cfg, curve, "curve.csv")]
    artifacts += _write_mesh(cfg, mesh, "bowl",
                             [f"profile = {profile_to_spec(prof)}"])
    launch = float((curve.theta[1] - curve.theta[0])
                   / (curve.s[1] - curve.s[0]))
    report = {"curve_kind": curve.curve_kind,
              "r_end": _fmt(curve.x[-1]),
              "u_end": _fmt(curve.z[-1]),
              "launch_slope": _fmt(launch),
              "launch_slope_predicted": _fmt(float(prof.dphi(z0)) / 2.0),
              "mesh_mean_curvature_residual": _fmt(
                  np.nanmax(np.abs(mean_curvature_residual(mesh, prof)))),
              "meta": _meta_report(curve.meta)}
    window = cfg.tuple_("r_window", 2)
    if window is not None:
        fit = fit_asymptotics(curve, prof, window)
        report["far_field"] = {
            "omega_plus": _fmt(fit.lambda_u0),
            "finite": fit.finite,
            "fitted_constants": _meta_report(fit.fitted_constants),
            "residual_decay_rate": _fmt(fit.residual_decay_rate)}
    _finish(cfg, artifacts, report)
    return 0


def _cmd_catenoid(cfg: RunConfig) -> int:
    prof = cfg.profile()
    right, left = solve_catenoid(prof, cfg.float_("x0", positive=True),
                                 cfg.float_("z0"),
                                 cfg.float_("s_max", positive=True),
                                 tol=cfg.float_("tol", positive=True),
                                 n_samples=cfg.int_("n_samples", minimum=3))
    # the check verify makes of each written curve: a branch whose axis term
    # is lost in the steps (necks far wider than s_max) passes the solver
    threshold = _VERIFY_DEFAULT_THRESHOLD["profile_curve"]
    for side, curve in (("right", right), ("left", left)):
        residual = _rotational_ode_residual(curve, prof)
        if not residual <= threshold:
            raise NumericalError(
                f"{side} branch has profile ODE residual {_fmt(residual)} "
                f"above the verify threshold {_fmt(threshold)}")
    n_theta = cfg.int_("n_theta", minimum=3)
    artifacts = [_write_curve_csv(cfg, right, "curve_right.csv"),
                 _write_curve_csv(cfg, left, "curve_left.csv")]
    spec_line = [f"profile = {profile_to_spec(prof)}"]
    artifacts += _write_mesh(cfg, revolve(right, n_theta), "catenoid_right",
                             spec_line)
    artifacts += _write_mesh(cfg, revolve(left, n_theta), "catenoid_left",
                             spec_line)
    points = np.column_stack([
        np.concatenate([left.x[::-1], right.x]),
        np.concatenate([left.z[::-1], right.z])])
    report = {"min_axis_distance": _fmt(min(right.x.min(), left.x.min())),
              "self_intersections": count_self_intersections(points),
              "right_meta": _meta_report(right.meta),
              "left_meta": _meta_report(left.meta)}
    _finish(cfg, artifacts, report)
    return 0


def _cmd_tilt(cfg: RunConfig) -> int:
    prof = cfg.profile()
    curve = solve_catenary(prof, cfg.float_("u0"),
                           cfg.float_("x_max", positive=True),
                           tol=cfg.float_("tol", positive=True),
                           n_samples=cfg.int_("n_samples", minimum=3))
    angle = cfg.float_("angle")
    y_half = cfg.float_("y_half", positive=True)
    ny = cfg.int_("n_rulings", minimum=2)
    mesh = tilt_cylinder(curve, angle, y_range=(-y_half, y_half), ny=ny)
    flat = tilt_cylinder(curve, 0.0, y_range=(-y_half, y_half), ny=ny)
    artifacts = [_write_curve_csv(cfg, curve, "curve.csv")]
    artifacts += _write_mesh(cfg, mesh, "tilted",
                             [f"profile = {profile_to_spec(prof)}",
                              f"angle = {_fmt(angle)}"])
    report = {"angle": _fmt(angle),
              "residual_tilted": _fmt(
                  np.nanmax(np.abs(mean_curvature_residual(mesh, prof)))),
              "residual_flat": _fmt(
                  np.nanmax(np.abs(mean_curvature_residual(flat, prof))))}
    _finish(cfg, artifacts, report)
    return 0


# the verification report of a transform, as both calabi commands give it
_TRANSFORM_REPORT = ("residual_max", "gradient_pairing_max", "hh_abs_max",
                     "hh_rel_max", "kk_abs_max", "path_disagreement",
                     "newton_iters")


def _cmd_calabi_l3(cfg: RunConfig) -> int:
    prof = cfg.profile()
    nx, ny = cfg.grid()
    tol = cfg.float_("tol", positive=True)
    patch_kind = cfg.text("patch")
    if patch_kind == "reaper":
        curve = solve_catenary(prof, cfg.float_("u0"),
                               cfg.float_("x_max", positive=True), tol=tol)
        patch = cylinder_patch(curve, cfg.float_("half_x", positive=True),
                               cfg.float_("half_y", positive=True), nx, ny)
    elif patch_kind == "bowl":
        curve = solve_bowl(prof, cfg.float_("z0"),
                           cfg.float_("s_max", positive=True), tol=tol)
        patch = rotational_patch(curve, cfg.float_("halfwidth",
                                                   positive=True), nx, ny)
    else:
        raise ValueError(f"patch must be reaper or bowl, got {patch_kind!r}")

    spec = profile_to_spec(prof)
    artifacts = [_write_patch_csv(cfg, patch, "source.csv", spec)]
    lor, dual = to_lorentz(patch, prof, tol=cfg.maybe_float("path_tol",
                                                            positive=True))
    try:
        profile_line = profile_to_spec(dual)
    except ValueError:
        profile_line = f"dual-of {spec}"
    extra = [f"source_profile = {spec}"]
    if profile_line.startswith("dual-of "):
        base = lor.meta["theta_base"]
        extra.append("theta_base = "
                     + ("natural" if base is None else _fmt(base)))
    extra.append("origin_hint = "
                 + " ".join(map(_fmt, lor.meta["origin_hint"])))
    artifacts.append(_write_patch_csv(cfg, lor, "lorentz.csv",
                                      profile_line, extra))
    report = {"patch": patch_kind,
              "dual_kind": dual.kind,
              "source_shape": [len(patch.x), len(patch.y)],
              "lorentz_shape": [len(lor.x), len(lor.y)],
              **{key: _jsonable(lor.meta[key]) for key in _TRANSFORM_REPORT}}
    _finish(cfg, artifacts, report)
    return 0


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
    back, back_weight = from_lorentz(patch, weight,
                                     tol=cfg.maybe_float("path_tol",
                                                         positive=True))
    try:
        profile_line = profile_to_spec(back_weight)
    except ValueError:
        # the dual of a dual weight is the source weight the header names
        source = meta["profile"]
        profile_line = (source[len("dual-of "):]
                        if source.startswith("dual-of ") else "unserialized")
    origin = "origin_hint = " + " ".join(map(_fmt, back.meta["origin_hint"]))
    artifacts = [_write_patch_csv(cfg, back, "roundtrip.csv",
                                  profile_line, [origin])]
    report = {"recovered_kind": back_weight.kind,
              "recovered_shape": [len(back.x), len(back.y)],
              **{key: _jsonable(back.meta[key]) for key in _TRANSFORM_REPORT}}

    source_text = cfg.text("source")
    source_path = (Path(source_text) if source_text
                   else in_path.parent / "source.csv")
    if source_path.exists():
        source_patch, _ = _patch_from_csv(source_path,
                                          read_table(source_path))
        report["source"] = str(source_path)
        report["roundtrip_sup_difference"] = _fmt(
            _patch_sup_difference(back, source_patch))
    else:
        report["roundtrip_sup_difference"] = ("unavailable "
                                              "(no source artifact found)")
    _finish(cfg, artifacts, report)
    return 0


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
        spl = RectBivariateSpline(patch.x, patch.y, patch.u,
                                  kx=min(3, len(patch.x) - 1),
                                  ky=min(3, len(patch.y) - 1))
        vals = sign * spl(xg, yg)
        diff = vals if diff is None else diff + vals
    return float(np.max(np.abs(diff)))


# the verification report of a reconstructed surface
_MESH_REPORT = ("path_disagreement", "conformal_defect", "gauss_map_defect",
                "mean_curvature_residual")


def _cmd_weierstrass(cfg: RunConfig) -> int:
    artifacts = []
    input_text = cfg.text("input")
    if input_text:
        field = load_gauss_field(cfg.input_path("input", "field CSV"))
    else:
        prof = cfg.profile()
        curve = solve_bowl(prof, cfg.float_("z0"),
                           cfg.float_("s_max", positive=True))
        n_u, n_v = cfg.grid()
        field = rotational_gauss_field(
            curve, cfg.float_("k"),
            (cfg.float_("s_lo"), cfg.float_("s_hi")),
            n_u=n_u, v_halfwidth=cfg.float_("v_half", positive=True),
            n_v=n_v)
        save_gauss_field(field, cfg.out_dir / "field.csv",
                         comments=_artifact_comments(cfg, "gauss_field"))
        artifacts.append("field.csv")

    residual = np.nanmax(np.abs(gauss_pde_residual(field)))
    base = cfg.tuple_("base", 2)
    base = None if base is None else complex(*base)
    anchor = cfg.tuple_("anchor", 3)
    mesh = integrate_representation(
        field, base=base, anchor=anchor,
        path_tol=cfg.maybe_float("tol", positive=True))
    artifacts += _write_mesh(cfg, mesh, "surface",
                             [f"k = {_fmt(field.k_param)}"])
    identities = reconstruction_residuals(mesh)
    report = {"k": _fmt(field.k_param),
              "field_shape": list(field.shape),
              "pde_residual_max": _fmt(residual),
              "identity_residuals": {
                  key: _fmt(np.nanmax(np.abs(val)))
                  for key, val in sorted(identities.items())},
              **{key: _jsonable(mesh.meta[key]) for key in _MESH_REPORT}}
    _finish(cfg, artifacts, report)
    return 0


def _cmd_bjorling(cfg: RunConfig) -> int:
    data_path = cfg.input_path("data", "strip data JSON")
    data, k = bjorling_from_json(data_path.read_text(encoding="utf-8"))
    n_u, n_v = cfg.grid()
    field = solve_bjorling(data, k, cfg.float_("halfwidth", positive=True),
                           n_u=n_u, n_v=n_v,
                           residual_tol=cfg.float_("tol", positive=True))
    save_gauss_field(field, cfg.out_dir / "field.csv",
                     comments=_artifact_comments(cfg, "gauss_field"))
    artifacts = ["field.csv"]
    report = {"k": _fmt(k),
              "curve_kind": data.curve_kind,
              "degree": data.degree,
              "certificate": _fmt(field.meta["certificate"]),
              "branch": field.meta["branch"],
              "branch_disagreement": _fmt(field.meta["branch_disagreement"])}
    if cfg.flag("reconstruct"):
        mesh = integrate_representation(field)
        artifacts += _write_mesh(cfg, mesh, "surface",
                                 [f"k = {_fmt(k)}"])
        report.update((key, _jsonable(mesh.meta[key]))
                      for key in _MESH_REPORT)
    _finish(cfg, artifacts, report)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_DEFAULT_THRESHOLD = {"profile_curve": 1e-3, "graph_patch": 5e-2,
                             "gauss_field": 1e-3}


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


def _verify_curve(meta: Dict[str, str], data: np.ndarray,
                  path: Path) -> Dict[str, float]:
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


def _verify_patch(table: Tuple[Dict[str, str], str, np.ndarray],
                  path: Path) -> Dict[str, float]:
    patch, meta = _patch_from_csv(path, table)
    weight, _ = _patch_weight_from_header(meta, path)
    residual = (lfe_residual if patch.signature == LORENTZIAN
                else fe_residual)(patch, weight)
    return {"graph_equation_residual": float(np.nanmax(np.abs(residual)))}


def _cmd_verify(cfg: RunConfig) -> int:
    path = cfg.input_path("input", "artifact CSV")
    meta, colnames, data = read_table(path)
    if colnames == "s,x,z,theta":
        kind = "profile_curve"
        checks = _verify_curve(meta, data, path)
    elif colnames == "x,y,u":
        kind = "graph_patch"
        checks = _verify_patch((meta, colnames, data), path)
    elif colnames == "u,v,re_g,im_g":
        kind = "gauss_field"
        field = gauss_field_from_table(path, (meta, colnames, data))
        checks = {"gauss_pde_residual":
                  float(np.nanmax(np.abs(gauss_pde_residual(field))))}
    elif colnames in ("x,y,z,nx,ny,nz", "i,j,k"):
        raise ValueError(f"{path} is a mesh export; the residual oracles "
                         "work on curve, patch, and field artifacts")
    else:
        raise ValueError(f"{path} has unrecognized columns {colnames!r}")

    threshold = cfg.maybe_float("tol", positive=True)
    if threshold is None:
        threshold = _VERIFY_DEFAULT_THRESHOLD[kind]
    max_residual = max(checks.values())
    passed = bool(max_residual <= threshold)
    doc = {"command": cfg.command,
           "config_sha256": cfg.sha256(),
           "input": str(path),
           "kind": kind,
           "checks": {k: _fmt(v) for k, v in sorted(checks.items())},
           "max_residual": _fmt(max_residual),
           "threshold": _fmt(threshold),
           "passed": passed}
    _write_json(cfg.out_dir / "verify.json", doc)
    status = "PASS" if passed else "FAIL"
    print(f"verify: {status} (max residual {_fmt(max_residual)} vs "
          f"threshold {_fmt(threshold)})")
    return 0 if passed else 2


_HANDLERS = {
    "profile": _cmd_profile,
    "lambda": _cmd_lambda,
    "bowl": _cmd_bowl,
    "catenoid": _cmd_catenoid,
    "tilt": _cmd_tilt,
    "calabi-to-l3": _cmd_calabi_l3,
    "calabi-to-r3": _cmd_calabi_r3,
    "weierstrass": _cmd_weierstrass,
    "bjorling": _cmd_bjorling,
    "verify": _cmd_verify,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so usage mistakes map to exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phimin",
        description="Weighted minimal surface toolkit: profile ODE solvers, "
                    "surface builders, the Lorentzian correspondence, and "
                    "the complex representation, with residual verification "
                    "for every artifact.",
        epilog="Rendering, remote execution, and result caching are out of "
               "scope.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "profile": "solve a planar generating curve and export it as CSV",
        "lambda": "half-width of the maximal catenary interval",
        "bowl": "rotational graph through the axis, exported as a mesh",
        "catenoid": "rotational neck solution, both branches",
        "tilt": "tilt an extruded catenary cylinder",
        "calabi-to-l3": "transform a Euclidean graph patch to its spacelike "
                        "dual",
        "calabi-to-r3": "transform a spacelike patch back to the Euclidean "
                        "side",
        "weierstrass": "integrate a surface from a unit-disk valued field",
        "bjorling": "solve the strip problem from curve and normal data",
        "verify": "re-run the residual oracle on a saved artifact",
    }
    for name, text in descriptions.items():
        p = sub.add_parser(name, help=text, description=text)
        if name in _POSITIONAL_KEY:
            p.add_argument("input", nargs="?", default="",
                           help=f"path stored under the "
                                f"{_POSITIONAL_KEY[name]!r} config key")
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--preset", help="named parameter set; see README")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--format", choices=_FORMATS,
                       help="mesh format (default: obj)")
        p.add_argument("--tol", help="tolerance / residual threshold")
        p.add_argument("--grid", help="grid as NxM where the command "
                                      "samples a rectangle")
        p.add_argument("--seed", type=int, help="recorded in the config "
                                                "hash for reproducibility")
    return parser


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out_guess = Path(getattr(args, "out", None) or "out")
    command = getattr(args, "command", "") or ""
    sha = ""
    try:
        cfg = _resolve_config(args)
        out_guess = cfg.out_dir
        sha = cfg.sha256()
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[cfg.command](cfg)
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as err:
        # ArithmeticError covers overflow, zero division and floating point
        # errors; LinAlgError must map here before its ValueError base does
        _emit_error(out_guess, command, sha, err, 2)
        return 2
    except (ValueError, OSError) as err:
        _emit_error(out_guess, command, sha, err, 1)
        return 1


if __name__ == "__main__":
    sys.exit(main())
