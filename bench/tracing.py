"""Spans and counters for the traced pass, recorded from outside ``src/``.

``Tracer.install`` wraps phimin's public functions on every name where a
caller looks them up (``save_obj`` is both ``phimin.surfaces.save_obj`` and
``phimin.cli.save_obj``) and a few methods on their classes.  Each call
keeps a span in memory: name, start, end, parent span and example id.
Counters are read at the same boundaries, from return values, ``solve_ivp``
results and artifact sizes; that bookkeeping runs outside the spans, so it
shows up as unattributed time and in the trace overhead, not in a layer.

``layer_metrics`` turns the spans and counters of one pass into the
per-layer metrics.  A span's self time is its duration minus that of its
direct children; every span name maps to exactly one self-time metric, so
the self times plus ``trace.unattributed_s`` add up to the traced pass wall.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "setup.import": "setup.import_s",
    "cli.main": "cli.self_s",
    "solvers.solve": "solvers.self_s",
    "profiles.custom": "profiles.make_custom_s",
    "calabi.transform": "calabi.transform_s",
    "calabi.integrate_potential": "calabi.potential_s",
    "calabi.dual_profile": "calabi.dual_profile_s",
    "calabi.theta_image": "calabi.theta_image_s",
    "calabi.theta_inverse": "calabi.theta_inverse_s",
    "surfaces.build": "surfaces.build_s",
    "surfaces.oracle": "surfaces.oracle_s",
    "surfaces.boundary_mask": "surfaces.boundary_mask_s",
    "surfaces.shape_operator": "surfaces.shape_operator_s",
    "surfaces.export": "surfaces.export_s",
    "weierstrass.integrate": "weierstrass.integrate_s",
    "weierstrass.bjorling": "weierstrass.bjorling_s",
    "weierstrass.pde_residual": "weierstrass.pde_residual_s",
    "weierstrass.identities": "weierstrass.identities_s",
    "weierstrass.field_io": "weierstrass.field_io_s",
}

# (module, function name) -> span name
FUNCTION_SPANS = {
    ("cli", "main"): "cli.main",
    ("solvers", "solve_catenary"): "solvers.solve",
    ("solvers", "solve_bowl"): "solvers.solve",
    ("solvers", "solve_catenoid"): "solvers.solve",
    ("solvers", "compute_lambda"): "solvers.solve",
    ("solvers", "fit_asymptotics"): "solvers.solve",
    ("solvers", "first_integral_drift"): "solvers.solve",
    ("solvers", "count_self_intersections"): "solvers.solve",
    ("profiles", "make_custom"): "profiles.custom",
    ("calabi", "to_lorentz"): "calabi.transform",
    ("calabi", "from_lorentz"): "calabi.transform",
    ("calabi", "integrate_potential"): "calabi.integrate_potential",
    ("calabi", "dual_profile"): "calabi.dual_profile",
    ("surfaces", "extrude_cylinder"): "surfaces.build",
    ("surfaces", "revolve"): "surfaces.build",
    ("surfaces", "tilt_cylinder"): "surfaces.build",
    ("surfaces", "cylinder_patch"): "surfaces.build",
    ("surfaces", "rotational_patch"): "surfaces.build",
    ("surfaces", "mean_curvature_residual"): "surfaces.oracle",
    ("surfaces", "fe_residual"): "surfaces.oracle",
    ("surfaces", "lfe_residual"): "surfaces.oracle",
    ("surfaces", "graph_mean_curvature"): "surfaces.oracle",
    ("surfaces", "graph_gauss_curvature"): "surfaces.oracle",
    ("surfaces", "second_fundamental_norm"): "surfaces.shape_operator",
    ("surfaces", "save_obj"): "surfaces.export",
    ("surfaces", "save_ply"): "surfaces.export",
    ("weierstrass", "integrate_representation"): "weierstrass.integrate",
    ("weierstrass", "rotational_gauss_field"): "weierstrass.integrate",
    ("weierstrass", "solve_bjorling"): "weierstrass.bjorling",
    ("weierstrass", "gauss_pde_residual"): "weierstrass.pde_residual",
    ("weierstrass", "reconstruction_residuals"): "weierstrass.identities",
    ("weierstrass", "save_gauss_field"): "weierstrass.field_io",
    ("weierstrass", "load_gauss_field"): "weierstrass.field_io",
    ("weierstrass", "bjorling_from_json"): "weierstrass.field_io",
}

# (module, class, method) -> span name
METHOD_SPANS = {
    ("surfaces", "SurfaceMesh", "boundary_mask"): "surfaces.boundary_mask",
    ("calabi", "ThetaPrimitive", "image"): "calabi.theta_image",
    ("calabi", "ThetaPrimitive", "inverse"): "calabi.theta_inverse",
}

COUNTERS = ("cli.bytes_written", "cli.bytes_read", "cli.commands",
            "solvers.nfev", "solvers.samples", "profiles.ode_extensions",
            "profiles.nfev", "calabi.theta_inverse_points",
            "calabi.newton_iters", "calabi.target_nodes",
            "surfaces.oracle_vertices", "surfaces.boundary_mask_calls",
            "surfaces.export_bytes", "weierstrass.field_nodes")


def _tree_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """In-memory spans ``[name, start, end, parent, example]`` and counters."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.example = ""
        self.counts: Dict[str, float] = defaultdict(float)
        self.topologies = set()
        self._field_bytes = 0  # Gauss-field CSV bytes, kept out of cli's

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1, self.example])

    def wrap(self, name: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.example]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(args, kwargs, out, state)
            return out
        return traced

    # -- counters read at the boundaries ------------------------------------

    def _cli_before(self, args, kwargs):
        argv = list(args[0])
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        read = 0
        if len(argv) > 1 and not argv[1].startswith("-"):
            read += _size(argv[1])
            if argv[0] == "calabi-to-r3":
                read += _size(Path(argv[1]).parent / "source.csv")
        return (out, _tree_bytes(out) if out else 0, read,
                self.counts["surfaces.export_bytes"] + self._field_bytes)

    def _cli_after(self, args, kwargs, code, state):
        out, before, read, others = state
        written = (_tree_bytes(out) if out else 0) - before
        others = self.counts["surfaces.export_bytes"] + self._field_bytes \
            - others
        self.counts["cli.bytes_written"] += max(0, written - others)
        self.counts["cli.bytes_read"] += read
        self.counts["cli.commands"] += 1

    def _samples(self, args, kwargs, out, state):
        curves = out if isinstance(out, tuple) else (out,)
        self.counts["solvers.samples"] += sum(
            getattr(c, "n_samples", 0) for c in curves)

    def _transform_after(self, args, kwargs, out, state):
        patch = out[0]
        self.counts["calabi.newton_iters"] += patch.meta.get("newton_iters", 0)
        self.counts["calabi.target_nodes"] += patch.u.size

    def _inverse_before(self, args, kwargs):
        t = args[1] if len(args) > 1 else kwargs.get("t")
        try:
            self.counts["calabi.theta_inverse_points"] += len(t.ravel())
        except AttributeError:
            self.counts["calabi.theta_inverse_points"] += 1

    def _oracle_vertices(self, args, kwargs, out, state):
        mesh = args[0]
        self.counts["surfaces.oracle_vertices"] += getattr(
            mesh, "n_vertices", 0)

    def _boundary_after(self, args, kwargs, out, state):
        self.counts["surfaces.boundary_mask_calls"] += 1
        self.topologies.add(hashlib.blake2b(
            args[0].faces.tobytes(), digest_size=16).hexdigest())

    def _export_after(self, args, kwargs, out, state):
        self.counts["surfaces.export_bytes"] += _size(args[1])

    def _field_saved(self, args, kwargs, out, state):
        self._field_bytes += _size(args[1])

    def _field_nodes(self, args, kwargs, out, state):
        self.counts["weierstrass.field_nodes"] += out.G.size

    def _ivp_counter(self, prefix: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts[f"{prefix}.nfev"] += sol.nfev
            if prefix == "profiles":
                counts["profiles.ode_extensions"] += 1
            return sol
        return counted

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import phimin
        from phimin import calabi, cli, profiles, solvers, surfaces, \
            weierstrass
        mods = {"cli": cli, "solvers": solvers, "profiles": profiles,
                "calabi": calabi, "surfaces": surfaces,
                "weierstrass": weierstrass}
        namespaces = [phimin] + list(mods.values())
        hooks = {
            "main": (self._cli_before, self._cli_after),
            "solve_catenary": (None, self._samples),
            "solve_bowl": (None, self._samples),
            "solve_catenoid": (None, self._samples),
            "to_lorentz": (None, self._transform_after),
            "from_lorentz": (None, self._transform_after),
            "mean_curvature_residual": (None, self._oracle_vertices),
            "second_fundamental_norm": (None, self._oracle_vertices),
            "save_obj": (None, self._export_after),
            "save_ply": (None, self._export_after),
            "save_gauss_field": (None, self._field_saved),
            "rotational_gauss_field": (None, self._field_nodes),
            "solve_bjorling": (None, self._field_nodes),
            "load_gauss_field": (None, self._field_nodes),
        }
        for (mod, attr), span in FUNCTION_SPANS.items():
            original = getattr(mods[mod], attr)
            before, after = hooks.get(attr, (None, None))
            _replace(namespaces, original,
                     self.wrap(span, original, before, after))
        method_hooks = {
            "boundary_mask": (None, self._boundary_after),
            "inverse": (self._inverse_before, None),
        }
        for (mod, cls, attr), span in METHOD_SPANS.items():
            klass = getattr(mods[mod], cls)
            before, after = method_hooks.get(attr, (None, None))
            setattr(klass, attr,
                    self.wrap(span, getattr(klass, attr), before, after))
        # the lazily extended primitive a custom weight builds from dphi
        primitive = profiles._antiderivative

        def traced_primitive(*args, **kwargs):
            return self.wrap("profiles.custom", primitive(*args, **kwargs))
        _replace(namespaces, primitive, traced_primitive)
        # solve_ivp is counted where each layer looks it up, not wrapped
        # everywhere: solvers' calls are profile ODEs, profiles' calls are
        # extensions of that primitive
        for prefix in ("solvers", "profiles"):
            mod = mods[prefix]
            mod.solve_ivp = self._ivp_counter(prefix, mod.solve_ivp)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "distinct_topologies": len(self.topologies)}


def _replace(namespaces, original, replacement) -> None:
    for ns in namespaces:
        for name, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, name, replacement)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Self import time (s) of scipy and of phimin modules, from the
    ``-X importtime`` lines printed up to the import of ``phimin.cli``."""
    total = {"scipy": 0.0, "phimin": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        module = parts[2].strip()
        top = module.split(".")[0]
        if top in total:
            total[top] += int(parts[0]) * 1e-6
        if module == "phimin.cli":
            break
    return total


def layer_metrics(trace: dict, wall: float, untraced_wall: float,
                  importtime: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``wall`` is the traced pass from interpreter start-up to the end of the
    last example; ``untraced_wall`` the untraced median ``wall_s``, which
    excludes start-up, so the overhead compares like with like.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    for (name, *_), own in zip(spans, self_times(spans)):
        out[SELF_TIME_METRIC[name]] += own
    for key in COUNTERS:
        out[key] = float(counts.get(key, 0.0))
    calls = out["surfaces.boundary_mask_calls"]
    out["surfaces.topology_reuse"] = (
        trace["distinct_topologies"] / calls if calls else 1.0)
    export_s = out["surfaces.export_s"]
    out["surfaces.export_mb_per_s"] = (
        out["surfaces.export_bytes"] / 1e6 / export_s if export_s else 0.0)
    out["setup.scipy_s"] = importtime["scipy"]
    out["setup.phimin_s"] = importtime["phimin"]
    attributed = sum(out[m] for m in SELF_TIME_METRIC.values())
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - attributed
    out["trace.overhead_s"] = wall - out["setup.import_s"] - untraced_wall
    return out
