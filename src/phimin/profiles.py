"""Height-dependent weight profiles.

A profile is a scalar function ``phi`` of the vertical coordinate, together
with its first two derivatives.  Every surface construction in this package
is driven by such a profile through the density ``exp(phi(z))``:  the weighted
mean-curvature equation reads ``H = dphi(z) * <N, e3>``.

Four kinds are supported:

* ``linear``   : phi(z) = m z on all of R (m != 0),
* ``log``      : phi(z) = a log z on (0, inf) (a != 0),
* ``series``   : dphi(u) = L u + b + sum c_n / u^n on (u_min, inf),
* ``custom``   : user-supplied callables (phi optional; it is then recovered
                 from dphi by quadrature against an anchor point).

Profiles may be strictly increasing or strictly decreasing; most of the
solvers require increasing ones and check the flag themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
# unused here: bench/tracing.py counts ODE calls by this name (ROADMAP item 3)
from scipy.integrate import solve_ivp  # noqa: F401

from .errors import NumericalError


class ProfileError(ValueError):
    """Invalid profile parameters or evaluation outside the domain."""


class DomainError(ProfileError):
    """Argument outside the profile's height domain."""


# heights at which construction samples dphi to check monotonicity
_MONOTONE_SAMPLES = 257


def _as_float_pair(domain: Sequence[float]) -> Tuple[float, float]:
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise ProfileError(f"empty domain ({lo}, {hi})")
    return lo, hi


@dataclass
class WeightProfile:
    """Bundle of phi, dphi, ddphi on an open interval.

    ``kind`` is one of ``linear / log / series / custom`` and ``params`` keeps
    the defining constants for serialization.  ``increasing`` declares strict
    monotonicity of phi on the domain (checked by sampling at construction).
    ``reach`` is the closed interval where phi, dphi and ddphi evaluate,
    the domain unless given (``make_custom`` gives the reach of the phi it
    builds by quadrature, ``dual_profile`` theta's image of its own reach).
    ``sup_phi`` is the limit of phi at the right end of the domain (see
    ``_limit``); it decides whether the half-width integral can be finite.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    ddphi: Callable[[np.ndarray], np.ndarray]
    domain: Tuple[float, float]
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    increasing: bool = True
    # (L, b) with dphi(u) -> L*u + b as u -> inf, when that limit is known.
    asymptote: Optional[Tuple[float, float]] = None
    # growth exponent hint: dphi ~ u^alpha for large u (1 for linear kinds)
    growth_alpha: Optional[float] = None
    reach: Optional[Tuple[float, float]] = None
    sup_phi: float = field(init=False)

    def __post_init__(self):
        self.domain = _as_float_pair(self.domain)
        self.reach = self.domain if self.reach is None else \
            (float(self.reach[0]), float(self.reach[1]))
        self._check_monotone()
        self.sup_phi = _limit(self.phi, self.domain[1], -1.0, self.reach,
                              self.increasing)

    # -- evaluation helpers ------------------------------------------------

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        lo, hi = self.domain
        return (z > lo) & (z < hi)

    def require_inside(self, z, what: str = "height") -> None:
        z = np.asarray(z, dtype=float)
        if not np.all(self.contains(z)):
            lo, hi = self.domain
            bad = float(z[~self.contains(z)].flat[0])
            raise DomainError(
                f"{what} {bad!r} outside profile domain ({lo}, {hi})"
            )

    # -- validation --------------------------------------------------------

    def _check_monotone(self) -> None:
        lo, hi = self.domain
        a = lo if math.isfinite(lo) else -50.0
        b = hi if math.isfinite(hi) else max(a + 1.0, 50.0)
        pad = (b - a) * 1e-6
        zs = np.linspace(a + pad, b - pad, _MONOTONE_SAMPLES)
        zs = zs[(zs >= self.reach[0]) & (zs <= self.reach[1])]
        if zs.size >= 32:
            d = np.broadcast_to(np.asarray(self.dphi(zs), dtype=float),
                                zs.shape)
            d = d[~np.isnan(d)]
        if zs.size < 32 or d.size < 32:
            raise ProfileError(
                "dphi could not be sampled across enough of the domain "
                "to check monotonicity")
        if self.increasing and not np.all(d > 0):
            raise ProfileError(
                "profile flagged increasing but dphi <= 0 somewhere on the domain"
            )
        if not self.increasing and not np.all(d < 0):
            raise ProfileError(
                "profile flagged decreasing but dphi >= 0 somewhere on the domain"
            )


# ---------------------------------------------------------------------------
# builtin constructors
# ---------------------------------------------------------------------------

def make_builtin(kind: str, *params,
                 domain: Optional[Sequence[float]] = None) -> WeightProfile:
    """Build one of the named profile kinds.

    make_builtin("linear", m)            phi = m z
    make_builtin("log", a)               phi = a log z
    make_builtin("series", L, b, c)      dphi = L u + b + sum c[n]/u^(n+1)
    """
    kind = kind.lower()
    if kind == "linear":
        (m,) = params
        m = float(m)
        if m == 0.0 or not math.isfinite(m):
            raise ProfileError("linear profile needs a finite nonzero slope")
        dom = _as_float_pair(domain) if domain is not None else (-math.inf, math.inf)
        return WeightProfile(
            phi=lambda z, m=m: m * np.asarray(z, dtype=float),
            dphi=lambda z, m=m: np.full_like(np.asarray(z, dtype=float), m),
            ddphi=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            domain=dom, kind="linear", params={"slope": m},
            increasing=m > 0,
            asymptote=(0.0, m), growth_alpha=0.0,
        )

    if kind == "log":
        (a,) = params
        a = float(a)
        if a == 0.0 or not math.isfinite(a):
            raise ProfileError("log profile needs a finite nonzero exponent")
        dom = _as_float_pair(domain) if domain is not None else (0.0, math.inf)
        if dom[0] < 0.0:
            raise ProfileError("log profile lives on positive heights")
        return WeightProfile(
            phi=lambda z, a=a: a * np.log(np.asarray(z, dtype=float)),
            dphi=lambda z, a=a: a / np.asarray(z, dtype=float),
            ddphi=lambda z, a=a: -a / np.asarray(z, dtype=float) ** 2,
            domain=dom, kind="log", params={"alpha": a},
            increasing=a > 0,
            asymptote=None, growth_alpha=-1.0,
        )

    if kind == "series":
        L, b = float(params[0]), float(params[1])
        coeffs = [float(c) for c in (params[2] if len(params) > 2 else [])]
        if not all(map(math.isfinite, [L, b] + coeffs)):
            raise ProfileError("series profile needs finite coefficients")
        if L < 0:
            raise ProfileError("series profile needs L >= 0")
        if L == 0.0 and b <= 0.0:
            raise ProfileError("series profile with L = 0 needs b > 0")
        if domain is not None:
            dom = _as_float_pair(domain)
        else:
            dom = (0.0, math.inf) if (coeffs or L > 0) else (-math.inf, math.inf)

        def dd(u):
            u = np.asarray(u, dtype=float)
            out = np.full_like(u, L * 1.0) * u + b
            for n, c in enumerate(coeffs, start=1):
                out = out + c / u ** n
            return out

        def d2(u):
            u = np.asarray(u, dtype=float)
            out = np.full_like(u, L)
            for n, c in enumerate(coeffs, start=1):
                out = out - n * c / u ** (n + 1)
            return out

        def p(u):
            u = np.asarray(u, dtype=float)
            out = 0.5 * L * u ** 2 + b * u
            for n, c in enumerate(coeffs, start=1):
                if n == 1:
                    out = out + c * np.log(u)
                else:
                    out = out - c / ((n - 1) * u ** (n - 1))
            return out

        prof = WeightProfile(
            phi=p, dphi=dd, ddphi=d2, domain=dom, kind="series",
            params={"L": L, "b": b, "coeffs": coeffs},
            increasing=True,
            asymptote=(L, b), growth_alpha=1.0 if L > 0 else 0.0,
        )
        return prof

    raise ProfileError(f"unknown builtin profile kind {kind!r}")


def make_custom(dphi: Callable, phi: Optional[Callable] = None,
                ddphi: Optional[Callable] = None,
                domain: Sequence[float] = (-math.inf, math.inf),
                increasing: bool = True,
                anchor: Optional[float] = None,
                growth_alpha: Optional[float] = None,
                asymptote: Optional[Tuple[float, float]] = None,
                params: Optional[dict] = None,
                reach: Optional[Tuple[float, float]] = None) -> WeightProfile:
    """Wrap user callables into a profile.

    When ``phi`` is omitted it is reconstructed from ``dphi`` by cumulative
    quadrature anchored at ``anchor`` (phi(anchor) = 0); the additive constant
    never enters the minimal-surface equation, only overall weights.  The
    profile's reach is then that primitive's; a given ``phi`` comes with
    its ``reach`` (the domain when omitted).
    When ``ddphi`` is omitted a central difference of ``dphi`` is used.
    """
    dom = _as_float_pair(domain)
    if phi is None:
        if anchor is None:
            anchor = dom[0] + 1.0 if math.isfinite(dom[0]) else 0.0
        phi = _antiderivative(dphi, anchor, dom)
        reach = phi.reach
    if ddphi is None:
        def ddphi(z, _d=dphi):
            z = np.asarray(z, dtype=float)
            h = 1e-6 * np.maximum(1.0, np.abs(z))
            return (np.asarray(_d(z + h)) - np.asarray(_d(z - h))) / (2 * h)
    return WeightProfile(phi=phi, dphi=dphi, ddphi=ddphi, domain=dom,
                         kind="custom", params=params or {},
                         increasing=increasing, asymptote=asymptote,
                         growth_alpha=growth_alpha, reach=reach)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# nodes on [0, 1] of the rules on the two halves, then on the whole
_PANEL_NODES = np.concatenate([0.25 * (_GL_X + 1.0), 0.25 * (_GL_X + 3.0),
                               0.5 * (_GL_X + 1.0)])


def _gauss(f, a, b) -> np.ndarray:
    """16-point Gauss-Legendre rule for the integral of f from a to b,
    elementwise over equal-shaped arrays of end points."""
    a = np.asarray(a, dtype=float)[..., None]
    half = 0.5 * (np.asarray(b, dtype=float)[..., None] - a)
    return (half * f(a + half * (_GL_X + 1.0))) @ _GL_W


def _reach(f, anchor: float, end: float):
    """Panel edges and antiderivative values from the anchor toward ``end``.

    A panel is kept when its rule agrees with the rule on its two halves,
    to 1e-14 of the panel and of the value so far, plus the rounding of
    the nodes; the next one is tried twice as wide, a rejected one half as
    wide.
    """
    edges, values = [], []
    sign = math.copysign(1.0, end - anchor)
    far = min(abs(end - anchor), 1e12)
    a, value, width = anchor, 0.0, 0.125
    for _ in range(4096):  # bounds the work where panels never widen
        width = min(width, far - abs(a - anchor))
        if width <= 1e-12 * max(1.0, abs(a)):
            break  # far reached, or dphi stops being finite here
        b = end if width == abs(end - a) else a + sign * width
        fx = f(a + (b - a) * _PANEL_NODES)
        whole = 0.5 * (b - a) * (fx[32:] @ _GL_W)
        left, right = 0.25 * (b - a) * (fx[:32].reshape(2, 16) @ _GL_W)
        noise = 1e-15 * max(abs(a), abs(b)) * np.abs(np.diff(fx[:32])).sum()
        if not (abs(whole - left - right) <= noise + 1e-14 * (
                abs(left) + abs(right) + abs(value))
                and math.isfinite(whole)):
            width *= 0.5
            continue
        if not abs(value + whole) <= 1e250:
            break
        a, value, width = b, value + whole, 2.0 * width
        edges.append(a)
        values.append(value)
    return edges, values


def _antiderivative(dphi: Callable, anchor: float, dom: Tuple[float, float]):
    """Antiderivative of dphi with value 0 at the anchor.

    Built once on composite Gauss-Legendre panels running outward from the
    anchor.  Each side stops at a finite domain end, where dphi stops being
    finite, where the value passes 1e250, or 1e12 from the anchor.  At an
    infinite domain end ``_tail`` decides whether the primitive has a limit;
    where it has, the primitive takes that limit beyond the end of its run.
    The returned callable keeps the interval where it evaluates as its
    ``reach``, the panels' span (where it is strictly monotone) as its
    ``run`` and, as its ``limit``, the value it tends to at dom[1]: the
    tail's limit (infinite where the tail diverges) at an infinite end,
    the value where the run stops at a finite one.  Heights beyond the
    reach raise DomainError.  A height within the run is evaluated with one
    rule from the edge of its panel nearer the anchor.
    """
    def f(z):
        return np.broadcast_to(np.asarray(dphi(z), dtype=float), z.shape)

    def finite_or_nan(z):
        try:
            with np.errstate(all="ignore"):
                return f(z)
        except (ArithmeticError, ValueError, NumericalError):
            return np.full(z.shape, math.nan)

    lo_edges, lo_values = _reach(finite_or_nan, anchor, min(dom[0], anchor))
    hi_edges, hi_values = _reach(finite_or_nan, anchor, max(dom[1], anchor))
    edges = np.array(lo_edges[::-1] + [anchor] + hi_edges)
    values = np.array(lo_values[::-1] + [0.0] + hi_values)
    reach = [float(edges[0]), float(edges[-1])]
    limits = [float(values[0]), float(values[-1])]

    def phi(z):
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        outside = ~((flat >= reach[0]) & (flat <= reach[1]))
        if outside.any():
            raise DomainError(
                f"height {flat[outside][0]} outside the reach "
                f"[{reach[0]}, {reach[1]}] of the antiderivative")
        below, above = flat < edges[0], flat > edges[-1]
        flat = np.clip(flat, edges[0], edges[-1])
        k = np.where(flat >= anchor,
                     np.searchsorted(edges, flat, "right") - 1,
                     np.searchsorted(edges, flat, "left"))
        out = values[k]  # a height on a panel edge takes the edge's value
        off_edge = np.flatnonzero(flat != edges[k])
        for s in range(0, off_edge.size, 4096):
            part = off_edge[s:s + 4096]
            out[part] += _gauss(f, edges[k[part]], flat[part])
        out[below], out[above] = limits  # past a converged run: its limit
        return out.reshape(z.shape) if z.shape else float(out[0])

    for i, end in ((0, dom[0]), (-1, dom[1])):
        if math.isinf(end):
            limits[i] = _tail(phi, anchor, float(edges[i]))
            if math.isfinite(limits[i]):
                reach[i] = end
    phi.reach, phi.limit = tuple(reach), limits[1]
    phi.run = (float(edges[0]), float(edges[-1]))
    return phi


def _tail(F: Callable, origin: float, last: float) -> float:
    """The tail rule: the limit of a primitive ``F`` (zero at ``origin``)
    toward the infinite end beyond ``last``, where its run stops; infinite
    where the tail diverges.

    The blocks are F's increments over (origin + 2^(k-1), origin + 2^k)
    toward ``last``, the first from ``origin``, up to the last power of two
    within the run.  The tail converges to F(last) once a block stops
    moving F beyond its rounding, and diverges once five successive block
    ratios exceed 0.95.  Otherwise it converges exactly when the median of
    the last five ratios is below 0.9, to F at the last block's end plus,
    when the last ratio is below 0.9, that block's geometric remainder.
    """
    span = abs(last - origin)
    ends = origin + math.copysign(1.0, last - origin) * 2.0 ** np.arange(
        math.floor(math.log2(span)) + 1 if span >= 1.0 else 0)
    sums = np.asarray(F(ends), dtype=float)
    blocks = np.diff(sums, prepend=0.0)
    ratios = []
    for k in range(1, blocks.size):
        if abs(blocks[k]) <= 64 * np.finfo(float).eps * abs(sums[k]):
            return float(F(last))
        ratios.append(blocks[k] / blocks[k - 1])
        if len(ratios) >= 5 and min(ratios[-5:]) > 0.95:
            break
    else:
        if ratios and np.median(ratios[-5:]) < 0.9:
            r = ratios[-1]
            remainder = blocks[-1] * r / (1.0 - r) if r < 0.9 else 0.0
            return float(sums[-1] + remainder)
    return math.copysign(math.inf, sums[-1] if sums.size else last - origin)


def _inset(end: float, inward: float) -> float:
    """A finite end moved 1e-9 (relative) toward ``inward``."""
    return end + inward * 1e-9 * max(1.0, abs(end)) if math.isfinite(end) \
        else end


def _limit(f: Callable, end: float, inward: float,
           reach: Tuple[float, float], increasing: bool = True) -> float:
    """Limit of the strictly monotone ``f`` at the lower (``inward`` = 1)
    or upper (-1) end of an open interval: f 1e-9 (relative) inside a
    finite end, f at an infinite one (where a converged primitive takes
    its tail's limit); infinite where that point is beyond the reach or f
    is NaN there (f diverged before the end).
    """
    z = _inset(end, inward)
    if reach[0] <= z <= reach[1]:
        with np.errstate(all="ignore"):
            v = float(f(z))
        if not math.isnan(v):
            return v
    return math.copysign(math.inf, -inward if increasing else inward)


def _invert_monotone(f: Callable, t, domain: Tuple[float, float],
                     reach: Tuple[float, float], df: Callable):
    """Solve f(z) = t elementwise for f strictly increasing on the open
    domain, with derivative ``df``.

    One bracket serves the whole array.  It stays inside the reach, where
    f evaluates, or inside the run of a panel primitive (``f.run``), past
    which f holds its tail limit and attains no value in between.  It holds
    finite domain ends 1e-9 (relative) inside; infinite domain ends are
    pushed out by doubling steps up to the reach or the run.
    A sample table narrows it to one cell per value, and safeguarded
    Newton steps follow.  A value the bracket cannot reach raises
    NumericalError.
    """
    t = np.asarray(t, dtype=float)
    if not t.size:
        return t
    if not np.isfinite(t).all():
        raise NumericalError("cannot invert a non-finite value")
    lo, hi = domain
    span = getattr(f, "run", reach)
    a_end = max(_inset(lo, 1.0), span[0])
    b_end = min(_inset(hi, -1.0), span[1])
    a = a_end if math.isfinite(lo) else max(min(-1.0, b_end - 1.0), a_end)
    b = b_end if math.isfinite(hi) else min(max(1.0, a + 1.0), b_end)

    g = lambda z: np.asarray(f(z), dtype=float)
    flat = t.ravel()
    step = 1.0
    for _ in range(110):
        below = not float(g(a)) <= flat.min()
        above = not float(g(b)) >= flat.max()
        if not (below or above) or below and a == a_end \
                or above and b == b_end:
            break
        a, b = max(a - step * below, a_end), min(b + step * above, b_end)
        step *= 2.0
    if below or above:
        raise NumericalError("value outside the attainable range")

    zs = np.linspace(a, b, 129)
    vs = g(zs)
    cell = np.clip(np.searchsorted(vs, flat, "right") - 1, 0, 127)
    za, zb = zs[cell], zs[cell + 1]
    z = np.clip(np.interp(flat, vs, zs), za, zb)
    idx = np.arange(flat.size)
    for _ in range(200):
        if not idx.size:
            break
        zi = z[idx]
        r = g(zi) - flat[idx]
        za[idx] = np.where(r < 0, zi, za[idx])
        zb[idx] = np.where(r < 0, zb[idx], zi)
        with np.errstate(all="ignore"):
            newton = zi - r / np.asarray(df(zi), dtype=float)
        new = np.where((newton > za[idx]) & (newton < zb[idx]), newton,
                       0.5 * (za[idx] + zb[idx]))
        z[idx] = np.where(r == 0, zi, new)
        idx = idx[(r != 0) & (np.abs(new - zi)
                              > 4e-16 * np.maximum(1.0, np.abs(zi)))]
    return z.reshape(t.shape) if t.shape else float(z[0])


# ---------------------------------------------------------------------------
# derived scalar functions
# ---------------------------------------------------------------------------

def curly_g(profile: WeightProfile, u0: float, u) -> np.ndarray:
    """Integral of 1/dphi from u0 to u (strictly increasing in u).

    This is the reparametrized height that linearizes the far-field law for
    profiles whose dphi stays positive; see the asymptotics fitter.
    """
    profile.require_inside(u0)
    profile.require_inside(u)
    return _antiderivative(
        lambda s: 1.0 / np.asarray(profile.dphi(s), dtype=float), u0,
        profile.domain)(u)


# small expression evaluator used by the CLI for custom profiles -------------

_EXPR_NS = {
    "np": np, "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "pi": np.pi, "e": np.e,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh, "arctan": np.arctan,
}


def expression_callable(expr: str) -> Callable:
    """Compile a one-variable numpy expression 'f(z)' into a callable.

    Only the names in a tiny math namespace are visible; no builtins.
    """
    code = compile(expr, "<profile-expr>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NS and name != "z":
            raise ProfileError(f"unknown name {name!r} in profile expression")

    def f(z):
        return eval(code, {"__builtins__": {}}, {**_EXPR_NS, "z": np.asarray(z, dtype=float)})

    return f
