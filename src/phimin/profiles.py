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
# unused here; kept so the benchmark tracer can count ODE calls under this name
from scipy.integrate import solve_ivp  # noqa: F401

from .errors import NumericalError


class ProfileError(ValueError):
    """Invalid profile parameters or evaluation outside the domain."""


class DomainError(ProfileError):
    """Argument outside the profile's height domain."""


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
    ``sup_phi`` is the supremum of phi at the right end of the domain
    (``inf`` when phi is unbounded above); it decides whether the half-width
    integral can be finite at all.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]
    ddphi: Callable[[np.ndarray], np.ndarray]
    domain: Tuple[float, float]
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    increasing: bool = True
    sup_phi: float = math.inf
    # (L, b) with dphi(u) -> L*u + b as u -> inf, when that limit is known.
    asymptote: Optional[Tuple[float, float]] = None
    # growth exponent hint: dphi ~ u^alpha for large u (1 for linear kinds)
    growth_alpha: Optional[float] = None

    def __post_init__(self):
        self.domain = _as_float_pair(self.domain)
        self._check_monotone()

    # -- evaluation helpers ------------------------------------------------

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        lo, hi = self.domain
        return (z > lo) & (z < hi)

    def require_inside(self, z, what: str = "height") -> None:
        z = np.asarray(z, dtype=float)
        if not np.all(self.contains(z)):
            lo, hi = self.domain
            bad = z[~self.contains(z)]
            raise DomainError(
                f"{what} {bad.flat[0]!r} outside profile domain ({lo}, {hi})"
            )

    def phi_range(self) -> Tuple[float, float]:
        """Image of the open domain under phi (ordered)."""
        lo, hi = self.domain
        a = self._limit_phi(lo, side="right")
        b = self._limit_phi(hi, side="left")
        return (a, b) if a < b else (b, a)

    def _limit_phi(self, endpoint: float, side: str) -> float:
        if not math.isfinite(endpoint):
            # probe far out; linear/series grow without bound, log too
            probe = math.copysign(1e12, endpoint)
            try:
                val = float(self.phi(probe))
            except (OverflowError, FloatingPointError):
                return math.copysign(math.inf, endpoint) if self.increasing else -math.copysign(math.inf, endpoint)
            if abs(val) > 1e300:
                return math.copysign(math.inf, val)
            # fall back to declared sup
            return self.sup_phi if endpoint > 0 else -math.inf
        eps = max(abs(endpoint), 1.0) * 1e-9
        z = endpoint + eps if side == "right" else endpoint - eps
        return float(self.phi(z))

    def inverse_phi(self, w):
        """Solve phi(z) = w on the domain (phi strictly monotone)."""
        return _invert_monotone(self.phi, w, self.domain, self.dphi)

    # -- validation --------------------------------------------------------

    def _check_monotone(self, n: int = 257) -> None:
        lo, hi = self.domain
        a = lo if math.isfinite(lo) else -50.0
        b = hi if math.isfinite(hi) else max(a + 1.0, 50.0)
        pad = (b - a) * 1e-6
        zs = np.linspace(a + pad, b - pad, n)
        d = _defined_run(self.dphi, zs)
        if d is not None:
            d = d[~np.isnan(d)]
        if d is None or d.size < 32:
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

def make_builtin(kind: str, *params, domain: Optional[Sequence[float]] = None,
                 increasing: Optional[bool] = None) -> WeightProfile:
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
        inc = m > 0
        if increasing is not None and increasing != inc:
            raise ProfileError("linear slope sign contradicts the increasing flag")
        dom = _as_float_pair(domain) if domain is not None else (-math.inf, math.inf)
        return WeightProfile(
            phi=lambda z, m=m: m * np.asarray(z, dtype=float),
            dphi=lambda z, m=m: np.full_like(np.asarray(z, dtype=float), m),
            ddphi=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
            domain=dom, kind="linear", params={"slope": m},
            increasing=inc,
            sup_phi=math.inf if inc else -math.inf,
            asymptote=(0.0, m), growth_alpha=0.0,
        )

    if kind == "log":
        (a,) = params
        a = float(a)
        if a == 0.0 or not math.isfinite(a):
            raise ProfileError("log profile needs a finite nonzero exponent")
        inc = a > 0
        if increasing is not None and increasing != inc:
            raise ProfileError("log exponent sign contradicts the increasing flag")
        dom = _as_float_pair(domain) if domain is not None else (0.0, math.inf)
        if dom[0] < 0.0:
            raise ProfileError("log profile lives on positive heights")
        return WeightProfile(
            phi=lambda z, a=a: a * np.log(np.asarray(z, dtype=float)),
            dphi=lambda z, a=a: a / np.asarray(z, dtype=float),
            ddphi=lambda z, a=a: -a / np.asarray(z, dtype=float) ** 2,
            domain=dom, kind="log", params={"alpha": a},
            increasing=inc,
            sup_phi=math.inf if inc else -math.inf,
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
            increasing=True, sup_phi=math.inf,
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
                params: Optional[dict] = None) -> WeightProfile:
    """Wrap user callables into a profile.

    When ``phi`` is omitted it is reconstructed from ``dphi`` by cumulative
    quadrature anchored at ``anchor`` (phi(anchor) = 0); the additive constant
    never enters the minimal-surface equation, only overall weights.
    When ``ddphi`` is omitted a central difference of ``dphi`` is used.
    """
    dom = _as_float_pair(domain)
    if phi is None:
        if anchor is None:
            anchor = dom[0] + 1.0 if math.isfinite(dom[0]) else 0.0
        phi = _antiderivative(dphi, anchor, dom)
    if ddphi is None:
        def ddphi(z, _d=dphi):
            z = np.asarray(z, dtype=float)
            h = 1e-6 * np.maximum(1.0, np.abs(z))
            return (np.asarray(_d(z + h)) - np.asarray(_d(z - h))) / (2 * h)
    sup = math.inf if increasing else -math.inf
    try:
        probe = dom[1] - 1e-6 if math.isfinite(dom[1]) else 1e9
        v = float(phi(probe))
        if math.isfinite(dom[1]) and math.isfinite(v):
            sup = v
    except Exception:
        pass
    return WeightProfile(phi=phi, dphi=dphi, ddphi=ddphi, domain=dom,
                         kind="custom", params=params or {},
                         increasing=increasing, sup_phi=sup,
                         asymptote=asymptote, growth_alpha=growth_alpha)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# nodes on [0, 1] of the rules on the two halves, then on the whole
_PANEL_NODES = np.concatenate([0.25 * (_GL_X + 1.0), 0.25 * (_GL_X + 3.0),
                               0.5 * (_GL_X + 1.0)])


def _defined_run(f: Callable, zs: np.ndarray) -> Optional[np.ndarray]:
    """Values of ``f`` on the run of the sorted samples ``zs`` where it
    evaluates, in a few vectorized calls; None when no run of 32 is found.

    Quadrature-backed closures evaluate on one interval of heights (the
    reach of their primitives and inversions), so the samples that work
    form one run.  A probe finds a sample inside it (probes are 16 apart,
    so any run of 32 is hit), and each end of the run is bisected.
    """
    def at(i, j):
        try:
            return np.asarray(f(zs[i:j]), dtype=float)
        except (DomainError, NumericalError, ArithmeticError):
            return None

    def edge(good, bad, works):
        while abs(good - bad) > 1:
            mid = (good + bad) // 2
            good, bad = (mid, bad) if works(mid) else (good, mid)
        return good

    n = len(zs)
    whole = at(0, n)
    if whole is not None:
        return whole
    probes = sorted(range(8, n, 16), key=lambda i: abs(i - n // 2))
    k = next((i for i in probes if at(i, i + 1) is not None), None)
    if k is None:
        return None
    left = lambda i: at(i, k + 1) is not None
    right = lambda j: at(k, j + 1) is not None
    first = 0 if left(0) else edge(k, 0, left)
    last = n - 1 if right(n - 1) else edge(k, n - 1, right)
    return at(first, last + 1)


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
    finite, where the value passes 1e250, or 1e12 from the anchor; heights
    beyond that reach raise DomainError.  A height is evaluated with one
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

    def phi(z):
        z = np.asarray(z, dtype=float)
        flat = z.ravel()
        outside = ~((flat >= edges[0]) & (flat <= edges[-1]))
        if outside.any():
            raise DomainError(
                f"height {flat[outside][0]} outside the reach "
                f"[{edges[0]}, {edges[-1]}] of the antiderivative")
        k = np.where(flat >= anchor,
                     np.searchsorted(edges, flat, "right") - 1,
                     np.searchsorted(edges, flat, "left"))
        out = np.empty(flat.shape)
        for s in range(0, flat.size, 4096):
            part = slice(s, s + 4096)
            out[part] = values[k[part]] + _gauss(f, edges[k[part]],
                                                 flat[part])
        return out.reshape(z.shape) if z.shape else float(out[0])

    return phi


def _invert_monotone(f: Callable, t, domain: Tuple[float, float],
                     df: Optional[Callable] = None, error=DomainError):
    """Solve f(z) = t elementwise for f strictly monotone on the open domain.

    One bracket serves the whole array: finite ends are held 1e-9
    (relative) inside the domain, infinite ends are pushed out by doubling
    steps.  A sample table narrows it to one cell per value; safeguarded
    Newton steps follow when the derivative ``df`` is known, bisection
    otherwise.  A value the bracket cannot reach raises ``error``.
    """
    t = np.asarray(t, dtype=float)
    if not t.size:
        return t
    if not np.isfinite(t).all():
        raise error("cannot invert a non-finite value")
    lo, hi = domain
    a = lo + 1e-9 * max(1.0, abs(lo)) if math.isfinite(lo) else -1.0
    b = hi - 1e-9 * max(1.0, abs(hi)) if math.isfinite(hi) else 1.0
    if not math.isfinite(lo):
        a = min(a, b - 1.0)
    if not math.isfinite(hi):
        b = max(b, a + 1.0)

    def value(z):
        try:
            return np.asarray(f(z), dtype=float)
        except DomainError as err:
            raise error(f"value outside the attainable range ({err})") \
                from err

    sign = 1.0 if float(value(b)) >= float(value(a)) else -1.0
    g = lambda z: sign * value(z)
    flat = sign * t.ravel()
    step = 1.0
    for _ in range(110):
        below = not float(g(a)) <= flat.min()
        above = not float(g(b)) >= flat.max()
        if not (below or above):
            break
        if below and math.isfinite(lo) or above and math.isfinite(hi):
            break
        a, b, step = a - step * below, b + step * above, 2.0 * step
    if below or above:
        raise error("value outside the attainable range")

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
        new = 0.5 * (za[idx] + zb[idx])
        if df is not None:
            with np.errstate(all="ignore"):
                newton = zi - r / (sign * np.asarray(df(zi), dtype=float))
            new = np.where((newton > za[idx]) & (newton < zb[idx]),
                           newton, new)
        z[idx] = np.where(r == 0, zi, new)
        idx = idx[(r != 0) & (np.abs(new - zi)
                              > 4e-16 * np.maximum(1.0, np.abs(zi)))]
    return z.reshape(t.shape) if t.shape else float(z[0])


# ---------------------------------------------------------------------------
# derived scalar functions
# ---------------------------------------------------------------------------

def lambda_of_z(profile: WeightProfile, z) -> np.ndarray:
    """dphi written as a function of w = phi(height): lambda(w) = dphi(phi^{-1}(w)).

    For the linear kind this is the constant slope; for the log kind it has
    the closed form a * exp(-w/a).
    """
    z = np.asarray(z, dtype=float)
    w_lo, w_hi = profile.phi_range()
    if np.any(z <= w_lo) or np.any(z >= w_hi):
        raise DomainError(f"value outside phi image ({w_lo}, {w_hi})")
    if profile.kind == "linear":
        m = profile.params["slope"]
        return np.full_like(z, m)
    if profile.kind == "log":
        a = profile.params["alpha"]
        return a * np.exp(-z / a)
    out = np.asarray(profile.dphi(profile.inverse_phi(z)), dtype=float)
    return out if out.shape else float(out)


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
