"""Numerical toolkit for weighted minimal surfaces and their Lorentzian duals.

Surfaces in Euclidean 3-space whose mean curvature obeys
``H = dphi(z) * <N, e3>`` for a height-dependent weight ``phi`` are built,
transformed, and verified here: translation-invariant profiles, rotational
profiles, a duality into spacelike graphs of the corresponding prescribed
mean curvature equation in Lorentz-Minkowski space, and a spinor-style
representation with its Cauchy initial-data solver.
"""

from .calabi import (
    PotentialPatch,
    ThetaPrimitive,
    dual_profile,
    from_lorentz,
    integrate_potential,
    make_theta,
    to_lorentz,
)
from .errors import NumericalError
from .profiles import (
    WeightProfile,
    ProfileError,
    DomainError,
    make_builtin,
    make_custom,
    curly_g,
)
from .weierstrass import (
    BjorlingData,
    GaussField,
    gauss_pde_residual,
    integrate_representation,
    reconstruction_residuals,
    rotational_gauss_field,
    solve_bjorling,
)

__version__ = "0.1.0"

__all__ = [
    "WeightProfile",
    "ProfileError",
    "DomainError",
    "NumericalError",
    "make_builtin",
    "make_custom",
    "curly_g",
    "ThetaPrimitive",
    "PotentialPatch",
    "make_theta",
    "dual_profile",
    "integrate_potential",
    "to_lorentz",
    "from_lorentz",
    "GaussField",
    "BjorlingData",
    "gauss_pde_residual",
    "integrate_representation",
    "reconstruction_residuals",
    "rotational_gauss_field",
    "solve_bjorling",
    "__version__",
]
