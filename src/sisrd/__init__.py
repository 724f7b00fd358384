"""Reaction-diffusion SIS epidemics with saturating incidence.

The package solves the two-species system

    dS/dt = d_S lap(S) + recruitment - S - beta S^q I^p + gamma I
    dI/dt = d_I lap(I) + beta S^q I^p - (gamma + eta) I

on intervals, rectangles, and disks with no-flux boundaries, and exposes
the quantities that organize its long-time behavior: the disease-free
profile, the basic reproduction number and principal eigenvalue of the
linearization, endemic equilibria, and the limit profiles reached as one
or both diffusion rates tend to zero.
"""

from . import asymptotics, coefficients, dynamics, equilibrium, grid
from . import harness, scenario, solvers, spectral
from .asymptotics import *
from .coefficients import *
from .dynamics import *
from .equilibrium import *
from .grid import *
from .harness import *
from .scenario import *
from .solvers import *
from .spectral import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
_MODULES = (
    asymptotics, coefficients, dynamics, equilibrium, grid, harness, scenario, solvers, spectral
)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
