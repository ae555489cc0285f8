"""hardyheat: a numerical laboratory for parabolic Hardy spaces on the
half-space X = (0, inf) x R^n and the heat maximal-regularity operator.

The package namespace holds the library-use block of README.md: a grid,
midpoint sampling, a parabolic ball, T and T*, and the overlap of a Whitney
boundary cover.  Everything else is imported from its submodule.

Layout
------
space      parabolic metric, balls, truncated volumes, dyadic annuli
grid       uniform space-time grids, grid functions, extensions
atoms      atom kinds, certificates, molecules and decay reports
heatop     heat semigroup, the operator T and its adjoint, reference oracles
decompose  constructive atomic decompositions (Whitney, reflection, molecule)
verify     experiment battery: certificates, counterexamples, stability probes
config     flat key=value run configuration
cli        command line entry point over the experiment catalogue
"""
from .decompose import cover_max_overlap
from .grid import SpaceTimeGrid, sample
from .heatop import apply_T, apply_Tstar
from .space import ball

__version__ = "0.1.0"

__all__ = [
    "SpaceTimeGrid",
    "apply_T",
    "apply_Tstar",
    "ball",
    "cover_max_overlap",
    "sample",
]
