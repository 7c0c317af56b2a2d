"""Two-scale finite element solvers for thermoelasticity with prescribed phase growth."""

__version__ = "0.1.0"

from .kinematics import (  # noqa: E402,F401
    IdentityTransform,
    MaterialParams,
    PolynomialAmplitude,
    RadialGrowth,
    TabulatedTransform,
    default_material,
    scaled_coefficients,
    validate_admissibility,
)
from .mesh import (  # noqa: F401
    build_cell_mesh,
    build_epsilon_mesh,
    build_uniform_mesh,
    mesh_quality,
    write_vtk,
)
from .cell import CellContext, solve_correctors  # noqa: F401
from .effective import EffectiveProvider, tabulate_effective  # noqa: F401
from .twoscale import SolverSettings, TwoScaleSolver  # noqa: F401
from .reference import (  # noqa: F401
    EpsilonSolver,
    apriori_norm_bundle,
    operator_structure_checks,
    two_scale_compare,
)
from .config import RunConfig, parse_config  # noqa: F401
