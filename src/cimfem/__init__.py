"""Contour-integral method with P1 finite elements for normal subdiffusion.

Solves K * du/dt + d_t^beta u + A u = f on (0,1) or the unit square by
inverting the Laplace transform on an optimized hyperbolic contour, with
one complex elliptic solve per quadrature node and an optional
barycentric-Chebyshev acceleration of the node solves.
"""

from .contour import (
    ContourConfig,
    ContourError,
    ContourQuadrature,
    OptimalParameters,
    optimize_rho,
    quadrature_nodes,
    standard_parameters,
    strip_half_width,
)
from .symbols import FractionalSymbol, SourceTerm, SourceTransform, SymbolError, complex_pow
from .mlf import (
    MLError,
    MLQuery,
    SpectralProblem,
    ml_biv,
    ml_biv_contour,
    ml_biv_series,
    mode_value,
    spectral_reference,
)
from .fem import (
    FEMError,
    InitialData1D,
    InitialData2D,
    Mesh1D,
    Mesh2D,
    assemble,
    l2_error,
    load_vector,
    mass_norm,
    prolong_1d,
    prolong_2d,
)
from .linalg import ComplexTridiag, LinAlgError, sparse_solve, thomas_solve
from .cim import (
    CIMError,
    NodeSolutionSet,
    Problem,
    ScalarDomain,
    discretize,
    evaluate,
    predicted_interp_decay,
    problem_parameters,
    solve_nodes,
    solve_nodes_accelerated,
)
from .bench import BenchError, ContourDefaults, ContourRun, ErrorReport, ExperimentSpec, build_problem, run

__all__ = [name for name in dir() if not name.startswith("_")]
