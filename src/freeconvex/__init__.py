"""freeconvex: decision procedures for matrix convex sets.

Free spectrahedra and spectrahedrops, completely positive interpolation,
polar and tracial duals, and sum-of-squares positivity certificates, all
compiled to small dense semidefinite programs solved by the embedded engine
in :mod:`freeconvex.sdp`.
"""

from .algebra import (
    HermitianTuple,
    LinearPencil,
    NCPolynomial,
    NormBall,
    ball_pencil,
    direct_sum,
    evaluate_pencil,
    evaluate_polynomial,
    involution,
    kron,
    lambda_min,
    monic_tuple,
    pencil_from_tuple,
    realify,
)
from .cp import (
    ChoiMatrix,
    InterpolationMode,
    KrausDecomposition,
    apply_choi,
    choi_of_kraus,
    interpolate,
    kraus_of_choi,
)
from .io import ParseError, ProblemFile, Report, emit_corpus, parse_problem, run
from .possatz import (
    Certificate,
    WordBasis,
    expand_certificate,
    search_certificate,
    verify_certificate,
)
from .sdp import (
    HermitianProblem,
    SDPProblem,
    SDPSolution,
    SolverError,
    SolveStatus,
    build_from_complex,
    solve,
    solve_feasibility,
)
from .spectra import (
    Spectrahedrop,
    dominates,
    drop_level1_bounded,
    drop_membership,
    drop_polar_membership,
    hull_of_union,
    is_bounded,
    monicize,
    polar_dual_lift,
    polar_membership,
    spectrahedron_membership,
)
from .tracial import (
    TracialWitness,
    cthull_membership,
    exsitu_dual_membership,
    opp_tracial_membership,
    thull_membership,
    tracial_membership,
)

__version__ = "0.1.0"
