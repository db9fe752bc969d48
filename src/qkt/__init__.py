"""Numerical laboratory for quaternionic connections with skew torsion.

Builds the unique metric quaternionic connection with totally
skew-symmetric torsion on explicit coordinate models and verifies, to
finite-difference tolerance, the identities it satisfies: torsion type
and traces, curvature relations, conformal transformation laws, and the
dimension-4 Einstein-like / Weyl correspondence.
"""

__version__ = "0.1.0"

from .tensor_core import (
    CoordinatePatch,
    FDScheme,
    FormField,
    levi_civita,
    partial_derivative,
)
from .quaternionic import (
    HypercomplexField,
    QuaternionicHermitianData,
    build_standard_hypercomplex,
    dT_type22_residual,
    nijenhuis_bracket,
    project_plus_3form,
    torsion_02_part,
)
from .qkt_connection import (
    QKTContext,
    QKTStructure,
    build_qkt,
    build_qkt_dim4,
    c7_residual,
    classify,
    existence_residual,
    nijenhuis_via_connection,
    torsion_one_forms,
)
from .conformal import (
    ConformalFactor,
    conformal_law_residuals,
    conformal_rescale,
    lchkt_residual,
    lcqk_residual,
)
from .curvature import (
    CurvatureValue,
    bianchi_and_symmetry_residuals,
    curvature_tensor,
    dim4_einstein_suite,
    ricci_forms,
    sp1_curvature_residuals,
    trace_identity_residuals,
    weyl_correspondence,
)
from .expressions import Expression, parse_expression
from .zoo import ManifoldSpec, build_manifold, sample_points
from .suite import VerificationReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
