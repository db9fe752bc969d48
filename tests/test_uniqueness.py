"""The paper's uniqueness theorem, by linear algebra.

A QKT connection nabla^g + T/2 makes nabla J_a = -omega_b (x) J_c + omega_c (x) J_b,
a linear system in (T in Lambda^3, omega) at each point.  The paper proves
its solution unique for n >= 2, which is why the library takes the torsion
from (g, Q) alone there, and leaves a free 1-form t in dimension 4.  Here the
system is solved by least squares (:func:`reference.solve_torsion`),
independently of the closed formulas that build ``ctx.T`` and ``ctx.omega``.
"""

import numpy as np
import pytest

from qkt.zoo import ManifoldSpec, build_structure, sample_points
from reference import solve_torsion

UNIQUE = [dict(kind="conformal_flat", n=2, f="exp(x1)"),
          dict(kind="conformal_flat", n=2, f="2+sin(3*x1*x5)+x3^2"),
          dict(kind="conformal_flat", n=3, f="exp(0.5*x2)")]
DIM4 = [dict(kind="hopf_local", n=1),
        dict(kind="dim4_torsion", n=1, t_components=("sin(x2)", "x1*x3", "0.3", "cos(x4)"))]


def solved(case: dict):
    """The unchecked structure of ``case`` at its first sample point, and the solve there."""
    spec = ManifoldSpec(point_count=1, seed=3, **case)
    ctx = build_structure(spec).at(sample_points(spec)[0])
    return ctx, solve_torsion(ctx)


@pytest.mark.parametrize("case", UNIQUE, ids=lambda case: f"n{case['n']}-{case['f']}")
def test_the_torsion_is_the_unique_solution_for_n_two_and_more(case):
    ctx, solve = solved(case)
    assert solve.kernel == 0
    assert solve.residual <= 2e-15
    assert np.max(np.abs(solve.T - ctx.T)) <= 3.4e-15
    assert np.max(np.abs(solve.omega - ctx.omega)) <= 4.2e-15


@pytest.mark.parametrize("case", DIM4, ids=lambda case: case["kind"])
def test_dimension_four_leaves_the_one_form_free(case):
    # four free directions, the 1-form t; the library's (T, omega) is one solution
    ctx, solve = solved(case)
    assert solve.kernel == 4
    assert solve.residual <= 1e-15
    assert solve.own_defect <= (1e-15 if case["kind"] == "hopf_local" else 0.0)


def test_a_tilted_triple_has_no_solution():
    # J2 tilted by 5 degrees is not hermitian for g: the system is inconsistent
    ctx, solve = solved(dict(kind="conformal_flat", n=2, f="exp(x1)", j2_tilt_degrees=5.0))
    assert solve.kernel == 0
    assert solve.residual == pytest.approx(8.6e-2, rel=0.01)
    assert solve.own_defect >= solve.residual
