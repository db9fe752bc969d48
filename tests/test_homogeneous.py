"""The paper's homogeneous case as a check: on ``hopf_local`` the torsion is parallel.

``hopf_local`` is R^4 minus the origin with g = |x|^-2 delta and the
standard triple.  In the coordinate s = ln|x| the metric is ds^2 + g_{S^3},
the round unit 3-sphere times a line.  The maps x -> lambda x q (lambda > 0,
q a unit quaternion multiplying on the side that commutes with the triple)
preserve g and the triple and act transitively, so the model is
homogeneous, and the QKT connection, which the metric and the triple
determine, is invariant.  The paper describes the 4-dimensional
homogeneous QKT structures through naturally reductive homogeneous
Riemannian manifolds.  By Ambrose & Singer (Duke Math. J. 25, 1958) and
Tricerri & Vanhecke (LMS Lecture Notes 83, 1983), a homogeneous structure
is a metric connection whose torsion T and curvature R are parallel,
nabla T = 0 and nabla R = 0, and it is naturally reductive exactly when T
is totally skew, as the QKT torsion is.  So on this model nabla T vanishes
(|T| itself is about 0.76 at the sample points, and the curvature is not
zero), and what the nested central differences read is truncation, O(h^2).

The bound comes from halving both steps twice on the 20 sample points of
the default spec (seed 42).  max|nabla T| read 6.56e-7, 1.63e-7 and
4.33e-8 at (h, h2) = (1e-4, 1e-3) and at 1/2 and 1/4 of it: fitted
orders 2.01 and 1.92, and a truncation constant max|nabla T| / h2^2 of
0.66 to 0.69.  The test asserts that the order fitted over the three steps
lies in [1.5, 2.5] and that every reading stays below 2 h2^2, three times
the constant.  A torsion that is not parallel reads O(1) at every step and
fails both: the controls ``dim4_torsion`` with t = (sin x2, 0, 0.3 x1, 0)
read 1.00, and ``conformal_flat`` at n = 1 with f = exp(x1) reads 2.20.

nabla R = 0 needs a third derivative, which the nested central scheme
cannot take to useful accuracy; it stays untested.
"""

import dataclasses

import numpy as np
import pytest

from qkt.zoo import ManifoldSpec, build_structure, sample_points

SCALES = (1.0, 0.5, 0.25)
# max|nabla T| / h2^2 read 0.66 to 0.69 on hopf_local; three times that
TRUNCATION_CONSTANT = 2.0

HOPF = ManifoldSpec(kind="hopf_local", n=1, seed=42)
CONTROLS = (ManifoldSpec(kind="dim4_torsion", n=1, t_components=("sin(x2)", "0", "0.3*x1", "0")),
            ManifoldSpec(kind="conformal_flat", n=1, f="exp(x1)"))


def nabla_T_readings(spec: ManifoldSpec):
    """(h2, max|nabla T|, max|T|) at each step scale of SCALES, on the sample
    points of ``spec`` at its own steps, which every smaller margin keeps inside."""
    points = np.array(sample_points(spec))
    readings = []
    for scale in SCALES:
        scaled = dataclasses.replace(spec, h=spec.h * scale, h2=spec.h2 * scale)
        ctx = build_structure(scaled).at(points)
        readings.append((scaled.h2, np.max(np.abs(ctx.nabla_T)), np.max(np.abs(ctx.T))))
    return np.array(readings)


def fitted_order(readings: np.ndarray) -> float:
    """The least-squares slope of log max|nabla T| over log h2."""
    return float(np.polyfit(np.log(readings[:, 0]), np.log(readings[:, 1]), 1)[0])


def within_bound(readings: np.ndarray) -> bool:
    return bool(np.all(readings[:, 1] <= TRUNCATION_CONSTANT * readings[:, 0] ** 2))


def test_hopf_torsion_is_parallel_up_to_second_order_truncation():
    readings = nabla_T_readings(HOPF)
    # a torsion of size O(1), so that its parallelism says something
    assert np.all(readings[:, 2] > 0.5)
    assert 1.5 <= fitted_order(readings) <= 2.5, readings
    assert within_bound(readings), readings


@pytest.mark.parametrize("spec", CONTROLS, ids=lambda spec: spec.kind)
def test_a_torsion_that_is_not_parallel_fails_the_check(spec):
    readings = nabla_T_readings(spec)
    assert np.all(readings[:, 1] > 0.5), readings
    assert abs(fitted_order(readings)) < 0.1
    assert not within_bound(readings)
