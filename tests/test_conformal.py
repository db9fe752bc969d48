import numpy as np
import pytest

from qkt.conformal import (
    ConformalFactor,
    conformal_law_residuals,
    conformal_rescale,
    lchkt_residual,
    lcqk_residual,
)
from qkt.errors import GeometryError
from qkt.expressions import parse_expression
from qkt.qkt_connection import (
    build_qkt,
    structure_invariant_residuals,
    torsion_one_forms,
)
from qkt.quaternionic import build_standard_hypercomplex
from qkt.tensor_core import (
    ConformalMetric,
    ConstantForm,
    ConstantMetric,
    CoordinatePatch,
    FDScheme,
    FormField,
    fold,
)

SCHEME = FDScheme()


def flat_struct(n, lo=-0.6, hi=0.6):
    dim = 4 * n
    eye = np.eye(dim)
    patch = CoordinatePatch(n=n, lo=lo * np.ones(dim), hi=hi * np.ones(dim),
                            metric=ConstantMetric(eye))
    if n == 1:
        return build_qkt(patch, build_standard_hypercomplex(1),
                         SCHEME, ConstantForm(1, np.zeros(4)))
    return build_qkt(patch, build_standard_hypercomplex(n), SCHEME)


def law_residuals(base, barred, points):
    """The worst transformation-law residuals of ``barred``, a structure on a
    conformal metric, against ``base`` over ``points``."""
    out = {}
    for p in points:
        fold(out, conformal_law_residuals(base.at(p), barred.at(p)))
    return out


EXP_FACTOR = ConformalFactor(parse_expression("exp(x1)"))
POINT8 = np.array([0.05, -0.1, 0.2, 0.0, 0.11, -0.02, 0.3, -0.2])
POINT4 = np.array([0.03, -0.12, 0.2, 0.07])


def test_identity_factor_changes_nothing():
    base = flat_struct(2)
    same = conformal_rescale(base, ConformalFactor(lambda p: 1.0))
    assert np.max(np.abs(same.at(POINT8).T - base.at(POINT8).T)) <= 1e-12
    assert np.max(np.abs(same.at(POINT8).Gamma - base.at(POINT8).Gamma)) <= 1e-12


def test_rescaled_structure_passes_invariants():
    rescaled = conformal_rescale(flat_struct(2), EXP_FACTOR)
    inv = structure_invariant_residuals(rescaled.at(POINT8))
    assert inv["torsion_skew"] <= 1e-10
    assert inv["metricity"] <= 1e-5
    assert inv["torsion_purity"] <= 1e-5
    assert inv["eq1"] <= 1e-5


def test_laws_trivial_for_constant_factor():
    base = flat_struct(2)
    out = law_residuals(base, conformal_rescale(base, ConformalFactor(lambda p: 2.0)),
                        [POINT8])
    for key, value in out.items():
        assert value <= 1e-8, key


@pytest.mark.parametrize("n", [1, 2])
def test_laws_exponential_factor(n):
    base = flat_struct(n)
    points = [np.full(4 * n, 0.1), np.full(4 * n, -0.15)]
    out = law_residuals(base, conformal_rescale(base, EXP_FACTOR), points)
    assert ("z3_K" in out) == (n >= 2)
    for key, value in out.items():
        assert value <= 1e-5, key


def test_laws_against_independently_built_structure():
    # the rescaled metric structure built from its own compatibility data
    # by build_qkt on a conformal patch satisfies the same transport laws
    base = flat_struct(2)
    patch = CoordinatePatch(n=2, lo=base.patch.lo, hi=base.patch.hi,
                            metric=ConformalMetric(EXP_FACTOR, base.patch.metric))
    independent = build_qkt(patch, build_standard_hypercomplex(2), SCHEME)
    out = law_residuals(base, independent, [POINT8])
    for key, value in out.items():
        assert value <= 1e-5, key


def test_rescale_composition():
    base = flat_struct(2)
    f = ConformalFactor(parse_expression("exp(x1)"))
    h = ConformalFactor(parse_expression("1+x2^2"))
    two_step = conformal_rescale(conformal_rescale(base, f), h)
    product = ConformalFactor(lambda p: np.exp(p[..., 0]) * (1 + p[..., 1] ** 2))
    one_step = conformal_rescale(base, product)
    assert np.max(np.abs(two_step.at(POINT8).T - one_step.at(POINT8).T)) <= 1e-5


def test_hopf_one_form_value():
    # t for the rescale of flat R^4 by 1/|x|^2 equals -3 d ln f
    dim = 4
    patch = CoordinatePatch(n=1, lo=0.7 * np.ones(dim), hi=1.3 * np.ones(dim),
                            metric=ConstantMetric(np.eye(dim)))
    base = build_qkt(patch, build_standard_hypercomplex(1),
                     SCHEME, ConstantForm(1, np.zeros(4)))
    factor = ConformalFactor(parse_expression("1/(x1^2+x2^2+x3^2+x4^2)"))
    rescaled = conformal_rescale(base, factor)
    p = np.array([1.0, 0.9, 1.1, 0.8])
    *_, t = torsion_one_forms(rescaled, p)
    dln = -2.0 * p / float(p @ p)
    assert np.max(np.abs(t + 3.0 * dln)) <= 1e-5


def test_lcqk_residual_cases():
    base = flat_struct(2)
    assert lcqk_residual(base.at(POINT8)) <= 1e-10
    rescaled = conformal_rescale(base, EXP_FACTOR)
    assert lcqk_residual(rescaled.at(POINT8)) <= 1e-5


def test_lcqk_shape_trivial_in_dim4():
    t_form = FormField(1, lambda q: np.sin(q[..., 1, None]) * np.eye(4)[0])
    dim4 = build_qkt(flat_struct(1).patch, build_standard_hypercomplex(1),
                     SCHEME, t_form)
    # torsion-shape part vanishes identically; the residual is |dt|
    residual = lcqk_residual(dim4.at(POINT4))
    assert residual == pytest.approx(abs(np.cos(POINT4[1])), abs=1e-5)


def test_lchkt_residual_cases():
    base = flat_struct(2)
    assert lchkt_residual(base.at(POINT8)) <= 1e-10
    rescaled = conformal_rescale(base, EXP_FACTOR)
    # the candidate 1-form is a multiple of d ln f, hence closed
    assert lchkt_residual(rescaled.at(POINT8)) <= 1e-4


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_factor_rejected(bad):
    with pytest.raises(GeometryError):
        ConformalFactor(lambda p: bad).value(POINT8)


def test_nonpositive_factor_rejected():
    base = flat_struct(2)
    with pytest.raises(GeometryError):
        conformal_rescale(base, ConformalFactor(lambda p: -1.0)).at(POINT8).T
