import math

import numpy as np
import pytest

from ellipcmr.domain import EllipticDomain, RuijsenaarsParams, TruncationPolicy, _check_integers
from ellipcmr.errors import DomainError, EllipcmrError, TailBoundError
from ellipcmr.gamma import weight_W
from ellipcmr.pseries import solve_variant_I
from ellipcmr.theta import log_theta_q, theta_q
from ellipcmr.transform import (Partition2, assemble_P_lambda, contour_F_lambda,
                                n2_single_contour_P)


def test_nome_roundtrip():
    d = EllipticDomain.from_half_periods(2.0, 0.7)
    assert d.p == math.exp(-2 * math.pi * 0.7 / 2.0)
    d2 = EllipticDomain.from_nome(2.0, d.p)
    assert abs(d2.delta - 0.7) < 1e-14


def test_tau_relation():
    d = EllipticDomain.from_half_periods(1.5, 0.4)
    assert d.tau * d.ell / 1j == 0.4


def test_trigonometric_domain():
    d = EllipticDomain.from_nome(2.0, 0.0)
    assert d.p == 0.0 and math.isinf(d.delta)


def test_inconsistent_p_rejected():
    with pytest.raises(DomainError):
        EllipticDomain(ell=2.0, delta=0.7, p=0.5)
    with pytest.raises(DomainError):               # p = 0 holds only at delta = inf
        EllipticDomain(ell=1e-4, delta=2.0, p=0.0)


@pytest.mark.parametrize("ell, delta", [(0.0, 0.5), (-1e-300, 0.5)])
def test_half_periods_must_be_positive(ell, delta):
    # checked before exp(-2 pi delta/ell), which divides by ell and can overflow
    with pytest.raises(DomainError):
        EllipticDomain.from_half_periods(ell, delta)


def test_direct_negative_delta_rejected():
    with pytest.raises(DomainError, match="delta must be positive"):
        EllipticDomain(1.0, -1.0, 0.5)


def test_underflowing_nome_is_the_trigonometric_case():
    # exp(-2 pi delta/ell) underflows to 0, so delta becomes inf as at p = 0
    assert EllipticDomain.from_half_periods(1e-4, 2.0) == EllipticDomain.from_nome(1e-4, 0.0)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_nome_range(bad):
    with pytest.raises(DomainError):
        EllipticDomain.from_nome(2.0, bad)


def test_one_integer_check():
    _check_integers(n=3, m=np.int64(-2), k=np.uint8(0))
    _check_integers(0, k=0)
    for low, bad in [(None, 2.0), (None, "3"), (None, None), (None, np.float64(1.0)),
                     (1, 0), (0, -1)]:
        with pytest.raises(DomainError, match="need integers"):
            _check_integers(low, n=bad)


def test_policy_counts_grow_with_ratio():
    pol = TruncationPolicy()
    assert pol.n_terms(0.0) == 0
    assert pol.n_terms(0.05) < pol.n_terms(0.2) < pol.n_terms(0.9)


def test_policy_certified_bound():
    pol = TruncationPolicy()
    n = pol.n_terms(0.2, scale=3.0)
    assert 3.0 * 0.2 ** (n + 1) * (n + 2) / (1 - 0.2) ** 2 <= 1e-14


def test_policy_rejects_unbounded():
    pol = TruncationPolicy()
    with pytest.raises(TailBoundError):
        pol.n_terms(0.99)
    with pytest.raises(TailBoundError):
        pol.n_terms(1.0)


@pytest.mark.parametrize("bad", [-0.1, -math.inf, math.nan])
def test_policy_rejects_invalid_ratio(bad):
    # a negative or NaN ratio has no tail bound; it must not read as the p = 0 case
    with pytest.raises(DomainError):
        TruncationPolicy().n_terms(bad)
    assert TruncationPolicy().n_terms(-0.0) == 0


Z = np.exp(1j * np.array([0.5, 0.3]))
RAW_NOME_CALLS = {
    "theta_q": lambda p: theta_q(0.5, p),
    "log_theta_q": lambda p: log_theta_q(0.5, p),
    "weight_W": lambda p: weight_W(Z, 1.0, p),
    "n2_single_contour_P": lambda p: n2_single_contour_P(1, 0, Z, 1.0, p),
    "contour_F_lambda": lambda p: contour_F_lambda(1, 0, Z, 1.0, p),
    "assemble_P_lambda": lambda p: assemble_P_lambda(
        Partition2(1, 0), solve_variant_I((2.0, -1.0), 2.0, 4), Z, 2.0, p),
}


@pytest.mark.parametrize("p", [math.nan, -0.1])
@pytest.mark.parametrize("name", RAW_NOME_CALLS)
def test_raw_nome_outside_range_raises(name, p):
    # functions that take a raw nome p, not an EllipticDomain, reject invalid ones
    with pytest.raises(EllipcmrError):
        RAW_NOME_CALLS[name](p)


def test_ruijsenaars_params_ranges():
    RuijsenaarsParams(p=0.0, q=0.3, t=1.0)
    with pytest.raises(DomainError):
        RuijsenaarsParams(p=1.0, q=0.3, t=0.5)
    with pytest.raises(DomainError):
        RuijsenaarsParams(p=0.1, q=0.3, t=1.5)
