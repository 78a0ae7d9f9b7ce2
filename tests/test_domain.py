import math

import pytest

from ellipcmr.domain import EllipticDomain, RuijsenaarsParams, TruncationPolicy
from ellipcmr.errors import DomainError, TailBoundError


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


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_nome_range(bad):
    with pytest.raises(DomainError):
        EllipticDomain.from_nome(2.0, bad)


def test_policy_counts_grow_with_ratio():
    pol = TruncationPolicy()
    assert pol.n_terms(0.0) == 0
    assert pol.n_terms(0.05) < pol.n_terms(0.2) < pol.n_terms(0.9)


def test_policy_certified_bound():
    pol = TruncationPolicy(tail_tol=1e-14)
    n = pol.n_terms(0.2, scale=3.0)
    assert 3.0 * 0.2 ** (n + 1) * (n + 2) / (1 - 0.2) ** 2 <= 1e-14


def test_policy_rejects_unbounded():
    pol = TruncationPolicy(max_terms=16)
    with pytest.raises(TailBoundError):
        pol.n_terms(0.99)
    with pytest.raises(TailBoundError):
        pol.n_terms(1.0)


def test_ruijsenaars_params_ranges():
    RuijsenaarsParams(p=0.0, q=0.3, t=1.0)
    with pytest.raises(DomainError):
        RuijsenaarsParams(p=1.0, q=0.3, t=0.5)
    with pytest.raises(DomainError):
        RuijsenaarsParams(p=0.1, q=0.3, t=1.5)
