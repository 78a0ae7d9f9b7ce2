"""Elliptic domain data: half-periods, nome, truncation policy and the integer check.

The torus has half-periods (ell, i*delta) with ell, delta > 0.  The nome is
p = exp(-2*pi*delta/ell), so p -> 0 is the trigonometric degeneration and the
half-period ratio is tau = i*delta/ell (purely imaginary here; p = e^{2*pi*i*tau}).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, TailBoundError

_REL_EPS = 1e-12
# the one truncation rule: the largest term count and the tail each series may leave
_MAX_TERMS = 512
_TAIL_TOL = 1e-14


def _check_integers(low=None, **values):
    """DomainError unless every value is an integer (numbers.Integral, so numpy
    integers too), and at least low when low is given."""
    bad = {k: v for k, v in values.items()
           if not isinstance(v, numbers.Integral) or (low is not None and v < low)}
    if bad:
        raise DomainError(f"need integers{'' if low is None else f' >= {low}'}, got {bad}")


@dataclass(frozen=True)
class EllipticDomain:
    """Half-periods (ell, i*delta) with derived nome p and ratio tau.

    delta may be math.inf, in which case p == 0 exactly (trigonometric case);
    p == 0 only then.
    """

    ell: float
    delta: float
    p: float

    def __post_init__(self):
        if not (self.ell > 0):
            raise DomainError(f"ell must be positive, got {self.ell}")
        c = math.pi / self.ell
        if not (math.isfinite(self.ell * self.ell) and math.isfinite(c * c)):
            raise DomainError(f"ell={self.ell}: ell^2 or (pi/ell)^2 leaves the float range")
        if not (self.delta > 0):
            raise DomainError(f"delta must be positive, got {self.delta}")
        if not (0.0 <= self.p < 1.0):
            raise DomainError(f"nome p must lie in [0, 1), got {self.p}")
        if self.p == 0.0 and not math.isinf(self.delta):
            raise DomainError(f"p = 0 needs delta = inf, got delta={self.delta}")
        p_check = 0.0 if math.isinf(self.delta) else math.exp(-2.0 * math.pi * self.delta / self.ell)
        if abs(p_check - self.p) > _REL_EPS * max(1.0, abs(self.p)):
            raise DomainError(f"stored p={self.p} inconsistent with exp(-2 pi delta/ell)={p_check}")

    @property
    def tau(self) -> complex:
        """Half-period ratio i*delta/ell, derived so it cannot disagree with delta."""
        return 1j * self.delta / self.ell

    @classmethod
    def from_half_periods(cls, ell: float, delta: float) -> "EllipticDomain":
        if not (ell > 0 and delta > 0):
            raise DomainError(f"ell and delta must be positive, got ell={ell}, delta={delta}")
        p = math.exp(-2.0 * math.pi * delta / ell)
        # a nome that underflows to 0 is the trigonometric case, delta = inf
        return cls(ell=float(ell), delta=float(delta) if p > 0.0 else math.inf, p=p)

    @classmethod
    def from_nome(cls, ell: float, p: float) -> "EllipticDomain":
        if not (0.0 <= p < 1.0):
            raise DomainError(f"nome p must lie in [0, 1), got {p}")
        delta = math.inf if p == 0.0 else -float(ell) * math.log(p) / (2.0 * math.pi)
        return cls(ell=float(ell), delta=delta, p=float(p))


class TruncationPolicy:
    """Certified product/series truncation.

    A dropped tail prod_{n>N}(1 - p^n u) with |u| <= scale is bounded through
    sum_{n>N} n p^n scale <= scale * p^{N+1} (N+2) / (1-p)^2; the policy picks the
    smallest N meeting _TAIL_TOL and rejects inputs whose bound needs N > _MAX_TERMS.
    The linear factor n covers every series used here (theta products have
    constant per-term coefficients, the sigma-type sums grow linearly).
    """

    def n_terms(self, ratio: float, scale: float = 1.0) -> int:
        """Smallest N with scale * ratio^{N+1} (N+2)/(1-ratio)^2 <= _TAIL_TOL.

        A ratio outside [0, 1) is rejected: DomainError below 0 or NaN (a raw
        invalid nome), TailBoundError at 1 or more.
        """
        if ratio == 0.0:
            return 0
        if ratio >= 1.0:
            raise TailBoundError(f"series ratio {ratio} >= 1: no geometric tail bound")
        if not ratio > 0.0:
            raise DomainError(f"series ratio {ratio} outside [0, 1)")
        scale = max(scale, 1.0)
        pref = scale / (1.0 - ratio) ** 2
        n = 0
        power = ratio
        while pref * power * (n + 2) > _TAIL_TOL:
            n += 1
            power *= ratio
            if n > _MAX_TERMS:
                raise TailBoundError(
                    f"tail bound {_TAIL_TOL} needs more than {_MAX_TERMS} terms "
                    f"(ratio={ratio}, scale={scale})")
        return n


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class RuijsenaarsParams:
    """Multiplicative parameters (p, q, t) of the relativistic model.

    q = exp(-pi*hbar*beta/ell) and t = exp(-pi*g*beta/ell); hbar, beta, g enter
    only through these combinations.  p = 0 (trigonometric Macdonald case) and
    t = 1 (free case, g = 0) are both allowed as boundary points.
    """

    p: float
    q: float
    t: float

    def __post_init__(self):
        for name in ("p", "q"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise DomainError(f"{name} must lie in [0, 1), got {v}")
        if not (0.0 <= self.t <= 1.0):
            raise DomainError(f"t must lie in [0, 1], got {self.t}")
