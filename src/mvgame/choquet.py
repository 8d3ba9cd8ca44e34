"""Distortion functions and the Choquet exploration regularizer.

A distortion is a concave function h on [0,1] with h(0) = h(1) = 0.  The
regularizer of a distribution with left-quantile Q is

    Phi_h = int_0^1 Q(1-p) dh(p) = int_0^1 Q(p) h'(1-p) dp,

a translation-invariant, positively homogeneous measure of the randomness
of the distribution.  Among all laws with mean m and standard deviation s,
Phi_h is maximized by the quantile function

    Q*(p) = m + s * h'(1-p) / ||h'||_2,

with maximum value s * ||h'||_2.  The two built-in distortions induce a
Gaussian family (h'(p) = z(1-p), z the standard normal quantile) and a
uniform family (h(p) = p - p^2, the Gini mean difference).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Distortion",
    "QuantilePolicy",
    "DegenerateDistortionError",
    "make_distortion",
    "make_distortion_normal",
    "make_distortion_gini",
    "phi_h",
    "build_optimal_quantile",
    "location_scale_quantile",
]

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=500)

# h(0)=h(1)=0 and concavity are necessary conditions checked on a sampled
# grid; arbitrary user-supplied h cannot be verified symbolically.
_ENDPOINT_TOL = 1e-9
_CONCAVITY_TOL = 1e-9
_CONCAVITY_GRID = 512


class DegenerateDistortionError(ValueError):
    """Raised when h' vanishes identically, so no exploration law exists."""


class DistortionError(ValueError):
    """Raised when a candidate h fails the distortion requirements."""


@dataclass(frozen=True)
class Distortion:
    """A concave distortion h with derivative h' and cached ||h'||_2.

    ``h`` maps [0,1] -> R with h(0) = h(1) = 0; ``h_prime`` is its
    derivative on (0,1).  Both accept numpy arrays.  ``family`` tags the
    two built-ins whose induced optimal law is known in closed form
    ("normal" / "uniform"); it is None for custom distortions.
    """

    h: Callable[[np.ndarray], np.ndarray]
    h_prime: Callable[[np.ndarray], np.ndarray]
    l2_norm: float
    name: str = "custom"
    family: str | None = field(default=None, compare=False)

    def l2_norm_by_quadrature(self) -> float:
        """Recompute ||h'||_2 by adaptive quadrature (independent of the cache)."""
        return _l2_norm_by_quadrature(self.h_prime)


# scipy is imported only where it is used: scipy.integrate where a quadrature
# runs (the built-in distortions and the closed-form policies need none; the
# import loads about 290 scipy modules), and scipy.special at the normal
# distortion's first h or h', so that solving and iterating load neither.
def _l2_norm_by_quadrature(h_prime) -> float:
    from scipy.integrate import quad

    sq, _ = quad(lambda p: float(h_prime(p)) ** 2, 0.0, 1.0, **_QUAD_OPTS)
    return float(np.sqrt(sq))


def _check_distortion(h, h_prime, name: str) -> None:
    h0 = float(h(0.0))
    h1 = float(h(1.0))
    # written so that NaN fails
    if not (abs(h0) <= _ENDPOINT_TOL and abs(h1) <= _ENDPOINT_TOL):
        raise DistortionError(f"{name}: need h(0)=h(1)=0, got h(0)={h0!r}, h(1)={h1!r}")
    p = np.linspace(0.0, 1.0, _CONCAVITY_GRID + 2)[1:-1]
    hp = np.asarray(h_prime(p), dtype=float)
    if not np.all(np.isfinite(hp)):
        raise DistortionError(f"{name}: h' not finite on (0,1)")
    if np.any(np.diff(hp) > _CONCAVITY_TOL):
        raise DistortionError(f"{name}: h' must be nonincreasing (h concave)")


def make_distortion(h, h_prime, name: str = "custom", l2_norm: float | None = None,
                    family: str | None = None) -> Distortion:
    """Build a :class:`Distortion`; a custom one is validated here.

    For a custom distortion (``family`` None), endpoints and concavity are
    checked on a sampled grid, and ``l2_norm``, which overrides the
    quadrature value when known analytically, is checked against
    quadrature.  Only the built-in distortions set ``family``: their
    endpoints, concavity and analytic norms are checked once, by the test
    suite, so with ``family`` set neither the grid nor the quadrature runs
    here (and building the normal distortion loads no scipy).
    """
    if family is None:
        _check_distortion(h, h_prime, name)
    if l2_norm is None:
        l2_norm = _l2_norm_by_quadrature(h_prime)
    elif family is None:
        l2_quad = _l2_norm_by_quadrature(h_prime)
        if not abs(l2_norm - l2_quad) <= 1e-8 * max(1.0, abs(l2_norm)):
            raise DistortionError(
                f"{name}: analytic ||h'||_2={l2_norm!r} disagrees with quadrature {l2_quad!r}"
            )
    return Distortion(h=h, h_prime=h_prime, l2_norm=float(l2_norm), name=name,
                      family=family)


def _normal_h(p):
    # h(p) = int_0^p z(1-s) ds = pdf(z(p)), using d/dp pdf(z(p)) = -z(1-p)... :
    # direct antiderivative: int_0^p z(1-s) ds = phi(z(1-p)) where phi is the
    # standard normal density (phi(z(0+)) = phi(-inf) = 0).
    from scipy.special import ndtri

    p = np.asarray(p, dtype=float)
    z = ndtri(np.clip(1.0 - p, 1e-300, 1.0))
    out = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    out = np.where((p <= 0.0) | (p >= 1.0), 0.0, out)
    return out if out.ndim else float(out)


# The two h' below transform their one new array in place, so a call holds no
# more than one temporary the size of p (the Monte Carlo engine's memory bound).
def _normal_h_prime(p):
    from scipy.special import ndtri

    q = 1.0 - np.asarray(p, dtype=float)
    return ndtri(q, out=q) if q.ndim else float(ndtri(q))


def make_distortion_normal() -> Distortion:
    """Distortion h1(p) = int_0^p z(1-s) ds; the optimal family is Gaussian.

    ||h1'||_2^2 = int_0^1 z(p)^2 dp = E[Z^2] = 1.
    """
    return make_distortion(_normal_h, _normal_h_prime, name="normal", l2_norm=1.0,
                           family="normal")


def _gini_h(p):
    return np.asarray(p, dtype=float) * (1.0 - np.asarray(p, dtype=float))


def _gini_h_prime(p):
    q = 2.0 * np.asarray(p, dtype=float)
    return np.subtract(1.0, q, out=q) if q.ndim else 1.0 - q


def make_distortion_gini() -> Distortion:
    """Gini mean difference distortion h2(p) = p - p^2; optimal family is uniform.

    ||h2'||_2^2 = int_0^1 (1-2p)^2 dp = 1/3.
    """
    return make_distortion(_gini_h, _gini_h_prime, name="gini", l2_norm=1.0 / np.sqrt(3.0),
                           family="uniform")


def phi_h(distortion: Distortion, quantile_fn: Callable[[float], float]) -> float:
    """Evaluate Phi_h(Pi) = int_0^1 Q(p) h'(1-p) dp by adaptive quadrature.

    ``quantile_fn`` is the left-quantile Q of the distribution; it may be
    unbounded at the endpoints as long as the integral converges.
    """
    from scipy.integrate import IntegrationWarning, quad

    def integrand(p: float) -> float:
        return float(quantile_fn(p)) * float(distortion.h_prime(1.0 - p))

    with warnings.catch_warnings():
        # quad flags roundoff-limited accuracy on hard integrands; the value
        # is still good and the abserr estimate below is the real gate.
        warnings.simplefilter("ignore", IntegrationWarning)
        val, abserr = quad(integrand, 0.0, 1.0, **_QUAD_OPTS)
    if not np.isfinite(val) or abserr > 1e-3 * max(1.0, abs(val)):
        raise ValueError(
            f"Phi_h quadrature did not converge (value={val!r}, abserr={abserr!r})"
        )
    return float(val)


def location_scale_quantile(mean, scale, distortion: Distortion, p):
    """mean + scale * h'(1-p) / ||h'||_2, elementwise over broadcast arrays:
    the quantile at p of the location-scale law over h'."""
    return mean + scale * distortion.h_prime(1.0 - np.asarray(p, dtype=float)) \
        / distortion.l2_norm


@dataclass(frozen=True)
class QuantilePolicy:
    """Location-scale exploration law over a distortion derivative.

    Quantile function p -> mean + scale * h'(1-p) / ||h'||_2.  The induced
    distribution has mean ``mean``, standard deviation ``scale``, and
    regularizer value Phi_h = scale * ||h'||_2 (the constrained maximum).
    """

    mean: float
    scale: float
    distortion: Distortion

    def quantile(self, p):
        out = np.asarray(location_scale_quantile(self.mean, self.scale, self.distortion, p))
        return out if out.ndim else float(out)

    def phi(self) -> float:
        """Analytic regularizer value s * ||h'||_2."""
        return self.scale * self.distortion.l2_norm


def build_optimal_quantile(distortion: Distortion, m: float, s: float) -> QuantilePolicy:
    """Maximal-exploration law with mean m and standard deviation s >= 0."""
    if not s >= 0.0:  # written so that NaN fails
        raise ValueError(f"scale must be nonnegative, got {s!r}")
    if distortion.l2_norm <= 0.0:
        raise DegenerateDistortionError(
            f"{distortion.name}: ||h'||_2 = 0, no nondegenerate optimal law"
        )
    return QuantilePolicy(mean=float(m), scale=float(s), distortion=distortion)

