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

import math
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
# distortion's first h or h' of more than _NDTRI_INHOUSE_MAX elements (the
# Monte Carlo engine's), so that solving, iterating, simulating and training
# load neither.
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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989) as scipy 1.17.1 ships it: a rational in (y - 1/2)^2 on the centre,
# and in 1/x with x = sqrt(-2 log y) in the tails, below and above x = 8.
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n], by Horner in cephes' order."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """x^n + coef[0] x^(n-1) + ... + coef[n-1]: the monic polevl."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


# glibc's clog(x + 0j) takes its real part as libm's log(hypot(x, 0)) = log(x)
# for a normal x >= 0 outside [0.5, 2); below DBL_MIN it rescales x first, and
# in [0.5, 2) it goes through log1p.  The tails take logs of y in (0, e^-2] and
# of x = sqrt(-2 log y) in [2, 38.6] (e^-2 as rounded has log -2.0), so only a
# subnormal y, or nan, leaves that domain.
_DBL_MIN = 2.2250738585072014e-308


def _libm_log(a):
    """libm's log of each element of the 1-d float64 ``a``, the log scipy's
    compiled ndtri calls.  np.log has its own SIMD kernels, which can differ
    from libm's in the last bit; numpy's complex log calls the C library's
    clog once per element, at C speed, and its real part is libm's log on
    clog's exact domain (``_DBL_MIN``).  Elements outside it -- subnormals,
    nan (whose sign math.log keeps) and [0.5, 2) -- take math.log."""
    r = np.log(a.astype(complex)).real
    rest = np.flatnonzero(~((a >= _DBL_MIN) & ((a < 0.5) | (a >= 2.0))))
    if rest.size:
        r[rest] = list(map(math.log, a.take(rest).tolist()))
    return r


def _ndtri(q, out=None):
    """The standard normal quantile of float64 ``q``, bit for bit with
    ``scipy.special.ndtri``: 0 gives -inf, 1 gives inf, anything outside
    [0, 1] or nan gives nan.

    The result does not depend on numpy's CPU dispatch: the arithmetic is
    +, *, / and sqrt, which IEEE 754 rounds correctly on every path, in
    cephes' order and with no fused multiply-add, and the logs are libm's
    (``_libm_log``).  A call takes two to four times as long as scipy's
    (``tools/ndtri_timing.py``), so the normal distortion calls it only for
    small arrays (``_normal_quantile``).
    """
    q = np.asarray(q, dtype=float)
    flat = q.reshape(-1)
    upper = flat > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - flat, flat)
    # the centre's rational on every element; the tails and the ends then
    # overwrite theirs, so what it makes of them (inf - inf, overflow) is moot
    with np.errstate(all="ignore"):
        c = y - 0.5
        c2 = c * c
        r = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    end = y <= 0.0  # 0, 1 and everything outside [0, 1]; not nan
    tail = np.flatnonzero(~((y > _EXP_M2) | end))  # with nan
    if tail.size:
        x = np.sqrt(-2.0 * _libm_log(y.take(tail)))
        x0 = x - _libm_log(x) / x
        z = 1.0 / x
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
        far = np.flatnonzero(~(x < 8.0))  # as cephes branches, so nan takes P2/Q2
        if far.size:
            zf = z.take(far)
            x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
        x_tail = x0 - x1
        r[tail] = np.where(upper.take(tail), x_tail, -x_tail)
    if end.any():
        ends = np.flatnonzero(end)
        q_end = flat.take(ends)
        r[ends] = np.where(q_end == 0.0, -np.inf, np.where(q_end == 1.0, np.inf, np.nan))
    if out is None:
        return r.reshape(q.shape) if q.ndim else r[0]
    out[...] = r.reshape(q.shape)
    return out


# Calls of at most this many elements -- the learner's episode, R x n_steps =
# 10 x 250, and simulate's 250 steps -- take the in-house _ndtri, so training
# and simulating never import scipy.special (about 20 MB resident).  The Monte
# Carlo engine's 128-episode blocks (32000 elements) keep scipy's: 0.45 ms a
# block against 1.3-1.4 ms in-house on one CPU (tools/ndtri_timing.py), which
# made mc_objective_table2's op time 14-34% longer when measured.
_NDTRI_INHOUSE_MAX = 2**13


def _normal_quantile(q, out=None):
    if np.size(q) <= _NDTRI_INHOUSE_MAX:
        return _ndtri(q, out=out)
    from scipy.special import ndtri

    return ndtri(q, out=out)


def _normal_h(p):
    # h(p) = int_0^p z(1-s) ds = pdf(z(p)), using d/dp pdf(z(p)) = -z(1-p)... :
    # direct antiderivative: int_0^p z(1-s) ds = phi(z(1-p)) where phi is the
    # standard normal density (phi(z(0+)) = phi(-inf) = 0).
    p = np.asarray(p, dtype=float)
    z = _normal_quantile(np.clip(1.0 - p, 1e-300, 1.0))
    out = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    out = np.where((p <= 0.0) | (p >= 1.0), 0.0, out)
    return out if out.ndim else float(out)


# The two h' below transform their one new array in place, so a call holds no
# more than one temporary the size of p (the Monte Carlo engine's memory bound).
def _normal_h_prime(p):
    q = 1.0 - np.asarray(p, dtype=float)
    return _normal_quantile(q, out=q) if q.ndim else float(_normal_quantile(q))


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
    if not distortion.l2_norm > 0.0:  # written so that NaN fails
        raise DegenerateDistortionError(
            f"{distortion.name}: ||h'||_2 = {distortion.l2_norm!r}, "
            "no nondegenerate optimal law"
        )
    return QuantilePolicy(mean=float(m), scale=float(s), distortion=distortion)

