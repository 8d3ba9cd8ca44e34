import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from mvgame import choquet


def discrete_phi(dist, values, probs):
    """Exact regularizer of a discrete law: the quantile is a staircase, so
    Phi_h = sum_k x_(k) [h(1 - F_{k-1}) - h(1 - F_k)]."""
    order = np.argsort(values)
    x = np.asarray(values, dtype=float)[order]
    p = np.asarray(probs, dtype=float)[order]
    cum = np.concatenate([[0.0], np.cumsum(p)])
    cum[-1] = 1.0
    return float(np.sum(x * (dist.h(1.0 - cum[:-1]) - dist.h(1.0 - cum[1:]))))


def moments(pol):
    """Mean and std of a QuantilePolicy's law by quadrature of its quantile."""
    opts = dict(epsabs=1e-13, epsrel=1e-13, limit=500)
    m, _ = quad(lambda p: float(pol.quantile(p)), 0.0, 1.0, **opts)
    m2, _ = quad(lambda p: float(pol.quantile(p)) ** 2, 0.0, 1.0, **opts)
    return m, np.sqrt(max(m2 - m * m, 0.0))


def standardized_atoms(rng, n):
    """n-point law with equal weights, exactly zero mean and unit variance."""
    x = rng.normal(size=n)
    x = x - x.mean()
    x = x / np.sqrt(np.mean(x * x))
    return x


class TestDistortionConstruction:
    def test_normal_endpoints_and_norm(self, normal_dist):
        assert normal_dist.h(0.0) == 0.0
        assert normal_dist.h(1.0) == 0.0
        assert normal_dist.l2_norm == 1.0
        assert abs(normal_dist.l2_norm_by_quadrature() - 1.0) < 1e-9

    def test_normal_h_closed_form(self, normal_dist):
        # h(p) = int_0^p z(1-s) ds equals the normal density at z(p).
        for p in (0.1, 0.3, 0.5, 0.9):
            z = ndtri(p)
            expected = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
            assert normal_dist.h(p) == pytest.approx(expected, abs=1e-12)

    def test_gini_norm(self, gini_dist):
        assert abs(gini_dist.l2_norm - 3 ** -0.5) < 1e-12
        assert abs(gini_dist.l2_norm_by_quadrature() - 3 ** -0.5) < 1e-9

    def test_convex_h_rejected(self):
        with pytest.raises(choquet.DistortionError):
            choquet.make_distortion(lambda p: np.asarray(p) ** 2 - np.asarray(p),
                                    lambda p: 2.0 * np.asarray(p) - 1.0)

    def test_nonzero_endpoint_rejected(self):
        with pytest.raises(choquet.DistortionError):
            choquet.make_distortion(lambda p: 1.0 - np.asarray(p) * 0.0,
                                    lambda p: np.zeros_like(np.asarray(p)))

    def test_analytic_norm_mismatch_rejected(self):
        with pytest.raises(choquet.DistortionError):
            choquet.make_distortion(
                lambda p: np.asarray(p) * (1.0 - np.asarray(p)),
                lambda p: 1.0 - 2.0 * np.asarray(p),
                l2_norm=0.9)

    def test_nan_endpoint_rejected(self):
        with pytest.raises(choquet.DistortionError, match="need h\\(0\\)=h\\(1\\)=0"):
            choquet.make_distortion(lambda p: np.nan * np.asarray(p),
                                    lambda p: 1.0 - 2.0 * np.asarray(p))

    def test_nan_analytic_norm_rejected(self):
        with pytest.raises(choquet.DistortionError, match="disagrees with quadrature"):
            choquet.make_distortion(
                lambda p: np.asarray(p) * (1.0 - np.asarray(p)),
                lambda p: 1.0 - 2.0 * np.asarray(p),
                l2_norm=float("nan"))

    def test_builtins_skip_the_runtime_checks(self, monkeypatch):
        """With ``family`` set, ``make_distortion`` runs neither the grid
        check nor the quadrature; the built-ins are checked below instead."""
        def fail(*args, **kwargs):
            raise AssertionError("run-time check ran for a built-in distortion")

        monkeypatch.setattr(choquet, "_check_distortion", fail)
        monkeypatch.setattr(choquet, "_l2_norm_by_quadrature", fail)
        assert choquet.make_distortion_normal().family == "normal"
        assert choquet.make_distortion_gini().family == "uniform"


@pytest.mark.parametrize("make", [choquet.make_distortion_normal,
                                  choquet.make_distortion_gini],
                         ids=["normal", "gini"])
def test_builtin_distortion_requirements(make):
    """With ``family`` set, ``make_distortion`` runs neither the quadrature
    nor the endpoint and concavity grid at run time, so the built-ins are
    checked here instead: their analytic norms against quadrature with the
    run-time check's tolerance, and endpoints and concavity on the same
    512-point grid at the same tolerances."""
    dist = make()
    assert abs(dist.h(0.0)) <= choquet._ENDPOINT_TOL
    assert abs(dist.h(1.0)) <= choquet._ENDPOINT_TOL
    p = np.linspace(0.0, 1.0, choquet._CONCAVITY_GRID + 2)[1:-1]
    hp = np.asarray(dist.h_prime(p), dtype=float)
    assert np.all(np.isfinite(hp))
    assert np.all(np.diff(hp) <= choquet._CONCAVITY_TOL)
    l2_quad = dist.l2_norm_by_quadrature()
    assert abs(dist.l2_norm - l2_quad) <= 1e-8 * max(1.0, abs(dist.l2_norm))


class TestPhiH:
    def test_constant_quantile_is_zero(self, normal_dist, gini_dist):
        for dist in (normal_dist, gini_dist):
            assert abs(choquet.phi_h(dist, lambda p: 4.2)) < 1e-12

    def test_normal_on_normal_quantile(self, normal_dist):
        val = choquet.phi_h(normal_dist, ndtri)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_gini_on_uniform(self, gini_dist):
        # Phi_{h2}(U[0,1]) is half the Gini mean difference of two iid
        # uniforms; Monte Carlo oracle, then the tight quadrature value.
        rng = np.random.default_rng(11)
        u1, u2 = rng.random(200_000), rng.random(200_000)
        mc = 0.5 * np.mean(np.abs(u1 - u2))
        se = 0.5 * np.std(np.abs(u1 - u2)) / np.sqrt(len(u1))
        assert abs(mc - 1.0 / 6.0) < 4 * se
        assert choquet.phi_h(gini_dist, lambda p: p) == pytest.approx(1 / 6, abs=1e-10)

    def test_gini_on_point_mass(self, gini_dist):
        assert discrete_phi(gini_dist, [3.7], [1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_translation_invariance(self, normal_dist):
        # numerically the shift c survives only through quadrature roundoff,
        # which grows with |c|
        base = choquet.phi_h(normal_dist, ndtri)
        for c in (-5.0, 0.3, 12.0):
            shifted = choquet.phi_h(normal_dist, lambda p, c=c: ndtri(p) + c)
            assert shifted == pytest.approx(base, abs=1e-6)

    @given(c=st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_positive_scaling(self, gini_dist, c):
        vals = np.array([-1.0, 0.2, 0.5, 2.0])
        probs = np.array([0.1, 0.4, 0.3, 0.2])
        assert discrete_phi(gini_dist, c * vals, probs) == pytest.approx(
            c * discrete_phi(gini_dist, vals, probs), rel=1e-12)


class TestOptimalQuantile:
    def test_point_mass(self, normal_dist):
        pol = choquet.build_optimal_quantile(normal_dist, 1.5, 0.0)
        assert pol.quantile(0.1) == 1.5
        assert pol.quantile(0.9) == 1.5
        assert pol.phi() == 0.0

    def test_gini_gives_uniform(self, gini_dist):
        pol = choquet.build_optimal_quantile(gini_dist, 0.0, 1.0)
        # h2'(1-p)/||h2'||_2 = sqrt(3)(2p-1): the uniform law on [-sqrt3, sqrt3]
        assert pol.quantile(0.5) == pytest.approx(0.0, abs=1e-14)
        assert pol.quantile(1.0 - 1e-12) == pytest.approx(np.sqrt(3.0), abs=1e-9)
        assert pol.quantile(0.9) == pytest.approx(np.sqrt(3.0) * 0.8, abs=1e-12)
        assert pol.phi() == pytest.approx(3 ** -0.5, abs=1e-15)
        m, s = moments(pol)
        assert m == pytest.approx(0.0, abs=1e-10)
        assert s == pytest.approx(1.0, abs=1e-9)

    def test_normal_family(self, normal_dist):
        pol = choquet.build_optimal_quantile(normal_dist, 2.0, 0.5)
        assert pol.quantile(0.8) == pytest.approx(2.0 + 0.5 * ndtri(0.8), abs=1e-12)
        val = choquet.phi_h(normal_dist, pol.quantile)
        assert val == pytest.approx(0.5, abs=1e-9)
        m, s = moments(pol)
        assert m == pytest.approx(2.0, abs=1e-10)
        assert s == pytest.approx(0.5, abs=1e-9)

    def test_negative_scale_rejected(self, normal_dist):
        with pytest.raises(ValueError):
            choquet.build_optimal_quantile(normal_dist, 0.0, -0.1)

    def test_nan_scale_rejected(self, normal_dist):
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            choquet.build_optimal_quantile(normal_dist, 0.0, float("nan"))

    def test_flat_distortion_rejected(self):
        flat = choquet.make_distortion(lambda p: np.zeros_like(np.asarray(p, dtype=float)),
                                       lambda p: np.zeros_like(np.asarray(p, dtype=float)),
                                       name="flat")
        with pytest.raises(choquet.DegenerateDistortionError):
            choquet.build_optimal_quantile(flat, 0.0, 1.0)


class TestSampling:
    def test_median_symmetry(self, normal_dist):
        pol = choquet.build_optimal_quantile(normal_dist, 3.0, 1.0)
        assert pol.quantile(0.5) == pytest.approx(3.0, abs=1e-12)

    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9),
           st.floats(min_value=1e-9, max_value=1 - 1e-9))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_u(self, gini_dist, u1, u2):
        pol = choquet.build_optimal_quantile(gini_dist, 0.3, 2.0)
        lo, hi = sorted((u1, u2))
        assert pol.quantile(lo) <= pol.quantile(hi) + 1e-15

    def test_empirical_moments(self, normal_dist):
        pol = choquet.build_optimal_quantile(normal_dist, 0.7, 1.3)
        rng = np.random.default_rng(5)
        draws = pol.quantile(rng.uniform(1e-12, 1 - 1e-12, size=1_000_000))
        se_mean = 1.3 / 1000.0
        assert abs(draws.mean() - 0.7) < 4 * se_mean
        # SE of the sample std for a normal law is s/sqrt(2n)
        assert abs(draws.std() - 1.3) < 4 * 1.3 / np.sqrt(2e6)


class TestMaximality:
    """Among laws with fixed (m, s), the constructed family attains the
    regularizer maximum s*||h'||_2; random moment-matched candidates never
    exceed it."""

    @pytest.mark.parametrize("dist_name", ["normal", "gini"])
    def test_candidates_below_max(self, dist_name, normal_dist, gini_dist):
        dist = normal_dist if dist_name == "normal" else gini_dist
        rng = np.random.default_rng(17)
        m, s = 0.4, 1.7
        bound = s * dist.l2_norm
        for trial in range(300):
            if trial % 3 == 0:
                w = rng.uniform(0.05, 0.95)
                x1 = m - s * np.sqrt((1 - w) / w)
                x2 = m + s * np.sqrt(w / (1 - w))
                phi = discrete_phi(dist, [x1, x2], [w, 1 - w])
            else:
                n = rng.integers(3, 40)
                atoms = m + s * standardized_atoms(rng, n)
                phi = discrete_phi(dist, atoms, np.full(n, 1.0 / n))
            assert phi <= bound + 1e-8

    @pytest.mark.parametrize("dist_name", ["normal", "gini"])
    def test_optimum_attains(self, dist_name, normal_dist, gini_dist):
        dist = normal_dist if dist_name == "normal" else gini_dist
        m, s = 0.4, 1.7
        pol = choquet.build_optimal_quantile(dist, m, s)
        val = choquet.phi_h(dist, pol.quantile)
        assert abs(val - s * dist.l2_norm) < 1e-8


class TestConcavityOnMixtures:
    def _phi_from_survival(self, dist, cdf, lo, hi, breaks):
        val, _ = quad(lambda x: float(dist.h(1.0 - cdf(x))), lo, hi,
                      points=sorted(breaks), limit=300, epsabs=1e-12, epsrel=1e-12)
        return val

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.8])
    def test_mixture_of_uniforms(self, gini_dist, lam):
        # U[0,1] and U[2,5]; mixture CDF is the convex combination.
        def f1(x):
            return np.clip(x, 0.0, 1.0)

        def f2(x):
            return np.clip((x - 2.0) / 3.0, 0.0, 1.0)

        phi1 = self._phi_from_survival(gini_dist, f1, -1.0, 6.0, [0, 1])
        phi2 = self._phi_from_survival(gini_dist, f2, -1.0, 6.0, [2, 5])
        mix = self._phi_from_survival(
            gini_dist, lambda x: lam * f1(x) + (1 - lam) * f2(x),
            -1.0, 6.0, [0, 1, 2, 5])
        assert mix >= lam * phi1 + (1 - lam) * phi2 - 1e-8


class TestPhiHDivergence:
    def test_non_integrable_quantile_raises(self, normal_dist):
        with pytest.raises(ValueError, match="did not converge"):
            choquet.phi_h(normal_dist, lambda p: 1.0 / (1.0 - p) ** 2)
