import numpy as np
import pytest

from oracle import RefinementLimit, quadrature_oracle


class TestQuadratureOracle:
    def test_gaussian_1d(self):
        v = quadrature_oracle(lambda x: np.exp(-x * x), (-np.inf, np.inf))
        assert abs(v - np.sqrt(np.pi)) < 1e-10

    def test_complex_integrand(self):
        a = 1.0 + 0.5j
        v = quadrature_oracle(lambda x: np.exp(-a * x * x), (-np.inf, np.inf))
        assert abs(v - np.sqrt(np.pi / a)) < 1e-9

    def test_2d_product(self):
        v = quadrature_oracle(lambda x, y: np.exp(-x * x - 2 * y * y),
                              [(-8.0, 8.0), (-8.0, 8.0)], tol=1e-9)
        assert abs(v - np.pi / np.sqrt(2.0)) < 1e-8

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_refinement_limit(self):
        # genuinely nasty integrand: quad cannot certify 1e-10 here
        with pytest.raises(RefinementLimit):
            quadrature_oracle(lambda x: np.sin(1.0 / (x * x + 1e-8)),
                              (-1.0, 1.0), tol=1e-12)
