"""Adaptive quadrature oracle for the tests.

``quadrature_oracle`` integrates by nested ``scipy.integrate.quad`` calls,
independently of the closed-form Gaussian moments the package uses, so the
tests can check those moments against it. It lives with the tests because
no program path integrates numerically.
"""

import numpy as np
import scipy.integrate

from ptembed.errors import PtError


class RefinementLimit(PtError):
    """Adaptive quadrature could not reach the requested tolerance."""


def _quad_1d(fun, a, b, tol):
    # request tighter accuracy than we verify: quad's error estimate is
    # conservative and routinely lands slightly above the requested eps
    eps = tol / 50.0
    re, err_re = scipy.integrate.quad(lambda x: np.real(fun(x)), a, b,
                                      epsabs=eps, epsrel=eps, limit=200)
    probe = fun(0.5 * (a + b) if np.isfinite(a) and np.isfinite(b) else 0.0)
    if np.iscomplexobj(np.asarray(probe)):
        im, err_im = scipy.integrate.quad(lambda x: np.imag(fun(x)), a, b,
                                          epsabs=eps, epsrel=eps, limit=200)
        val = re + 1j * im
        err = err_re + err_im
    else:
        val, err = re, err_re
    return val, err


def quadrature_oracle(integrand, region, tol=1e-10):
    """Adaptive quadrature over 1-3 dimensions.

    ``region`` is a pair ``(a, b)`` or a sequence of such pairs, with
    ``+-inf`` allowed. Complex integrands are handled componentwise. Raises
    :class:`RefinementLimit` if the error estimate exceeds ``tol`` relative
    to ``max(1, |value|)``.
    """
    region = np.asarray(region, dtype=float)
    if region.ndim == 1:
        dims = [region]
    else:
        dims = list(region)
    ndim = len(dims)
    if ndim == 1:
        val, err = _quad_1d(lambda x: integrand(x), dims[0][0], dims[0][1], tol)
    elif ndim == 2:
        def outer(y):
            v, _ = _quad_1d(lambda x: integrand(x, y), dims[0][0], dims[0][1], tol / 10)
            return v
        val, err = _quad_1d(outer, dims[1][0], dims[1][1], tol)
    elif ndim == 3:
        def outer2(z):
            def outer1(y):
                v, _ = _quad_1d(lambda x: integrand(x, y, z),
                                dims[0][0], dims[0][1], tol / 100)
                return v
            v, _ = _quad_1d(outer1, dims[1][0], dims[1][1], tol / 10)
            return v
        val, err = _quad_1d(outer2, dims[2][0], dims[2][1], tol)
    else:
        raise ValueError("only 1-3 dimensions supported")
    if err > tol * max(1.0, abs(val)):
        raise RefinementLimit(f"quadrature error {err:.3e} above tol {tol:.1e}")
    return val
