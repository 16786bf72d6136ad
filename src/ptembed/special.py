"""Special functions on numpy arrays.

:func:`erf` is the error function of complex arguments, which the slab
integrals of :func:`ptembed.variational.box_observables` need; it keeps the
package's runtime on numpy alone.
"""

import math

import numpy as np

# Weideman's rational approximation of the Faddeeva function with N = 40
# terms (SIAM J. Numer. Anal. 31, 1497, 1994): the scale L = sqrt(N/sqrt 2)
# and the coefficients of the polynomial in Z = (L + iz)/(L - iz), highest
# power first, as his algorithm computes them by FFT of
# exp(-t^2) (L^2 + t^2) at t = L tan(theta/2)
_FADDEEVA_L = 5.3182958969449885
_FADDEEVA_COEFFS = np.array([
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
])


def _faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, Weideman's approximation."""
    den = _FADDEEVA_L - 1j * z
    big_z = (_FADDEEVA_L + 1j * z) / den
    return 2.0 * np.polyval(_FADDEEVA_COEFFS, big_z) / den**2 + (1.0 / math.sqrt(math.pi)) / den


def erf(z):
    """The error function of complex ``z``, elementwise: erf(z) = 1 -
    exp(-z^2) w(iz) for Re z >= 0, odd in z. Within 2e-15 of
    ``scipy.special.erf`` (absolute) on |Re z| <= 15, |Im z| <= 1."""
    z = np.asarray(z, dtype=complex)
    sign = np.where(z.real < 0.0, -1.0, 1.0)
    u = sign * z
    return sign * (1.0 - np.exp(-u * u) * _faddeeva(1j * u))
