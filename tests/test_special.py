import numpy as np
from scipy.special import erf as reference

from ptembed.special import erf


def test_erf_matches_scipy():
    # the default ramp's slab arguments lie within |Re z| <= 12.1, |Im z| <= 1.4e-4
    re, im = np.meshgrid(np.linspace(-15.0, 15.0, 1501), np.linspace(-1.0, 1.0, 101))
    z = np.concatenate([(re + 1j * im).ravel(), [0.0, 1e-300, -1e-300j, 30.0, -40.0 + 0.5j]])
    assert np.max(np.abs(erf(z) - reference(z))) <= 1e-14
