"""Non-finite or out-of-range numeric input is rejected with a typed error."""

import math

import numpy as np
import pytest

import nmwit
from nmwit.entanglement import _werner_thresholds
from nmwit.errors import ParameterOutOfRange

from oracles import werner_threshold_closed

NAN, INF = math.nan, math.inf
HALF = nmwit.MapFamilyPoint(0.5, 0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nmwit.werner_threshold(HALF, resolution=0.0),
        lambda: nmwit.werner_threshold(HALF, resolution=-1.0),
        lambda: nmwit.werner_threshold(HALF, resolution=NAN),
        lambda: nmwit.werner_threshold(HALF, resolution=INF),
        lambda: nmwit.constant(NAN),
        lambda: nmwit.constant(INF),
        lambda: nmwit.eternal_tanh(NAN),
        lambda: nmwit.tabulated([0.0, NAN], [1.0, 2.0]),
        lambda: nmwit.dephasing(NAN),
        lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), NAN, 0.01),
        lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), INF, 0.01),
        lambda: nmwit.small_time_map(nmwit.dephasing(-1.0), 1.0, INF),
        lambda: nmwit.MapFamilyPoint(NAN, 0.2),
        lambda: nmwit.MapFamilyPoint(0.2, -INF),
    ],
    ids=[
        "resolution=0", "resolution=-1", "resolution=nan", "resolution=inf",
        "constant-nan", "constant-inf", "tanh-scale-nan", "tabulated-time-nan",
        "dephasing-nan", "t=nan", "t=inf", "epsilon=inf",
        "gamma1=nan", "gamma2=-inf",
    ],
)
def test_bad_numeric_input_raises_parameter_out_of_range(build):
    with pytest.raises(ParameterOutOfRange):
        build()


def test_werner_threshold_ends_at_float_spacing():
    # A resolution below float spacing used to bisect forever.
    thr = nmwit.werner_threshold(HALF, resolution=1e-300)
    assert abs(thr - 1 / 3) < 1e-6
    assert abs(thr - nmwit.werner_threshold(HALF)) < 1e-6
    # In one batch, points reach float spacing after different numbers of
    # steps, and an undetected point never starts; each stops on its own.
    g1 = np.array([0.5, 0.5, 0.4, 0.3, 0.2])
    g2 = np.array([0.5, 0.3, 0.45, 0.6, 0.2])
    batch = _werner_thresholds(g1, g2, 1e-300, 1e-9)
    assert batch[-1] is None
    for a, b, thr in zip(g1[:-1], g2[:-1], batch[:-1]):
        point = nmwit.MapFamilyPoint(float(a), float(b))
        assert thr == nmwit.werner_threshold(point, resolution=1e-300)
        assert abs(thr - werner_threshold_closed(a, b)) < 1e-6
