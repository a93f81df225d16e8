import numpy as np
import pytest

import nmwit

from oracles import spa_onset_bisect

EPS = 0.01


def _dephasing_map(gamma=-1.0, eps=EPS):
    return nmwit.small_time_map(nmwit.dephasing(gamma), 0.0, eps)


def _optimal_p(m):
    return nmwit.optimal_decomposition(nmwit.choi_of(m)).omega


def _mix_min_eig(m, p):
    """Minimum eigenvalue of the Choi state p*I/4 + (1-p)*C of the depolarizer mixture."""
    return np.linalg.eigvalsh(p * np.eye(4) / 4 + (1 - p) * nmwit.choi_of(m).matrix)[0]


@pytest.mark.parametrize("eps", [0.005, 0.01, 0.05])
def test_optimal_p_dephasing_formula(eps):
    p = _optimal_p(_dephasing_map(eps=eps))
    assert p == pytest.approx(4 * eps / (1 + 4 * eps), abs=1e-12)


def test_optimal_p_cp_map_is_zero():
    assert _optimal_p(_dephasing_map(gamma=1.0)) == 0.0


def test_optimal_p_eternal_depolarizer():
    m = nmwit.small_time_map(nmwit.eternal_depolarizer(), 1.0, EPS)
    th = np.tanh(1.0)
    assert _optimal_p(m) == pytest.approx(4 * EPS * th / (1 + 4 * EPS * th), abs=1e-12)
    assert _optimal_p(m) == pytest.approx(0.029563161011900832, abs=1e-12)


def test_optimal_p_agrees_with_bisection_oracle():
    rng = np.random.default_rng(41)
    for _ in range(100):
        g = tuple(rng.uniform(-1.0, 1.0, size=3))
        m = nmwit.small_time_map(nmwit.depolarizer(*g), 0.0, rng.uniform(0.001, 0.05))
        onset = spa_onset_bisect(nmwit.choi_of(m).matrix)
        assert abs(_optimal_p(m) - onset) < 1e-8


def test_optimal_decomposition_dephasing_constants():
    dec = nmwit.optimal_decomposition(nmwit.choi_of(_dephasing_map()))
    assert dec.omega == pytest.approx(0.038461538461538464, abs=1e-12)
    assert dec.nu == pytest.approx(0.9615384615384615, abs=1e-12)
    assert dec.lambda_minus == pytest.approx(0.01, abs=1e-12)


def test_optimal_decomposition_eternal_constants():
    m = nmwit.small_time_map(nmwit.eternal_depolarizer(), 1.0, EPS)
    dec = nmwit.optimal_decomposition(nmwit.choi_of(m))
    th = np.tanh(1.0)
    assert dec.omega == pytest.approx(4 * EPS * th / (1 + 4 * EPS * th), abs=1e-12)
    assert dec.nu == pytest.approx(1 / (1 + 4 * EPS * th), abs=1e-12)


def test_optimal_decomposition_cp_map():
    m = _dephasing_map(gamma=1.0)
    dec = nmwit.optimal_decomposition(nmwit.choi_of(m))
    assert dec.omega == 0.0 and dec.nu == 1.0
    assert np.abs(dec.spa_choi.matrix - nmwit.choi_of(m).matrix).max() < 1e-15


def test_spa_choi_sits_on_the_cp_boundary():
    for m in (
        _dephasing_map(),
        nmwit.small_time_map(nmwit.eternal_depolarizer(), 0.5, EPS),
        nmwit.small_time_map(nmwit.depolarizer(0.4, -0.8, 0.2), 0.0, 0.02),
    ):
        dec = nmwit.optimal_decomposition(nmwit.choi_of(m))
        lam0 = dec.spa_choi.spectrum.eigenvalues[0]
        assert abs(lam0) < 1e-9
        below = _mix_min_eig(m, max(dec.omega - 1e-3, 0.0))
        above = _mix_min_eig(m, min(dec.omega + 1e-3, 1.0))
        assert below < -1e-9
        assert above > 1e-9


def test_omega_nu_sum_and_trace():
    for gamma in (-1.0, -0.3):
        dec = nmwit.optimal_decomposition(nmwit.choi_of(_dephasing_map(gamma=gamma)))
        assert dec.omega + dec.nu == pytest.approx(1.0, abs=1e-12)
        assert np.trace(dec.spa_choi.matrix).real == pytest.approx(1.0, abs=1e-12)
        d2 = 4.0
        assert dec.nu == pytest.approx(1 / (dec.lambda_minus * d2 + 1), abs=1e-12)
        assert dec.omega == pytest.approx(dec.lambda_minus * d2 / (dec.lambda_minus * d2 + 1), abs=1e-12)


def test_optimal_p_monotone_in_negativity():
    values = [_optimal_p(_dephasing_map(gamma=-g)) for g in np.linspace(0.0, 2.0, 21)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
