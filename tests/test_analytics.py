import numpy as np
import pytest
from scipy import integrate

from openchain import analytics


def test_two_spin_entropy_examples():
    assert analytics.two_spin_entropy(0.0) == 0.0
    assert analytics.two_spin_entropy(np.pi / 2) == pytest.approx(1.0)
    assert analytics.two_spin_entropy(np.pi) == pytest.approx(0.0, abs=1e-12)
    assert analytics.two_spin_entropy(np.pi, j=0.5) == pytest.approx(1.0)


def test_plateau_examples():
    assert analytics.plateau_terms(3.5).total == pytest.approx(0.035178, abs=5e-6)
    assert analytics.plateau_terms(2.0).total == pytest.approx(0.082502, abs=5e-6)
    assert analytics.plateau_terms(1e6).total == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        analytics.plateau_terms(0.0)
    terms = analytics.plateau_terms(2.0)
    assert terms.four_spin == pytest.approx(1.0 / 128.0)
    assert terms.total == pytest.approx(terms.two_site + terms.four_spin)


def test_plateau_monotone_decreasing_for_strong_rates():
    gammas = np.linspace(2.0, 12.0, 40)
    vals = [analytics.plateau_terms(g).total for g in gammas]
    assert np.all(np.diff(vals) < 0)


def test_two_site_term_matches_quadrature():
    # the closed form must equal the averaged short-time entropy expansion:
    # 1/2 int S1_smallt(t) f2(t) dt with S1 ~ x(1 - ln x)/ln2, x = (Jt/2)^2
    for gamma in (2.0, 3.5, 6.0):
        def integrand(t):
            x = (t / 2.0) ** 2
            s1 = x * (1.0 - np.log(x)) / np.log(2.0)
            return 0.5 * s1 * analytics.jump_time_pdf(t, 2, gamma)
        val, err = integrate.quad(integrand, 0.0, np.inf, limit=400)
        assert err < 1e-7
        assert val == pytest.approx(analytics.plateau_terms(gamma).two_site,
                                    abs=1e-6)


def test_jump_time_pdf():
    assert analytics.jump_time_pdf(0.0, 2, 1.0) == pytest.approx(2.0)
    val, _ = integrate.quad(lambda t: analytics.jump_time_pdf(t, 6, 0.7),
                            0.0, 200.0)
    assert val == pytest.approx(1.0, abs=1e-10)
    mean, _ = integrate.quad(lambda t: t * analytics.jump_time_pdf(t, 6, 0.7),
                             0.0, 200.0)
    assert mean == pytest.approx(1.0 / (6 * 0.7), abs=1e-10)
    with pytest.raises(ValueError):
        analytics.jump_time_pdf(-0.1, 2, 1.0)


def test_power_law_fit_exact():
    t = np.linspace(0.5, 10.0, 60)
    s = 0.3 * t ** 0.8
    res = analytics.fit_power_law(t, s, (1.1, 3.9))
    assert res.slope == pytest.approx(0.8, abs=1e-6)
    assert res.amplitude == pytest.approx(0.3, abs=1e-6)
    assert res.residual <= 1e-10
    assert res.kind == "power"


def test_log_growth_fit_exact():
    t = np.linspace(1.0, 40.0, 120)
    s = 0.25 * np.log2(t) + 1.0
    res = analytics.fit_log_growth(t, s, (2.0, 35.0))
    assert res.slope == pytest.approx(0.25, abs=1e-6)
    assert res.amplitude == pytest.approx(1.0, abs=1e-6)


def test_fits_invariant_under_time_rescaling():
    rng = np.random.default_rng(0)
    t = np.linspace(0.5, 10.0, 80)
    s = 0.4 * t ** 0.63 * np.exp(0.01 * rng.standard_normal(80))
    a = analytics.fit_power_law(t, s, (1.0, 9.0))
    b = analytics.fit_power_law(3.7 * t, s, (3.7, 33.3))
    assert a.slope == pytest.approx(b.slope, abs=1e-12)
    sl = 0.25 * np.log2(t) + 0.3
    la = analytics.fit_log_growth(t, sl, (1.0, 9.0))
    lb = analytics.fit_log_growth(3.7 * t, sl, (3.7, 33.3))
    assert la.slope == pytest.approx(lb.slope, abs=1e-12)


def test_fit_errors():
    t = np.linspace(0.5, 10.0, 40)
    with pytest.raises(ValueError):
        analytics.fit_power_law(t, np.zeros_like(t), (1.0, 9.0))
    with pytest.raises(ValueError):
        analytics.fit_power_law(t, t, (9.5, 9.6))  # too few points
    with pytest.raises(ValueError):
        analytics.fit_power_law(t, t, (5.0, 1.0))  # empty window
    grid = np.linspace(0.0, 10.0, 41)    # from t = 0
    for fit in (analytics.fit_power_law, analytics.fit_log_growth):
        with pytest.raises(ValueError,
                           match=r"window \(-1\.0, 5\.0\) starts below t = 0"):
            fit(grid, grid + 1.0, (-1.0, 5.0))
    res = analytics.fit_power_law(t, t, (1.0, 9.0)).to_dict()
    assert set(res) >= {"slope", "amplitude", "window", "residual", "kind"}
