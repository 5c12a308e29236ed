"""Tests for derived scales, regimes, and the timing constants."""

import math

import mpmath as mp
import pytest

from fireline.scales import (
    Regime,
    classify_regime,
    compute_scales,
    kappa0,
    kappa_z,
    m_gamma,
    pi_for_regime,
    varkappa_A,
)

mp.mp.dps = 40


def mp_scales(lam):
    lam = mp.mpf(lam)
    a = mp.log(1 / lam)
    return a, int(mp.floor(1 / (lam * a))), int(mp.floor(1 / (lam * a * a)))


def test_scales_lambda_001():
    s = compute_scales(0.01, 10.0)
    assert s.a == pytest.approx(4.605170185988091, rel=1e-12)
    assert s.n == 21
    assert s.m == 4
    assert s.eps == pytest.approx(1.0 / s.a**3, rel=1e-12)
    assert s.ratio == pytest.approx(21 / (s.a * 10.0), rel=1e-12)
    assert s.zeta == pytest.approx(0.5, rel=1e-12)
    assert s.in_asymptotic_range
    a, n, m = mp_scales("0.01")
    assert (s.n, s.m) == (n, m)
    assert s.a == pytest.approx(float(a), rel=1e-13)


def test_scales_lambda_e_minus_10():
    lam = math.exp(-10.0)
    s = compute_scales(lam, 5.0)
    assert s.a == pytest.approx(10.0, rel=1e-12)
    assert (s.n, s.m) == (2202, 220)
    a, n, m = mp_scales(mp.e**-10)
    assert (n, m) == (2202, 220)


def test_scales_ladder_values():
    # The coupling experiments rely on these exact integer scales.
    for k, n, m in [(4, 13, 3), (6, 67, 11), (8, 372, 46)]:
        s = compute_scales(math.exp(-k), 1.0)
        assert (s.n, s.m) == (n, m), k


def test_scales_rejects_bad_lambda():
    for lam in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            compute_scales(lam, 1.0)
    with pytest.raises(ValueError):
        compute_scales(0.5, 0.0)


@pytest.mark.parametrize("lam", [5e-324, 1e-310, 5.5e-309])
def test_a_lambda_whose_inverse_overflows_is_refused(lam):
    # a = log(1/lam) would be inf, and so would every raw time a * t
    for call in (
        lambda: compute_scales(lam, 2.0),
        lambda: pi_for_regime(lam, Regime.intermediate(1.0)),
        lambda: m_gamma(lam, 0.5, 0.5),
    ):
        with pytest.raises(ValueError, match=rf"lam={lam!r} is too small"):
            call()


def test_the_smallest_lambdas_keep_their_scale():
    # subnormal, but 1/lam is finite: a keeps the expression's bits
    for lam in (6e-309, 1e-308):
        assert compute_scales(lam, 2.0).a == math.log(1.0 / lam) < math.inf


def test_scales_near_one_flagged():
    s = compute_scales(0.999, 10.0)
    assert not s.in_asymptotic_range


def test_pi_for_regime_examples():
    assert pi_for_regime(0.01, Regime.intermediate(1.0)) == pytest.approx(4.56009205998, abs=1e-9)
    assert pi_for_regime(0.01, Regime.slow(0.5)) == pytest.approx(10.0, rel=1e-12)
    # fast default ratio 0.01
    pi = pi_for_regime(0.01, Regime.fast())
    s = compute_scales(0.01, pi)
    assert s.ratio == pytest.approx(0.01, rel=1e-12)


def test_pi_for_regime_range_error():
    # huge p pushes pi below 1
    with pytest.raises(ValueError):
        pi_for_regime(0.01, Regime.intermediate(100.0))


def test_classify_regime_examples():
    regime, ratio, zeta = classify_regime(0.01, 10.0)
    assert regime.kind == "intermediate"
    assert regime.p == pytest.approx(0.456009, abs=1e-6)
    assert zeta == pytest.approx(0.5, rel=1e-9)

    regime, ratio, _ = classify_regime(0.01, 1.0e4)
    assert regime.kind == "fast"
    assert ratio < 0.05

    regime, ratio, _ = classify_regime(0.01, 1.0)
    assert regime.kind == "intermediate"
    assert regime.p == pytest.approx(4.56009205998, abs=1e-6)


def test_classify_regime_slow_clamps_z0():
    regime, ratio, zeta = classify_regime(0.01, 0.2)
    assert regime.kind == "slow"
    assert ratio > 20.0
    assert zeta < 0.0
    assert regime.z0 == 0.0


def test_regime_constructors_validate():
    with pytest.raises(ValueError):
        Regime.intermediate(0.0)
    with pytest.raises(ValueError):
        Regime.slow(1.5)


def test_kappa_z_example():
    assert kappa_z(0.01, 10.0, 0.5) == pytest.approx(0.227386368356, abs=1e-9)
    with pytest.raises(ValueError):
        kappa_z(0.01, 10.0, 0.0)
    with pytest.raises(ValueError):
        kappa_z(0.01, 10.0, 1.0)


def test_kappa0_varkappa_values():
    s = compute_scales(0.01, 10.0)
    assert kappa0(0.01, 10.0) == pytest.approx(s.m / (s.a * 10.0) + s.eps, rel=1e-12)
    assert varkappa_A(0.01, 10.0, 2.0) == pytest.approx(s.n * 2.0 / (s.a * 10.0) + s.eps, rel=1e-12)
    with pytest.raises(ValueError):
        varkappa_A(0.01, 10.0, 0.0)


def test_m_gamma_values():
    lam = math.exp(-6.0)
    # z0 = 1 collapses the exponent to 1, so the window is floor(gamma/(lam*a))
    assert m_gamma(lam, 0.5, 1.0) == math.floor(0.5 / (lam * 6.0))
    got = m_gamma(lam, 0.5, 0.5)
    want = int(mp.floor(mp.mpf("0.5") / ((mp.e**-6) ** mp.mpf("0.75") * 6)))
    assert got == want
    with pytest.raises(ValueError):
        m_gamma(lam, 0.0, 0.5)
    with pytest.raises(ValueError):
        m_gamma(lam, 0.5, -0.1)


def test_monotonicity_in_lambda():
    # Sampled over the asymptotic range: 1/(lam*a^2) turns around at lam=e^-2,
    # so the grid stays below that.
    lams = [10 ** (-6 + 5.1 * i / 199) for i in range(200)]
    scales = [compute_scales(lam, 1.0) for lam in lams]
    for s1, s2 in zip(scales, scales[1:]):
        assert s2.a < s1.a  # lam increasing, a strictly decreasing
        assert s2.n <= s1.n
        assert s2.m <= s1.m


def test_kappa_z_strictly_increasing_in_z():
    # kappa_z is the fire's crossing time of lam^-z sites: more sites, more
    # time, so it increases with z (the formula 1/(lam^z a pi) pins this).
    zs = [0.05 * k for k in range(1, 20)]
    vals = [kappa_z(0.01, 10.0, z) for z in zs]
    for v1, v2 in zip(vals, vals[1:]):
        assert v2 > v1
