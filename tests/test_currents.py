import math

import numpy as np
import pytest

from subsim import currents as cur


def two_layer_db():
    return cur.StratifiedCurrentDB(
        [cur.Stratum(0.0, (1.0, 0.0, 0.0)), cur.Stratum(100.0, (0.0, 0.0, 0.0))]
    )


def test_interpolation_linear_midpoint():
    assert np.allclose(two_layer_db().interpolate(50.0), [0.5, 0.0, 0.0])


def test_interpolation_clamps_below_deepest():
    assert np.allclose(two_layer_db().interpolate(200.0), [0.0, 0.0, 0.0])
    assert np.allclose(two_layer_db().interpolate(-5.0), [1.0, 0.0, 0.0])


def test_interpolation_exact_at_stratum():
    db = cur.StratifiedCurrentDB(
        [cur.Stratum(0.0, (0.3, -0.1, 0.02)), cur.Stratum(40.0, (0.7, 0.2, -0.01))]
    )
    assert db.interpolate(40.0).tolist() == [0.7, 0.2, -0.01]


def test_interpolation_continuous_in_depth():
    db = cur.StratifiedCurrentDB(
        [cur.Stratum(d, (math.sin(d), math.cos(d), 0.0)) for d in (0.0, 10.0, 25.0, 80.0)]
    )
    for d in (10.0, 25.0):
        below = db.interpolate(d - 1e-9)
        above = db.interpolate(d + 1e-9)
        assert np.allclose(below, above, atol=1e-7)


def test_db_validation():
    with pytest.raises(cur.CurrentError):
        cur.StratifiedCurrentDB([])
    with pytest.raises(cur.CurrentError):
        cur.StratifiedCurrentDB([cur.Stratum(10.0, (0, 0, 0)), cur.Stratum(10.0, (0, 0, 0))])
    for depths in ([math.nan], [0.0, math.nan], [math.nan, 10.0], [0.0, 10.0, math.nan], [0.0, math.inf],
                   [-math.inf, 0.0]):
        with pytest.raises(cur.CurrentError, match="^strata depths must be finite and strictly increasing$"):
            cur.StratifiedCurrentDB([cur.Stratum(d, (0, 0, 0)) for d in depths])


# --- Gauss-Markov ---------------------------------------------------------------


def test_gm_noise_free_decay_matches_closed_form():
    state = cur.GaussMarkovState(mu=0.1, sigma=0.0, delta_v=(1.0, 0.0, 0.0))
    for k in range(1, 21):
        state.step(1.0)
        assert state.delta_v[0] == pytest.approx(math.exp(-0.1 * k), abs=1e-9)


def test_gm_zero_mu_zero_sigma_is_frozen():
    state = cur.GaussMarkovState(mu=0.0, sigma=0.0, delta_v=(0.4, -0.2, 0.1))
    for _ in range(100):
        state.step(0.5)
    assert state.delta_v.tolist() == [0.4, -0.2, 0.1]


def test_gm_noise_free_contraction():
    state = cur.GaussMarkovState(mu=0.7, sigma=0.0, delta_v=(0.8, -0.6, 0.3))
    prev = np.linalg.norm(state.delta_v)
    for _ in range(50):
        state.step(0.25)
        now = np.linalg.norm(state.delta_v)
        assert now < prev
        prev = now


def test_gm_stationary_variance():
    mu, sigma = 0.5, 0.2
    state = cur.GaussMarkovState(mu=mu, sigma=sigma, bound=10.0, seed=77)
    n = 100_000
    samples = np.empty(n)
    for k in range(n):
        samples[k] = state.step(0.1)[0]
    burn = samples[2000:]
    assert np.var(burn) == pytest.approx(sigma**2 / (2.0 * mu), rel=0.1)


def test_gm_determinism_and_seed_independence():
    a = cur.GaussMarkovState(mu=0.2, sigma=0.1, seed=5)
    b = cur.GaussMarkovState(mu=0.2, sigma=0.1, seed=5)
    c = cur.GaussMarkovState(mu=0.2, sigma=0.1, seed=6)
    for _ in range(100):
        va, vb, vc = a.step(0.1), b.step(0.1), c.step(0.1)
    assert np.array_equal(va, vb)
    assert not np.array_equal(va, vc)


def test_gm_saturation_bound():
    state = cur.GaussMarkovState(mu=0.0, sigma=5.0, bound=0.3, seed=8)
    for _ in range(200):
        v = state.step(1.0)
        assert np.all(np.abs(v) <= 0.3)


@pytest.mark.parametrize("field", ["mu", "sigma", "bound"])
def test_gm_state_rejects_nan_parameters(field):
    params = {"mu": 0.1, "sigma": 0.1, "bound": 1.0, field: math.nan}
    with pytest.raises(cur.CurrentError, match=f"^{field} must be >= 0, got nan$"):
        cur.GaussMarkovState(**params)


def test_gm_step_terms_overflow_where_sigma_squared_does():
    assert cur.GaussMarkovParams(0.0, 1e300).step_terms(0.1) == (1.0, 1e300 * math.sqrt(0.1))
    with pytest.raises(OverflowError):
        cur.GaussMarkovParams(0.05, 1e300).step_terms(0.1)


def test_gm_rejects_bad_dt():
    state = cur.GaussMarkovState(mu=0.1, sigma=0.1)
    with pytest.raises(cur.CurrentError):
        state.step(0.0)
    with pytest.raises(cur.CurrentError):
        state.step(-1.0)


def test_gm_rejects_a_nan_dt_and_keeps_its_state():
    state = cur.GaussMarkovState(mu=0.1, sigma=0.1, seed=3)
    before = state.step(0.1)
    with pytest.raises(cur.CurrentError, match="^dt must be positive, got nan$"):
        state.step(math.nan)
    assert np.array_equal(state.delta_v, before)
    assert np.isfinite(state.step(0.1)).all()


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_gm_steps_of_alternating_dt_match_terms_computed_every_step(monkeypatch, mu):
    params = cur.GaussMarkovParams(mu, 0.02, 0.05)
    state = cur.GaussMarkovState(params.mu, params.sigma, params.bound, seed=11, delta_v=(0.01, -0.02, 0.03))
    rng, delta_v = np.random.default_rng(11), np.array([0.01, -0.02, 0.03])
    dts = [0.1, 0.1, 0.25, 0.1, 0.05, 0.05, 0.25, 3.0, 0.1, 1e-9, 0.1] * 5
    expected = []
    for dt in dts:
        decay, scale = params.step_terms(dt)
        delta_v = np.clip(decay * delta_v + rng.normal(0.0, scale, 3), -params.bound, params.bound)
        expected.append(delta_v.tobytes())
    calls = []
    step_terms = cur.GaussMarkovParams.step_terms
    monkeypatch.setattr(cur.GaussMarkovParams, "step_terms", lambda p, dt: calls.append(dt) or step_terms(p, dt))
    assert [state.step(dt).tobytes() for dt in dts] == expected
    assert calls == [dt for k, dt in enumerate(dts) if k == 0 or dt != dts[k - 1]]  # once per change of dt


# --- tides ---------------------------------------------------------------------


def test_single_constituent_anchors():
    period = 12.42 * 3600.0
    tide = cur.TidalModel(constituents=[cur.TidalConstituent(1.0, period, 0.0)])
    assert tide.speed(0.0) == pytest.approx(1.0, abs=1e-12)
    assert tide.speed(period / 2.0) == pytest.approx(-1.0, abs=1e-12)


def test_constituents_periodicity():
    # Rational period ratio 2:3 repeats every lcm = 6 s.
    tide = cur.TidalModel(
        constituents=[cur.TidalConstituent(0.5, 2.0, 0.3), cur.TidalConstituent(0.2, 3.0, -0.8)]
    )
    for t in np.linspace(0.0, 10.0, 23):
        assert tide.speed(t) == pytest.approx(tide.speed(t + 6.0), abs=1e-9)


def test_series_interpolation_and_span_error():
    tide = cur.TidalModel(series_times=[0.0, 100.0], series_speeds=[0.0, 2.0])
    assert tide.speed(25.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(cur.CurrentError):
        tide.speed(150.0)


def test_tide_velocity_follows_heading():
    tide = cur.TidalModel(heading=math.pi / 2.0, constituents=[cur.TidalConstituent(2.0, 10.0, 0.0)])
    v = tide.velocity(0.0)  # east-flowing flood
    assert v[0] == pytest.approx(0.0, abs=1e-12)
    assert v[1] == pytest.approx(2.0, abs=1e-12)
    assert v[2] == 0.0


def test_tide_velocity_is_the_speed_along_the_heading():
    rng = np.random.default_rng(12)
    for heading in rng.uniform(-7.0, 7.0, 20).tolist():
        tide = cur.TidalModel(heading=heading, constituents=[cur.TidalConstituent(0.3, 44712.0, 0.4)])
        for t in rng.uniform(0.0, 1e5, 5).tolist():
            s = tide.speed(t)
            assert tide.velocity(t).tolist() == [s * math.cos(heading), s * math.sin(heading), 0.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["amplitude", "phase", "period"])
def test_constituent_rejects_non_finite_values(field, bad):
    values = {"amplitude": 0.2, "period": 44712.0, "phase": 0.0, field: bad}
    with pytest.raises(cur.CurrentError, match=field):
        cur.TidalConstituent(**values)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tide_rejects_non_finite_heading(bad):
    with pytest.raises(cur.CurrentError, match="heading"):
        cur.TidalModel(constituents=[cur.TidalConstituent(0.2, 100.0)], heading=bad)
    with pytest.raises(cur.CurrentError, match="heading"):
        cur.TidalModel(series_times=[0.0, 100.0], series_speeds=[0.0, 2.0], heading=bad)


def test_tide_series_rejects_non_finite_samples():
    with pytest.raises(cur.CurrentError, match="finite"):
        cur.TidalModel(series_times=[0.0, math.nan, 200.0], series_speeds=[0.0, 1.0, 2.0])
    with pytest.raises(cur.CurrentError, match="finite"):
        cur.TidalModel(series_times=[0.0, 100.0], series_speeds=[0.0, math.inf])


def test_tide_series_csv_loader(tmp_path):
    f = tmp_path / "tide.csv"
    f.write_text("epoch_seconds,speed_mps\n0,0.0\n100,2.0\n")
    times, speeds = cur.load_tide_series_csv(f)
    assert times.tolist() == [0.0, 100.0]
    assert speeds.tolist() == [0.0, 2.0]


# --- assembled field -------------------------------------------------------------


def test_zero_field_is_zero_everywhere():
    field = cur.CurrentField(cur.StratifiedCurrentDB([cur.Stratum(0.0, (0, 0, 0))]))
    sampler = field.sampler(seed=0)
    for depth in (0.0, 10.0, 500.0):
        for t in (0.0, 3600.0):
            assert np.allclose(sampler.velocity(depth, t), 0.0)


def test_field_sums_db_and_tide():
    field = cur.CurrentField(
        two_layer_db(),
        tide=cur.TidalModel(constituents=[cur.TidalConstituent(1.0, 100.0, 0.0)], heading=0.0),
    )
    sampler = field.sampler(seed=0)
    assert np.allclose(sampler.velocity(50.0, 0.0), [1.5, 0.0, 0.0])


def test_two_samplers_share_mean_but_not_noise():
    field = cur.CurrentField(two_layer_db(), gm=cur.GaussMarkovParams(mu=0.1, sigma=0.2))
    s1, s2 = field.sampler(seed=1), field.sampler(seed=2)
    for _ in range(10):
        s1.step(0.5)
        s2.step(0.5)
    assert not np.allclose(s1.velocity(50.0, 0.0), s2.velocity(50.0, 0.0))
    assert np.allclose(field.mean_velocity(50.0, 0.0), [0.5, 0.0, 0.0])


# --- array depths ----------------------------------------------------------------

# Above the first stratum, on and between strata, below the last.
QUERY_DEPTHS = np.array([-50.0, -1e-9, 0.0, 3.0, 5.0, 7.3, 12.5, 20.0, 33.3, 59.999, 60.0, 61.0, 1e4])


@pytest.mark.parametrize(
    "strata",
    [
        [cur.Stratum(5.0, (0.3, 0.1, 0.0))],
        [cur.Stratum(0.0, (1.0, 0.0, 0.0)), cur.Stratum(100.0, (0.0, 0.0, 0.0))],
        [cur.Stratum(5.0, (0.3, 0.1, 0.0)), cur.Stratum(20.0, (0.1, -0.2, 0.01)),
         cur.Stratum(60.0, (0.05, 0.0, -0.02))],
    ],
    ids=["one-stratum", "two-strata", "three-strata"],
)
def test_interpolate_array_matches_scalar_calls(strata):
    db = cur.StratifiedCurrentDB(strata)
    rng = np.random.default_rng(70)
    depths = np.concatenate([QUERY_DEPTHS, rng.uniform(-10.0, 80.0, 200)])
    got = db.interpolate(depths)
    assert got.shape == (depths.size, 3)
    assert np.array_equal(got, np.array([db.interpolate(float(d)) for d in depths]))
    assert np.array_equal(db.interpolate(depths.reshape(-1, 1))[:, 0], got)
    assert db.interpolate(7.3).shape == (3,)


@pytest.mark.parametrize("tide", [False, True])
def test_sampler_velocity_array_matches_scalar_calls(tide):
    field = cur.CurrentField(
        cur.StratifiedCurrentDB([cur.Stratum(5.0, (0.3, 0.1, 0.0)), cur.Stratum(60.0, (0.05, 0.0, -0.02))]),
        tide=cur.TidalModel(constituents=[cur.TidalConstituent(0.2, 44712.0, 0.4)], heading=0.3)
        if tide else None,
        gm=cur.GaussMarkovParams(mu=0.05, sigma=0.02),
    )
    sampler = field.sampler(seed=3)
    rng = np.random.default_rng(71)
    for _ in range(20):
        sampler.step(0.1)
        t = float(rng.uniform(0.0, 1e5))
        depths = np.concatenate([QUERY_DEPTHS, rng.uniform(-10.0, 80.0, 16)])
        got = sampler.velocity(depths, t)
        assert got.shape == (depths.size, 3)
        assert np.array_equal(got, np.array([sampler.velocity(float(d), t) for d in depths]))


def test_tide_velocity_reuse_gives_fresh_arrays_with_each_times_value():
    tide = cur.TidalModel(0.7, [cur.TidalConstituent(0.15, 600.0, 0.3), cur.TidalConstituent(0.05, 97.5, -1.2)])
    times = [3600.0, 3600.0, 3600.1, 3600.0, -0.0, 0.0, 3600.1]
    got = [tide.velocity(t) for t in times]
    for t, v in zip(times, got):
        s = cur.TidalModel(0.7, tide.constituents).speed(t)
        assert v.tolist() == [s * math.cos(0.7), s * math.sin(0.7), 0.0]
    got[0][0] = 99.0  # no two calls share an array
    assert tide.velocity(3600.0)[0] != 99.0 and got[1][0] != 99.0


@pytest.mark.parametrize("mu", [0.0, 0.05])
def test_gm_steps_of_changing_dt_match_the_formula_per_step(mu):
    sigma, bound, dts = 0.01, 1.0, [0.1, 0.1, 0.25, 0.1, 1e-3, 0.25]
    state = cur.GaussMarkovState(mu, sigma, bound=bound, seed=9, delta_v=(0.2, -0.1, 0.05))
    rng, expected = np.random.default_rng(9), np.array([0.2, -0.1, 0.05])
    for dt in dts:
        if mu > 0.0:
            var = sigma**2 * (1.0 - math.exp(-2.0 * mu * dt)) / (2.0 * mu)
            expected = math.exp(-mu * dt) * expected + rng.normal(0.0, math.sqrt(var), 3)
        else:
            expected = expected + rng.normal(0.0, sigma * math.sqrt(dt), 3)
        expected = np.clip(expected, -bound, bound)
        assert state.step(dt).tobytes() == expected.tobytes()
