"""Geometry, path-loss, fading-statistics, and serialization tests."""

import numpy as np
import pytest

from irsprecode.channel import (
    ChannelSet,
    GeometryConfig,
    PathLossModel,
    PhaseShifts,
    Scenario,
    complex_to_pairs,
    effective_matrix,
    pairs_to_complex,
    path_loss,
    sample_channels,
    sample_scenario,
)


def test_path_loss_frozen_value():
    # 10**-1.5 * 30**-3.2, computed independently
    assert path_loss(30.0, 10.0 ** -1.5, 3.2) == pytest.approx(5.9321480994e-07, rel=1e-9)


def test_path_loss_properties():
    assert path_loss(1.0, 0.5, 2.0) == pytest.approx(0.5)  # reference gain at 1 m
    d = np.array([1.0, 2.0, 4.0])
    g = path_loss(d, 1.0, 2.0)
    assert np.allclose(g, [1.0, 0.25, 0.0625])
    with pytest.raises(ValueError):
        path_loss(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        path_loss(-3.0, 1.0, 2.0)


def test_default_hop_split_matches_cascade_product():
    pl = PathLossModel()
    # product of per-hop reference gains must equal the -20 dB cascade reference
    assert pl.bs_irs_ref_gain * pl.irs_user_ref_gain == pytest.approx(10.0 ** -2.0)
    assert pl.bs_irs_exponent == pl.irs_user_exponent == 2.2
    assert pl.direct_ref_gain == pytest.approx(10.0 ** -1.5)
    assert pl.direct_exponent == 3.2


def test_sample_scenario_disk_statistics():
    geometry = GeometryConfig()
    rng = np.random.default_rng(123)
    pos = np.concatenate(
        [sample_scenario(geometry, 50, rng).user_pos for _ in range(400)], axis=0
    )
    n = pos.shape[0]
    center = np.asarray(geometry.user_center)
    radii = np.linalg.norm(pos - center, axis=1)
    assert radii.max() <= geometry.user_radius + 1e-12
    # mean position -> disk center within 3 sigma; per-coordinate std is R/2
    se = geometry.user_radius / 2 / np.sqrt(n)
    assert np.all(np.abs(pos.mean(axis=0) - center) <= 3 * se)
    # uniform disk: mean radius is 2R/3
    se_r = radii.std() / np.sqrt(n)
    assert abs(radii.mean() - 2 * geometry.user_radius / 3) <= 3 * se_r


def test_scenario_distances_and_validation():
    sc = Scenario(bs_pos=(0, 0), irs_pos=(20, 10), user_pos=[[30, 0]])
    assert sc.d_bs_irs == pytest.approx(np.hypot(20, 10))
    assert sc.d_bs_user[0] == pytest.approx(30.0)
    assert sc.d_irs_user[0] == pytest.approx(np.hypot(10, 10))
    with pytest.raises(ValueError):
        Scenario(bs_pos=(0, 0), irs_pos=(0, 0), user_pos=[[30, 0]])
    with pytest.raises(ValueError):
        Scenario(bs_pos=(0, 0), irs_pos=(20, 10), user_pos=[[0, 0]])


def test_sample_channels_variance_matches_path_loss():
    # empirical per-entry variance within 2% of L(d) with 1e5 samples per link
    sc = Scenario(bs_pos=(0, 0), irs_pos=(20, 10), user_pos=[[30, 0]])
    rng = np.random.default_rng(77)
    ch = sample_channels(sc, n_antennas=100_000, n_elements=1, rng=rng)
    pl = sc.path_loss_model
    var_d = np.mean(np.abs(ch.h_d[0]) ** 2)
    expect_d = path_loss(30.0, pl.direct_ref_gain, pl.direct_exponent)
    assert abs(var_d / expect_d - 1) < 0.02
    var_g = np.mean(np.abs(ch.g) ** 2)
    expect_g = path_loss(sc.d_bs_irs, pl.bs_irs_ref_gain, pl.bs_irs_exponent)
    assert abs(var_g / expect_g - 1) < 0.02
    # h_r is only 1 entry here; check it separately with a wide surface
    ch2 = sample_channels(sc, n_antennas=1, n_elements=100_000, rng=rng)
    var_r = np.mean(np.abs(ch2.h_r[0]) ** 2)
    expect_r = path_loss(sc.d_irs_user[0], pl.irs_user_ref_gain, pl.irs_user_exponent)
    assert abs(var_r / expect_r - 1) < 0.02


def test_sample_channels_zero_gain_gives_zero_channels():
    pl = PathLossModel(direct_ref_gain=0.0, bs_irs_ref_gain=0.0, irs_user_ref_gain=0.0)
    sc = Scenario(bs_pos=(0, 0), irs_pos=(20, 10), user_pos=[[30, 0]], path_loss_model=pl)
    ch = sample_channels(sc, 4, 3, np.random.default_rng(0))
    assert np.all(ch.h_d == 0) and np.all(ch.g == 0) and np.all(ch.h_r == 0)


def test_sample_channels_deterministic_under_seed():
    sc = Scenario(bs_pos=(0, 0), irs_pos=(20, 10), user_pos=[[30, 0], [25, 5]])
    a = sample_channels(sc, 8, 4, np.random.default_rng(99))
    b = sample_channels(sc, 8, 4, np.random.default_rng(99))
    assert np.array_equal(a.h_d, b.h_d)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.h_r, b.h_r)


def test_channel_set_validation():
    with pytest.raises(ValueError):
        ChannelSet(h_d=np.ones((2, 3)), g=np.ones((4, 2)), h_r=np.ones((2, 4)))
    with pytest.raises(ValueError):
        ChannelSet(h_d=np.ones((2, 3)), g=np.ones((4, 3)), h_r=np.ones((3, 4)))
    with pytest.raises(ValueError):
        ChannelSet(h_d=np.array([[np.inf]]), g=np.ones((1, 1)), h_r=np.ones((1, 1)))


def test_phase_shifts_validation_and_lifting():
    theta = np.exp(1j * np.array([0.3, -1.2, 2.9]))
    p = PhaseShifts(theta)
    assert p.n_elements == 3
    tb = p.theta_bar
    assert tb.shape == (6,)
    assert np.allclose(tb[:3] + 1j * tb[3:], theta)
    q = PhaseShifts.from_theta_bar(tb)
    assert np.allclose(q.theta, theta)
    with pytest.raises(ValueError):
        PhaseShifts(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        PhaseShifts.from_theta_bar(np.ones(3))
    rng = np.random.default_rng(1)
    r = PhaseShifts.random(16, rng)
    assert np.allclose(np.abs(r.theta), 1.0)
    assert np.all(PhaseShifts.ones(4).theta == 1.0 + 0j)


def test_effective_matrix_scalar_hand_case():
    # M = N = K = 1: h^H = conj(h_d) + theta * conj(h_r) * g
    h_d = np.array([[0.3 - 0.4j]])
    g = np.array([[1.1 + 0.2j]])
    h_r = np.array([[-0.5 + 0.9j]])
    theta = np.exp(1j * 0.7)
    ch = ChannelSet(h_d=h_d, g=g, h_r=h_r)
    got = effective_matrix(ch, PhaseShifts([theta]))
    want = np.conj(h_d[0, 0]) + theta * np.conj(h_r[0, 0]) * g[0, 0]
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(want)


def test_effective_matrix_matches_rows_and_diag_form():
    rng = np.random.default_rng(42)
    k, m, n = 3, 5, 4
    ch = ChannelSet(
        h_d=rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)),
        g=rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)),
        h_r=rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)),
    )
    p = PhaseShifts.random(n, rng)
    h_eff = effective_matrix(ch, p)
    big_theta = np.diag(p.theta)
    assert h_eff.shape == (k, m)
    for kk in range(k):
        # row k is h_{d,k}^H + theta^T Diag(h_{r,k})^H G, and the Diag form
        # h_{d,k}^H + h_{r,k}^H Theta G must agree
        row = np.conj(ch.h_d[kk]) + (p.theta * np.conj(ch.h_r[kk])) @ ch.g
        assert np.allclose(h_eff[kk], row)
        alt = np.conj(ch.h_d[kk]) + np.conj(ch.h_r[kk]) @ big_theta @ ch.g
        assert np.allclose(h_eff[kk], alt, atol=1e-12)


def test_channel_json_roundtrip_pairs():
    rng = np.random.default_rng(8)
    ch = ChannelSet(
        h_d=rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
        g=rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
        h_r=rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)),
    )
    d = ch.to_dict()
    assert d["k"] == 2 and d["m"] == 3 and d["n"] == 4
    # every complex number is a [re, im] pair
    assert isinstance(d["h_d"][0][0], list) and len(d["h_d"][0][0]) == 2
    back = ChannelSet.from_dict(d)
    assert np.array_equal(back.h_d, ch.h_d)
    assert np.array_equal(back.g, ch.g)
    assert np.array_equal(back.h_r, ch.h_r)


def test_pairs_helpers():
    a = np.array([[1 + 2j, -3j]])
    assert pairs_to_complex(complex_to_pairs(a)).tolist() == a.tolist()
    with pytest.raises(ValueError):
        pairs_to_complex([[1.0, 2.0, 3.0]])

