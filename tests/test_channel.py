"""Drop geometry, path-loss, fading-statistics, and serialization tests."""

import numpy as np
import pytest

from irsprecode.channel import (
    BS_POS,
    DIRECT_LOSS,
    HOP_LOSS,
    IRS_POS,
    USER_CENTER,
    USER_RADIUS,
    ChannelSet,
    PhaseShifts,
    complex_to_pairs,
    drop_users,
    effective_matrix,
    pairs_to_complex,
    path_loss,
    sample_channels,
)
from irsprecode.harness import channel_realization


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
    # product of the two per-hop reference gains must equal the -20 dB cascade reference
    assert HOP_LOSS[0] * HOP_LOSS[0] == pytest.approx(10.0 ** -2.0)
    assert HOP_LOSS[1] == 2.2
    assert DIRECT_LOSS[0] == pytest.approx(10.0 ** -1.5)
    assert DIRECT_LOSS[1] == 3.2


def test_drop_users_disk_statistics():
    rng = np.random.default_rng(123)
    pos = np.concatenate([drop_users(50, rng) for _ in range(400)], axis=0)
    assert pos.shape == (20000, 2)
    n = pos.shape[0]
    center = np.asarray(USER_CENTER)
    radii = np.linalg.norm(pos - center, axis=1)
    assert radii.max() <= USER_RADIUS + 1e-12
    # mean position -> disk center within 3 sigma; per-coordinate std is R/2
    se = USER_RADIUS / 2 / np.sqrt(n)
    assert np.all(np.abs(pos.mean(axis=0) - center) <= 3 * se)
    # uniform disk: mean radius is 2R/3
    se_r = radii.std() / np.sqrt(n)
    assert abs(radii.mean() - 2 * USER_RADIUS / 3) <= 3 * se_r
    # True and 1.5 used to end in a TypeError from rng.random
    for n_users in (0, True, 1.5):
        with pytest.raises(ValueError, match="n_users must be an integer >= 1"):
            drop_users(n_users, rng)


def test_sample_channels_rejects_bad_user_positions():
    rng = np.random.default_rng(0)
    for node in (BS_POS, IRS_POS):  # zero distance to the base station or the surface
        with pytest.raises(ValueError, match="positive distance"):
            sample_channels([[30.0, 0.0], node], 4, 3, rng)
    for bad in ([30.0, 0.0], [[30.0, 0.0, 1.0]], np.zeros((0, 2)), [[[30.0, 0.0]]]):
        with pytest.raises(ValueError, match=r"\(K, 2\)"):
            sample_channels(bad, 4, 3, rng)


@pytest.mark.parametrize("name, counts", [("n_antennas", (0, 3)), ("n_antennas", (1.5, 3)),
                                          ("n_antennas", (True, 3)), ("n_elements", (4, 0)),
                                          ("n_elements", (4, 1.5)), ("n_elements", (4, True))])
def test_sample_channels_rejects_bad_counts(name, counts):
    # M = 0 or N = 0 used to return an empty ChannelSet that failed only later,
    # and 1.5 or True ended in a TypeError from rng; the check draws nothing
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        sample_channels(drop_users(2, rng), *counts, rng)
    want = np.random.default_rng(5)
    drop_users(2, want)
    assert rng.random() == want.random()


def test_sample_channels_variance_matches_path_loss():
    # empirical per-entry variance within 2% of L(d) with 1e5 samples per link;
    # the user at (30, 0) is 30 from the BS, and the BS-surface and
    # surface-user distances are sqrt(20^2 + 10^2) and sqrt(10^2 + 10^2)
    user_pos = [[30.0, 0.0]]
    rng = np.random.default_rng(77)
    ch = sample_channels(user_pos, n_antennas=100_000, n_elements=1, rng=rng)
    var_d = np.mean(np.abs(ch.h_d[0]) ** 2)
    expect_d = path_loss(30.0, *DIRECT_LOSS)
    assert abs(var_d / expect_d - 1) < 0.02
    var_g = np.mean(np.abs(ch.g) ** 2)
    expect_g = path_loss(np.sqrt(500.0), *HOP_LOSS)
    assert abs(var_g / expect_g - 1) < 0.02
    # h_r is only 1 entry here; check it separately with a wide surface
    ch2 = sample_channels(user_pos, n_antennas=1, n_elements=100_000, rng=rng)
    var_r = np.mean(np.abs(ch2.h_r[0]) ** 2)
    expect_r = path_loss(np.sqrt(200.0), *HOP_LOSS)
    assert abs(var_r / expect_r - 1) < 0.02


def test_sample_channels_deterministic_under_seed():
    user_pos = np.array([[30.0, 0.0], [25.0, 5.0]])
    a = sample_channels(user_pos, 8, 4, np.random.default_rng(99))
    b = sample_channels(user_pos, 8, 4, np.random.default_rng(99))
    assert np.array_equal(a.h_d, b.h_d)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.h_r, b.h_r)


def test_channel_draw_frozen_values():
    # recorded from the drop code before its geometry became module constants;
    # guards the draw order (positions, then h_d, G, h_r) and every constant
    pos = drop_users(3, np.random.default_rng(0))
    np.testing.assert_allclose(pos, [[29.01032898796341, 7.9193888665780205],
                                     [32.01328711764977, 0.20982701333471246],
                                     [37.696793388100275, -4.699616522751955]],
                               rtol=1e-12)
    ch = channel_realization(0, 0, 4, 3, 2)
    assert (ch.n_users, ch.n_antennas, ch.n_elements) == (2, 4, 3)
    got = [ch.h_d[0, 0], ch.h_d[1, 3], ch.g[0, 0], ch.g[2, 1], ch.h_r[0, 0], ch.h_r[1, 2]]
    want = [-3.6667266779714225e-05 - 0.00011729435219252763j,
            -0.00026643858417429664 + 0.00020956950916225175j,
            0.00996952374483725 - 0.006345160225246768j,
            0.001078247530012538 - 0.009305194025167381j,
            -0.001835123804089911 + 0.0001672293086879033j,
            0.006834507030059557 - 0.010930196047413986j]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_channel_set_validation():
    with pytest.raises(ValueError):
        ChannelSet(h_d=np.ones((2, 3)), g=np.ones((4, 2)), h_r=np.ones((2, 4)))
    with pytest.raises(ValueError):
        ChannelSet(h_d=np.ones((2, 3)), g=np.ones((4, 3)), h_r=np.ones((3, 4)))
    with pytest.raises(ValueError):
        ChannelSet(h_d=np.array([[np.inf]]), g=np.ones((1, 1)), h_r=np.ones((1, 1)))
    # an empty dimension used to pass and fail later, in the solvers
    for k, m, n in ((0, 3, 4), (2, 0, 4), (2, 3, 0)):
        with pytest.raises(ValueError, match=r"K, M, N >= 1"):
            ChannelSet(h_d=np.ones((k, m)), g=np.ones((n, m)), h_r=np.ones((k, n)))


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
    # NaN must fail the distance-from-the-circle check too
    with pytest.raises(ValueError):
        PhaseShifts([np.nan])
    with pytest.raises(ValueError):
        PhaseShifts.from_theta_bar([np.nan, 0.0])
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


def test_channel_from_dict_rejects_malformed_files():
    # these used to load a (2, 3) channel under k, m = 7, 99, or to raise
    # KeyError or TypeError instead of a load error
    rng = np.random.default_rng(9)
    d = ChannelSet(h_d=rng.standard_normal((2, 3)), g=rng.standard_normal((4, 3)),
                   h_r=rng.standard_normal((2, 4))).to_dict()
    missing = {key: v for key, v in d.items() if key != "h_d"}
    for bad, match in ((dict(d, m=99, k=7), r"\(k, m, n\)"), (dict(d, n=5), r"\(k, m, n\)"),
                       (missing, "missing keys: \\['h_d'\\]"), ([d], "JSON object")):
        with pytest.raises(ValueError, match=match):
            ChannelSet.from_dict(bad)


def test_channel_from_dict_names_a_wrong_array_shape():
    # a scalar entry used to raise IndexError from pairs_to_complex, and a
    # 3-D array of pairs "too many values to unpack" from ChannelSet
    d = ChannelSet(h_d=np.ones((2, 3)), g=np.ones((4, 3)), h_r=np.ones((2, 4))).to_dict()
    for bad, match in ((dict(d, h_d=5), r"\[re, im\] pairs on the last axis, got shape \(\)"),
                       (dict(d, g=[[d["g"]]]), r"g must be a 2-D array, got shape \(1, 1, 4, 3\)"),
                       (dict(d, h_r=np.ones((2, 4, 1, 2)).tolist()),
                        r"h_r must be a 2-D array, got shape \(2, 4, 1\)")):
        with pytest.raises(ValueError, match=match):
            ChannelSet.from_dict(bad)
    with pytest.raises(ValueError, match=r"h_d must be a 2-D array, got shape \(1, 2, 3\)"):
        ChannelSet(h_d=np.ones((1, 2, 3)), g=np.ones((4, 3)), h_r=np.ones((2, 4)))


def test_pairs_helpers():
    a = np.array([[1 + 2j, -3j]])
    assert pairs_to_complex(complex_to_pairs(a)).tolist() == a.tolist()
    with pytest.raises(ValueError):
        pairs_to_complex([[1.0, 2.0, 3.0]])

