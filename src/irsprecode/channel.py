"""Drop geometry, path loss, Rayleigh fading, and effective channels.

Every drop uses one fixed layout on a 2-D plane: the base station at BS_POS,
the reflecting surface at IRS_POS, and K single-antenna users uniform over the
disk of radius USER_RADIUS around USER_CENTER. Each link is flat Rayleigh
fading scaled by a distance power law L(d) = g_ref * d**(-exponent) with g_ref
a linear power gain: DIRECT_LOSS on the base-station-to-user links and
HOP_LOSS on each of the two reflected hops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_count

# Direct link reference gain -15 dB with exponent 3.2; the two reflected hops
# jointly carry a -20 dB reference with exponent 2.2 each, split evenly per
# hop (only the product is observable in the cascade).
DIRECT_LOSS = (10.0 ** -1.5, 3.2)
HOP_LOSS = (10.0 ** -1.0, 2.2)
BS_POS = (0.0, 0.0)
IRS_POS = (20.0, 10.0)
USER_CENTER = (30.0, 0.0)
USER_RADIUS = 10.0


def path_loss(distance, ref_gain: float, exponent: float):
    """Linear power gain ref_gain * d**(-exponent) at each distance d of an
    array: NumPy's power loop for every link, as libm's scalar pow can differ."""
    if not np.all(distance > 0):
        raise ValueError("path loss needs a positive distance")
    return ref_gain * distance ** (-exponent)


def drop_users(n_users: int, rng: np.random.Generator) -> np.ndarray:
    """(K, 2) user positions uniform over the user disk (sqrt-radius correction).
    n_users must be an int >= 1."""
    check_count("n_users", n_users, 1)
    u = rng.random((n_users, 2))
    r = USER_RADIUS * np.sqrt(u[:, 0])
    phi = 2.0 * np.pi * u[:, 1]
    center = np.asarray(USER_CENTER, dtype=float)
    return center[None, :] + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric complex normal CN(0, 1) entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelSet:
    """Direct channels h_d (K x M), BS-to-surface G (N x M), surface-to-user h_r (K x N).

    Rows of h_d and h_r are the (unconjugated) channel vectors; effective rows
    h_k^H are the rows of effective_matrix.
    """

    h_d: np.ndarray
    g: np.ndarray
    h_r: np.ndarray

    def __post_init__(self):
        for name in ("h_d", "g", "h_r"):
            a = np.atleast_2d(np.asarray(getattr(self, name), dtype=complex))
            if a.ndim != 2:
                raise ValueError(f"{name} must be a 2-D array, got shape {a.shape}")
            object.__setattr__(self, name, a)
        k, m = self.h_d.shape
        n = self.g.shape[0]
        if not k * m * n:
            raise ValueError("need K, M, N >= 1")
        if self.g.shape != (n, m):
            raise ValueError("G must be N x M")
        if self.h_r.shape != (k, n):
            raise ValueError("h_r must be K x N")
        for a in (self.h_d, self.g, self.h_r):
            if not np.all(np.isfinite(a.view(float))):
                raise ValueError("channel entries must be finite")

    @property
    def n_users(self) -> int:
        return self.h_d.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.h_d.shape[1]

    @property
    def n_elements(self) -> int:
        return self.g.shape[0]

    def to_dict(self) -> dict:
        return {
            "k": self.n_users,
            "m": self.n_antennas,
            "n": self.n_elements,
            "h_d": complex_to_pairs(self.h_d),
            "g": complex_to_pairs(self.g),
            "h_r": complex_to_pairs(self.h_r),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChannelSet":
        """Inverse of to_dict; the arrays' shapes must match its k, m and n."""
        if not isinstance(d, dict):
            raise ValueError(f"a channel must be a JSON object, got {type(d).__name__}")
        missing = [key for key in ("k", "m", "n", "h_d", "g", "h_r") if key not in d]
        if missing:
            raise ValueError(f"channel is missing keys: {missing}")
        for key in ("k", "m", "n"):
            check_count(key, d[key], 1)
        ch = cls(*(pairs_to_complex(d[key]) for key in ("h_d", "g", "h_r")))
        sizes = (ch.n_users, ch.n_antennas, ch.n_elements)
        if sizes != (d["k"], d["m"], d["n"]):
            raise ValueError(f"channel arrays have (k, m, n) = {sizes}, "
                             f"but the file says {(d['k'], d['m'], d['n'])}")
        return ch


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists with each complex entry encoded as a [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def pairs_to_complex(lst) -> np.ndarray:
    a = np.asarray(lst, dtype=float)
    if a.ndim == 0 or a.shape[-1] != 2:
        raise ValueError(f"expected [re, im] pairs on the last axis, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def sample_channels(user_pos, n_antennas: int, n_elements: int,
                    rng: np.random.Generator) -> ChannelSet:
    """Rayleigh-fade every link of a drop with variance set by its path loss.

    user_pos is a (K, 2) array of user positions, such as drop_users returns;
    a user on the base station or the surface has no positive distance, and
    path_loss rejects it. The two counts must be ints >= 1. Draw order is
    fixed (h_d, then G, then h_r) so a seeded generator yields reproducible
    channels.
    """
    check_count("n_antennas", n_antennas, 1)
    check_count("n_elements", n_elements, 1)
    user_pos = np.asarray(user_pos, dtype=float)
    if user_pos.ndim != 2 or user_pos.shape[0] < 1 or user_pos.shape[1] != 2:
        raise ValueError("user_pos must be a (K, 2) array with K >= 1")
    k = user_pos.shape[0]
    gain_d = path_loss(np.linalg.norm(user_pos - BS_POS, axis=1), *DIRECT_LOSS)
    gain_g = path_loss(np.linalg.norm([np.subtract(IRS_POS, BS_POS)], axis=1), *HOP_LOSS)
    gain_r = path_loss(np.linalg.norm(user_pos - IRS_POS, axis=1), *HOP_LOSS)
    h_d = np.sqrt(gain_d)[:, None] * crandn(rng, (k, n_antennas))
    g = np.sqrt(gain_g) * crandn(rng, (n_elements, n_antennas))
    h_r = np.sqrt(gain_r)[:, None] * crandn(rng, (k, n_elements))
    return ChannelSet(h_d=h_d, g=g, h_r=h_r)


class PhaseShifts:
    """Unit-modulus reflection coefficients theta (length N)."""

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=complex).ravel()
        if theta.size < 1:
            raise ValueError("need at least one element")
        if not np.all(np.abs(np.abs(theta) - 1.0) <= 1e-10):
            raise ValueError("phase shifts must be unit modulus")
        self.theta = theta

    @property
    def theta_bar(self) -> np.ndarray:
        """Real lifting [Re(theta); Im(theta)] of length 2N."""
        return np.concatenate([self.theta.real, self.theta.imag])

    @classmethod
    def from_theta_bar(cls, theta_bar) -> "PhaseShifts":
        theta_bar = np.asarray(theta_bar, dtype=float).ravel()
        if theta_bar.size % 2:
            raise ValueError("theta_bar must have even length")
        n = theta_bar.size // 2
        return cls(theta_bar[:n] + 1j * theta_bar[n:])

    @classmethod
    def random(cls, n_elements: int, rng: np.random.Generator) -> "PhaseShifts":
        return cls(np.exp(2j * np.pi * rng.random(n_elements)))

    @classmethod
    def ones(cls, n_elements: int) -> "PhaseShifts":
        return cls(np.ones(n_elements, dtype=complex))


def effective_matrix(ch: ChannelSet, phases: PhaseShifts) -> np.ndarray:
    """K x M matrix whose k-th row is h_k^H = h_{d,k}^H + theta^T Diag(h_{r,k})^H G."""
    return np.conj(ch.h_d) + (phases.theta[None, :] * np.conj(ch.h_r)) @ ch.g
