"""Scenario geometry, path loss, Rayleigh fading, and effective channels.

A drop places the base station, the reflecting surface, and K single-antenna
users on a 2-D plane. Each link is flat Rayleigh fading scaled by a distance
power law L(d) = g_ref * d**(-exponent) with g_ref a linear power gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Direct link reference gain -15 dB with exponent 3.2; the two reflected hops
# jointly carry a -20 dB reference with exponent 2.2 each, split evenly per
# hop (only the product is observable in the cascade).
DEFAULT_DIRECT_LOSS = (10.0 ** -1.5, 3.2)
DEFAULT_HOP_LOSS = (10.0 ** -1.0, 2.2)


@dataclass(frozen=True)
class PathLossModel:
    """Reference gains (linear) and exponents per link class."""

    direct_ref_gain: float = DEFAULT_DIRECT_LOSS[0]
    direct_exponent: float = DEFAULT_DIRECT_LOSS[1]
    bs_irs_ref_gain: float = DEFAULT_HOP_LOSS[0]
    bs_irs_exponent: float = DEFAULT_HOP_LOSS[1]
    irs_user_ref_gain: float = DEFAULT_HOP_LOSS[0]
    irs_user_exponent: float = DEFAULT_HOP_LOSS[1]

    def to_dict(self) -> dict:
        return {
            "direct_ref_gain": self.direct_ref_gain,
            "direct_exponent": self.direct_exponent,
            "bs_irs_ref_gain": self.bs_irs_ref_gain,
            "bs_irs_exponent": self.bs_irs_exponent,
            "irs_user_ref_gain": self.irs_user_ref_gain,
            "irs_user_exponent": self.irs_user_exponent,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PathLossModel":
        return cls(**d)


@dataclass(frozen=True)
class GeometryConfig:
    """Drop geometry: fixed BS/IRS positions, users uniform in a disk."""

    bs_pos: tuple = (0.0, 0.0)
    irs_pos: tuple = (20.0, 10.0)
    user_center: tuple = (30.0, 0.0)
    user_radius: float = 10.0

    def to_dict(self) -> dict:
        return {
            "bs_pos": list(self.bs_pos),
            "irs_pos": list(self.irs_pos),
            "user_center": list(self.user_center),
            "user_radius": self.user_radius,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeometryConfig":
        return cls(
            bs_pos=tuple(d.get("bs_pos", (0.0, 0.0))),
            irs_pos=tuple(d.get("irs_pos", (20.0, 10.0))),
            user_center=tuple(d.get("user_center", (30.0, 0.0))),
            user_radius=float(d.get("user_radius", 10.0)),
        )


def path_loss(distance, ref_gain: float, exponent: float):
    """Linear power gain ref_gain * d**(-exponent)."""
    distance = np.asarray(distance, dtype=float)
    if np.any(distance <= 0):
        raise ValueError("path loss needs a positive distance")
    return ref_gain * distance ** (-exponent)


@dataclass(frozen=True)
class Scenario:
    """One geometric drop: positions plus the path-loss model."""

    bs_pos: np.ndarray
    irs_pos: np.ndarray
    user_pos: np.ndarray  # (K, 2)
    path_loss_model: PathLossModel = field(default_factory=PathLossModel)

    def __post_init__(self):
        object.__setattr__(self, "bs_pos", np.asarray(self.bs_pos, dtype=float))
        object.__setattr__(self, "irs_pos", np.asarray(self.irs_pos, dtype=float))
        object.__setattr__(self, "user_pos", np.atleast_2d(np.asarray(self.user_pos, dtype=float)))
        if self.user_pos.shape[0] < 1 or self.user_pos.shape[1] != 2:
            raise ValueError("user_pos must be a (K, 2) array with K >= 1")
        d = np.concatenate([[self.d_bs_irs], self.d_bs_user, self.d_irs_user])
        if np.any(d <= 0):
            raise ValueError("degenerate geometry: coincident nodes")

    @property
    def n_users(self) -> int:
        return self.user_pos.shape[0]

    @property
    def d_bs_irs(self) -> float:
        return float(np.linalg.norm(self.irs_pos - self.bs_pos))

    @property
    def d_bs_user(self) -> np.ndarray:
        return np.linalg.norm(self.user_pos - self.bs_pos[None, :], axis=1)

    @property
    def d_irs_user(self) -> np.ndarray:
        return np.linalg.norm(self.user_pos - self.irs_pos[None, :], axis=1)

    def to_dict(self) -> dict:
        return {
            "bs_pos": self.bs_pos.tolist(),
            "irs_pos": self.irs_pos.tolist(),
            "user_pos": self.user_pos.tolist(),
            "path_loss": self.path_loss_model.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        return cls(
            bs_pos=np.asarray(d["bs_pos"], dtype=float),
            irs_pos=np.asarray(d["irs_pos"], dtype=float),
            user_pos=np.asarray(d["user_pos"], dtype=float),
            path_loss_model=PathLossModel.from_dict(d["path_loss"]),
        )


def sample_scenario(geometry: GeometryConfig, n_users: int, rng: np.random.Generator,
                    path_loss_model: PathLossModel | None = None) -> Scenario:
    """Draw user positions uniformly over the disk (sqrt-radius correction)."""
    if n_users < 1:
        raise ValueError("need at least one user")
    u = rng.random((n_users, 2))
    r = geometry.user_radius * np.sqrt(u[:, 0])
    phi = 2.0 * np.pi * u[:, 1]
    center = np.asarray(geometry.user_center, dtype=float)
    pos = center[None, :] + np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    return Scenario(
        bs_pos=np.asarray(geometry.bs_pos, dtype=float),
        irs_pos=np.asarray(geometry.irs_pos, dtype=float),
        user_pos=pos,
        path_loss_model=path_loss_model or PathLossModel(),
    )


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric complex normal CN(0, 1) entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass(frozen=True)
class ChannelSet:
    """Direct channels h_d (K x M), BS-to-surface G (N x M), surface-to-user h_r (K x N).

    Rows of h_d and h_r are the (unconjugated) channel vectors; effective rows
    h_k^H are produced by effective_channel / effective_matrix.
    """

    h_d: np.ndarray
    g: np.ndarray
    h_r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_d", np.atleast_2d(np.asarray(self.h_d, dtype=complex)))
        object.__setattr__(self, "g", np.atleast_2d(np.asarray(self.g, dtype=complex)))
        object.__setattr__(self, "h_r", np.atleast_2d(np.asarray(self.h_r, dtype=complex)))
        k, m = self.h_d.shape
        n = self.g.shape[0]
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
        return cls(
            h_d=pairs_to_complex(d["h_d"]),
            g=pairs_to_complex(d["g"]),
            h_r=pairs_to_complex(d["h_r"]),
        )


def complex_to_pairs(a: np.ndarray) -> list:
    """Nested lists with each complex entry encoded as a [re, im] pair."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def pairs_to_complex(lst) -> np.ndarray:
    a = np.asarray(lst, dtype=float)
    if a.shape[-1] != 2:
        raise ValueError("expected [re, im] pairs on the last axis")
    return a[..., 0] + 1j * a[..., 1]


def sample_channels(scenario: Scenario, n_antennas: int, n_elements: int,
                    rng: np.random.Generator) -> ChannelSet:
    """Rayleigh-fade every link with variance set by its path loss.

    Draw order is fixed (h_d, then G, then h_r) so a seeded generator yields
    reproducible channels.
    """
    pl = scenario.path_loss_model
    gain_d = path_loss(scenario.d_bs_user, pl.direct_ref_gain, pl.direct_exponent)
    h_d = np.sqrt(gain_d)[:, None] * crandn(rng, (scenario.n_users, n_antennas))
    gain_g = path_loss(scenario.d_bs_irs, pl.bs_irs_ref_gain, pl.bs_irs_exponent)
    g = np.sqrt(gain_g) * crandn(rng, (n_elements, n_antennas))
    gain_r = path_loss(scenario.d_irs_user, pl.irs_user_ref_gain, pl.irs_user_exponent)
    h_r = np.sqrt(gain_r)[:, None] * crandn(rng, (scenario.n_users, n_elements))
    return ChannelSet(h_d=h_d, g=g, h_r=h_r)


class PhaseShifts:
    """Unit-modulus reflection coefficients theta (length N)."""

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=complex).ravel()
        if theta.size < 1:
            raise ValueError("need at least one element")
        if np.any(np.abs(np.abs(theta) - 1.0) > 1e-10):
            raise ValueError("phase shifts must be unit modulus")
        self.theta = theta

    @property
    def n_elements(self) -> int:
        return self.theta.size

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


def effective_channel(ch: ChannelSet, phases: PhaseShifts, k: int) -> np.ndarray:
    """Row vector h_k^H = h_{d,k}^H + theta^T Diag(h_{r,k})^H G, length M."""
    if not 0 <= k < ch.n_users:
        raise IndexError(f"user index {k} out of range for K={ch.n_users}")
    return np.conj(ch.h_d[k]) + (phases.theta * np.conj(ch.h_r[k])) @ ch.g


def effective_matrix(ch: ChannelSet, phases: PhaseShifts) -> np.ndarray:
    """K x M matrix whose k-th row is h_k^H."""
    return np.conj(ch.h_d) + (phases.theta[None, :] * np.conj(ch.h_r)) @ ch.g
