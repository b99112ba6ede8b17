"""Distributed adaptive synchronization and tracking control laws.

Each spacecraft only sees a convex average of its in-neighbors' attitude,
rate, and (held) acceleration, bundled here as `NeighborhoodSignals`.  The
two modes share the same arithmetic:

    e   = sigma - sigma_d            (attitude error to the aggregate)
    s   = e_dot + Lambda e           (filtered error)
    v_r = sigma_d_dot  - Lambda e    (reference velocity)
    a_r = sigma_d_ddot - Lambda e_dot
    u   = G^T (Y(sigma, sigma_dot, v_r, a_r) theta_hat - K s)
    theta_hat_dot = -Gamma Y^T s

In leaderless mode the aggregates run over neighbors only; in tracking mode
the leader joins them with weight b_i.  Gains may differ per spacecraft.

All operations broadcast: a `GainSet` may hold (N, 3, 3) stacks and the
signal vectors (N, 3) stacks, which is how the simulator evaluates the
whole fleet at once through this exact code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attmath import kinematics_matrix, mat_vec
from .rigid_body import regression


def _spd_check(m, name):
    if np.max(np.abs(m - np.swapaxes(m, -1, -2))) > 1e-9:
        raise ValueError("%s must be symmetric" % name)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError("%s must be positive definite" % name) from None


@dataclass(frozen=True)
class GainSet:
    """Controller gains Lambda (slope), K (feedback), Gamma (adaptation).

    Lambda and K are symmetric positive definite 3x3; Gamma is a positive
    diagonal 6x6.  Stacked (..., 3, 3) / (..., 6, 6) arrays are accepted so
    one GainSet can carry per-spacecraft gains for a whole fleet.
    """

    Lambda: np.ndarray
    K: np.ndarray
    Gamma: np.ndarray

    def __post_init__(self):
        lam = np.array(self.Lambda, dtype=float)
        k = np.array(self.K, dtype=float)
        gam = np.array(self.Gamma, dtype=float)
        if lam.shape[-2:] != (3, 3) or k.shape[-2:] != (3, 3):
            raise ValueError("Lambda and K must be 3x3 (or stacks of 3x3)")
        if gam.shape[-2:] != (6, 6):
            raise ValueError("Gamma must be 6x6 (or a stack of 6x6)")
        _spd_check(lam, "Lambda")
        _spd_check(k, "K")
        diag = np.diagonal(gam, axis1=-2, axis2=-1)
        off = gam - diag[..., None] * np.eye(6)
        if np.any(off != 0.0):
            raise ValueError("Gamma must be diagonal")
        if np.any(diag <= 0.0):
            raise ValueError("Gamma diagonal must be positive")
        for arr, name in ((lam, "Lambda"), (k, "K"), (gam, "Gamma")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_scalars(cls, lam: float, k: float, gamma: float) -> "GainSet":
        return cls(lam * np.eye(3), k * np.eye(3), gamma * np.eye(6))

    @property
    def gamma_diag(self) -> np.ndarray:
        return np.diagonal(self.Gamma, axis1=-2, axis2=-1)


def _vec3(x, name):
    out = np.broadcast_to(np.asarray(x, dtype=float), (3,)).astype(float)
    if not np.all(np.isfinite(out)):
        raise ValueError("%s must be finite" % name)
    return out


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Leader attitude profile, evaluated as (sigma_r, rate, accel) at time t.

    Two kinds, both smooth: a constant attitude, and a per-axis sinusoid
    sigma_r(t) = offset + amplitude * sin(frequency * t + phase).
    """

    kind: str
    value: np.ndarray | None = None
    amplitude: np.ndarray | None = None
    frequency: np.ndarray | None = None
    phase: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "constant":
            object.__setattr__(self, "value", _vec3(
                self.value if self.value is not None else 0.0, "value"))
        elif self.kind == "sinusoid":
            for name, default in (("amplitude", None), ("frequency", None),
                                  ("phase", 0.0), ("offset", 0.0)):
                given = getattr(self, name)
                if given is None:
                    if default is None:
                        raise ValueError("sinusoid reference requires %s" % name)
                    given = default
                object.__setattr__(self, name, _vec3(given, name))
        else:
            raise ValueError("unknown reference kind %r" % self.kind)

    @classmethod
    def constant(cls, value) -> "ReferenceTrajectory":
        return cls(kind="constant", value=value)

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0, offset=0.0) -> "ReferenceTrajectory":
        return cls(kind="sinusoid", amplitude=amplitude, frequency=frequency,
                   phase=phase, offset=offset)

    def at(self, t: float):
        """Return (sigma_r, sigma_r_dot, sigma_r_ddot) at time t."""
        if self.kind == "constant":
            zero = np.zeros(3)
            return self.value, zero, zero
        arg = self.frequency * t + self.phase
        sigma_r = self.offset + self.amplitude * np.sin(arg)
        rate = self.amplitude * self.frequency * np.cos(arg)
        accel = -self.amplitude * self.frequency ** 2 * np.sin(arg)
        return sigma_r, rate, accel


@dataclass(frozen=True)
class NeighborhoodSignals:
    """Aggregated neighbor attitude, rate, and acceleration seen by a craft.

    Fields may be single 3-vectors or (N, 3) stacks for a whole fleet.
    """

    sigma_d: np.ndarray
    sigma_d_dot: np.ndarray
    sigma_d_ddot: np.ndarray

    def __post_init__(self):
        for name in ("sigma_d", "sigma_d_dot", "sigma_d_ddot"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def sync_error(sigma, sigma_dot, signals: NeighborhoodSignals):
    """Errors to the neighborhood aggregate: e = sigma - sigma_d and its rate."""
    e = np.asarray(sigma, dtype=float) - signals.sigma_d
    e_dot = np.asarray(sigma_dot, dtype=float) - signals.sigma_d_dot
    return e, e_dot


def filtered_error(e, e_dot, lam):
    """Sliding variable s = e_dot + Lambda e."""
    return np.asarray(e_dot, dtype=float) + mat_vec(lam, e)


def controller_outputs(sigma, sigma_dot, signals, e, e_dot, theta_hat, gains: GainSet):
    """Torque u = G^T (Y theta_hat - K s), filtered error s, and adaptation
    rate theta_hat_dot = -Gamma Y^T s, sharing one regressor evaluation.
    """
    v_r = signals.sigma_d_dot - mat_vec(gains.Lambda, e)
    a_r = signals.sigma_d_ddot - mat_vec(gains.Lambda, e_dot)
    y = regression(sigma, sigma_dot, v_r, a_r)
    s = filtered_error(e, e_dot, gains.Lambda)
    g_t = np.swapaxes(kinematics_matrix(sigma), -1, -2)
    u = mat_vec(g_t, mat_vec(y, theta_hat) - mat_vec(gains.K, s))
    theta_hat_dot = -gains.gamma_diag * mat_vec(np.swapaxes(y, -1, -2), s)
    return u, s, theta_hat_dot
