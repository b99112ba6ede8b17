"""Distributed adaptive synchronization and tracking control laws.

Each spacecraft only sees its in-neighbors' attitude and rate.  The law
takes a desired attitude, rate and acceleration (sigma_d, sigma_d_dot,
sigma_d_ddot) as three plain arrays: a command-filtered convex average of
the neighborhood, or the leader's reference for a craft that hears it alone
(see the simulator module).  The two modes share the same arithmetic:

    e   = sigma - sigma_d            (attitude error to the aggregate)
    s   = e_dot + Lambda e           (filtered error)
    v_r = sigma_d_dot  - Lambda e    (reference velocity)
    a_r = sigma_d_ddot - Lambda e_dot
    u   = G^T (Y theta_hat - K s)  = M theta_hat - G^T K s
    theta_hat_dot = -Gamma Y^T s  = -Gamma M^T (G^{-1} s)

evaluated in the right-hand, body-frame form: Y = G^{-T} M, with
M = L(alpha) - F(omega, omega_r) from `rigid_body.body_regression`.

In leaderless mode the aggregates run over neighbors only; in tracking mode
the leader joins them with weight b_i.  Gains may differ per spacecraft.

All operations broadcast: a `GainSet` may hold (N, 3, 3) stacks and the
state and aggregate vectors (N, 3) stacks, which is how the simulator
evaluates the whole fleet at once through this exact code path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .attmath import inverse_from_kinematics, mat_vec, spd_check
from .rigid_body import body_regression


@dataclass(frozen=True)
class GainSet:
    """Controller gains Lambda (slope), K (feedback), Gamma (adaptation).

    Lambda and K are symmetric positive definite 3x3; Gamma is a positive
    diagonal 6x6 (gamma_diag).  Stacked (..., 3, 3) / (..., 6, 6) arrays are
    accepted so one GainSet can carry per-spacecraft gains for a whole fleet.
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
        spd_check(lam, "Lambda")
        spd_check(k, "K")
        diag = np.diagonal(gam, axis1=-2, axis2=-1)
        off = gam - diag[..., None] * np.eye(6)
        if np.any(off != 0.0):
            raise ValueError("Gamma must be diagonal")
        if np.any(diag <= 0.0):
            raise ValueError("Gamma diagonal must be positive")
        for arr, name in ((lam, "Lambda"), (k, "K"), (gam, "Gamma"), (diag, "gamma_diag")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _vec3(x, name):
    out = np.broadcast_to(np.asarray(x, dtype=float), (3,)).astype(float)
    if not np.all(np.isfinite(out)):
        raise ValueError("%s must be finite" % name)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Leader attitude profile, evaluated as (sigma_r, rate, accel) at time t.

    Two kinds, both smooth: a constant attitude, and a per-axis sinusoid
    sigma_r(t) = offset + amplitude * sin(frequency * t + phase).  `KINDS`
    holds each kind's fields and defaults (None: required); no other is taken.
    """

    kind: str
    value: np.ndarray | None = None
    amplitude: np.ndarray | None = None
    frequency: np.ndarray | None = None
    phase: np.ndarray | None = None
    offset: np.ndarray | None = None
    KINDS = {"constant": {"value": 0.0},
             "sinusoid": {"amplitude": None, "frequency": None, "phase": 0.0, "offset": 0.0}}
    _ZERO = _vec3(0.0, "zero")  # rate and acceleration of a constant reference

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self.KINDS:
            raise ValueError("unknown reference kind %r" % self.kind)
        defaults = self.KINDS[self.kind]
        for f in fields(self)[1:]:
            if f.name not in defaults and getattr(self, f.name) is not None:
                raise ValueError("a %s reference takes no %s" % (self.kind, f.name))
        for name, default in defaults.items():
            given = getattr(self, name)
            if given is None:
                if default is None:
                    raise ValueError("%s reference requires %s" % (self.kind, name))
                given = default
            object.__setattr__(self, name, _vec3(given, name))

    def at(self, t: float):
        """Return (sigma_r, sigma_r_dot, sigma_r_ddot) at time t."""
        if self.kind == "constant":
            return self.value, self._ZERO, self._ZERO
        arg = self.frequency * t + self.phase
        sigma_r = self.offset + self.amplitude * np.sin(arg)
        rate = self.amplitude * self.frequency * np.cos(arg)
        accel = -self.amplitude * self.frequency ** 2 * np.sin(arg)
        return sigma_r, rate, accel


def sync_error(sigma, sigma_dot, sigma_d, sigma_d_dot):
    """Errors to the neighborhood aggregate: e = sigma - sigma_d and its rate."""
    e = np.asarray(sigma, dtype=float) - sigma_d
    e_dot = np.asarray(sigma_dot, dtype=float) - sigma_d_dot
    return e, e_dot


def controller_outputs(sigma, sigma_dot, omega, g, sigma_d, sigma_d_dot, sigma_d_ddot,
                       theta_hat, gains: GainSet):
    """The control law at one instant, in its body-frame form.

    g is G(sigma), built once by the caller, and sigma_dot = G omega.  Returns
    (u, e, s, theta_hat_dot): the torque u = M theta_hat - G^T K s, the error
    e = sigma - sigma_d, the filtered error s and the adaptation rate
    theta_hat_dot = -Gamma M^T G^{-1} s (M: see the module docstring).
    """
    e, e_dot = sync_error(sigma, sigma_dot, sigma_d, sigma_d_dot)
    lam_e = mat_vec(gains.Lambda, e)
    v_r = sigma_d_dot - lam_e
    a_r = sigma_d_ddot - mat_vec(gains.Lambda, e_dot)
    g_inv = inverse_from_kinematics(g)
    m = body_regression(sigma, sigma_dot, omega, g_inv, v_r, a_r)
    s = e_dot + lam_e
    u = mat_vec(m, theta_hat) - mat_vec(g.swapaxes(-1, -2), mat_vec(gains.K, s))
    theta_hat_dot = -gains.gamma_diag * mat_vec(m.swapaxes(-1, -2), mat_vec(g_inv, s))
    return u, e, s, theta_hat_dot
