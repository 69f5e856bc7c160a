"""Nonlinear reaction rates and initial data.

Rates come as a small family of globally Lipschitz laws in the unknown u:

  zero                0
  constant            c                  (position patterns via modulation)
  linear_decay        -lam * u
  logistic_clamped    r * u * (1 - u/u_cap), continued linearly outside
                      [-M, M] so the global Lipschitz constant is finite
  exchange            kappa * (u - u_ext)
  tabulated           piecewise-linear in u, constant beyond the knots

Channel volume rates and wall rates may carry a multiplicative position
factor; for the channel rate the factor is periodic in ybar by construction
(it only sees the local cell coordinate), for the wall rate it may also use
the arc-length position along the wall.  Every spec declares the Lipschitz
constant of the modulated rate.
"""

from dataclasses import dataclass, field

import numpy as np


class KineticsDomainError(ValueError):
    """Evaluation point outside the rate's domain."""


# every base kind and the parameters it requires
BASE_KINDS = {
    "zero": (),
    "constant": ("value",),
    "linear_decay": ("lam",),
    "logistic_clamped": ("r", "u_cap", "clamp"),
    "exchange": ("kappa", "u_ext"),
    "tabulated": ("u", "rate"),
}
_FACTOR_KINDS = ("cos_ybar", "ybar", "yn", "linear_yn", "arc_cos")


@dataclass(frozen=True)
class KineticsSpec:
    kind: str
    params: dict = field(default_factory=dict)
    modulation: tuple = None  # (factor kind, amplitude)

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown kinetics kind {self.kind!r}")
        if self.modulation is not None and self.modulation[0] not in _FACTOR_KINDS:
            raise ValueError(f"unknown modulation kind {self.modulation[0]!r}")
        if self.kind == "tabulated":
            u = np.asarray(self.params["u"], dtype=float)
            rate = np.asarray(self.params["rate"], dtype=float)
            if u.ndim != 1 or u.size == 0 or u.shape != rate.shape or np.any(np.diff(u) <= 0):
                raise ValueError("tabulated knots u must be strictly increasing, one per rate")
        if self.kind == "logistic_clamped" and self.params["u_cap"] == 0:
            raise ValueError("logistic_clamped needs u_cap != 0")
        if self.kind == "logistic_clamped" and not self.params["clamp"] > 0:
            raise ValueError("logistic_clamped needs clamp > 0")

    @property
    def lipschitz(self) -> float:
        base = self._base_lipschitz()
        return base * self._factor_bound()

    def _base_lipschitz(self) -> float:
        p = self.params
        if self.kind == "zero" or self.kind == "constant":
            return 0.0
        if self.kind == "linear_decay":
            return abs(p["lam"])
        if self.kind == "logistic_clamped":
            return abs(p["r"]) * (1.0 + 2.0 * p["clamp"] / abs(p["u_cap"]))
        if self.kind == "exchange":
            return abs(p["kappa"])
        slopes = np.diff(np.asarray(p["rate"], float)) / np.diff(np.asarray(p["u"], float))
        return float(np.abs(slopes).max()) if len(slopes) else 0.0

    def _factor_bound(self) -> float:
        if self.modulation is None:
            return 1.0
        kind, a = self.modulation
        if kind in ("cos_ybar", "arc_cos", "linear_yn"):
            return 1.0 + abs(a)
        return abs(a)  # ybar in [0,1] and yn in [-1,1], so |a * coord| <= |a|

    def base_rate(self, t, u):
        """Rate before position modulation; vectorized in u."""
        u = np.asarray(u, dtype=float)
        p = self.params
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "constant":
            return np.full_like(u, float(p["value"]))
        if self.kind == "linear_decay":
            return -p["lam"] * u
        if self.kind == "logistic_clamped":
            r, cap, m = p["r"], p["u_cap"], p["clamp"]
            with np.errstate(over="ignore"):  # an overflow to inf is refused by the solve
                uc = np.clip(u, -m, m)
                val = r * uc * (1.0 - uc / cap)
                return val + r * (1.0 - 2.0 * uc / cap) * (u - uc)
        if self.kind == "exchange":
            return p["kappa"] * (u - p["u_ext"])
        return np.interp(u, np.asarray(p["u"], float), np.asarray(p["rate"], float))

    def position_factor(self, ybar, y_n, arc=None, arc_total=None):
        """Multiplicative factor at reference-cell position(s); vectorized."""
        if self.modulation is None:
            return np.ones_like(np.asarray(ybar, dtype=float))
        kind, a = self.modulation
        ybar = np.asarray(ybar, dtype=float)
        y_n = np.asarray(y_n, dtype=float)
        if kind == "cos_ybar":
            return 1.0 + a * np.cos(2.0 * np.pi * ybar)
        if kind == "ybar":
            return a * ybar
        if kind == "yn":
            return a * y_n
        if kind == "linear_yn":
            return 1.0 + a * y_n
        if arc is None or arc_total is None:
            raise KineticsDomainError("arc modulation needs an arc-length position")
        return 1.0 + a * np.cos(2.0 * np.pi * np.asarray(arc, dtype=float) / arc_total)


@dataclass(frozen=True)
class InitialData:
    """Closed-form initial values: bulk functions of x, channel function of (xbar, y)."""

    u_plus: callable
    u_minus: callable
    u_channel: callable  # (xbar, ybar, y_n) -> value

    @staticmethod
    def constants(up, um, uch) -> "InitialData":
        return InitialData(
            u_plus=lambda x, y: up,
            u_minus=lambda x, y: um,
            u_channel=lambda xb, yb, yn: uch,
        )
