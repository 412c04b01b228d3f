"""Recompute the reference values the benchmark's checks compare against.

Nothing here imports heattrace: every value comes from the literal profile
formulas, mpmath quadrature at 20 digits and, for T_1, a scipy QUADPACK
evaluation of the reduced first-order integral with K0 and K1 in closed form.

    python3 bench/reference.py    # rewrite bench/reference.json

``git diff bench/reference.json`` then shows whether the values moved.

Run time is about a minute, almost all of it the nested mpmath
quadratures of the five cells.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate as spi
from scipy.special import k0 as sp_k0, k1 as sp_k1

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

mp.mp.dps = 20

#: the two profiles the workloads use, as (center, halfwidth, amplitude,
#: ascending coefficients of the polynomial q(u) in u = (x - center)/halfwidth)
PROFILES = {
    "bump": (0.0, 1.0, 1.0, (1.0,)),
    "poly_bump": (0.2, 0.9, 0.8, (1.0, 0.5, -0.3)),
}

#: one cell c_{alpha,s} per order n = 1..5, each inside the order-5 table
CELLS = (
    ((4,), (1,)),
    ((1, 0), (1, -1)),
    ((0, 1, 0), (1, -1, -1)),
    ((0, 0, 0, 1), (1, 1, -1, 1)),
    ((0, 0, 0, 0, 0), (1, -1, 1, 1, -1)),
)

#: the kernel-product grid of the verify suite: y = 0, y' = gap
KERNEL_K = (1.0, 2.0, 4.0)
KERNEL_GAP = (0.0, 0.5, 1.5)

T1_KTILDE = 80.0


def profile_integral(name: str, power: int) -> float:
    """int rho(x)^power dx for rho = A q(u) exp(1 - 1/(1-u^2)) on |u| < 1."""
    center, halfwidth, amplitude, q = PROFILES[name]

    def rho(u):
        poly = sum(mp.mpf(c) * u ** i for i, c in enumerate(q))
        return amplitude * poly * mp.exp(1 - 1 / (1 - u * u))

    # x = center + halfwidth * u
    return float(halfwidth * mp.quad(lambda u: rho(u) ** power, [-1, 0, 1]))


def h_factor(m: int, v) -> mp.mpc:
    """h_m(v) = int_0^inf (sqrt2 (cosh t + i v))^{-(m+1)} dt."""
    return mp.quad(lambda t: (mp.sqrt(2) * (mp.cosh(t) + 1j * v)) ** -(m + 1),
                   [0, 1, mp.inf])


def cell(alpha, signs) -> float:
    """c_{alpha,s} = int_R (1+xi^2)^{-3/2} prod_j h_{alpha_j}(s_j xi) dxi.

    h_m(-v) is the conjugate of h_m(v), so the xi < 0 half is the conjugate of
    the xi > 0 half and c = 2 Re int_0^inf; the imaginary part is exactly 0.
    """
    def f(xi):
        h = {a: h_factor(a, xi) for a in set(alpha)}
        acc = mp.mpc(1)
        for a, s in zip(alpha, signs):
            acc *= h[a] if s > 0 else mp.conj(h[a])
        return (1 + xi * xi) ** mp.mpf(-1.5) * acc.real

    return float(2 * mp.quad(f, [0, 1, 4, mp.inf]))


def kernel_rhs(k: float, gap: float) -> float:
    """(pi/(2k^2)) int_R (1+xi^2)^{-3/2} cos(k gap xi) dxi = (pi/(2k^2)) 2z K1(z)."""
    z = mp.mpf(k) * gap
    transform = mp.mpf(2) if z == 0 else 2 * z * mp.besselk(1, z)
    return float(mp.pi / (2 * mp.mpf(k) ** 2) * transform)


def first_order_term(ktilde: float) -> float:
    """T_1(bump, ktilde) by scipy: the reference integral of the oracle tests.

    T_1 = (pi/(2k^2)) (2pi)^{-3} int dd K0(sqrt2 k|d|) 2a K1(a) P(d),
    a = sqrt2 k |d|, with P the autocorrelation of the unit bump on a fine
    trapezoid grid.
    """
    yg = np.linspace(-1.0, 1.0, 8001)
    dy = yg[1] - yg[0]

    def rho(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out

    rg = rho(yg)
    sk = math.sqrt(2.0) * ktilde

    def f(d):
        a = sk * abs(d)
        profile = 2.0 if a == 0.0 else 2.0 * a * sp_k1(a)
        return sp_k0(a) * profile * np.trapezoid(rg * rho(yg - d), dx=dy)

    val, _ = spi.quad(f, -2.0, 2.0, points=[0.0], limit=400,
                      epsabs=1e-12, epsrel=1e-10)
    return (math.pi / (2.0 * ktilde ** 2)) * (2.0 * math.pi) ** -3 * val


def compute() -> dict:
    return {
        "profiles": {
            name: {"int_rho": profile_integral(name, 1),
                   "int_rho2": profile_integral(name, 2)}
            for name in PROFILES
        },
        "cells": [{"n": len(alpha), "alpha": list(alpha), "s": list(signs),
                   "value": cell(alpha, signs)} for alpha, signs in CELLS],
        "t1_bump": {"ktilde": T1_KTILDE, "value": first_order_term(T1_KTILDE)},
        "kernel_rhs": [{"k": k, "gap": gap, "value": kernel_rhs(k, gap)}
                       for k in KERNEL_K for gap in KERNEL_GAP],
    }


def main() -> int:
    REFERENCE_FILE.write_text(json.dumps(compute(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
