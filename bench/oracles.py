"""Values computed apart from su2quant, and the checkers that use them.

Nothing here calls into su2quant.  Exact Toeplitz targets come from a Haar
rule on SU(2) built in Hopf coordinates, evaluated on closed-form spin-1/2
matrix entries and Weyl characters; the other targets are closed forms.

Conventions shared with the package (its README and ``algebra`` docstring):
Vol(K) = 16 pi^2, the basis X_k = -(i/2) sigma_k, Casimir c_j = j(j+1), and
``D[1/2]_{m,m'}(x)`` is the matrix entry of x in row j - m, column j - m'.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.special import stdtrit

VOL_K = 16.0 * math.pi**2
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
BASIS = -0.5j * PAULI
# matrices M_A with (A f)(x) = (x M_A)_{rc} for f(x) = x_{rc}
OPERATORS = {"identity": np.eye(2), "X3": BASIS[2], "Delta": sum(b @ b for b in BASIS)}

FAMILY_ALPHA = 1e-3  # chance that a correct run fails any z check of one round
ABS_FLOOR = 1e-10  # roundoff allowance for entries that are exactly zero


def casimir(j: float) -> float:
    return j * (j + 1.0)


def hopf_rule(n_phase: int = 8, n_u: int = 4):
    """Nodes (N, 2, 2) and weights (N,) of a Haar rule on SU(2), mass VOL_K.

    x = [[a, -conj(b)], [b, conj(a)]] with a = sqrt(1-u) e^{i p}, b =
    sqrt(u) e^{i q}; Haar measure is uniform in (u, p, q).  Exact for
    polynomials in the entries of x and their conjugates of degree below
    n_phase in each phase and at most 2 n_u - 1 in u.
    """
    xs, wu = np.polynomial.legendre.leggauss(n_u)
    u, wu = 0.5 * (xs + 1.0), 0.5 * wu
    ph = 2.0 * math.pi * np.arange(n_phase) / n_phase
    U, P, Q = np.meshgrid(u, ph, ph, indexing="ij")
    a = np.sqrt(1.0 - U) * np.exp(1j * P)
    b = np.sqrt(U) * np.exp(1j * Q)
    nodes = np.stack([np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2)
    w = np.broadcast_to(wu[:, None, None], U.shape) * VOL_K / n_phase**2
    return nodes.reshape(-1, 2, 2), w.reshape(-1)


_RULE = hopf_rule()


def spin_half_entry(m: str, mp: str):
    """(row, col) of ``D[1/2]_m,m'``: row j - m, column j - m'."""
    return int(float(m) < 0), int(float(mp) < 0)


def symbol_V(name: str, t: float, x: np.ndarray) -> np.ndarray:
    """V = e^{t Delta/4} V~ for the named V~ (a Weyl character or 1)."""
    tau = x[:, 0, 0] + x[:, 1, 1]
    if name == "1":
        return np.ones_like(tau)
    if name == "chi_1/2":
        return math.exp(-t * casimir(0.5) / 4.0) * tau
    if name == "chi_1":
        return math.exp(-t * casimir(1.0) / 4.0) * (tau * tau - 1.0)
    raise ValueError(f"unknown symbol {name!r}")


def exact_entry(v_name: str, t: float, f1, f2, op: str = "identity") -> complex:
    """<f1, V A f2> on L^2(K) for spin-1/2 entries f = (row, col)."""
    x, w = _RULE
    g1 = x[:, f1[0], f1[1]]
    ag2 = (x @ OPERATORS[op])[:, f2[0], f2[1]]
    return complex(np.sum(w * np.conj(g1) * symbol_V(v_name, t, x) * ag2))


def norm_sq(f) -> float:
    x, w = _RULE
    return float(np.sum(w * np.abs(x[:, f[0], f[1]]) ** 2))


def family_z(n_checks: int, n_blocks: int = 40, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided Bonferroni bound on |z| for n_checks block-mean estimates.

    A block stderr from n_blocks blocks gives a Student t with n_blocks - 1
    degrees of freedom.
    """
    return float(stdtrit(n_blocks - 1, 1.0 - alpha / (2.0 * max(n_checks, 1))))


def _cvalue(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


# ---------------------------------------------------------------------------
# per-workload checkers: each returns a list of (name, passed, detail)
# ---------------------------------------------------------------------------

_ENTRY = r"D\[1/2\]_([-.\d]+),([-.\d]+)"
_MULT = re.compile(rf"mult t=(\S+) V~=(\S+) <{_ENTRY},{_ENTRY}>$")
_BOUND = re.compile(r"boundedness t=(\S+) V~=(\S+)$")
_DIFF = re.compile(r"diff t=(\S+) A=(\S+) V~=(\S+) <(\d)(\d)>$")
_DIFF_F = {"1": (0, 0), "2": (0, 1)}  # f1 = D[1/2]_{1/2,1/2}, f2 = D[1/2]_{1/2,-1/2}


def mc_targets(checks: list[dict]):
    """(name, estimate, stderr, exact) for every Monte Carlo entry in a report."""
    out = []
    for c in checks:
        name = c["name"]
        if m := _MULT.match(name):
            t, v = float(m[1]), m[2]
            exact = exact_entry(v, t, spin_half_entry(m[3], m[4]), spin_half_entry(m[5], m[6]))
            out.append((name, _cvalue(c["value"]), c["stderr"], exact))
        elif m := _BOUND.match(name):
            f = (0, 0)
            exact = abs(exact_entry(m[2], float(m[1]), f, f))
            out.append((name, complex(c["value"]), c["stderr"], exact))
        elif m := _DIFF.match(name):
            t, op, v = float(m[1]), m[2], m[3]
            exact = exact_entry(v, t, _DIFF_F[m[4]], _DIFF_F[m[5]], op)
            out.append((name, _cvalue(c["value"]), c["stderr"], exact))
    return out


def check_mc_entries(targets, z_bound: float):
    res = []
    for name, est, err, exact in targets:
        gap = abs(est - exact)
        res.append((f"independent {name}", gap <= z_bound * err + ABS_FLOOR,
                    f"|MC - exact| = {gap:.3g}, stderr {err:.3g}, bound {z_bound:.2f}"))
    return res


def check_laplacian_entry(check: dict):
    target = -casimir(0.5) * norm_sq((0, 0))
    rel = abs(_cvalue(check["value"]) - target) / abs(target)
    return ("independent deterministic Laplacian entry", rel <= 1e-3, f"relative error {rel:.3g}")


def check_character_moment(check: dict, z_bound: float):
    """Endpoint character mean against (2j+1) e^{-(s - t) c_j / 2} (t = 0 for K)."""
    name = check["name"]
    m = re.search(r"chi_(\S+), s=([^,]+)(?:, t=(\S+))?$", name)
    j, s, t = float(m[1]), float(m[2]), float(m[3] or 0.0)
    pred = (2.0 * j + 1.0) * math.exp(-(s - t) * casimir(j) / 2.0)
    gap = abs(check["value"] - pred)
    return (f"independent {name}", gap <= z_bound * check["stderr"],
            f"|mean - (2j+1)e^(-(s-t)c_j/2)| = {gap:.3g}, stderr {check['stderr']:.3g}")


def check_pathwise(slope_check: dict, ratio_check: dict):
    res = [("independent pathwise slope", slope_check["value"] >= 0.4,
            f"slope {slope_check['value']:.4f} (>= 0.4)")]
    for i, r in enumerate(ratio_check["value"]):
        res.append((f"independent halving ratio {i}", r >= 1.9, f"ratio {r:.4f} (>= 1.9)"))
    return res


BETA_TOL = 1e-6
NORMALIZATION_RTOL = 1e-6


def check_calibration(check: dict, t: float):
    n_pred = (math.pi * t) ** -1.5 * math.exp(-t / 4.0)
    db = abs(check["beta"] - 1.0)
    dn = abs(check["normalization"] / n_pred - 1.0)
    return [
        (f"independent beta t={t}", db <= BETA_TOL, f"|beta - 1| = {db:.3g}"),
        (f"independent N(t) t={t}", dn <= NORMALIZATION_RTOL, f"relative error {dn:.3g}"),
    ]


def check_bound(check: dict, label: str, bound: float):
    v = float(check["value"])
    return (f"independent {label}: {check['name']}", v <= bound, f"{v:.3g} (<= {bound:g})")
