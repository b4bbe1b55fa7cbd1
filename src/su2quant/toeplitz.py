"""Toeplitz matrix elements: exact Schrodinger side and sampled weak forms.

The quantized operators are compared through matrix elements only.  The
Schrodinger side <f1, V A f2> is exact coefficient algebra.  The Bargmann
side <F1, T_phi F2> is evaluated two ways:

* for symbols phi_V built from a multiplier V = e^{t Delta/4} V~, the weak
  Monte Carlo form

      int_K V~(x) E_w[ conj(F1(w x)) F2(w x) ] dx,

  with w the subelliptic endpoints theta_C(iB)_1 (B-variance t/2).  This is
  the double integral of conj(F1) F2 mu_{t/2,t}(g x^{-1}) V~(x) against dg dx
  after the substitution g = w x, so it needs no pointwise symbol;
* for explicit radial symbols (the V = 1 differential-operator route),
  deterministic quadrature over the polar rule on SL(2,C), exact on K and
  on the sphere and a radial sum otherwise (``hl2.hl2_inner``).

The x-integral uses an exact Haar rule, so all Monte Carlo error lives in
the w-average.  Because D(w x) = D(w) D(x), a block's endpoints enter only
through one moment matrix per spin pair,

    P[n, (a, e), (c, f)] = mean_{w in block n} conj(D^{j1}(w))_{ae} D^{j2}(w)_{cf},

held as (n_blocks, d1^2 d2^2) and cached per spin pair.  An entry with
coefficients c1, c2 of F1, F2 and Haar weights xw_q = weight_q V~(x_q)
folds the nodes into one matrix of the same size,

    W[a, e, c, f] = sum_q xw_q conj(c1 D^{j1}(x_q)^T)[a, e] (c2 D^{j2}(x_q)^T)[c, f],

and its block values are P @ W.ravel(), summed over the spin pairs; P is
reused by every (V~, f1, f2, A) combination on the same ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuadratureRuleK, QuadratureRuleKC, haar_rule, random_su2
from .diffop import LeftInvariantOperator, complexify_apply
from .errors import StatisticalFailure
from .heat import nu_radial
from .hl2 import hl2_inner
from .sde import DEFAULT_N_BLOCKS, EndpointEnsemble, endpoint_ensemble_KC, endpoint_ensembles_KC
from .transform import transform_C
from .wigner import BandLimited, inner_product_K, wigner_matrix


@dataclass
class ToeplitzEstimate:
    value: complex
    stderr: float
    n_paths: int
    n_steps: int
    master_seed: int | None
    method: str  # "MC" or "quadrature"
    block_values: np.ndarray | None = None


def schrodinger_entry(
    v: BandLimited,
    a: LeftInvariantOperator,
    f1: BandLimited,
    f2: BandLimited,
) -> complex:
    """Exact <f1, M_V A f2> on L^2(K) through coefficient algebra."""
    af2 = a.apply(f2)
    return inner_product_K(f1, v.multiply(af2))


# ---------------------------------------------------------------------------
# the sampled weak form
# ---------------------------------------------------------------------------

class ToeplitzSampler:
    """Shared endpoint ensemble plus cached moment matrices for one t.

    ``x_total_two_j`` must be at least (2 j_V + 2 j_1 + 2 j_2) for every
    combination evaluated through this sampler, so that the Haar rule in x
    is exact and the only statistical error is the w-average.
    """

    def __init__(
        self,
        t: float,
        n_paths: int,
        n_steps: int,
        master_seed: int,
        workers: int = 1,
        n_blocks: int = DEFAULT_N_BLOCKS,
        x_total_two_j: int = 4,
        ensemble: EndpointEnsemble | None = None,
    ):
        self.t = t
        self.n_paths = n_paths
        self.n_steps = n_steps
        self.master_seed = master_seed
        self.n_blocks = n_blocks
        self.x_rule: QuadratureRuleK = haar_rule(x_total_two_j)
        self.x_total_two_j = x_total_two_j
        if ensemble is None:
            ensemble = endpoint_ensemble_KC(
                t / 2.0, t, n_paths, n_steps, master_seed,
                workers=workers, n_blocks=n_blocks,
            )
        self.ensemble: EndpointEnsemble = ensemble
        self._dx: dict[int, np.ndarray] = {}
        self._tensors: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def for_times(
        cls,
        ts,
        n_paths: int,
        n_steps: int,
        master_seed: int,
        workers: int = 1,
        n_blocks: int = DEFAULT_N_BLOCKS,
        x_total_two_j: int = 4,
    ) -> list[ToeplitzSampler]:
        """One sampler per t in ``ts``, each equal to ``ToeplitzSampler(t, ...)``, from one draw of the normals."""
        ensembles = endpoint_ensembles_KC(
            [(t / 2.0, t) for t in ts], n_paths, n_steps, master_seed,
            workers=workers, n_blocks=n_blocks,
        )
        return [
            cls(t, n_paths, n_steps, master_seed, n_blocks=n_blocks,
                x_total_two_j=x_total_two_j, ensemble=ens)
            for t, ens in zip(ts, ensembles)
        ]

    def _node_reps(self, two_j: int) -> np.ndarray:
        if two_j not in self._dx:
            self._dx[two_j] = wigner_matrix(two_j / 2.0, self.x_rule.nodes)
        return self._dx[two_j]

    def moment_tensors(self, tj1: int, tj2: int) -> np.ndarray:
        """Per-block moment matrices P, shape (n_blocks, d1^2 d2^2).

        Entry [n, ((a d1 + e) d2 + c) d2 + f] is mean_w conj(D^{j1}(w))_{ae}
        D^{j2}(w)_{cf} over the endpoints w of block n.
        """
        key = (tj1, tj2)
        if key not in self._tensors:
            moments = []
            for wb in self.ensemble.block_views():
                dw1 = wigner_matrix(tj1 / 2.0, wb).reshape(len(wb), -1)
                dw2 = dw1 if tj2 == tj1 else wigner_matrix(tj2 / 2.0, wb).reshape(len(wb), -1)
                moments.append((np.conj(dw1).T @ dw2 / len(wb)).ravel())
            self._tensors[key] = np.array(moments)
        return self._tensors[key]

    def entry(
        self,
        v_tilde: BandLimited,
        f1: BandLimited,
        f2: BandLimited,
        a: LeftInvariantOperator | None = None,
    ) -> ToeplitzEstimate:
        """Weak Toeplitz entry <C_t f1, T C_t f2> for the symbol of (V~, A)."""
        F1 = transform_C(self.t, f1)
        F2 = transform_C(self.t, f2)
        if a is not None:
            F2 = complexify_apply(a, F2)
        needed = (
            v_tilde.two_jmax + F1.two_jmax + F2.two_jmax
        )
        if needed > self.x_total_two_j:
            raise ValueError(
                f"x-rule covers total spin {self.x_total_two_j / 2}, "
                f"combination needs {needed / 2}"
            )
        xw = self.x_rule.weights * v_tilde(self.x_rule.nodes)
        block_vals = np.zeros(self.n_blocks, dtype=complex)
        for tj1, c1 in F1.blocks.items():
            # xw_q conj(c1 D^{j1}(x_q)^T), rows q, columns (a, e)
            left = xw[:, None] * np.conj(c1 @ np.swapaxes(self._node_reps(tj1), -1, -2)).reshape(len(xw), -1)
            for tj2, c2 in F2.blocks.items():
                right = (c2 @ np.swapaxes(self._node_reps(tj2), -1, -2)).reshape(len(xw), -1)
                block_vals += self.moment_tensors(tj1, tj2) @ (left.T @ right).ravel()
        value = complex(np.mean(block_vals))
        stderr = float(
            np.sqrt(
                (np.var(np.real(block_vals), ddof=1)
                 + np.var(np.imag(block_vals), ddof=1))
                / self.n_blocks
            )
        )
        return ToeplitzEstimate(
            value=value,
            stderr=stderr,
            n_paths=self.n_paths,
            n_steps=self.n_steps,
            master_seed=self.master_seed,
            method="MC",
            block_values=block_vals,
        )


def check_convergence(est: ToeplitzEstimate, factor: float = 1.5) -> None:
    """Verify stderr shrinks like n^{-1/2} across nested block subsets.

    Compares the block-mean spread over the first quarter, first half, and
    all blocks; each doubling should shrink the stderr by sqrt(2) within the
    given factor.  Raises StatisticalFailure otherwise.
    """
    bv = est.block_values
    if bv is None or len(bv) < 16:
        raise StatisticalFailure("not enough blocks for a convergence check")

    def spread(v: np.ndarray) -> float:
        return float(
            np.sqrt(
                (np.var(np.real(v), ddof=1) + np.var(np.imag(v), ddof=1))
                / len(v)
            )
        )

    n = len(bv)
    s4, s2, s1 = spread(bv[: n // 4]), spread(bv[: n // 2]), spread(bv)
    if s1 == 0.0:
        return  # exactly zero estimator (e.g. V~ = 0)
    for big, small in ((s4, s2), (s2, s1)):
        ratio = big / small if small > 0.0 else np.inf
        if not (np.sqrt(2.0) / factor <= ratio <= np.sqrt(2.0) * factor):
            raise StatisticalFailure(
                f"stderr ratio {ratio:.2f} outside sqrt(2) within factor {factor}"
            )


# ---------------------------------------------------------------------------
# deterministic quadrature route
# ---------------------------------------------------------------------------

def toeplitz_entry_quadrature(
    t: float,
    symbol,
    f1: BandLimited,
    f2: BandLimited,
    rule: QuadratureRuleKC,
) -> ToeplitzEstimate:
    """int conj(F1) phi F2 nu_t dg over the polar rule.

    ``symbol`` is phi as a function of the polar radius; ``symbol=None``
    means phi = 1.
    """
    F1 = transform_C(t, f1)
    F2 = transform_C(t, f2)
    value = hl2_inner(F1, F2, rule, lambda r: nu_radial(t, r), radial_symbol=symbol)
    return ToeplitzEstimate(
        value=complex(value),
        stderr=0.0,
        n_paths=0,
        n_steps=0,
        master_seed=None,
        method="quadrature",
    )


def sup_K(f: BandLimited, n_grid: int = 20000, seed: int = 12345) -> float:
    """Numerical sup of |f| over SU(2): dense random grid plus the identity."""
    rng = np.random.default_rng(seed)
    pts = random_su2(rng, n_grid)
    vals = np.abs(f(pts))
    return float(max(np.max(vals), abs(f.at_identity())))
