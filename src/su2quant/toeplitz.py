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
* for explicit radial symbols (the V = 1 differential-operator route,
  ``cli.gate_laplacian_entries``), deterministic quadrature over the polar
  rule on SL(2,C), exact on K and on the sphere and a radial sum otherwise
  (``hl2.hl2_inner``).

The x-integral is exact at every spin: D(w x) = D(w) D(x), and the
integral over x of V~ against a product of two Wigner matrices is a triple
integral that Clebsch-Gordan coupling gives in closed form
(``wigner.triple_integral_K``),

    I[e, b, f, d] = int_K V~(x) conj(D^{j1}_{eb}(x)) D^{j2}_{fd}(x) dx.

So all Monte Carlo error lives in the w-average, and a block's endpoints
enter only through one moment matrix per spin pair,

    P[n, (a, e), (c, f)] = mean_{w in block n} conj(D^{j1}(w))_{ae} D^{j2}(w)_{cf},

held as (n_blocks, d1^2 d2^2) and cached per spin pair.  An entry with
coefficients c1, c2 of F1, F2 folds the x-integral into one matrix of the
same size,

    W[a, e, c, f] = sum_{b, d} conj(c1)[a, b] c2[c, d] I[e, b, f, d],

and its block values are P @ W.ravel(), summed over the spin pairs; P is
reused by every (V~, f1, f2, A) combination on the same ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffop import LeftInvariantOperator, complexify_apply
from .errors import StatisticalFailure
from .sde import DEFAULT_N_BLOCKS, EndpointEnsemble, endpoint_ensemble_KC, endpoint_ensembles_KC
from .transform import transform_C
from .wigner import BandLimited, inner_product_K, triple_integral_K, wigner_matrix


@dataclass
class ToeplitzEstimate:
    value: complex
    stderr: float
    block_values: np.ndarray


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

    The x-integral of every entry is exact by Clebsch-Gordan coupling, at any
    spins of V~, f1 and f2, so the only statistical error is the w-average.
    """

    def __init__(
        self,
        t: float,
        n_paths: int,
        n_steps: int,
        master_seed: int,
        workers: int = 1,
        n_blocks: int = DEFAULT_N_BLOCKS,
        ensemble: EndpointEnsemble | None = None,
    ):
        self.t = t
        self.n_blocks = n_blocks
        if ensemble is None:
            ensemble = endpoint_ensemble_KC(
                t / 2.0, t, n_paths, n_steps, master_seed,
                workers=workers, n_blocks=n_blocks,
            )
        self.ensemble: EndpointEnsemble = ensemble
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
    ) -> list[ToeplitzSampler]:
        """One sampler per t in ``ts``, each equal to ``ToeplitzSampler(t, ...)``, from one draw of the normals."""
        ensembles = endpoint_ensembles_KC(
            [(t / 2.0, t) for t in ts], n_paths, n_steps, master_seed,
            workers=workers, n_blocks=n_blocks,
        )
        return [
            cls(t, n_paths, n_steps, master_seed, n_blocks=n_blocks, ensemble=ens)
            for t, ens in zip(ts, ensembles)
        ]

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
        block_vals = np.zeros(self.n_blocks, dtype=complex)
        for tj1, c1 in F1.blocks.items():
            for tj2, c2 in F2.blocks.items():
                # W[a, e, c, f] = sum_{b, d} conj(c1)[a, b] c2[c, d] I[e, b, f, d]
                i_c2 = np.einsum("cd,ebfd->ebfc", c2, triple_integral_K(v_tilde, tj1, tj2))
                w = np.einsum("ab,ebfc->aecf", np.conj(c1), i_c2)
                block_vals += self.moment_tensors(tj1, tj2) @ w.ravel()
        value = complex(np.mean(block_vals))
        stderr = float(
            np.sqrt(
                (np.var(np.real(block_vals), ddof=1)
                 + np.var(np.imag(block_vals), ddof=1))
                / self.n_blocks
            )
        )
        return ToeplitzEstimate(value=value, stderr=stderr, block_values=block_vals)


def check_convergence(est: ToeplitzEstimate, factor: float = 1.5) -> None:
    """Verify stderr shrinks like n^{-1/2} across nested block subsets.

    Compares the block-mean spread over the first quarter, first half, and
    all blocks; each doubling should shrink the stderr by sqrt(2) within the
    given factor.  Raises StatisticalFailure otherwise.  No CLI path calls
    it yet; the tests do.
    """
    bv = est.block_values
    if len(bv) < 16:
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
