"""Brute-force state evolution in a truncated Fock basis.

The evolution operator of the two-optical-mode plus mechanics system is
applied in its exactly factored form: a photon-number conditioned Kerr
phase, a conditional displacement of the mechanical mode, and free
rotations. No Hamiltonian exponentiation is performed. Displacement matrix
elements are the closed-form normalized Laguerre functions of Cahill &
Glauber, Phys. Rev. 177, 1857 (1969), filled in by the three-term
recurrence in polynomial degree. They do not depend on the cutoff, so
truncation error is the state's own tail mass plus the recurrence's
rounding. That rounding grows like n**2 * eps in the degree n and is
largest at small |beta|. Against the closed form through scipy's
eval_genlaguerre it stays below 1e-13 in the first 64 columns. At entry
(350, 350) of a 351-level matrix it reaches 1.6e-12 at |beta| = 1e-6, and
1.3e-12 against the exact value at |beta| = 0.01.

The evolution builds only the columns of the displacement up to the
highest mechanical level that holds a nonzero amplitude: the thermal
cutoff for a coherent-thermal ensemble, the ground state alone for the
qubit input.

The module needs only numpy and the standard library. Log-factorials come
from math.lgamma (`_log_factorial`, within 3 ulps of exact), Poisson
probabilities from them (`_poisson_pmf`, a few ulps of log n! relative),
and Poisson tails from one survival table (`_poisson_sf`, within 4e-12
relative of scipy's pdtrc). Every Fock cutoff is the first index of that
table below its budget.

Sign convention (pinned by the regression tests against a dense matrix
exponential): a photon-number branch (n, m) with difference delta = n - m
acquires the interaction-picture factor

    exp(-i B(t) delta**2) * D_C(k * delta * xi(t))

and, in the full picture, additionally the optical phases
exp(-i (r_a n + r_b m) t) and the mechanical rotation exp(-i l t) applied
after the displacement.

Mixed mechanical input states (thermal occupation nbar > 0) are represented
as weighted ensembles of pure states over the initial mechanical Fock
number, which is exact for every quantity reported here because the thermal
state is diagonal in the number basis and all outputs are linear in the
density matrix. The ensemble is one array with a leading member axis; since
rho = sum_w w |psi_w><psi_w| is the partial trace of the purification
sqrt(w) psi over that axis, every output traces it like a fourth mode.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import big_b, xi

__all__ = [
    "FockConfig",
    "TriModeState",
    "ModePairMoments",
    "displacement_matrix",
    "build_initial_state",
    "apply_evolution",
    "partial_trace",
    "moments",
    "hamiltonian_expectation",
]

_MODE_AXES = {"A": 0, "B": 1, "C": 2}
#: default Fock tail budget: the probability mass a truncation may drop
_TAIL_TOLERANCE = 1e-10
#: largest reduced matrix `partial_trace` builds: 4096**2 complex entries are 256 MiB
_MAX_DIM_KEEP = 4096


def _displacement_columns(beta: complex, dim: int, n_cols: int) -> np.ndarray:
    """Columns 0..n_cols-1 of <m|D(beta)|n> on the basis 0..dim-1, shape (dim, n_cols).

    With x = |beta|**2 and u = beta/|beta|, every entry is a normalized
    Laguerre function f_n^(a) = sqrt(n!/(n+a)!) x**(a/2) exp(-x/2) L_n^(a)(x)
    times a phase (Cahill & Glauber 1969):

        <m|D|n> = u**(m-n) f_n^(m-n)        for m >= n
        <m|D|n> = (-conj(u))**(n-m) f_m^(n-m)  for m < n

    The table f_n^(a) for degrees n < n_cols and all orders a < dim comes
    from the three-term recurrence in degree, one vectorized step per n,

        sqrt((n+1)(n+1+a)) f_{n+1} = (2n+1+a-x) f_n - sqrt(n(n+a)) f_{n-1},

    started from f_0^(a), the Poisson amplitude sqrt(exp(-x) x**a / a!)
    taken in log space. The cost is O(dim * n_cols). The recurrence in the
    column index from D a+ = (a+ - conj(beta)) D is not used: it is unstable.
    """
    beta = complex(beta)
    if beta == 0:
        return np.eye(dim, n_cols, dtype=complex)
    x = abs(beta) ** 2
    order = np.arange(dim)
    table = np.empty((n_cols, dim))
    table[0] = np.exp(order * math.log(abs(beta)) - 0.5 * (x + _log_factorial(dim - 1)))
    if n_cols > 1:
        table[1] = (1.0 + order - x) / np.sqrt(1.0 + order) * table[0]
    for n in range(1, n_cols - 1):
        table[n + 1] = (
            (2 * n + 1 + order - x) * table[n] - np.sqrt(n * (n + order)) * table[n - 1]
        ) / np.sqrt((n + 1) * (n + 1 + order))
    row = order[:, None]
    col = np.arange(n_cols)[None, :]
    diff = np.abs(row - col)
    unit = beta / abs(beta)
    phase = np.where(row >= col, (unit ** order)[diff], ((-np.conj(unit)) ** order)[diff])
    return phase * table[np.minimum(row, col), diff]


def displacement_matrix(beta: complex, n_max: int) -> np.ndarray:
    """Matrix elements <m|D(beta)|n> on the basis 0..n_max; see `_displacement_columns`.

    beta = 0 gives exactly the identity.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    return _displacement_columns(beta, n_max + 1, n_max + 1)


@functools.cache
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.flags.writeable = False
    return table


def _log_factorial(n_max: int) -> np.ndarray:
    """log(k!) for k = 0..n_max from math.lgamma, within 3 ulps of exact (k <= 5000).

    The values come from one cached table per power-of-two size, so a hot
    path slices a table instead of calling lgamma once per element.
    """
    return _log_factorial_table(1 << int(n_max).bit_length())[: n_max + 1]


def _poisson_pmf(n_max: int, lam: float) -> np.ndarray:
    """P(Poisson(lam) = n) for n = 0..n_max, as exp(n log lam - log n! - lam).

    lam = 0 is the point mass at 0. The relative error is a few ulps of
    log n! (below 5e-13 for n <= 400).
    """
    n = np.arange(n_max + 1)
    if lam == 0:
        return (n == 0).astype(float)
    return np.exp(n * math.log(lam) - _log_factorial(n_max) - lam)


def _poisson_sf(lam: float) -> np.ndarray:
    """Survival table sf[n] = P(Poisson(lam) > n) for n = 0..N, with sf[N] = 0.

    The sum of the pmf is taken from the top down. N = lam + sqrt(1500 lam)
    + 500 puts P(X >= N) below exp(-749) by the Bernstein bound, under the
    smallest double, so every n >= N has a tail of 0 in double precision.
    Against scipy's pdtrc the table agrees to 4e-12 relative wherever the
    tail exceeds 1e-300, for lam up to 1e3.
    """
    pmf = _poisson_pmf(int(lam + math.sqrt(1500.0 * lam) + 500.0), lam)
    at_least = np.cumsum(pmf[::-1])[::-1]
    return np.append(at_least[1:], 0.0)


def _poisson_tail_cutoff(lam: float, tol: float) -> int:
    """Smallest n with P(Poisson(lam) > n) < tol."""
    if lam <= 0 or tol >= 1:
        return 0
    return int(np.argmax(_poisson_sf(lam) < tol))


def _thermal_tail_cutoff(nbar: float, tol: float) -> int:
    """Smallest L such that the geometric weights beyond L sum below tol."""
    if nbar <= 0 or tol >= 1:
        return 0
    q = nbar / (1.0 + nbar)
    L = max(int(math.ceil(math.log(tol) / math.log(q))) - 1, 0)
    while q ** (L + 1) >= tol:
        L += 1
    while L > 0 and q ** L < tol:
        L -= 1
    return L


def _mechanical_cutoff(
    alpha: complex,
    beta: complex,
    nbar: float,
    k: float,
    n_max_a: int,
    n_max_b: int,
    tol: float,
) -> int:
    """Mechanical cutoff covering the conditional displacements.

    A branch with photon-number difference delta is displaced by at most
    |k * delta * eta| <= 2 k |delta| on top of an initial Fock state up to
    the thermal cutoff, so its occupation is bounded by a Poisson-like tail
    at lam = (2 k |delta| + sqrt(l_max))**2. Each |delta| gets a tail budget
    inversely weighted by its branch probability, which keeps the cutoff
    from being dictated by branches of negligible weight.
    """
    l_max = _thermal_tail_cutoff(nbar, tol / 4.0)
    pa = _poisson_pmf(n_max_a, abs(alpha) ** 2)
    pb = _poisson_pmf(n_max_b, abs(beta) ** 2)
    weight = np.outer(pa, pb)
    delta = np.arange(n_max_a + 1)[:, None] - np.arange(n_max_b + 1)[None, :]
    sqrt_l = math.sqrt(l_max)
    n_c = l_max + 4
    n_classes = int(np.abs(delta).max()) + 1
    for d in range(n_classes):
        w = float(weight[np.abs(delta) == d].sum())
        if w <= 0.0:
            continue
        budget = tol / (4.0 * n_classes * w)
        if budget >= 1.0:
            # the whole branch carries less weight than its share of the
            # error budget, so it does not drive the cutoff
            continue
        lam = (2.0 * abs(k) * d + sqrt_l) ** 2
        n_c = max(n_c, _poisson_tail_cutoff(lam, budget) + 2)
    return n_c


def _require_finite(**inputs) -> None:
    """Raise a ValueError naming the first input that is NaN or infinite."""
    for name, value in inputs.items():
        if not cmath.isfinite(complex(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class FockConfig:
    """Truncation cutoffs (inclusive occupation maxima) and tail budget."""

    n_max_a: int
    n_max_b: int
    n_max_c: int
    tolerance: float = _TAIL_TOLERANCE

    def __post_init__(self) -> None:
        for name in ("n_max_a", "n_max_b", "n_max_c"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (0 < self.tolerance < 1):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance!r}")

    @classmethod
    def for_qubit(cls, k: float, tolerance: float = _TAIL_TOLERANCE) -> "FockConfig":
        """Cutoffs for the vacuum/one-photon superposition input.

        Photon numbers are conserved, so the optical cutoffs stay at 1; the
        mechanical mode sees displacements of magnitude at most 2k.
        """
        _require_finite(k=k)
        n_c = max(_poisson_tail_cutoff((2.0 * abs(k)) ** 2, tolerance / 2.0) + 2, 8)
        return cls(n_max_a=1, n_max_b=1, n_max_c=n_c, tolerance=tolerance)

    @classmethod
    def for_coherent_thermal(
        cls,
        alpha: complex,
        beta: complex,
        nbar: float,
        k: float,
        tolerance: float = _TAIL_TOLERANCE,
    ) -> "FockConfig":
        _require_finite(alpha=alpha, beta=beta, nbar=nbar, k=k)
        n_a = max(_poisson_tail_cutoff(abs(alpha) ** 2, tolerance / 4.0), 1)
        n_b = max(_poisson_tail_cutoff(abs(beta) ** 2, tolerance / 4.0), 1)
        n_c = _mechanical_cutoff(alpha, beta, nbar, k, n_a, n_b, tolerance)
        return cls(n_max_a=n_a, n_max_b=n_b, n_max_c=n_c, tolerance=tolerance)

    def doubled(self) -> "FockConfig":
        """Convergence-study variant with all cutoffs doubled."""
        return FockConfig(
            n_max_a=2 * self.n_max_a,
            n_max_b=2 * self.n_max_b,
            n_max_c=2 * self.n_max_c,
            tolerance=self.tolerance,
        )


@dataclass
class TriModeState:
    """State of modes A, B (optical) and C (mechanical) in the number basis.

    A statistical ensemble of pure states with fixed weights: `vectors` has
    shape (members, n_max_a+1, n_max_b+1, n_max_c+1) and `weights` has shape
    (members,). A pure state is an ensemble of one. Treated as immutable
    after construction.
    """

    weights: np.ndarray
    vectors: np.ndarray
    config: FockConfig

    @property
    def shape(self) -> tuple:
        """Shape of one member's amplitude tensor."""
        return self.vectors.shape[1:]

    def trace(self) -> float:
        return _ladder_expectation(self, ()).real


def _coherent_vector(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes of |alpha> up to n_max (log-safe)."""
    n = np.arange(n_max + 1)
    if alpha == 0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    mag = np.exp(-0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * _log_factorial(n_max))
    unit = alpha / abs(alpha)
    return mag * unit ** n


def build_initial_state(kind: str, **params) -> TriModeState:
    """Construct the initial tri-mode state.

    kind="qubit": ((|0> + |1>)/sqrt2) on each optical mode, mechanical
    ground state. Accepts k (used to size the mechanical cutoff) and
    either tolerance or a FockConfig via config=.

    kind="coherent_thermal": |alpha> x |beta> x thermal(nbar), the thermal
    mode as a weighted ensemble of Fock states with geometric weights,
    truncated below the tail tolerance and renormalized. Accepts alpha,
    beta, nbar, k, and either tolerance or config=.
    """
    config = params.pop("config", None)
    if config is not None and "tolerance" in params:
        raise ValueError("pass config or tolerance, not both: config carries its own tolerance")
    tolerance = params.pop("tolerance", _TAIL_TOLERANCE)
    if kind == "qubit":
        k = params.pop("k", 0.0)
        if params:
            raise ValueError(f"unexpected parameters for kind='qubit': {sorted(params)}")
        _require_finite(k=k)
        if config is None:
            config = FockConfig.for_qubit(k, tolerance)
        if config.n_max_a < 1 or config.n_max_b < 1:
            raise ValueError("qubit state needs optical cutoffs of at least 1")
        psi = np.zeros(
            (1, config.n_max_a + 1, config.n_max_b + 1, config.n_max_c + 1), dtype=complex
        )
        psi[0, 0:2, 0:2, 0] = 0.5
        return TriModeState(np.array([1.0]), psi, config)

    if kind == "coherent_thermal":
        alpha = complex(params.pop("alpha", 0.0))
        beta = complex(params.pop("beta", 0.0))
        nbar = float(params.pop("nbar", 0.0))
        k = params.pop("k", 0.0)
        if params:
            raise ValueError(
                f"unexpected parameters for kind='coherent_thermal': {sorted(params)}"
            )
        _require_finite(alpha=alpha, beta=beta, nbar=nbar, k=k)
        if nbar < 0:
            raise ValueError(f"nbar must be non-negative, got {nbar!r}")
        if config is None:
            config = FockConfig.for_coherent_thermal(alpha, beta, nbar, k, tolerance)
        # tail-mass invariants for the supplied cutoffs
        for amp, n_max, label in (
            (alpha, config.n_max_a, "n_max_a"),
            (beta, config.n_max_b, "n_max_b"),
        ):
            sf = _poisson_sf(abs(amp) ** 2)
            tail = float(sf[n_max]) if n_max < len(sf) else 0.0
            if tail >= config.tolerance:
                raise ValueError(
                    f"coherent tail mass {tail:.3e} beyond {label}={n_max} exceeds "
                    f"tolerance {config.tolerance:.1e}"
                )
        l_max = _thermal_tail_cutoff(nbar, config.tolerance / 4.0)
        if l_max > config.n_max_c:
            raise ValueError(
                f"thermal tail needs mechanical cutoff {l_max}, "
                f"config has n_max_c={config.n_max_c}"
            )
        amp_a = _coherent_vector(alpha, config.n_max_a)
        amp_b = _coherent_vector(beta, config.n_max_b)
        optical = np.multiply.outer(amp_a, amp_b)
        if nbar == 0:
            weights = np.array([1.0])
        else:
            q = nbar / (1.0 + nbar)
            weights = (1.0 - q) * q ** np.arange(l_max + 1)
            weights = weights / weights.sum()
        # member l0 starts in mechanical Fock state l0
        l0 = np.arange(len(weights))
        vectors = np.zeros(
            (len(weights), config.n_max_a + 1, config.n_max_b + 1, config.n_max_c + 1),
            dtype=complex,
        )
        vectors[l0, :, :, l0] = optical
        return TriModeState(weights, vectors, config)

    raise ValueError(f"unknown state kind {kind!r}")


def apply_evolution(
    state: TriModeState,
    t: float,
    k: float,
    r_a: float,
    r_b: float,
    *,
    interaction_picture: bool = False,
) -> TriModeState:
    """Evolve by scaled time t under the factored unitary.

    Applied per photon-number branch (n, m), delta = n - m, in order: the
    Kerr phase exp(-i B(t) delta**2), the conditional mechanical
    displacement D_C(k delta xi(t)), then (full picture only) the optical
    phases exp(-i (r_a n + r_b m) t) and the mechanical rotation
    exp(-i l t). With interaction_picture=True the last two factors are
    omitted.
    """
    na1, nb1, nc1 = state.shape
    n = np.arange(na1)[:, None]
    m = np.arange(nb1)[None, :]
    delta = n - m
    phase = np.exp(-1j * float(big_b(t, k)) * delta.astype(float) ** 2)
    if not interaction_picture:
        phase = phase * np.exp(-1j * t * (r_a * n + r_b * m))
    xi_t = complex(xi(t))
    out = state.vectors * phase[:, :, None]
    if k != 0.0 and xi_t != 0.0:
        # only the columns of D up to the highest mechanical index holding an
        # exactly nonzero amplitude act on the state
        occupied = np.flatnonzero(np.any(out, axis=(0, 1, 2)))
        n_cols = int(occupied.max(initial=0)) + 1
        l = np.arange(nc1)
        sign = (-1.0) ** (l[None, :] - l[:n_cols, None])
        for d in range(1, int(np.abs(delta).max()) + 1):
            block = _displacement_columns(k * d * xi_t, nc1, n_cols).T
            # D(-beta)[m, n] = (-1)**(m - n) D(beta)[m, n], so one build covers both signs
            for dd, block_dd in ((d, block), (-d, block * sign)):
                mask = delta == dd
                if mask.any():
                    out[:, mask, :] = out[:, mask, :n_cols] @ block_dd
    if not interaction_picture:
        out *= np.exp(-1j * t * np.arange(nc1))
    return TriModeState(state.weights.copy(), out, state.config)


def partial_trace(state: TriModeState, keep: str) -> np.ndarray:
    """Reduced density matrix over the kept modes, ordered A before B before C.

    keep is a subset of "ABC", e.g. "AB" or "C". Row-major composite index
    over the kept modes, so for keep="AB" the basis runs
    |00>, |01>, ..., |0 n_b>, |10>, ...
    """
    kept = "".join(sorted(set(keep.upper())))
    if not kept or any(mode not in _MODE_AXES for mode in kept):
        raise ValueError(f"keep must be a non-empty subset of 'ABC', got {keep!r}")
    dim_keep = int(np.prod([state.shape[_MODE_AXES[mode]] for mode in kept]))
    if dim_keep > _MAX_DIM_KEEP:
        raise ValueError(f"keep {kept}: reduced dimension {dim_keep} exceeds {_MAX_DIM_KEEP}")
    # trace the purification sqrt(w) psi over the member axis and the dropped
    # modes, a chunk of members at a time: a chunk's copies stay within the
    # larger of one member and the result, and a result at least as large
    # as the ensemble takes every member in one product, as one chunk
    traced = [0] + [axis + 1 for mode, axis in _MODE_AXES.items() if mode not in kept]
    chunk = max(1, dim_keep ** 2 // math.prod(state.shape))
    rho = None
    for start in range(0, len(state.weights), chunk):
        members = slice(start, start + chunk)
        phi = np.sqrt(state.weights[members])[:, None, None, None] * state.vectors[members]
        block = np.tensordot(phi, phi.conj(), axes=(traced, traced)).reshape(dim_keep, dim_keep)
        rho = block if rho is None else np.add(rho, block, out=rho)
    return rho


def _mean_numbers(state: TriModeState) -> list:
    """[<n_A>, <n_B>, <n_C>] from the occupation probabilities sum_w w |psi_w|**2."""
    prob = np.abs(state.vectors)
    prob *= prob
    prob = np.tensordot(state.weights, prob, axes=1)
    return [
        float(prob.sum(axis=tuple(other for other in range(3) if other != axis)) @ np.arange(dim))
        for axis, dim in enumerate(prob.shape)
    ]


def _ladder_expectation(state: TriModeState, axes: tuple, coeff=None) -> complex:
    """sum_w w <psi_w| coeff a_1 a_2 ... |psi_w>, one annihilator per mode axis in axes.

    Lowering along an axis pairs amplitude n with amplitude n+1 at weight
    sqrt(n+1), so the expectation is one conjugated dot of shifted slices
    of the ensemble, with no lowered copy of it. coeff broadcasts against
    the shifted slice of one member. With no axes and no coeff this is the
    trace of the density matrix.
    """
    psi = state.vectors
    lo = [slice(None)] * psi.ndim
    hi = [slice(None)] * psi.ndim
    factor = state.weights[:, None, None, None]
    for axis in axes:
        lo[axis + 1] = slice(None, -1)
        hi[axis + 1] = slice(1, None)
        sqrt_n = np.sqrt(np.arange(1, psi.shape[axis + 1], dtype=float))
        factor = factor * np.expand_dims(sqrt_n, [d for d in range(psi.ndim) if d != axis + 1])
    ket = psi[tuple(hi)] * factor
    if coeff is not None:
        ket *= coeff
    return complex(np.vecdot(psi[tuple(lo)], ket).sum())


@dataclass(frozen=True)
class ModePairMoments:
    """First and second moments of a mode pair: <a1>, <a2>, <a1+ a1>, <a2+ a2>, <a1 a2>."""

    mean1: complex
    mean2: complex
    occ1: float
    occ2: float
    corr: complex


def moments(state: TriModeState) -> dict:
    """Moments that feed the EPR variance kernel, keyed by mode pair "AB", "AC", "BC".

    One pass over |psi|**2 gives the three mean numbers; each <a> and each
    pair correlation is one ladder expectation.
    """
    occ = _mean_numbers(state)
    mean = [_ladder_expectation(state, (axis,)) for axis in range(3)]
    return {
        pair: ModePairMoments(mean[i], mean[j], occ[i], occ[j], _ladder_expectation(state, (i, j)))
        for pair, (i, j) in (("AB", (0, 1)), ("AC", (0, 2)), ("BC", (1, 2)))
    }


def hamiltonian_expectation(state: TriModeState, k: float, r_a: float, r_b: float) -> float:
    """<H>/(hbar omega_m) with H/(hbar omega_m) = r_a n_a + r_b n_b + n_c - k (n_a - n_b)(c + c+).

    Used by the conservation tests; exact in the truncated basis as long as
    the state holds no appreciable weight at the cutoff boundary.
    """
    n_a, n_b, n_c = _mean_numbers(state)
    na1, nb1, _ = state.shape
    delta = np.arange(na1)[:, None, None] - np.arange(nb1)[None, :, None]
    # <(n_a - n_b)(c + c+)> = 2 Re <(n_a - n_b) c>
    cross = _ladder_expectation(state, (2,), coeff=delta)
    return r_a * n_a + r_b * n_b + n_c - 2.0 * k * cross.real
