"""Closed-form EPR variances for coherent x coherent x thermal inputs.

For two modes with annihilation operators a1, a2 the witness evaluated here
is half the summed variance of x1 + x2 and p1 - p2, which in moment form is

    D = <a1+ a1> + <a2+ a2> + 2 Re(<a1 a2> - <a1><a2>)
        - |<a1>|**2 - |<a2>|**2 + 1.

Any separable state satisfies D >= 1, so D < 1 witnesses entanglement.
The closed forms below follow from the Heisenberg-picture mode operators of
the factored evolution and are certified against the Fock oracle by the test
suite; the analytic route never calls the oracle and vice versa.

The optical carrier phases enter only through cos((r_a + r_b) t + ...)
factors, which at realistic optical/mechanical frequency ratios oscillate
~1e9 times faster than the envelope. Closed-form lower envelopes over that
fast phase are therefore provided alongside the pointwise expressions, and
`window_minima` switches to envelope minimization when a direct scan cannot
resolve the carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SystemParams, big_b, eta
from .oracle import ModePairMoments

__all__ = [
    "CVInitialState",
    "RegimeReport",
    "duan_from_moments",
    "duan_values",
    "WindowMinima",
    "window_minima",
    "entanglement_period",
    "regime_report",
]

#: boundary between the low and high coupling regimes; the boundary itself
#: is classified as high
K_REGIME_BOUNDARY = 1.0 / math.sqrt(2.0)


def _low_regime(k):
    """True where k lies below K_REGIME_BOUNDARY; works elementwise on arrays."""
    return k < K_REGIME_BOUNDARY


def entanglement_period(k, omega_m):
    """Time to the first entanglement-envelope recurrence.

    pi/(omega_m k**2) below the regime boundary k = 1/sqrt 2, 2 pi/omega_m at
    and above it. With omega_m = 1 this is the period in scaled time, with
    omega_m in rad/s the period in seconds. k and omega_m broadcast together;
    scalars give a float, arrays an array.
    """
    k, omega_m = np.asarray(k, dtype=float), np.asarray(omega_m, dtype=float)
    for name, value in (("k", k), ("omega_m", omega_m)):
        if not np.all(value > 0):
            raise ValueError(f"{name} must be positive, got {float(value[~(value > 0)].flat[0])!r}")
    period = np.where(_low_regime(k), math.pi / (omega_m * k ** 2), 2.0 * math.pi / omega_m)
    return float(period) if period.ndim == 0 else period


@dataclass(frozen=True)
class CVInitialState:
    """Coherent amplitudes of the optical modes and thermal occupation of the mechanics.

    The analytic formulas assume real alpha and beta; complex amplitudes are
    rejected by the closed-form path and must go through the Fock oracle.
    """

    alpha: float
    beta: float
    nbar: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if isinstance(value, complex) or not math.isfinite(float(value)):
                raise ValueError(
                    f"{name} must be a finite real number for the analytic path "
                    f"(complex amplitudes are supported by the Fock oracle only), got {value!r}"
                )
        if self.nbar < 0:
            raise ValueError(f"nbar must be non-negative, got {self.nbar!r}")


@dataclass(frozen=True)
class RegimeReport:
    """Coupling-regime classification and the matching feasibility inequality."""

    k: float
    regime: str
    envelope_period: float
    envelope_period_seconds: float
    feasibility_condition: str
    feasibility_ratio: float


#: how far <n> may fall below |<a>|**2 before duan_from_moments rejects the moments
_MOMENT_TOL = 1e-9


def duan_from_moments(m: ModePairMoments) -> float:
    """Evaluate the witness from mode-pair moments (shared analytic/oracle kernel)."""
    for occ, mean, label in ((m.occ1, m.mean1, "1"), (m.occ2, m.mean2, "2")):
        if occ < abs(mean) ** 2 - _MOMENT_TOL:
            raise ValueError(
                f"inconsistent moments for mode {label}: <n>={occ!r} below |<a>|**2={abs(mean)**2!r}"
            )
    return float(
        m.occ1
        + m.occ2
        + 2.0 * (m.corr - m.mean1 * m.mean2).real
        - abs(m.mean1) ** 2
        - abs(m.mean2) ** 2
        + 1.0
    )


@dataclass(frozen=True)
class _Kernels:
    """Time kernels of one time array, shared by every cell evaluated on it.

    The methods give the arrays that also depend on k and nbar. `coupled`
    holds them once `_couple` has computed them for a (k, nbar) that every
    cell shares; the methods then return the stored arrays and ignore their
    arguments.
    """

    t: np.ndarray
    unit_b: np.ndarray  # B(t) at k = 1, so B(t) = k**2 unit_b
    eta: np.ndarray
    eta_sq: np.ndarray
    #: (2B, cos 2B, sin 2B, thermal exponent) of the shared (k, nbar), or None
    coupled: tuple | None = None

    def twob(self, k):
        return 2.0 * (k ** 2 * self.unit_b) if self.coupled is None else self.coupled[0]

    def cos_twob(self, twob):
        return np.cos(twob) if self.coupled is None else self.coupled[1]

    def sin_twob(self, twob):
        return np.sin(twob) if self.coupled is None else self.coupled[2]

    def thermal(self, k, nbar):
        """k^2 |eta|^2 (2 nbar + 1), the thermal dephasing exponent."""
        return k ** 2 * self.eta_sq * (2.0 * nbar + 1.0) if self.coupled is None else self.coupled[3]


def _kernels(t) -> _Kernels:
    t = np.asarray(t, dtype=float)
    eta_t = eta(t)
    return _Kernels(t=t, unit_b=big_b(t, 1.0), eta=eta_t, eta_sq=np.abs(eta_t) ** 2)


def _couple(kern: _Kernels, k: float, nbar: float) -> _Kernels:
    """kern with its (k, nbar) arrays computed once, for cells that all share k and nbar."""
    twob = kern.twob(k)
    return replace(kern, coupled=(twob, kern.cos_twob(twob), kern.sin_twob(twob), kern.thermal(k, nbar)))


# The curve functions below take the kernels plus per-cell parameters that
# broadcast against them: scalars for one cell, (cells, 1) columns against a
# shared time grid, or (cells,) arrays against one time per cell.

def _envelope_factor(kern, cos_twob, total, k, nbar):
    """exp(-2 (|a|^2+|b|^2) (1 - cos 2B) - k^2 |eta|^2 (2 nbar + 1))."""
    return np.exp(-2.0 * total * (1.0 - cos_twob) - kern.thermal(k, nbar))


def _ab_values(kern, alpha, beta, nbar, k, r_a, r_b):
    total = alpha ** 2 + beta ** 2
    cross = 2.0 * alpha * beta
    phi = (r_a + r_b) * kern.t
    twob = kern.twob(k)
    env = _envelope_factor(kern, kern.cos_twob(twob), total, k, nbar)
    return 1.0 + (total + cross * np.cos(phi)) - (total + cross * np.cos(phi + twob)) * env


def _ab_lower(kern, alpha, beta, nbar, k, r_a, r_b):
    total = alpha ** 2 + beta ** 2
    twob = kern.twob(k)
    cos_twob = kern.cos_twob(twob)
    env = _envelope_factor(kern, cos_twob, total, k, nbar)
    # |1 - env exp(2iB)| in real arithmetic: this line dominates the envelope
    # scan, and complex temporaries made it several times slower
    swing = np.sqrt((1.0 - env * cos_twob) ** 2 + (env * kern.sin_twob(twob)) ** 2)
    return 1.0 + total * (1.0 - env) - 2.0 * np.abs(alpha * beta) * swing


def _r_correlation(kern, alpha, beta, nbar, k, r_fast):
    """Connected <a c> correlation for the optical mode with amplitude alpha.

    r_fast is that mode's frequency ratio (r_a for mode A). The a <-> b
    relabeling enters through the argument order and the sign of k.
    """
    bt = k ** 2 * kern.unit_b
    e_m = 1.0 - np.exp(-2j * bt)
    e_p = 1.0 - np.exp(+2j * bt)
    coherent_env = np.exp(-(alpha ** 2) * e_m - (beta ** 2) * e_p)
    thermal_env = np.exp(-(k ** 2) * kern.eta_sq * (nbar + 0.5))
    bracket = (nbar + 1.0) - alpha ** 2 * e_m + beta ** 2 * e_p
    return (
        alpha
        * k
        * kern.eta
        * np.exp(-1j * (r_fast * kern.t + bt))
        * coherent_env
        * bracket
        * thermal_env
    )


def _ac_base(kern, alpha, beta, nbar, k):
    """D_AC minus its 2 Re R term."""
    total = alpha ** 2 + beta ** 2
    env = _envelope_factor(kern, kern.cos_twob(kern.twob(k)), total, k, nbar)
    return 1.0 + alpha ** 2 + nbar + k ** 2 * kern.eta_sq * total - (alpha ** 2) * env


def _ac_values(kern, alpha, beta, nbar, k, r_a, r_b):
    r = _r_correlation(kern, alpha, beta, nbar, k, r_a)
    return _ac_base(kern, alpha, beta, nbar, k) + 2.0 * r.real


def _ac_lower(kern, alpha, beta, nbar, k, r_a, r_b):
    r = _r_correlation(kern, alpha, beta, nbar, k, r_a)
    return _ac_base(kern, alpha, beta, nbar, k) - 2.0 * np.abs(r)


def _bc_values(kern, alpha, beta, nbar, k, r_a, r_b):
    """D_BC via the a <-> b relabeling (alpha <-> beta, r_a <-> r_b, k -> -k)."""
    return _ac_values(kern, beta, alpha, nbar, -k, r_b, r_a)


def _bc_lower(kern, alpha, beta, nbar, k, r_a, r_b):
    return _ac_lower(kern, beta, alpha, nbar, -k, r_b, r_a)


_VALUES = {"AB": _ab_values, "AC": _ac_values, "BC": _bc_values}
_LOWER = {"AB": _ab_lower, "AC": _ac_lower, "BC": _bc_lower}


def duan_values(t, state: CVInitialState, p: SystemParams, pair: str, *, lower: bool = False):
    """Witness D(t) across one bipartition; t may be an array and the result takes its shape.

    pair is "AB" (the two optical modes), "AC" or "BC" (optical mode A or B
    with the mechanics). BC is AC with the optical modes relabeled: alpha
    <-> beta, r_a <-> r_b and k -> -k, since a photon in mode B kicks the
    mirror the other way. lower=True gives the lower envelope over the fast
    carrier phase instead: (r_a + r_b) t for AB, r_a t for AC, r_b t for BC.
    """
    table = _LOWER if lower else _VALUES
    if pair not in table:
        raise ValueError(f"pair must be one of {sorted(table)}, got {pair!r}")
    return table[pair](_kernels(t), state.alpha, state.beta, state.nbar, p.k, p.r_a, p.r_b)


@dataclass(frozen=True)
class WindowMinima:
    """Per-cell witness minima over one window; see `window_minima`."""

    t_star: np.ndarray
    d_star: np.ndarray
    #: "direct" or "envelope", with "auto" resolved
    mode: str
    #: True where the golden-section refinement beat the grid minimum
    refined: np.ndarray
    #: number of distinct cells scanned; see `window_minima`
    scanned_cells: int
    #: grid values of the witness the scan computed; see `window_minima`
    evaluated_points: int


#: float64 grid elements per temporary of the blocked scan (512 KiB); the
#: block size sets the scan's peak memory
_BLOCK_ELEMENTS = 2 ** 16
#: consecutive grid points per block of the bounded envelope scan
_SCAN_BLOCK = 32
#: slack of the bounded scan's pruning test, relative to 1 + alpha**2 + beta**2
_BOUND_MARGIN = 1e-9
#: fewest and most points of a scan grid
_MIN_SCAN_POINTS = 65
_MAX_SCAN_POINTS = 20_000_000
#: relative bracket tolerance of the refinement, as scipy's golden xtol
_XTOL = 1e-12
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _window_bounds(window) -> tuple[float, float]:
    try:
        t_min, t_max = (0.0, float(window)) if np.isscalar(window) else map(float, window)
    except TypeError:
        raise ValueError(f"window must be t_max or (t_min, t_max), got {window!r}")
    if not (t_max > t_min >= 0.0):
        raise ValueError(f"window must satisfy 0 <= t_min < t_max, got {(t_min, t_max)}")
    return t_min, t_max


def _scan_grid(t_min, t_max, fast, resolution, mode):
    """The uniform scan grid of a window and the resolved mode."""
    span = t_max - t_min
    cycles = fast * span / (2.0 * math.pi)
    if mode == "auto":
        mode = "envelope" if cycles > 1e5 else "direct"
    if mode == "direct":
        max_step = math.pi / (8.0 * fast)
        if resolution is not None and resolution > max_step:
            raise ValueError(
                f"direct-mode step {resolution:g} cannot resolve the carrier; "
                f"need at most {max_step:g}"
            )
        step = resolution if resolution is not None else max_step
    elif mode == "envelope":
        step = resolution if resolution is not None else span / 4000.0
    else:
        raise ValueError(f"mode must be 'auto', 'direct' or 'envelope', got {mode!r}")
    n_points = int(math.ceil(span / step)) + 1
    if n_points > _MAX_SCAN_POINTS:
        if mode == "direct":
            raise ValueError(
                f"direct scan would need {n_points} points to resolve the carrier; "
                "use mode='envelope'"
            )
        raise ValueError(f"envelope grid of {n_points} points is too large")
    return np.linspace(t_min, t_max, max(n_points, _MIN_SCAN_POINTS)), mode


def _golden(func, lo, hi):
    """Golden-section search on every bracket [lo, hi] at once.

    All brackets take the same number of steps: enough that each final
    bracket is at most _XTOL (|x1| + |x2|) wide, scipy's golden stopping
    rule, or a few ulps of hi where that is finer than float spacing.
    Returns the better of the two final interior points and its value.
    """
    target = np.maximum(2.0 * _XTOL * lo, 4.0 * np.finfo(float).eps * hi)
    ratio = float(np.min(target / (hi - lo)))
    steps = max(0, math.ceil(math.log(ratio) / math.log(_INV_GOLDEN))) + 1
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = func(x1), func(x2)
    for _ in range(steps):
        left = f1 < f2  # a minimum lies in [lo, x2]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        kept, f_kept = np.where(left, x1, x2), np.where(left, f1, f2)
        new = np.where(left, hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo))
        f_new = func(new)
        x1, f1 = np.where(left, new, kept), np.where(left, f_new, f_kept)
        x2, f2 = np.where(left, kept, new), np.where(left, f_kept, f_new)
    first = f1 < f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def _distinct_rows(columns):
    """(first, inverse) of the rows of equal-length columns, compared bitwise.

    first holds the first index of each distinct row, and inverse maps every
    row to its position in first.
    """
    keys = np.stack(columns, axis=1).view(np.dtype((np.void, 8 * len(columns))))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _take(kern: _Kernels, index) -> _Kernels:
    """The coupled kern at the grid points a slice or an integer array selects."""
    return _Kernels(
        t=kern.t[index],
        unit_b=kern.unit_b[index],
        eta=kern.eta[index],
        eta_sq=kern.eta_sq[index],
        coupled=tuple(a[index] for a in kern.coupled),
    )


def _rows(param, index):
    """A cell parameter for the cells index selects; a shared scalar stays one."""
    return param if np.ndim(param) == 0 else param[index]


def _strict(d, i, left, right, n):
    """Whether each grid minimum d at index i lies strictly below both neighbours."""
    return (i > 0) & (i < n - 1) & (d < left) & (d < right)


def _full_scan(func, kern, params, m, r_a, r_b):
    """(best, d_grid, strict) from every grid value, a block of cells at a time."""
    n = kern.t.size
    best = np.empty(m, dtype=np.intp)
    d_grid = np.empty(m)
    strict = np.zeros(m, dtype=bool)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, m, rows):
        block = slice(start, min(start + rows, m))
        size = block.stop - block.start
        cols = [_rows(p, (block, None)) for p in params]
        values = np.broadcast_to(func(kern, *cols, r_a, r_b), (size, n))
        i = np.argmin(values, axis=1)
        at = np.arange(size)
        d = values[at, i]
        strict[block] = _strict(
            d, i, values[at, np.maximum(i - 1, 0)], values[at, np.minimum(i + 1, n - 1)], n
        )
        best[block] = i
        d_grid[block] = d
    return best, d_grid, strict


def _block_bounds(kern: _Kernels) -> tuple:
    """(min cos 2B, max cos 2B, max |sin 2B|, min theta, max theta) per block of _SCAN_BLOCK points."""
    _, cos_twob, sin_twob, thermal = kern.coupled
    starts = np.arange(0, kern.t.size, _SCAN_BLOCK)
    return (
        np.minimum.reduceat(cos_twob, starts),
        np.maximum.reduceat(cos_twob, starts),
        np.maximum.reduceat(np.abs(sin_twob), starts),
        np.minimum.reduceat(thermal, starts),
        np.maximum.reduceat(thermal, starts),
    )


def _block_floor(total, cross, bounds):
    """Lower bound of `_ab_lower` over each block, for cells given as (cells, 1) columns.

    total is alpha**2 + beta**2 and cross 2 |alpha beta|, as `_ab_lower`
    computes them. This is `_ab_lower`'s own expression at the corners of
    each block that bound it from below; see `window_minima` for why no
    computed grid value of the block lies lower.
    """
    c_lo, c_hi, s_hi, th_lo, th_hi = bounds
    env_hi = np.exp(-2.0 * total * (1.0 - c_hi) - th_lo)
    near = 1.0 - np.minimum(np.exp(-2.0 * total * (1.0 - c_lo) - th_hi) * c_lo, env_hi * c_lo)
    return 1.0 + total * (1.0 - env_hi) - cross * np.sqrt(near ** 2 + (env_hi * s_hi) ** 2)


def _bounded_ab_scan(kern, alpha, beta, nbar, k, m, r_a, r_b):
    """(best, d_grid, strict, evaluated) of the envelope D_AB scan on block bounds.

    kern carries the arrays of the (k, nbar) every cell shares; see
    `window_minima` for the method. Returns None where a bound or a grid
    value could overflow, which the full scan then handles.
    """
    n = kern.t.size
    total = alpha ** 2 + beta ** 2
    if not (np.all(np.isfinite(4.0 * total)) and all(np.all(np.isfinite(a)) for a in kern.coupled)):
        return None
    total = np.broadcast_to(total, (m,))
    cross = np.broadcast_to(2.0 * np.abs(alpha * beta), (m,))
    bounds = _block_bounds(kern)
    blocks = bounds[0].size
    best = np.empty(m, dtype=np.intp)
    d_grid = np.empty(m)
    strict = np.empty(m, dtype=bool)
    evaluated = 0
    # a float temporary holds at most a quarter of _BLOCK_ELEMENTS, and a
    # group's survivor mask (one byte per cell and block) the bytes of one
    # full-scan temporary, so together they stay below the full scan's peak
    elements = _BLOCK_ELEMENTS // 4
    per_call = elements // _SCAN_BLOCK
    rows = max(1, elements // max(blocks, _SCAN_BLOCK))
    group = max(1, 8 * _BLOCK_ELEMENTS // blocks)

    def values(part, cells):
        """_ab_lower on the grid points of part (rows), one column per cell."""
        out = _ab_lower(part, _rows(alpha, cells), _rows(beta, cells), nbar, k, r_a, r_b)
        return np.broadcast_to(out, (out.shape[0], cells.size))

    def fold(block, cells):
        """Scan one block for cells, keeping each cell's first minimum in (d_grid, best)."""
        first = block * _SCAN_BLOCK
        points = slice(first, first + _SCAN_BLOCK)
        for lo in range(0, cells.size, per_call):
            sub = cells[lo:lo + per_call]
            v = values(_take(kern, (points, None)), sub)
            j = np.argmin(v, axis=0)
            v = v[j, np.arange(sub.size)]
            j += first
            won = (v < d_grid[sub]) | ((v == d_grid[sub]) & (j < best[sub]))
            d_grid[sub[won]], best[sub[won]] = v[won], j[won]
        return cells.size * min(_SCAN_BLOCK, n - first)

    for start in range(0, m, group):
        members = np.arange(start, min(start + group, m))
        keep = np.empty((members.size, blocks), dtype=bool)
        for lo in range(0, members.size, rows):
            cells = members[lo:lo + rows]
            tot = total[cells, None]
            floor = _block_floor(tot, cross[cells, None], bounds)
            lowest = np.argmin(floor, axis=1)
            # each cell's incumbent: the exact minimum of its lowest-bound block
            own = np.minimum(np.arange(_SCAN_BLOCK)[:, None] + lowest * _SCAN_BLOCK, n - 1)
            v = values(_take(kern, own), cells)
            j = np.argmin(v, axis=0)
            at = np.arange(cells.size)
            d_grid[cells], best[cells] = v[j, at], own[j, at]
            evaluated += int(np.minimum(_SCAN_BLOCK, n - lowest * _SCAN_BLOCK).sum())
            part = keep[lo:lo + rows]
            np.less_equal(floor, d_grid[cells, None] + _BOUND_MARGIN * (1.0 + tot), out=part)
            part[at, lowest] = False
        for block in np.flatnonzero(keep.any(axis=0)):
            evaluated += fold(block, members[keep[:, block]])
    for start in range(0, m, per_call):
        cells = np.arange(start, min(start + per_call, m))
        i = best[cells]
        around = values(_take(kern, np.stack([np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)])), cells)
        evaluated += around.size
        strict[cells] = _strict(d_grid[cells], i, around[0], around[1], n)
    return best, d_grid, strict, evaluated


def window_minima(
    bipartition: str,
    window,
    r_a: float,
    r_b: float,
    *,
    alpha,
    beta,
    nbar,
    k,
    resolution: float | None = None,
    mode: str = "auto",
) -> WindowMinima:
    """Minimize one witness over a shared window for many cells at once.

    Each cell is one (alpha, beta, nbar, k); the four broadcast together and
    the results take their broadcast shape, so scalars give one cell. The
    window (t_max or a (t_min, t_max) pair in scaled time), carrier ratios,
    resolution and mode are shared, so every cell is scanned on one grid.
    Two modes:

    - "direct": uniform scan of the pointwise expression with step at most
      pi / (8 (r_a + r_b)) so the optical carrier cannot alias. Raises if
      the resulting grid would be astronomically large.
    - "envelope": scan of the closed-form lower envelope over the carrier
      phase. The carrier completes ~(r_a + r_b) T / 2 pi cycles per window,
      so the envelope minimum matches the true minimum to O(1 / cycles); at
      optical carrier frequencies this error is ~1e-9.

    mode="auto" picks "envelope" once the window holds more than 1e5 carrier
    cycles, where a direct scan is no longer feasible. resolution, when
    given, is the grid step and must be positive and finite. Three steps:

    - the cells are reduced to distinct ones, and only those are scanned
      and refined. D_AB depends on alpha and beta only through
      alpha**2 + beta**2 and alpha beta, so for "AB" the cell (beta, alpha)
      is the cell (alpha, beta); AC and BC merge only repeated cells.
      `scanned_cells` counts the distinct cells;
    - the time kernels of the grid are computed once per call, and so are
      the arrays that depend only on k and nbar (cos 2B, sin 2B, the thermal
      exponent) when every cell shares k and nbar. The distinct cells are
      scanned in blocks of about 2**16 grid elements, which bounds the
      scan's temporaries whatever the number of cells;
    - every cell whose grid minimum is a strict interior local minimum is
      refined by one golden-section search across those cells, on the
      bracket of its two grid neighbours. All those searches step together,
      a fixed number of times that narrows every bracket to 1e-12 relative
      to t (scipy's golden xtol). The refined value replaces the grid value
      only where it is lower.

    Merging cells changes no bit of any result: the scan is elementwise, and
    the refinement's common step count depends only on the distinct brackets.

    For "AB" in envelope mode with k and nbar shared by every cell (fig4b),
    the scan runs on certified block bounds instead of every grid value:

    - the grid is cut into blocks of 32 consecutive points. With
      T = alpha**2 + beta**2 and S = (1 - env cos 2B)**2 + (env sin 2B)**2,
      the envelope is D_AB = 1 + T (1 - env) - 2 |alpha beta| sqrt(S),
      where env = exp(-2 T (1 - cos 2B) - theta) <= 1 rises with cos 2B and
      falls with the thermal exponent theta. Over a block, D_AB is thus no
      lower than the same expression with env at its block maximum in
      T (1 - env) and in env |sin 2B|, |sin 2B| at its maximum, and
      1 - env cos 2B at its maximum, which lies at the smallest cos 2B with
      env at either end of its range;
    - the bound is computed with `_ab_lower`'s own operations in the same
      order. Correctly rounded arithmetic and sqrt are monotone, so it also
      bounds every computed grid value of the block; it never uses
      sin**2 + cos**2 = 1, which does not hold exactly in floats. Only exp
      is not guaranteed monotone; its error of a few ulps of env moves D_AB
      by a few 1e-15 (1 + T), about 1e6 times less than the margin below;
    - each cell's incumbent is the exact minimum of its lowest-bound block.
      A block whose bound exceeds incumbent + 1e-9 (1 + T) holds no grid
      value at or below the cell's minimum and is skipped. The others are
      evaluated grouped by block, as slices of the same kernel arrays
      through `_ab_lower`, so every value is bitwise the full scan's, and
      the earliest index among equal minima is kept. The strict-interior
      test evaluates both grid neighbours of the minimum exactly.

    So t_star, d_star and refined are bitwise those of the full scan. At
    fig4b's defaults the bounded scan computes about 14% of the grid.
    `evaluated_points` counts the grid values of D computed: cells times
    grid points for the full scan; the incumbent blocks, surviving blocks
    and two neighbours per cell for the bounded one. Per-cell k or nbar,
    direct mode, AC and BC, and amplitudes or couplings large enough to
    overflow a bound keep the full scan.
    """
    if bipartition not in _VALUES:
        raise ValueError(f"bipartition must be one of {sorted(_VALUES)}, got {bipartition!r}")
    t_min, t_max = _window_bounds(window)
    for name, ratio in (("r_a", r_a), ("r_b", r_b)):
        if not (math.isfinite(ratio) and ratio > 0):
            raise ValueError(f"{name} must be positive and finite, got {ratio!r}")
    if resolution is not None and not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    cells = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (alpha, beta, nbar, k)))
    for name, cell in zip(("alpha", "beta", "nbar", "k"), cells):
        if not np.all(np.isfinite(cell)):
            raise ValueError(f"{name} must be finite in every cell")
    for name, cell in (("nbar", cells[2]), ("k", cells[3])):
        if np.any(cell < 0):
            raise ValueError(f"{name} must be non-negative in every cell")
    grid, mode = _scan_grid(t_min, t_max, r_a + r_b, resolution, mode)
    func = (_LOWER if mode == "envelope" else _VALUES)[bipartition]

    shape = cells[0].shape
    cells = [cell.ravel() for cell in cells]
    if bipartition == "AB":
        # alpha**2 + beta**2, 2.0*alpha*beta and |alpha beta| are bitwise
        # symmetric, so ordering each pair changes no result
        cells[:2] = np.minimum(cells[0], cells[1]), np.maximum(cells[0], cells[1])
    first, inverse = _distinct_rows(cells)
    cells = [cell[first] for cell in cells]
    m, n = cells[0].size, grid.size
    # a parameter shared by every cell stays a scalar, so the kernels that
    # depend only on it are computed once per block instead of once per cell
    params = [cell[0] if m and np.all(cell == cell[0]) else cell for cell in cells]
    kern = _kernels(grid)
    if np.ndim(params[2]) == np.ndim(params[3]) == 0:
        # and with both nbar and k shared, once per call
        kern = _couple(kern, params[3], params[2])
    scan = None
    if kern.coupled is not None and mode == "envelope" and bipartition == "AB":
        scan = _bounded_ab_scan(kern, *params, m, r_a, r_b)
    if scan is None:
        scan = (*_full_scan(func, kern, params, m, r_a, r_b), m * n)
    best, d_grid, strict, evaluated = scan

    t_star, d_star = grid[best], d_grid.copy()
    refined = np.zeros(m, dtype=bool)
    todo = np.flatnonzero(strict)
    if todo.size:
        sub = [p if np.ndim(p) == 0 else p[todo] for p in params]
        t_ref, d_ref = _golden(
            lambda t: func(_kernels(t), *sub, r_a, r_b),
            grid[best[todo] - 1],
            grid[best[todo] + 1],
        )
        better = d_ref < d_grid[todo]
        won = todo[better]
        t_star[won], d_star[won] = t_ref[better], d_ref[better]
        refined[won] = True
    return WindowMinima(
        t_star=t_star[inverse].reshape(shape),
        d_star=d_star[inverse].reshape(shape),
        mode=mode,
        refined=refined[inverse].reshape(shape),
        scanned_cells=m,
        evaluated_points=evaluated,
    )


def regime_report(k: float, omega_m: float, kappa: float) -> RegimeReport:
    """Classify the coupling regime and report the matching feasibility ratio.

    omega_m is the mechanical frequency in rad/s and kappa the photon decay
    rate in 1/s (the inverse photon lifetime). Low regime (k < 1/sqrt 2):
    feasibility needs photon blockade g0**2/(omega_m kappa) >> 1. High
    regime (including the boundary): feasibility needs resolved sidebands
    omega_m >> kappa. Ratios compare angular rates, so kappa is multiplied
    by 2 pi. The envelope period is `entanglement_period` in scaled time and
    in seconds.
    """
    # entanglement_period rejects k <= 0 and omega_m <= 0
    period = entanglement_period(k, 1.0)
    period_seconds = entanglement_period(k, omega_m)
    if not (kappa > 0):
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    kappa_angular = 2.0 * math.pi * kappa
    if _low_regime(k):
        regime = "low"
        condition = "photon_blockade"
        g0 = k * omega_m
        ratio = g0 ** 2 / (omega_m * kappa_angular)
    else:
        regime = "high"
        condition = "resolved_sideband"
        ratio = omega_m / kappa_angular
    return RegimeReport(
        k=k,
        regime=regime,
        envelope_period=period,
        envelope_period_seconds=period_seconds,
        feasibility_condition=condition,
        feasibility_ratio=ratio,
    )
