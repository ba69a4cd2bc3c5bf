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
`window_minima` switches to envelope minimization once the window holds
more than 1e5 carrier cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import big_b, eta

__all__ = [
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
    """Evaluate the witness from an `oracle.ModePairMoments` (shared analytic/oracle kernel)."""
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


class _Kernels(NamedTuple):
    """Time kernels of one time array, coupled to one (k, nbar).

    k and nbar are scalars shared by every cell, or (cells, 1) columns
    against the times; the arrays that depend on them take the broadcast
    shape. The curve functions read k, nbar and those arrays from here.
    """

    t: np.ndarray
    unit_b: np.ndarray  # B(t) at k = 1
    eta: np.ndarray
    eta_sq: np.ndarray
    k: object
    nbar: object
    cos_twob: np.ndarray  # cos 2B(t), 2B = 2 k**2 unit_b
    sin_twob: object  # sin 2B, built for _ab_lower only
    drive: object  # cos((r_a + r_b) t), built for _ab_values only
    carrier: object  # cos((r_a + r_b) t + 2B), built for _ab_values only
    thermal: np.ndarray  # k^2 |eta|^2 (2 nbar + 1), the thermal dephasing exponent


def _time_kernels(t) -> tuple:
    """(t, B(t) at k = 1, eta(t), |eta(t)|**2): the kernels of a time array alone."""
    t = np.asarray(t, dtype=float)
    eta_t = eta(t)
    return t, big_b(t, 1.0), eta_t, np.abs(eta_t) ** 2


def _coupling(time, k, func, fast) -> tuple:
    """(cos 2B, sin 2B, carrier, k^2 |eta|^2): the kernels of `time` that depend on k alone.

    sin 2B is built for `_ab_lower` and the carrier cos(fast t + 2B) for
    `_ab_values`, the curves that read them, and is None for any other
    func; fast is r_a + r_b.
    """
    t, unit_b, _, eta_sq = time
    twob = 2.0 * (k ** 2 * unit_b)
    sin_twob = np.sin(twob) if func is _ab_lower else None
    carrier = np.cos(fast * t + twob) if func is _ab_values else None
    return np.cos(twob), sin_twob, carrier, k ** 2 * eta_sq


def _drive(t, func, fast):
    """cos(fast t), the D_AB carrier at k = 0, for `_ab_values`; None for any other func."""
    return np.cos(fast * t) if func is _ab_values else None


def _couple(time, k, nbar, coupling, drive) -> _Kernels:
    """The kernels of `time` at (k, nbar), from `_coupling`'s arrays at that k and `_drive`'s."""
    cos_twob, sin_twob, carrier, k_eta_sq = coupling
    return _Kernels(*time, k, nbar, cos_twob, sin_twob, drive, carrier, k_eta_sq * (2.0 * nbar + 1.0))


def _kernels(time, k, nbar, func, fast) -> _Kernels:
    """The time kernels `time` coupled to (k, nbar), for the curve func."""
    return _couple(time, k, nbar, _coupling(time, k, func, fast), _drive(time[0], func, fast))


# The curve functions below take the kernels plus per-cell amplitudes that
# broadcast against them: scalars for one cell, (cells, 1) columns against a
# shared time grid, or (cells,) arrays against one time per cell.

def _envelope_factor(kern, total):
    """exp(-2 (|a|^2+|b|^2) (1 - cos 2B) - k^2 |eta|^2 (2 nbar + 1))."""
    return np.exp(-2.0 * total * (1.0 - kern.cos_twob) - kern.thermal)


def _ab_values(kern, alpha, beta, r_a, r_b):
    total = alpha ** 2 + beta ** 2
    cross = 2.0 * alpha * beta
    env = _envelope_factor(kern, total)
    return 1.0 + (total + cross * kern.drive) - (total + cross * kern.carrier) * env


def _ab_lower(kern, alpha, beta, r_a, r_b):
    total = alpha ** 2 + beta ** 2
    env = _envelope_factor(kern, total)
    # |1 - env exp(2iB)| in real arithmetic: this line dominates the envelope
    # scan, and complex temporaries made it several times slower
    swing = np.sqrt((1.0 - env * kern.cos_twob) ** 2 + (env * kern.sin_twob) ** 2)
    return 1.0 + total * (1.0 - env) - 2.0 * np.abs(alpha * beta) * swing


def _r_correlation(kern, alpha, beta, k, r_fast):
    """Connected <a c> correlation for the optical mode with amplitude alpha.

    r_fast is that mode's frequency ratio (r_a for mode A) and k its signed
    coupling. The a <-> b relabeling enters through the argument order and
    the sign of k.
    """
    bt = k ** 2 * kern.unit_b
    e_m = 1.0 - np.exp(-2j * bt)
    e_p = 1.0 - np.exp(+2j * bt)
    coherent_env = np.exp(-(alpha ** 2) * e_m - (beta ** 2) * e_p)
    thermal_env = np.exp(-(k ** 2) * kern.eta_sq * (kern.nbar + 0.5))
    bracket = (kern.nbar + 1.0) - alpha ** 2 * e_m + beta ** 2 * e_p
    return (
        alpha
        * k
        * kern.eta
        * np.exp(-1j * (r_fast * kern.t + bt))
        * coherent_env
        * bracket
        * thermal_env
    )


def _ac_base(kern, alpha, beta):
    """D_AC minus its 2 Re R term."""
    total = alpha ** 2 + beta ** 2
    env = _envelope_factor(kern, total)
    return 1.0 + alpha ** 2 + kern.nbar + kern.k ** 2 * kern.eta_sq * total - (alpha ** 2) * env


def _ac_values(kern, alpha, beta, r_a, r_b):
    return _ac_base(kern, alpha, beta) + 2.0 * _r_correlation(kern, alpha, beta, kern.k, r_a).real


def _ac_lower(kern, alpha, beta, r_a, r_b):
    return _ac_base(kern, alpha, beta) - 2.0 * np.abs(_r_correlation(kern, alpha, beta, kern.k, r_a))


def _bc_values(kern, alpha, beta, r_a, r_b):
    """D_BC via the a <-> b relabeling (alpha <-> beta, r_a <-> r_b, k -> -k)."""
    return _ac_base(kern, beta, alpha) + 2.0 * _r_correlation(kern, beta, alpha, -kern.k, r_b).real


def _bc_lower(kern, alpha, beta, r_a, r_b):
    return _ac_base(kern, beta, alpha) - 2.0 * np.abs(_r_correlation(kern, beta, alpha, -kern.k, r_b))


_VALUES = {"AB": _ab_values, "AC": _ac_values, "BC": _bc_values}
_LOWER = {"AB": _ab_lower, "AC": _ac_lower, "BC": _bc_lower}
#: largest |alpha| and |beta| a witness cell may hold. The AC and BC
#: correlations grow like alpha**3, which here stays below 1e300; every
#: output of the CLI at its defaults stays finite up to 1e113, and at 1e114
#: a sweep of D_AC holds an inf
_MAX_AMPLITUDE = 1e100
#: largest k a witness cell may hold. The kernels square it: 1e100 squares to
#: 1e200, which leaves 1e108 of headroom for the times and occupations that
#: k**2 multiplies, where 1e200 overflowed k**2 itself
_MAX_COUPLING = 1e100


def _check_cell(bipartition, r_a, r_b, alpha, beta, nbar, k) -> None:
    """Refuse, by field name, a witness cell the closed forms cannot evaluate.

    The cells are read through np.asarray but never replaced: the curves
    compute with the caller's own values, since a Python float squares
    through pow() and a 0-d array as x*x, which differ in the last bit for
    some doubles.
    """
    if bipartition not in _VALUES:
        raise ValueError(f"bipartition must be one of {sorted(_VALUES)}, got {bipartition!r}")
    for name, ratio in (("r_a", r_a), ("r_b", r_b)):
        if not (math.isfinite(ratio) and ratio > 0):
            raise ValueError(f"{name} must be positive and finite, got {ratio!r}")
    bounds = {
        "alpha": (-_MAX_AMPLITUDE, _MAX_AMPLITUDE),
        "beta": (-_MAX_AMPLITUDE, _MAX_AMPLITUDE),
        "nbar": (0.0, math.inf),
        "k": (0.0, _MAX_COUPLING),
    }
    for (name, (low, high)), value in zip(bounds.items(), (alpha, beta, nbar, k)):
        value = np.asarray(value)
        if np.iscomplexobj(value):
            raise ValueError(
                f"{name} must be real for the analytic path "
                "(complex amplitudes are supported by the Fock oracle only)"
            )
        bad = ~(np.isfinite(value) & (value >= low) & (value <= high))
        if bad.any():
            if low != 0:
                rule = f"finite with magnitude at most {high:g}"
            else:
                rule = "finite and non-negative" + ("" if high == math.inf else f", at most {high:g}")
            raise ValueError(f"{name} must be {rule} in every cell, got {float(value[bad][0])!r}")


def duan_values(t, bipartition: str, r_a: float, r_b: float, *, alpha, beta, nbar, k, lower: bool = False):
    """Witness D(t) across one bipartition of one cell; t may be an array and the result takes its shape.

    bipartition is "AB" (the two optical modes), "AC" or "BC" (optical mode
    A or B with the mechanics), r_a and r_b the optical carriers over
    omega_m, and the cell (alpha, beta, nbar, k) is `window_minima`'s, with
    the same checks. BC is AC with the optical modes relabeled: alpha <->
    beta, r_a <-> r_b and k -> -k, since a photon in mode B kicks the
    mirror the other way. lower=True gives the lower envelope over the fast
    carrier phase instead: (r_a + r_b) t for AB, r_a t for AC, r_b t for BC.
    """
    _check_cell(bipartition, r_a, r_b, alpha, beta, nbar, k)
    func = (_LOWER if lower else _VALUES)[bipartition]
    kern = _kernels(_time_kernels(t), k, nbar, func, r_a + r_b)
    return func(kern, alpha, beta, r_a, r_b)


@dataclass(frozen=True)
class WindowMinima:
    """Per-cell witness minima over one window; see `window_minima`."""

    t_star: np.ndarray
    d_star: np.ndarray
    #: "direct" or "envelope", as the window and the carriers select
    mode: str
    #: True where the golden-section refinement beat the grid minimum
    refined: np.ndarray
    #: number of distinct cells scanned; see `window_minima`
    scanned_cells: int
    #: grid values of the witness the scan computed; see `window_minima`
    evaluated_points: int


#: most grid values per temporary of the scan (64 KiB of float64), which
#: bounds the scan's memory whatever the grid; 2**14 (128 KiB, glibc's mmap
#: threshold) took thousands of page faults per fig4a call, 2**13 none
_TEMP_ELEMENTS = 2 ** 13
#: consecutive grid points per block of a bounded scan
_SCAN_BLOCK = 32
#: consecutive grid points per sub-block, the second level of a bounded scan
#: whose k and nbar every cell shares
_SUB_BLOCK = 8
#: slack of the bounded scan's pruning test, relative to 1 + alpha**2 + beta**2
_BOUND_MARGIN = 1e-9
#: absolute error allowed to each computed cos 2B and sin 2B in the block
#: bounds: numpy's cos and sin err by a few ulps, under 1e-15 in [-1, 1]
_TRIG_ERROR = 1e-14
#: largest |2B| / pi at which the block bounds look for the peaks of cos
#: and |sin|; beyond it the bounds are [-1, 1]
_MAX_TURNS = 2.0 ** 40
#: fewest points of a scan grid
_MIN_SCAN_POINTS = 65
#: relative bracket tolerance of the refinement, as scipy's golden xtol
_XTOL = 1e-12
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class _Grid:
    """size uniform points on [0, t_max], read an index array at a time.

    Point i is bitwise np.linspace(0, t_max, size)[i], so the scan builds a
    slab's points when it needs them and never holds the whole grid.
    """

    t_max: float
    size: int

    def points(self, index):
        """The grid points at an integer index array, in np.linspace's arithmetic."""
        index = np.asarray(index)
        div = self.size - 1
        step = self.t_max / div
        # np.linspace divides first where the step underflows to 0
        t = (index / div * self.t_max if step == 0 else index * step) + 0.0
        return np.where(index == div, self.t_max, t)


def _scan_grid(t_max, fast):
    """The uniform scan grid of [0, t_max] and its mode for the carrier ratio sum fast.

    "envelope" once the window holds more than 1e5 carrier cycles, with step
    t_max / 4000; "direct" below that, with step pi / (8 fast) so the
    carrier cannot alias, which caps the grid at 1.6e6 + 2 points.
    """
    if fast * t_max / (2.0 * math.pi) > 1e5:
        mode, step = "envelope", t_max / 4000.0
    else:
        mode, step = "direct", math.pi / (8.0 * fast)
    n_points = int(math.ceil(t_max / step)) + 1
    return _Grid(t_max, max(n_points, _MIN_SCAN_POINTS)), mode


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


def _rows(param, index):
    """A cell parameter for the cells index selects; a shared scalar stays one."""
    return param if np.ndim(param) == 0 else param[index]


def _k_batches(k, m, rows):
    """The scan's cells in batches that share their k kernels: (k, groups) pairs.

    A batch's k is its distinct k values as a column, or the shared scalar.
    Its groups hold at most rows cells each, as (cells, local) with local
    mapping each cell to its row of k, or None where the kernels need no
    gather: one row for the batch, or one per cell. Cells come in order of
    k. A batch holds whole classes of bitwise equal k, at most rows cells in
    all, or one larger class whose groups share its row.
    """
    if np.ndim(k) == 0:
        return [(k, [(np.arange(lo, min(lo + rows, m)), None) for lo in range(0, m, rows)])]
    _, inverse = _distinct_rows([k])
    # in order of k, and of the class of bits where k compare equal (0.0, -0.0)
    order = np.argsort(inverse, kind="stable")
    order = order[np.argsort(k[order], kind="stable")]
    classes = np.split(order, np.flatnonzero(np.diff(inverse[order])) + 1) if m else []
    batches, members = [], []
    for cls in classes + [None]:
        if members and (cls is None or sum(map(len, members)) + cls.size > rows):
            cells = np.concatenate(members)
            local = None
            if 1 < len(members) < cells.size:
                local = np.repeat(np.arange(len(members)), [len(c) for c in members])
            groups = [
                (cells[lo:lo + rows], None if local is None else local[lo:lo + rows])
                for lo in range(0, cells.size, rows)
            ]
            batches.append((k[[c[0] for c in members], None], groups))
            members = []
        members.append(cls)
    return batches


def _trig_bounds(lo, hi):
    """(min cos x, max cos x, max |sin x|) over the computed x in [lo, hi], elementwise.

    lo <= hi are finite and broadcast together. Where [lo, hi] holds a peak
    of cos or |sin|, that bound is +-1; elsewhere the function is monotone on
    [lo, hi] and the bound is its value at an end. Each bound is then widened
    by _TRIG_ERROR, which covers the rounding of cos and sin at the ends and
    at every x inside. Peaks are looked for on x / pi, widened outward by
    four times its relative rounding error so that none is missed; beyond
    _MAX_TURNS every bound is +-1.
    """
    a, b = lo / math.pi, hi / math.pi
    a, b = a - 4.0 * np.finfo(float).eps * np.abs(a), b + 4.0 * np.finfo(float).eps * np.abs(b)
    # cos peaks at j pi, +1 for even j and -1 for odd; |sin| at (j + 1/2) pi
    first, last = np.ceil(a), np.floor(b)
    wide = ~(np.maximum(np.abs(a), np.abs(b)) <= _MAX_TURNS) | (first < last)
    one = first == last
    cos_a, cos_b = np.cos(lo), np.cos(hi)
    c_lo = np.where(wide | (one & (first % 2 == 1)), -1.0, np.minimum(cos_a, cos_b)) - _TRIG_ERROR
    c_hi = np.where(wide | (one & (first % 2 == 0)), 1.0, np.maximum(cos_a, cos_b)) + _TRIG_ERROR
    half = wide | (np.ceil(a - 0.5) <= np.floor(b - 0.5))
    s_hi = np.where(half, 1.0, np.maximum(np.abs(np.sin(lo)), np.abs(np.sin(hi)))) + _TRIG_ERROR
    return c_lo, c_hi, s_hi


def _gather(kern, index):
    """kern at the grid points an index selects."""
    return _Kernels(*(a[index] if isinstance(a, np.ndarray) else a for a in kern))


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


def _scan(func, grid, params, m, r_a, r_b):
    """(best, d_grid, strict, evaluated): each cell's first grid minimum of func.

    Kernels are built once per slab of consecutive points and distinct k,
    or, where block floors bound the scan, the time kernels once for the
    whole grid; see `window_minima`.
    """
    alpha, beta, nbar, k = params
    n, fast = grid.size, r_a + r_b
    best, d_grid = np.full(m, n, dtype=np.intp), np.full(m, np.inf)

    def couple(time, cells):
        """time coupled to the (k, nbar) of cells, one row per cell."""
        return _kernels(time, _rows(k, (cells, None)), _rows(nbar, (cells, None)), func, fast)

    def values(kern, index):
        """func on kern for the cells index selects: one row per cell for
        (cells, None), one column per cell for cells."""
        return func(kern, _rows(alpha, index), _rows(beta, index), r_a, r_b)

    def fold(v, cells, first):
        """Fold v, one column per cell, into the cells' minima.

        first is the grid index of each column's first row: one for every
        cell, or one per cell.
        """
        j = np.argmin(v, axis=0)
        d, i = v[j, np.arange(cells.size)], first + j
        was_d, was_i = d_grid[cells], best[cells]
        # np.argmin's order: a NaN before any number, the earliest of equal values
        won = (d < was_d) | ((d == was_d) & (i < was_i)) | (np.isnan(d) & ~np.isnan(was_d))
        d_grid[cells], best[cells] = np.where(won, d, was_d), np.where(won, i, was_i)

    total = alpha ** 2 + beta ** 2
    # a floor's env reaches at most exp(2 T _TRIG_ERROR), which amplitudes of
    # about 1e7 or more could overflow; their cells, cells whose 2B or
    # thermal exponent overflows, and any func but the envelope D_AB scan
    # every grid value
    bounded = func is _ab_lower and m > 0 and bool(np.all(_TRIG_ERROR * total < 1.0))
    if bounded:
        # only an envelope grid scans _ab_lower, and its at most 4,002 points
        # fit one temporary, so its time kernels and their block extremes
        # are built once; _ab_lower never reads the complex eta, so it is
        # not kept
        t, unit_b, _, eta_sq = _time_kernels(grid.points(np.arange(n)))
        time = (t, unit_b, None, eta_sq)

        def extremes(stride):
            """(min, max) of B(t, 1), then of |eta|**2, over blocks of stride points."""
            starts = np.arange(0, n, stride)
            return [op.reduceat(a, starts) for a in (unit_b, eta_sq) for op in (np.minimum, np.maximum)]

        u_lo, u_hi, e_lo, e_hi = extremes(_SCAN_BLOCK)
        # 2B and the thermal exponent are products of non-negative factors,
        # which round monotonically, so the largest k and nbar bound them all
        k_sq = np.max(k) ** 2
        bounded = np.isfinite(2.0 * (k_sq * np.max(np.abs(unit_b)))) and np.isfinite(
            k_sq * np.max(e_hi) * (2.0 * np.max(nbar) + 1.0)
        )

    if not bounded:
        batches = _k_batches(k, m, 8)
        # a whole slab times the largest group of cells fills one temporary,
        # and so does a slab times the distinct k of a batch; a slab's time
        # kernels and drive are built once, its k kernels once per batch
        slab = _TEMP_ELEMENTS // max([cells.size for _, groups in batches for cells, _ in groups], default=1)
        for start in range(0, n, slab):
            time = _time_kernels(grid.points(np.arange(start, min(start + slab, n))))
            drive = _drive(time[0], func, fast)
            for k_rows, groups in batches:
                coupling = _coupling(time, k_rows, func, fast)
                for cells, local in groups:
                    picked = coupling if local is None else [a if a is None else a[local] for a in coupling]
                    kern = _couple(time, _rows(k, (cells, None)), _rows(nbar, (cells, None)), picked, drive)
                    fold(values(kern, (cells, None)).reshape(cells.size, -1).T, cells, start)
        evaluated = m * n
    else:
        total = np.broadcast_to(total, (m,))
        cross = np.broadcast_to(2.0 * np.abs(alpha * beta), (m,))
        blocks = u_lo.size
        evaluated = 2 * m

        def bounds_of(k_rows, u_lo, u_hi, e_lo, e_hi):
            """Per distinct k and block, the bounds of cos 2B and |sin 2B| and
            the extremes of the thermal exponent (k**2 |eta|**2) (2 nbar + 1),
            in `_coupling`'s and `_couple`'s order: every factor is
            non-negative; a per-cell nbar's factor is left to the caller."""
            k_sq = k_rows ** 2
            thermal = (k_sq * e_lo, k_sq * e_hi)
            if np.ndim(nbar) == 0:
                thermal = tuple(th * (2.0 * nbar + 1.0) for th in thermal)
            return (*_trig_bounds(2.0 * (k_sq * u_lo), 2.0 * (k_sq * u_hi)), *thermal)

        # with k and nbar shared, the kernels of the whole grid, read a block
        # at a time, and the bounds of its sub-blocks; else `kernels_at`
        # builds the kernels only at the points each evaluation reads
        whole = sub_bounds = None
        if np.ndim(k) == np.ndim(nbar) == 0:
            whole = _kernels(time, k, nbar, func, fast)
            sub_bounds = bounds_of(k, *extremes(_SUB_BLOCK))
        # sub-floor rows of one block fill one temporary
        per_block = _SCAN_BLOCK // _SUB_BLOCK
        sub_rows = _TEMP_ELEMENTS // per_block
        # floor rows fill one temporary, and so do the blocks of one call;
        # cells with their own k gather five rows of bounds each beside the
        # floor's own temporaries, so they take a quarter as many rows
        rows = max(1, _TEMP_ELEMENTS // max(blocks, _SCAN_BLOCK) // (1 if whole is not None else 4))
        per_call = _TEMP_ELEMENTS // _SCAN_BLOCK
        # survivor masks awaiting evaluation, one bit per cell and block, of
        # at most one temporary's bytes
        pending, masks = [], max(1, 8 * _TEMP_ELEMENTS // -(-blocks // 8) // rows)

        def kernels_at(index, cells):
            """The kernels at the grid points index selects, for cells that broadcast against them."""
            if whole is not None:
                return _gather(whole, index)
            picked = tuple(a if a is None else a[index] for a in time)
            return _kernels(picked, _rows(k, cells), _rows(nbar, cells), func, fast)

        def sub_survivors(cells, block):
            """The cells of which a sub-block of block may hold a value at or below the running minimum."""
            # the last block's missing sub-blocks are not there to keep a cell
            parts = [b[block * per_block:(block + 1) * per_block] for b in sub_bounds]
            kept = []
            for lo in range(0, cells.size, sub_rows):
                c = cells[lo:lo + sub_rows, None]
                floor = _block_floor(total[c], cross[c], parts)
                kept.append(c[np.any(floor <= d_grid[c] + _BOUND_MARGIN * (1.0 + total[c]), axis=1), 0])
            return np.concatenate(kept)

        def flush():
            """Evaluate the pending survivors a block at a time, across their cells."""
            members = np.concatenate([cells for cells, _ in pending])
            keep = np.concatenate([mask for _, mask in pending])
            pending.clear()
            count = 0
            for block in np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(keep, axis=0))):
                span = (slice(block * _SCAN_BLOCK, (block + 1) * _SCAN_BLOCK), None)
                cells = members[(keep[:, block >> 3] & (128 >> (block & 7))) != 0]
                if sub_bounds is not None:
                    cells = sub_survivors(cells, block)
                for lo in range(0, cells.size, per_call):
                    sub = cells[lo:lo + per_call]
                    fold(values(kernels_at(span, sub), sub).reshape(-1, sub.size), sub, block * _SCAN_BLOCK)
                count += cells.size * min(_SCAN_BLOCK, n - block * _SCAN_BLOCK)
            return count

        for k_rows, groups in _k_batches(k, m, rows):
            # a per-cell nbar's factor is applied per group
            per_k = bounds_of(k_rows, u_lo, u_hi, e_lo, e_hi)
            for cells, local in groups:
                bounds = per_k if local is None else [b[local] for b in per_k]
                if np.ndim(nbar):
                    weight = 2.0 * nbar[cells, None] + 1.0
                    bounds = (*bounds[:3], bounds[3] * weight, bounds[4] * weight)
                tot = total[cells, None]
                floor = _block_floor(tot, cross[cells, None], bounds)
                # each cell's incumbent: the exact minimum of its lowest-bound
                # block, evaluated one column per cell so that the inner loops
                # run across the cells
                lowest = np.argmin(floor, axis=1)
                first = lowest * _SCAN_BLOCK
                points = np.minimum(first + np.arange(_SCAN_BLOCK)[:, None], n - 1)
                fold(values(kernels_at(points, cells), cells), cells, first)
                evaluated += int(np.minimum(_SCAN_BLOCK, n - first).sum())
                survives = floor <= d_grid[cells, None] + _BOUND_MARGIN * (1.0 + tot)
                survives[np.arange(cells.size), lowest] = False
                pending.append((cells, np.packbits(survives, axis=1)))
                if len(pending) == masks:
                    evaluated += flush()
        if pending:
            evaluated += flush()

    # both grid neighbours of each minimum, evaluated exactly
    strict = np.empty(m, dtype=bool)
    for lo in range(0, m, _TEMP_ELEMENTS // 2):
        cells = np.arange(lo, min(lo + _TEMP_ELEMENTS // 2, m))
        i = best[cells]
        around = grid.points(np.clip(i[:, None] + np.array([-1, 1]), 0, n - 1))
        around = values(couple(_time_kernels(around), cells), (cells, None)).reshape(cells.size, 2)
        d = d_grid[cells]
        strict[cells] = (i > 0) & (i < n - 1) & (d < around[:, 0]) & (d < around[:, 1])
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
) -> WindowMinima:
    """Minimize one witness over a shared window for many cells at once.

    Each cell is one (alpha, beta, nbar, k); the four broadcast together and
    the results take their broadcast shape, so scalars give one cell. The
    window [0, window] in scaled time and the carrier ratios are shared, so
    every cell is scanned on one grid. The grid and the mode follow from the
    window and the carriers:

    - "direct", while the window holds at most 1e5 carrier cycles: uniform
      scan of the pointwise expression with step pi / (8 (r_a + r_b)), so
      the optical carrier cannot alias.
    - "envelope", above that: scan of the closed-form lower envelope over
      the carrier phase with step window / 4000. The carrier completes
      ~(r_a + r_b) T / 2 pi cycles per window, so the envelope minimum
      matches the true minimum to O(1 / cycles); at optical carrier
      frequencies this error is ~1e-9.

    Either grid has at least 65 points. Three steps:

    - the cells are reduced to distinct ones, and only those are scanned
      and refined. D_AB depends on alpha and beta only through
      alpha**2 + beta**2 and alpha beta, so for "AB" the cell (beta, alpha)
      is the cell (alpha, beta); AC and BC merge only repeated cells.
      `scanned_cells` counts the distinct cells;
    - one scan finds each cell's first grid minimum, in either mode, for
      every bipartition and for shared or per-cell k and nbar. Without
      block floors (below) it walks the grid in slabs of consecutive points
      and builds each slab's points, time kernels and D_AB carrier at k = 0,
      cos((r_a + r_b) t), once. The arrays that depend only on t and k (cos
      2B, sin 2B, k**2 |eta|**2 and the D_AB carrier
      cos((r_a + r_b) t + 2B)) are built once per slab and distinct k,
      distinct by bits: the cells are batched in order of k, each class of
      equal k whole, and every cell of a class reads its row; a slab times
      the largest batch of cells fills one temporary. Only the thermal
      exponent and what follows from it is computed per cell. Each cell
      keeps a running minimum with np.argmin's rule: a NaN before any
      number, then the earliest of equal values. No temporary of the scan
      holds more than _TEMP_ELEMENTS grid values, whatever the grid or the
      number of cells. Both grid neighbours of each minimum are then
      evaluated exactly for the strict-interior test;
    - every cell whose grid minimum is a strict interior local minimum is
      refined by one golden-section search across those cells, on the
      bracket of its two grid neighbours. All those searches step together,
      a fixed number of times that narrows every bracket to 1e-12 relative
      to t (scipy's golden xtol). The refined value replaces the grid value
      only where it is lower.

    Merging cells, sharing k rows and cutting the grid change no bit of any
    result: the scan is elementwise, each grid point is bitwise
    np.linspace's, and the refinement's common step count depends only on
    the distinct brackets.

    Where a certified floor exists, the scan skips blocks of 32 points
    instead of evaluating every grid value: "AB" in envelope mode, with k
    and nbar shared by every cell (fig4b) or each cell's own (fig4a). An
    envelope grid holds at most 4,002 points, within one temporary, so the
    scan builds the time kernels of the whole grid once, and their block
    extremes:

    - with T = alpha**2 + beta**2 and
      S = (1 - env cos 2B)**2 + (env sin 2B)**2, the envelope is
      D_AB = 1 + T (1 - env) - 2 |alpha beta| sqrt(S), where
      env = exp(-2 T (1 - cos 2B) - theta) rises with cos 2B and falls
      with the thermal exponent theta. Over a block, D_AB is thus no lower
      than the same expression with env at its block maximum in T (1 - env)
      and in env |sin 2B|, |sin 2B| at its maximum, and 1 - env cos 2B at
      its maximum, which lies at the smallest cos 2B with env at either end
      of its range;
    - theta = (k**2 |eta|**2) (2 nbar + 1) and 2B = 2 (k**2 B(t, 1)) are
      products of non-negative factors, and correctly rounded products are
      monotone. So each cell's block extremes of the computed theta are its
      k**2 and 2 nbar + 1 times the block extremes of |eta|**2, and every
      computed 2B of a block lies between the values at the block extremes
      of B(t, 1). Per distinct k and block, cos 2B and |sin 2B| are then
      bounded by their true extremes over that interval: +-1 where it holds
      a peak, else their values at its ends. These are widened by 1e-14 for
      the error of cos and sin, a few ulps; past 2**40 half-turns, where a
      peak could be missed in rounding, the bounds are [-1, 1];
    - the floor is computed with `_ab_lower`'s own operations in the same
      order. Correctly rounded arithmetic and sqrt are monotone, so it also
      bounds every computed grid value of the block; it never uses
      sin**2 + cos**2 = 1, which does not hold exactly in floats. Only exp
      is not guaranteed monotone; its error of a few ulps of env moves D_AB
      by a few 1e-15 (1 + T), about 1e6 times less than the margin below,
      and the 1e-14 allowance of cos and sin moves the floor by about
      1e-14 T;
    - each cell's incumbent is the exact minimum of its lowest-floor block.
      A block whose floor exceeds incumbent + 1e-9 (1 + T) holds no grid
      value at or below the cell's minimum and is skipped; the others are
      marked, a bit per cell and block, and evaluated a block at a time
      across the cells that keep it, up to a temporary's worth per call,
      whether k is shared or each cell's own. The incumbents and the
      survivors read their kernels from kernels of the whole grid built
      once where k and nbar are shared; else the kernels are built only
      at the points evaluated.
      Amplitudes of about 1e7 or more (T at least 1e14, 1 / _TRIG_ERROR),
      or couplings large enough to overflow a bound, keep every block;
    - where k and nbar are shared, the bounds of 8-point sub-blocks are
      built once too, by the same steps. Just before a marked block is
      evaluated, each of its cells takes the floors of the block's
      sub-blocks (the last block's missing ones take no part), a
      temporary's worth at a time, and drops the block where all of them
      exceed the cell's running minimum + 1e-9 (1 + T). A sub-floor is
      `_ab_lower`'s own operations on sub-block extremes, so the argument
      above carries over unchanged, and the running minimum is a computed
      grid value, never below the final one. A cell with its own k keeps
      one level: its sub-bounds would take `_trig_bounds` once per group
      of cells rather than once.

    So t_star, d_star and refined are bitwise those of a scan of every grid
    value. At the defaults the scan computes about 6.4% of fig4b's grid and
    4% of fig4a's. `evaluated_points` counts the grid values of D computed:
    cells times grid points without a floor; the incumbent blocks,
    surviving blocks and two neighbours per cell with one. With two levels
    the count depends on the order in which the running minima fall; it
    is the same on every run.
    """
    _check_cell(bipartition, r_a, r_b, alpha, beta, nbar, k)
    if not 0 < window < math.inf:
        raise ValueError(f"window must be positive and finite, got {window!r}")
    cells = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (alpha, beta, nbar, k)))
    grid, mode = _scan_grid(float(window), r_a + r_b)
    func = (_LOWER if mode == "envelope" else _VALUES)[bipartition]

    shape = cells[0].shape
    cells = [cell.ravel() for cell in cells]
    if bipartition == "AB":
        # alpha**2 + beta**2, 2.0*alpha*beta and |alpha beta| are bitwise
        # symmetric, so ordering each pair changes no result
        cells[:2] = np.minimum(cells[0], cells[1]), np.maximum(cells[0], cells[1])
    first, inverse = _distinct_rows(cells)
    cells = [cell[first] for cell in cells]
    m = cells[0].size
    # a parameter shared by every cell stays a scalar: the kernels that
    # depend on k alone are then built once per slab for all cells, and a
    # shared (k, nbar) lets the envelope D_AB scan use its block floors
    params = [cell[0] if m and np.all(cell == cell[0]) else cell for cell in cells]
    best, d_star, strict, evaluated = _scan(func, grid, params, m, r_a, r_b)
    t_star = grid.points(best)
    refined = np.zeros(m, dtype=bool)
    todo = np.flatnonzero(strict)
    if todo.size:
        alpha, beta, nbar, k = (_rows(p, todo) for p in params)
        t_ref, d_ref = _golden(
            lambda t: func(_kernels(_time_kernels(t), k, nbar, func, r_a + r_b), alpha, beta, r_a, r_b),
            grid.points(best[todo] - 1),
            grid.points(best[todo] + 1),
        )
        better = d_ref < d_star[todo]
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
