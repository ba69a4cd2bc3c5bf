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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the cell limits live in core, which the qubit and design commands load without this module
from .core import _MAX_AMPLITUDE, _MAX_COUPLING, _TEMP_BYTES, big_b, eta

__all__ = [
    "duan_from_moments",
    "duan_values",
    "WindowMinima",
    "window_minima",
]


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


def _c_curve(kern, alpha, beta, r_a, r_b, *, mode, lower):
    """D_AC for mode "A", or D_BC for mode "B", pointwise or (lower) its lower envelope.

    D_BC is D_AC with the optical modes relabeled: alpha <-> beta,
    r_a <-> r_b and k -> -k, since a photon in mode B kicks the mirror the
    other way. The connected <a c> correlation R is the mode's amplitude
    times k eta e^{-i (r t + B)}, with r its carrier ratio, times coherent
    and thermal envelopes; D_C is 1 + alpha**2 + nbar + k**2 |eta|**2
    (alpha**2 + beta**2) - alpha**2 env + 2 Re R, and its lower envelope
    over the carrier phase r t puts -2 |R| for 2 Re R.
    """
    k = kern.k
    if mode == "B":
        alpha, beta, r_a, k = beta, alpha, r_b, -k
    total = alpha ** 2 + beta ** 2
    env = _envelope_factor(kern, total)
    base = 1.0 + alpha ** 2 + kern.nbar + kern.k ** 2 * kern.eta_sq * total - (alpha ** 2) * env
    bt = k ** 2 * kern.unit_b
    e_m = 1.0 - np.exp(-2j * bt)
    e_p = 1.0 - np.exp(+2j * bt)
    coherent_env = np.exp(-(alpha ** 2) * e_m - (beta ** 2) * e_p)
    thermal_env = np.exp(-(k ** 2) * kern.eta_sq * (kern.nbar + 0.5))
    bracket = (kern.nbar + 1.0) - alpha ** 2 * e_m + beta ** 2 * e_p
    r = alpha * k * kern.eta * np.exp(-1j * (r_a * kern.t + bt)) * coherent_env * bracket * thermal_env
    return base - 2.0 * np.abs(r) if lower else base + 2.0 * r.real


_VALUES = {"AB": _ab_values, **{f"{m}C": functools.partial(_c_curve, mode=m, lower=False) for m in "AB"}}
_LOWER = {"AB": _ab_lower, **{f"{m}C": functools.partial(_c_curve, mode=m, lower=True) for m in "AB"}}


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
    return _evaluate(t, bipartition, r_a, r_b, alpha, beta, nbar, k, lower)


def _evaluate(t, bipartition, r_a, r_b, alpha, beta, nbar, k, lower):
    """`duan_values` on a cell `_check_cell` has passed; a sweep checks its cell once and calls this per point."""
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


#: most grid values per temporary of the scan: `_TEMP_BYTES` of float64, 2**13
_TEMP_ELEMENTS = _TEMP_BYTES // 8
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


def _pick(arrays, index):
    """Each array of arrays at index, and anything else as it is; arrays itself where index is None."""
    return arrays if index is None else [a[index] if isinstance(a, np.ndarray) else a for a in arrays]


def _block_floor(total, cross, bounds):
    """Lower bound of `_ab_lower` over each block, for cells given as (cells, 1) columns.

    total is T = alpha**2 + beta**2 and cross 2 |alpha beta|, as `_ab_lower`
    computes them; bounds hold a block's extremes (`_block_bounds`). In
    D_AB = 1 + T (1 - env) - cross sqrt((1 - env cos 2B)**2 + (env sin 2B)**2),
    env = exp(-2 T (1 - cos 2B) - theta) rises with cos 2B and falls with
    theta, so D_AB is no lower than with env at its block maximum in
    T (1 - env) and env |sin 2B|, |sin 2B| at its maximum, and
    1 - env cos 2B at its maximum: at the smallest cos 2B, with env at
    either end of its range. The floor is that, in `_ab_lower`'s own order
    of operations. Correctly rounded arithmetic and sqrt are monotone, so it
    bounds every computed value of the block too, and it never uses
    sin**2 + cos**2 = 1, which floats do not keep. exp alone is not
    guaranteed monotone: its few ulps of env move D_AB by a few
    1e-15 (1 + T), 1e6 times less than the margin _BOUND_MARGIN (1 + T),
    and the _TRIG_ERROR allowance moves the floor by about 1e-14 T.
    """
    c_lo, c_hi, s_hi, th_lo, th_hi = bounds
    env_hi = np.exp(-2.0 * total * (1.0 - c_hi) - th_lo)
    near = 1.0 - np.minimum(np.exp(-2.0 * total * (1.0 - c_lo) - th_hi) * c_lo, env_hi * c_lo)
    return 1.0 + total * (1.0 - env_hi) - cross * np.sqrt(near ** 2 + (env_hi * s_hi) ** 2)


class _Witness(NamedTuple):
    """The curve func on the scan's m distinct cells, whose alpha, beta, nbar and k are each a shared
    scalar or one value per cell, read for the cells an index selects as `_rows` reads them."""

    func: object
    alpha: object
    beta: object
    nbar: object
    k: object
    m: int
    r_a: float
    r_b: float

    def kernels(self, time, index):
        """The kernels of the time kernels `time` at the (k, nbar) of the cells index selects."""
        return _kernels(time, _rows(self.k, index), _rows(self.nbar, index), self.func, self.r_a + self.r_b)

    def values(self, kern, index):
        """func on kern at the (alpha, beta) of the cells index selects."""
        return self.func(kern, _rows(self.alpha, index), _rows(self.beta, index), self.r_a, self.r_b)


class _Minima:
    """Each cell's running grid minimum: its value d at grid index best, n and inf before any fold."""

    def __init__(self, m, n):
        self.best, self.d = np.full(m, n, dtype=np.intp), np.full(m, np.inf)

    def fold(self, v, cells, first):
        """Fold v, one column per cell of the index array cells, into their minima.

        first is the grid index of each column's first row, one for every
        cell or one per cell. np.argmin's order decides, whatever the order
        of the folds: a NaN first, then the lowest value, the earliest index.
        """
        j = np.argmin(v, axis=0)
        d, i = v[j, np.arange(cells.size)], first + j
        was_d, was_i = self.d[cells], self.best[cells]
        # a NaN ties with a NaN, and beats a number whatever its index
        nan = np.isnan(d)
        won = (d < was_d) | (((d == was_d) | nan) & (i < was_i)) | (nan & ~np.isnan(was_d))
        self.d[cells], self.best[cells] = np.where(won, d, was_d), np.where(won, i, was_i)


def _slab_scan(w, grid, minima):
    """Fold every grid value of every cell into minima; returns the count, cells times points.

    A slab of consecutive points at a time builds its points (bitwise
    np.linspace's), time kernels and D_AB carrier at k = 0 once, and what
    depends only on t and k (cos 2B, sin 2B, k**2 |eta|**2, the D_AB
    carrier) once per k distinct by bits, the cells batched in order of k
    (`_k_batches`); only the thermal exponent and what follows is per cell.
    A slab times a group's cells, or a batch's distinct k, fills at most one
    temporary, whatever the grid or the number of cells.
    """
    n, fast = grid.size, w.r_a + w.r_b
    batches = _k_batches(w.k, w.m, 8)
    slab = _TEMP_ELEMENTS // max([cells.size for _, groups in batches for cells, _ in groups], default=1)
    for start in range(0, n, slab):
        time = _time_kernels(grid.points(np.arange(start, min(start + slab, n))))
        drive = _drive(time[0], w.func, fast)
        for k_rows, groups in batches:
            coupling = _coupling(time, k_rows, w.func, fast)
            for cells, local in groups:
                index = (cells, None)
                kern = _couple(time, _rows(w.k, index), _rows(w.nbar, index), _pick(coupling, local), drive)
                minima.fold(w.values(kern, index).reshape(cells.size, -1).T, cells, start)
    return w.m * n


def _extremes(time, stride):
    """(min, max) of B(t, 1), then of |eta|**2, over blocks of stride points of the time kernels time."""
    starts = np.arange(0, time[0].size, stride)
    return [op.reduceat(a, starts) for a in (time[1], time[3]) for op in (np.minimum, np.maximum)]


def _block_bounds(k, nbar, extremes):
    """Per row of k and block: (min cos 2B, max cos 2B, max |sin 2B|, min theta, max theta).

    2B = 2 (k**2 B(t, 1)) and theta = (k**2 |eta|**2) (2 nbar + 1), as the
    kernels form them, are products of non-negative factors, and rounding is
    monotone: so every computed 2B of a block lies between its values at the
    `_extremes` of B(t, 1), where `_trig_bounds` bounds cos and |sin|, and
    theta's extremes are k**2 and 2 nbar + 1 times those of |eta|**2. A
    per-cell nbar's factor is left to the caller.
    """
    u_lo, u_hi, e_lo, e_hi = extremes
    k_sq = k ** 2
    thermal = (k_sq * e_lo, k_sq * e_hi)
    if np.ndim(nbar) == 0:
        thermal = tuple(th * (2.0 * nbar + 1.0) for th in thermal)
    return (*_trig_bounds(2.0 * (k_sq * u_lo), 2.0 * (k_sq * u_hi)), *thermal)


class _Floors(NamedTuple):
    """What a bounded scan reads, built once per scan by `_floors`."""

    time: tuple  # the time kernels of the whole grid, without eta
    extremes: list  # their `_extremes` over blocks of _SCAN_BLOCK points
    whole: object  # the kernels of the whole grid where k and nbar are shared, else None
    sub_bounds: object  # `_block_bounds` of _SUB_BLOCK-point sub-blocks where shared, else None
    total: np.ndarray  # alpha**2 + beta**2 per cell
    cross: np.ndarray  # 2 |alpha beta| per cell


def _floors(w, grid):
    """The `_Floors` of a bounded scan of w on grid, or None where no block floor is certified.

    Only the envelope D_AB has floors (`_block_floor`). Its grid of at most
    4,002 points fits one temporary, so its time kernels are built once.
    A floor's env reaches exp(2 T _TRIG_ERROR), which amplitudes of about
    1e7 or more could overflow, so they leave no floor; nor does a largest k
    or nbar whose 2B or thermal exponent overflows, as it bounds every cell's.
    """
    if w.func is not _ab_lower or w.m == 0:
        return None
    total = w.alpha ** 2 + w.beta ** 2
    if not np.all(_TRIG_ERROR * total < 1.0):
        return None
    t, unit_b, _, eta_sq = _time_kernels(grid.points(np.arange(grid.size)))
    time = (t, unit_b, None, eta_sq)
    extremes = _extremes(time, _SCAN_BLOCK)
    k_sq = np.max(w.k) ** 2
    if not (np.isfinite(2.0 * (k_sq * np.max(np.abs(unit_b))))
            and np.isfinite(k_sq * np.max(extremes[3]) * (2.0 * np.max(w.nbar) + 1.0))):
        return None
    total = np.broadcast_to(total, (w.m,))
    cross = np.broadcast_to(2.0 * np.abs(w.alpha * w.beta), (w.m,))
    shared = np.ndim(w.k) == np.ndim(w.nbar) == 0
    whole = _kernels(time, w.k, w.nbar, w.func, w.r_a + w.r_b) if shared else None
    sub_bounds = _block_bounds(w.k, w.nbar, _extremes(time, _SUB_BLOCK)) if shared else None
    return _Floors(time, extremes, whole, sub_bounds, total, cross)


def _kernels_at(w, floors, index, cells):
    """The kernels at the grid points index selects, for the cells of the index array cells: read
    from the whole grid's where k and nbar are shared, else built at those points."""
    if floors.whole is not None:
        return _Kernels(*_pick(floors.whole, index))
    return w.kernels(_pick(floors.time, index), cells)


def _bounded_scan(w, grid, minima, floors):
    """Fold into minima each cell's blocks that may hold its grid minimum; returns the count.

    Per group of cells, each cell's incumbent is the exact minimum of its
    lowest-floor block, evaluated one column per cell. A block whose floor
    exceeds the incumbent + _BOUND_MARGIN (1 + T) holds no value at or below
    the cell's minimum and is skipped; the others are marked, a bit per cell
    and block, for `_flush`. The count is the values computed, two
    neighbours per cell included.
    """
    n, blocks = grid.size, floors.extremes[0].size
    # floor rows fill one temporary, and so do the blocks of one call;
    # cells with their own k gather five rows of bounds each beside the
    # floor's own temporaries, so they take a quarter as many rows
    rows = max(1, _TEMP_ELEMENTS // max(blocks, _SCAN_BLOCK) // (1 if floors.whole is not None else 4))
    # survivor masks awaiting evaluation, one bit per cell and block, of at
    # most one temporary's bytes
    pending, masks = [], max(1, 8 * _TEMP_ELEMENTS // -(-blocks // 8) // rows)
    evaluated = 2 * w.m
    for k_rows, groups in _k_batches(w.k, w.m, rows):
        per_k = _block_bounds(k_rows, w.nbar, floors.extremes)
        for cells, local in groups:
            bounds = _pick(per_k, local)
            if np.ndim(w.nbar):
                weight = 2.0 * w.nbar[cells, None] + 1.0
                bounds = (*bounds[:3], bounds[3] * weight, bounds[4] * weight)
            tot = floors.total[cells, None]
            floor = _block_floor(tot, floors.cross[cells, None], bounds)
            lowest = np.argmin(floor, axis=1)
            first = lowest * _SCAN_BLOCK
            points = np.minimum(first + np.arange(_SCAN_BLOCK)[:, None], n - 1)
            minima.fold(w.values(_kernels_at(w, floors, points, cells), cells), cells, first)
            evaluated += int(np.minimum(_SCAN_BLOCK, n - first).sum())
            survives = floor <= minima.d[cells, None] + _BOUND_MARGIN * (1.0 + tot)
            survives[np.arange(cells.size), lowest] = False
            pending.append((cells, np.packbits(survives, axis=1)))
            if len(pending) == masks:
                evaluated += _flush(w, grid, minima, floors, pending)
                pending = []
    if pending:
        evaluated += _flush(w, grid, minima, floors, pending)
    return evaluated


def _flush(w, grid, minima, floors, pending):
    """Fold the blocks marked in pending's (cells, mask) pairs into minima; returns the count.

    Each block is evaluated across the cells that keep it, a temporary's
    worth per call. Where k and nbar are shared, a cell first drops the block
    if the floors of all its sub-blocks (the last block's missing ones take
    no part) exceed its running minimum + _BOUND_MARGIN (1 + T): that
    minimum is a computed value, never below the final one. A cell with its
    own k keeps one level, since its sub-bounds would take `_trig_bounds`
    once per group of cells rather than once per scan.
    """
    n, per_block = grid.size, _SCAN_BLOCK // _SUB_BLOCK
    # sub-floor rows of one block, and the points of one call, fill one temporary
    sub_rows, per_call = _TEMP_ELEMENTS // per_block, _TEMP_ELEMENTS // _SCAN_BLOCK
    members = np.concatenate([cells for cells, _ in pending])
    keep = np.concatenate([mask for _, mask in pending])
    count = 0
    for block in np.flatnonzero(np.unpackbits(np.bitwise_or.reduce(keep, axis=0))):
        span = (slice(block * _SCAN_BLOCK, (block + 1) * _SCAN_BLOCK), None)
        cells = members[(keep[:, block >> 3] & (128 >> (block & 7))) != 0]
        if floors.sub_bounds is not None:
            parts = [b[block * per_block:(block + 1) * per_block] for b in floors.sub_bounds]
            kept = []
            for lo in range(0, cells.size, sub_rows):
                c = cells[lo:lo + sub_rows, None]
                floor = _block_floor(floors.total[c], floors.cross[c], parts)
                kept.append(c[np.any(floor <= minima.d[c] + _BOUND_MARGIN * (1.0 + floors.total[c]), axis=1), 0])
            cells = np.concatenate(kept)
        for lo in range(0, cells.size, per_call):
            sub = cells[lo:lo + per_call]
            v = w.values(_kernels_at(w, floors, span, sub), sub)
            minima.fold(v.reshape(-1, sub.size), sub, block * _SCAN_BLOCK)
        count += cells.size * min(_SCAN_BLOCK, n - block * _SCAN_BLOCK)
    return count


def _strict_interior(w, grid, minima):
    """Where each cell's grid minimum lies strictly below both its grid neighbours, off the grid's ends.

    Both neighbours are evaluated exactly, half a temporary's worth of cells
    at a time; `window_minima` refines the cells where this holds.
    """
    n, strict = grid.size, np.empty(w.m, dtype=bool)
    for lo in range(0, w.m, _TEMP_ELEMENTS // 2):
        cells = np.arange(lo, min(lo + _TEMP_ELEMENTS // 2, w.m))
        i, index = minima.best[cells], (cells, None)
        around = _time_kernels(grid.points(np.clip(i[:, None] + np.array([-1, 1]), 0, n - 1)))
        around = w.values(w.kernels(around, index), index).reshape(cells.size, 2)
        d = minima.d[cells]
        strict[cells] = (i > 0) & (i < n - 1) & (d < around[:, 0]) & (d < around[:, 1])
    return strict


def _scan(func, grid, params, m, r_a, r_b):
    """(best, d_grid, strict, evaluated): each cell's first grid minimum of func.

    `_bounded_scan` where `_floors` certifies block floors, else `_slab_scan`;
    strict is `_strict_interior`'s test, evaluated the grid values computed.
    """
    w = _Witness(func, *params, m, r_a, r_b)
    minima = _Minima(m, grid.size)
    floors = _floors(w, grid)
    evaluated = _slab_scan(w, grid, minima) if floors is None else _bounded_scan(w, grid, minima, floors)
    return minima.best, minima.d, _strict_interior(w, grid, minima), evaluated


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
    every cell is scanned on one grid of at least 65 points, whose mode
    follows from the window and the carriers:

    - "direct", while the window holds at most 1e5 carrier cycles: uniform
      scan of the pointwise expression with step pi / (8 (r_a + r_b)), so
      the optical carrier cannot alias.
    - "envelope", above that: scan of the closed-form lower envelope over
      the carrier phase with step window / 4000. The carrier completes
      ~(r_a + r_b) T / 2 pi cycles per window, so the envelope minimum
      matches the true minimum to O(1 / cycles); at optical carrier
      frequencies this error is ~1e-9.

    The cells are reduced to distinct ones, and only those are scanned and
    refined: D_AB depends on alpha and beta only through alpha**2 + beta**2
    and alpha beta, so for "AB" the cell (beta, alpha) is the cell
    (alpha, beta); AC and BC merge only repeated cells. `scanned_cells`
    counts the distinct cells. `_scan` finds each cell's first grid minimum.
    Every cell whose grid minimum is a strict interior local minimum is then
    refined by one golden-section search across those cells, on the bracket
    of its two grid neighbours, in a common number of steps that narrows
    every bracket to 1e-12 relative to t (scipy's golden xtol). The refined
    value replaces the grid value only where it is lower.

    t_star, d_star and refined are bitwise those of a scan of every grid
    value at once: the scan is elementwise, each grid point is bitwise
    np.linspace's, the refinement's step count depends only on the distinct
    brackets, and a skipped block holds no value at or below the cell's
    minimum (`_bounded_scan`). `evaluated_points` counts the grid values of
    D computed: cells times points, or with block floors ("AB" envelope) the
    incumbent and surviving blocks and two neighbours per cell, about 6.4%
    of fig4b's grid and 4% of fig4a's at the defaults. With sub-blocks it
    depends on the order in which the running minima fall, the same each run.
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

