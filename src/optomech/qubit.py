"""Exact dynamics of the vacuum/one-photon superposition input state.

The initial state puts (|0> + |1>)/sqrt(2) in each optical mode and the
mechanical mode in its ground state. Each optical branch |n m> drags the
mechanics into a coherent state conditioned on delta = n - m, which after
tracing out the mechanics leaves a 4x4 optical density matrix with
closed-form entries. Basis order is fixed globally as
{|00>, |01>, |10>, |11>}.

Branch convention (pinned by the oracle regression tests): the 01 branch
carries amplitude phase exp(-i B(t)) and mechanical displacement -k xi(t),
the 10 branch exp(-i B(t)) and +k xi(t), the 00 and 11 branches stay
undisplaced with unit amplitude phase.

Every function here works on stacks: states are built for any broadcast
shape of (t, k), and the checks and measures take any (..., 4, 4) stack,
returning a float for a single matrix and an array for a stack.

`fig2` and the qubit sweeps take their measures from `_measures(t, k,
names)`, which builds the states `_SLAB` grid points at a time, checks
each slab once for every measure it asks for and fills one array per
measure. Every step works matrix by matrix, so each value is bitwise the
whole stack's, and the memory stays bounded whatever the grid.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _TEMP_BYTES, big_b, xi

__all__ = [
    "reduced_rho_ab",
    "concurrence",
    "von_neumann_entropy",
]

#: basis order of the two-mode optical Hilbert space, used everywhere
BASIS_ORDER = ("00", "01", "10", "11")


def _evolve_qubit_state(t, k) -> tuple[np.ndarray, np.ndarray]:
    """Joint state at scaled time t for coupling k (interaction picture).

    t and k broadcast against each other. Returns (amplitudes,
    displacements): the optical branch amplitudes and the mechanical
    coherent-state displacements, each shaped (..., 4) and indexed in
    BASIS_ORDER along the last axis.
    """
    t, k = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(k, dtype=float))
    negative = k < 0
    if negative.any():
        raise ValueError(f"k must be non-negative, got {float(k[negative].flat[0])!r}")
    phase = np.exp(-1j * big_b(t, k))
    disp = k * xi(t)
    half = np.full(t.shape, 0.5, dtype=complex)
    zero = np.zeros(t.shape, dtype=complex)
    amps = np.stack([half, 0.5 * phase, 0.5 * phase, half], axis=-1)
    return amps, np.stack([zero, -disp, disp, zero], axis=-1)


def reduced_rho_ab(t, k) -> np.ndarray:
    """Optical density matrices after tracing out the mechanics, shaped (..., 4, 4).

    Entry (i, j) is c_i conj(c_j) <d_j|d_i> with coherent-state overlaps
    <b|a> = exp(-(|a|**2 + |b|**2)/2 + conj(b) a). The off-diagonal decay
    is governed by exp(C) with C = i B(t) - k**2 |eta(t)|**2 / 2.
    """
    c, d = _evolve_qubit_state(t, k)
    mag2 = np.abs(d) ** 2
    overlap = np.exp(
        -0.5 * (mag2[..., :, None] + mag2[..., None, :])
        + np.conj(d)[..., None, :] * d[..., :, None]
    )
    return c[..., :, None] * np.conj(c)[..., None, :] * overlap


def _reject(bad: np.ndarray, values: np.ndarray, message: str, slab=None) -> None:
    """Raise ValueError for the first matrix flagged in `bad`.

    `message` is formatted with that matrix's entry of `values`; in a stack
    the error names the matrix's index. `slab`, a pair (start, shape), marks
    `bad` as the flat run of a stack of that shape that begins at index
    start, so that the error names the matrix's index in the whole stack.
    """
    if not bad.any():
        return
    first = tuple(int(i) for i in np.argwhere(bad)[0])
    index = first if slab is None else tuple(int(i) for i in np.unravel_index(slab[0] + first[0], slab[1]))
    where = f"matrix {index[0] if len(index) == 1 else index} of the stack: " if index else ""
    raise ValueError(where + message.format(values[first]))


def _as_scalar(values: np.ndarray):
    """A float for a single matrix's result, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


#: how far a density matrix may be from Hermitian (largest entry of rho - rho^H)
#: and its trace from 1, and how far below 0 its smallest eigenvalue may lie
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-10


def _hermitian_part(rho: np.ndarray, slab=None) -> np.ndarray:
    """The Hermitian part of a density matrix, or of a stack of them (..., n, n).

    Raises ValueError unless each matrix is square, Hermitian and of unit
    trace up to numerical noise, naming the first bad matrix of a stack by
    its index (`slab` as in `_reject`). Its positivity is `_spectrum`'s check.
    """
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    rho_h = rho.conj().swapaxes(-1, -2)
    herm_dev = np.abs(rho - rho_h).max(axis=(-2, -1))
    _reject(
        herm_dev > _HERM_TOL,
        herm_dev,
        f"matrix is not Hermitian within {_HERM_TOL:g} (deviation {{:.3e}})",
        slab,
    )
    trace_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    _reject(trace_dev > _TRACE_TOL, trace_dev, "trace deviates from 1 by {:.3e}", slab)
    return 0.5 * (rho + rho_h)


def _spectrum(herm: np.ndarray, vectors: bool, slab=None):
    """Ascending eigenvalues of `_hermitian_part`'s result, checked positive.

    Raises ValueError unless each matrix is positive semidefinite up to
    numerical noise (`slab` as in `_reject`). The check needs the
    eigenvalues anyway, so the measures take them from here instead of
    diagonalizing twice. Returns the eigenvalues with the eigenvectors if
    `vectors` (else None), from one call for the stack.
    """
    evals, evecs = np.linalg.eigh(herm) if vectors else (np.linalg.eigvalsh(herm), None)
    min_eig = evals[..., 0]
    _reject(
        min_eig < _EIG_FLOOR, min_eig, "matrix is not positive semidefinite (min eigenvalue {:.3e})", slab
    )
    return evals, evecs


_EPS = float(np.finfo(float).eps)

#: (sy x sy) rho* (sy x sy) reverses both indices of rho* and flips the sign
#: of each entry by s_i s_j with s = (-1, 1, 1, -1)
_SPIN_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def _concurrence_values(rho: np.ndarray, herm: np.ndarray, slab=None) -> np.ndarray:
    """`concurrence` of a stack of 4x4 matrices, given their `_hermitian_part`."""
    evals, evecs = _spectrum(herm, True, slab)
    rho_tilde = rho.conj()[..., ::-1, ::-1] * _SPIN_FLIP_SIGNS
    root = np.sqrt(evals.clip(0.0, None))[..., None, :]
    sqrt_rho = (evecs * root) @ evecs.conj().swapaxes(-1, -2)
    omega = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)
    general = evals[..., 0] < -1e-12
    if general.any():
        omega[general] = np.linalg.eigvals(rho[general] @ rho_tilde[general]).real
        low = np.where(general, omega.min(axis=-1), 0.0)
        _reject(
            low < _EIG_FLOOR,
            low,
            f"spin-flipped spectrum has eigenvalue {{:.3e}} below {_EIG_FLOOR:g}",
            slab,
        )
    # eigenvalues below the eigensolver's resolution are zeros in disguise;
    # square-rooting them would inject O(sqrt(eps)) noise into the sum
    floor = 64.0 * _EPS * np.maximum(omega.max(axis=-1), 0.0)
    lam = np.sort(np.sqrt(np.where(omega > floor[..., None], omega, 0.0)), axis=-1)
    value = lam[..., 3] - lam[..., :3].sum(axis=-1)
    return np.where(value < 0.0, 0.0, np.where(value > 1.0, 1.0, value))


def _entropy_values(rho: np.ndarray, herm: np.ndarray, slab=None) -> np.ndarray:
    """`von_neumann_entropy` of a stack of matrices, given their `_hermitian_part`.

    `rho` is unused: it keeps `_concurrence_values`' signature, so that
    `_measures` calls either through `_MEASURES`.
    """
    p = _spectrum(herm, False, slab)[0].clip(0.0, 1.0)
    value = -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1) / math.log(2.0)
    return np.where(value < 0.0, 0.0, value)


def concurrence(rho: np.ndarray):
    """Wootters concurrence of a 4x4 two-qubit density matrix or a stack of them.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy). Eigenvalues are taken
    from the Hermitian similar form sqrt(rho) rho~ sqrt(rho) when rho is
    numerically positive semidefinite, with a general-eigensolver fallback,
    run only on the matrices that need it, that clamps small negative real
    parts. Returns a float for one matrix, an array for a stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"concurrence needs 4x4 matrices, got shape {rho.shape}")
    return _as_scalar(_concurrence_values(rho, _hermitian_part(rho)))


def von_neumann_entropy(rho: np.ndarray):
    """Spectral entropy -sum p log2 p in bits, 0 log 0 = 0, of one matrix or a stack.

    Returns a float for one matrix, an array for a stack.
    """
    rho = np.asarray(rho, dtype=complex)
    return _as_scalar(_entropy_values(rho, _hermitian_part(rho)))


_MEASURES = {"concurrence": _concurrence_values, "entropy": _entropy_values}

#: matrices per slab of `_measures`: one complex 4x4 stack of them fills `_TEMP_BYTES`
_SLAB = _TEMP_BYTES // (16 * 4 * 4)


def _measures(t, k, names) -> dict:
    """The measures `names` ("concurrence", "entropy") of `reduced_rho_ab(t, k)`.

    Bitwise `concurrence` and `von_neumann_entropy` of the whole stack, and
    raising the same errors on it within the CLI's k <= 20, but built
    `_SLAB` matrices at a time, each slab validated once for all its
    measures, so memory stays bounded whatever the grid. Returns one float
    array per name, shaped as t and k broadcast.
    """
    t, k = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(k, dtype=float))
    shape, t, k = t.shape, t.ravel(), k.ravel()
    out = {name: np.empty(t.size) for name in names}
    for start in range(0, t.size, _SLAB):
        part = slice(start, start + _SLAB)
        rho = reduced_rho_ab(t[part], k[part])
        herm = _hermitian_part(rho, (start, shape))
        for name, values in out.items():
            values[part] = _MEASURES[name](rho, herm, (start, shape))
    return {name: values.reshape(shape) for name, values in out.items()}
