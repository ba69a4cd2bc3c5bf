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
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .core import big_b, eta, xi

__all__ = [
    "check_density_matrix",
    "evolve_qubit_state",
    "reduced_rho_ab",
    "concurrence",
    "von_neumann_entropy",
    "timeseries",
]

#: basis order of the two-mode optical Hilbert space, used everywhere
BASIS_ORDER = ("00", "01", "10", "11")


def evolve_qubit_state(t: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint state at scaled time t for coupling k (interaction picture).

    Returns (amplitudes, displacements): the optical branch amplitudes and
    the mechanical coherent-state displacements, each indexed in BASIS_ORDER.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k!r}")
    phase = np.exp(-1j * complex(big_b(t, k)))
    disp = k * complex(xi(t))
    return np.array([0.5, 0.5 * phase, 0.5 * phase, 0.5]), np.array([0.0, -disp, +disp, 0.0])


def reduced_rho_ab(t: float, k: float) -> np.ndarray:
    """4x4 optical density matrix after tracing out the mechanics.

    Entry (i, j) is c_i conj(c_j) <d_j|d_i> with coherent-state overlaps
    <b|a> = exp(-(|a|**2 + |b|**2)/2 + conj(b) a). The off-diagonal decay
    is governed by exp(C) with C = i B(t) - k**2 |eta(t)|**2 / 2.
    """
    c, d = evolve_qubit_state(t, k)
    mag2 = np.abs(d) ** 2
    overlap = np.exp(-0.5 * (mag2[:, None] + mag2[None, :]) + np.conj(d)[None, :] * d[:, None])
    return c[:, None] * np.conj(c)[None, :] * overlap


def check_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity up to numerical noise.

    Returns the input on success, raises ValueError otherwise.
    """
    rho = np.asarray(rho)
    _checked_spectrum(rho, herm_tol=herm_tol, trace_tol=trace_tol, eig_floor=eig_floor)
    return rho


def _checked_spectrum(
    rho: np.ndarray,
    *,
    vectors: bool = False,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
):
    """Run the checks of `check_density_matrix` and return the spectrum.

    The positivity check needs the eigenvalues of the Hermitian part anyway,
    so the measures take them from here instead of diagonalizing twice.
    Returns `_eigh` of the Hermitian part.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    rho_h = rho.conj().T
    herm_dev = float(np.abs(rho - rho_h).max())
    if herm_dev > herm_tol:
        raise ValueError(f"matrix is not Hermitian within {herm_tol:g} (deviation {herm_dev:.3e})")
    trace_dev = abs(complex(rho.trace()) - 1.0)
    if trace_dev > trace_tol:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")
    evals, evecs = _eigh(0.5 * (rho + rho_h), vectors)
    min_eig = float(evals[0])
    if min_eig < eig_floor:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
    return evals, evecs


def _eigh(herm: np.ndarray, vectors: bool):
    """Ascending eigenvalues (and eigenvectors if `vectors`) of a Hermitian matrix.

    Calls zheevd on the lower triangle, the LAPACK driver behind
    np.linalg.eigh and eigvalsh, directly: on 4x4 matrices numpy's wrapper
    costs more than the decomposition. The eigenvector slot is a dummy
    when `vectors` is false.
    """
    evals, evecs, info = lapack.zheevd(herm, compute_v=int(vectors), lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return evals, evecs


_EPS = float(np.finfo(float).eps)

_SY_SY = np.array(
    [
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a 4x4 two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy). Eigenvalues are taken
    from the Hermitian similar form sqrt(rho) rho~ sqrt(rho) when rho is
    numerically positive semidefinite, with a general-eigensolver fallback
    that clamps small negative real parts.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"concurrence needs a 4x4 matrix, got shape {rho.shape}")
    evals, evecs = _checked_spectrum(rho, vectors=True)
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    if evals[0] >= -1e-12:
        sqrt_rho = (evecs * np.sqrt(evals.clip(0.0, None))) @ evecs.conj().T
        omega = _eigh(sqrt_rho @ rho_tilde @ sqrt_rho, False)[0]
    else:
        omega = np.linalg.eigvals(rho @ rho_tilde).real
        if omega.min() < -1e-10:
            raise ValueError(f"spin-flipped spectrum has eigenvalue {omega.min():.3e} below -1e-10")
    omega = omega.tolist()
    # eigenvalues below the eigensolver's resolution are zeros in disguise;
    # square-rooting them would inject O(sqrt(eps)) noise into the sum
    floor = 64.0 * _EPS * max(max(omega), 0.0)
    lam = sorted(math.sqrt(w) if w > floor else 0.0 for w in omega)
    value = lam[-1] - sum(lam[:-1])
    return min(max(value, 0.0), 1.0)


def von_neumann_entropy(rho: np.ndarray, base=2) -> float:
    """Spectral entropy -sum p log p, 0 log 0 = 0.

    base=2 reports bits (default), base="e" or math.e reports nats.
    """
    rho = np.asarray(rho, dtype=complex)
    p, _ = _checked_spectrum(rho)
    if base == 2:
        log_div = math.log(2.0)
    elif base == "e" or base == math.e:
        log_div = 1.0
    else:
        raise ValueError(f"base must be 2 or 'e', got {base!r}")
    p = p.clip(0.0, 1.0)
    p = p[p > 0.0]
    return float(max(-(p * np.log(p)).sum() / log_div, 0.0))


def timeseries(measure: str, k: float, t_grid) -> np.ndarray:
    """Pointwise time series of "concurrence" or "entropy" over t_grid.

    Returns an (N, 2) array of (t, value). The grid must be non-empty and
    strictly increasing; values are computed independently per point, no
    smoothing.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    if measure == "concurrence":
        func = concurrence
    elif measure == "entropy":
        func = von_neumann_entropy
    else:
        raise ValueError(f"measure must be 'concurrence' or 'entropy', got {measure!r}")
    out = np.empty((t_grid.size, 2))
    for i, t in enumerate(t_grid):
        out[i, 0] = t
        out[i, 1] = func(reduced_rho_ab(t, k))
    return out
