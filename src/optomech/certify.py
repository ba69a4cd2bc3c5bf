"""Certification of the closed forms against the Fock-space oracle.

A check passes when its deviation is below its tolerance. The checks run with
numpy's OpenBLAS on one thread: their products are too small to split, and a
second thread only spin-waits between them, doubling CPU time without saving
wall time. OpenBLAS splits a product by rows and columns, so each element
keeps its own k-sum and the thread count changes no bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from .core import energy_eigenvalue_scaled
from .duan import duan_from_moments, duan_values
from .oracle import (
    FockConfig, TriModeState, _coherent_vector, _trace_and_energy, apply_evolution,
    coherent_thermal_state, displacement_matrix, moments, partial_trace, qubit_state,
)
from .qubit import reduced_rho_ab

__all__ = ["run"]

#: Fock tail budget of `_check_cv`'s states. Tail budgets bound dropped
#: probability mass, not moments, so states sized at 1e-8 back a 1e-6 claim
_CV_FOCK_TOLERANCE = 1e-8
#: random times per coupling of `_check_qubit`, and random points of `_check_cv`
_N_QUBIT_TIMES = 6
_N_CV_POINTS = 4


@functools.cache
def _openblas() -> tuple:
    """(get, set) of numpy's OpenBLAS thread count, one pair per library; () if none.

    The wheel's copy sits in numpy.libs. Without one, every OpenBLAS mapped
    into the process is taken, since scipy may map a copy of its own.
    """
    paths = sorted(Path(np.__file__).parent.parent.joinpath("numpy.libs").glob("*openblas*"))
    if not paths:
        try:
            with open("/proc/self/maps", encoding="utf-8") as fh:
                paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        except OSError:
            pass
    pairs = []
    for path in paths:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                pairs.append((get, put))
                break
    return tuple(pairs)


@contextlib.contextmanager
def _one_blas_thread():
    """Numpy's OpenBLAS on one thread within the block; the caller's count after it."""
    pairs = _openblas()
    counts = [get() for get, _ in pairs]
    for _, put in pairs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pairs, counts):
            put(count)


def _oracle_duan(t: float, r_a: float, r_b: float, config: FockConfig, *, alpha, beta, nbar, k) -> dict:
    """The oracle's witness per pair for one cell at time t, in the Fock space of config.

    The cell's keywords and the carrier ratios are `duan_values`'s.
    """
    evolved = apply_evolution(coherent_thermal_state(alpha, beta, nbar, config), t, k, r_a, r_b)
    return {pair: duan_from_moments(m) for pair, m in moments(evolved).items()}


def _check_displacement(rng) -> list:
    eye_dev = float(np.abs(displacement_matrix(0.0, 12) - np.eye(13)).max())
    dev = 0.0
    for _ in range(4):
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = displacement_matrix(b, 80) @ _coherent_vector(g, 80)
        rhs = np.exp(1j * (b * np.conj(g)).imag) * _coherent_vector(b + g, 80)
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return [
        ("displacement_identity_at_zero", eye_dev, 1e-15),
        ("displacement_coherent_action", dev, 1e-10),
    ]


def _check_qubit(rng) -> list:
    dev = 0.0
    for k in (0.1, 0.5, 1.0):
        state = qubit_state(FockConfig.for_qubit(k, 1e-12))
        for t in rng.uniform(0.0, 4.0 * math.pi, _N_QUBIT_TIMES):
            rho = partial_trace(apply_evolution(state, float(t), k, 0.0, 0.0), "AB")
            dev = max(dev, float(np.abs(rho - reduced_rho_ab(float(t), k)).max()))
    return [("qubit_reduced_state_vs_oracle", dev, 1e-8)]


def _check_conservation(rng) -> list:
    cell, k, r_a, r_b = (0.7, 0.4, 0.3), 0.6, 1.3, 0.8
    config = FockConfig.for_coherent_thermal(*cell, k)
    state = coherent_thermal_state(*cell, config)
    # one pass over the members per time gives both the trace and the energy
    trace0, energy0 = _trace_and_energy(state, k, r_a, r_b)
    drift = energy_dev = 0.0
    for t in rng.uniform(0.0, 4.0 * math.pi, 5):
        trace, energy = _trace_and_energy(apply_evolution(state, float(t), k, r_a, r_b), k, r_a, r_b)
        drift = max(drift, abs(trace - trace0))
        energy_dev = max(energy_dev, abs(energy - energy0) / max(abs(energy0), 1.0))
    return [
        ("oracle_norm_drift", drift, 1e-10),
        ("oracle_energy_conservation_rel", energy_dev, 1e-8),
    ]


def _check_stationarity(rng) -> list:
    k, r_a, r_b = 0.5, 1.3, 0.8
    config = FockConfig(n_max_a=2, n_max_b=2, n_max_c=40, tolerance=1e-12)
    dev = 0.0
    for n0, m0, l0 in ((1, 0, 2), (0, 2, 0), (2, 1, 3)):
        psi = np.zeros((1, 3, 3, 41), dtype=complex)
        # D(0) is exactly the identity, so n0 == m0 needs no case
        psi[0, n0, m0, :] = displacement_matrix(k * (n0 - m0), 40)[:, l0]
        state = TriModeState.from_vectors(np.array([1.0]), psi, config)
        energy = energy_eigenvalue_scaled(n0, m0, l0, k, r_a, r_b)
        for t in rng.uniform(0.0, 4.0 * math.pi, 3):
            evolved = apply_evolution(state, float(t), k, r_a, r_b)
            expected = np.exp(-1j * energy * float(t)) * psi
            dev = max(dev, float(np.abs(evolved.vectors - expected).max()))
    return [("oracle_eigenstate_stationarity", dev, 1e-8)]


def _check_cv(rng) -> list:
    dev = 0.0
    for _ in range(_N_CV_POINTS):
        # the draws keep their order (alpha, beta, nbar, k, r_a, r_b, t), which fixes each seed's points
        cell = {
            "alpha": float(rng.uniform(0.1, 1.0)),
            "beta": float(rng.uniform(0.1, 1.0)),
            "nbar": float(rng.uniform(0.0, 0.5)),
            "k": float(rng.uniform(0.2, 1.0)),
        }
        r_a = float(rng.uniform(0.0, 3.0))
        r_b = float(rng.uniform(0.0, 3.0))
        t = float(rng.uniform(0.3, 4.0 * math.pi))
        config = FockConfig.for_coherent_thermal(**cell, tolerance=_CV_FOCK_TOLERANCE)
        oracle = _oracle_duan(t, r_a, r_b, config, **cell)
        for pair, d_oracle in oracle.items():
            d_closed = float(duan_values(t, pair, r_a, r_b, **cell))
            dev = max(dev, abs(d_closed - d_oracle) / abs(d_oracle))
    return [("cv_duan_vs_oracle_rel", dev, 1e-6)]


def _check_k_zero(rng) -> list:
    dev = 0.0
    for _ in range(2):
        cell = {
            "alpha": float(rng.uniform(0.2, 0.8)),
            "beta": float(rng.uniform(0.2, 0.8)),
            "nbar": float(rng.uniform(0.0, 0.3)),
            "k": 0.0,
        }
        r_a = float(rng.uniform(0.0, 2.0))
        r_b = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.5, 4.0 * math.pi))
        config = FockConfig.for_coherent_thermal(**cell, tolerance=1e-15)
        oracle = _oracle_duan(t, r_a, r_b, config, **cell)
        floors = {"AB": 1.0, "AC": 1.0 + cell["nbar"], "BC": 1.0 + cell["nbar"]}
        dev = max(dev, *(abs(oracle[pair] - floor) for pair, floor in floors.items()))
    return [("k_zero_separability_floors", dev, 1e-12)]


def _check_truncation_doubling(rng) -> list:
    cell = {"alpha": 0.5, "beta": 0.5, "nbar": 0.2, "k": 0.5}
    t = float(rng.uniform(1.0, 8.0))
    # tail budgets bound dropped probability mass, not moments, so a run
    # sized at 1e-9 is what backs a 1e-8 stability claim
    base = FockConfig.for_coherent_thermal(**cell, tolerance=1e-9)
    coarse, fine = (_oracle_duan(t, 1.5, 0.7, c, **cell) for c in (base, base.doubled()))
    dev = max(abs(coarse[pair] - fine[pair]) for pair in coarse)
    return [("truncation_doubling_stability", dev, 1e-8)]


def run(seed: int) -> list:
    """(name, max deviation, tolerance) per check, all points drawn from one rng seeded by seed."""
    rng = np.random.default_rng(seed)
    with _one_blas_thread():
        return [
            *_check_displacement(rng),
            *_check_qubit(rng),
            *_check_conservation(rng),
            *_check_stationarity(rng),
            *_check_cv(rng),
            *_check_k_zero(rng),
            *_check_truncation_doubling(rng),
        ]
