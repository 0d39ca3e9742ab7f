"""Reference answers the benchmark checks zqdist's outputs against.

Nothing here imports zqdist.  nu(t) comes from the autocorrelation of the
set's indicator, computed with numpy.fft, rounded to integers and summed
over a norm table built here; the verify-all key set is spelled out from the
documented sweep parameters.
"""

from __future__ import annotations

import numpy as np

# Largest distance of an autocorrelation entry from its integer that still
# counts as an exact count.
MAX_RINT_RESIDUAL = 1e-3


def norm_table(q: int, d: int) -> np.ndarray:
    """||z|| = z_1^2 + ... + z_d^2 mod q for every z in Z_q^d, row-major."""
    coords = np.indices((q,) * d, dtype=np.int64).reshape(d, -1)
    return (coords * coords).sum(axis=0) % q


def nu_by_autocorrelation(q: int, d: int, points: np.ndarray) -> tuple[np.ndarray, float]:
    """(nu(t) for every t, worst distance of the autocorrelation from an integer).

    A(z) = #{(x, y) in E x E : x - y = z} is an inverse FFT of |FFT(1_E)|^2,
    and nu(t) sums A over the sphere ||z|| = t.
    """
    ind = np.zeros((q,) * d)
    ind[tuple(np.asarray(points).T)] = 1.0
    spec = np.fft.fftn(ind)
    acorr = np.fft.ifftn(spec * np.conj(spec)).real
    counts = np.rint(acorr)
    residual = float(np.abs(acorr - counts).max())
    nu = np.bincount(norm_table(q, d), weights=counts.reshape(-1), minlength=q)
    return np.rint(nu).astype(np.int64), residual


def verify_all_keys(n_max: int, q_max: int, sets_per_q: int) -> set[tuple[str, str]]:
    """Every (check, instance) row `zqdist verify-all` emits for these parameters."""
    keys = {("gauss_oracle", f"n={n:03d}") for n in range(1, n_max + 1)}
    for q in (3, 5, 9, 15):
        if q > q_max:
            continue
        for d in (1, 2, 3):
            keys.add(("fourier_orthogonality", f"q={q:02d} d={d}"))
            for k in range(2):
                keys.add(("fourier_roundtrip", f"q={q:02d} d={d} grid={k}"))
                keys.add(("fourier_plancherel", f"q={q:02d} d={d} grid={k}"))
        for t in range(q):
            keys.add(("spectrum_two_route", f"q={q:02d} d=3 t={t:02d}"))
            keys.add(("spectrum_decay", f"q={q:02d} d=3 t={t:02d}"))
    for q in (3, 5, 9, 15, 25, 27):
        if q > q_max:
            continue
        for d in (3, 4):
            keys.add(("sphere_partition", f"q={q:02d} d={d}"))
            for t in range(q):
                keys.add(("sphere_count", f"q={q:02d} d={d} t={t:02d}"))
                keys.add(("sphere_error_bound", f"q={q:02d} d={d} t={t:02d}"))
    for q in (3, 5, 9):
        if q > q_max:
            continue
        labels = ["full-grid", "sphere-t1", "singleton"] + [f"random-{k}" for k in range(sets_per_q)]
        if q == 9:
            labels.append("lattice")
        for label in labels:
            keys.add(("nu_decomposition", f"q={q:02d} d=3 set={label}"))
            keys.add(("certificate_soundness", f"q={q:02d} d=3 set={label}"))
    keys |= {("construction_even_weight", f"d={d:02d}") for d in range(1, 11)}
    keys |= {("construction_lattice", f"p={p} ell={ell} d=3") for p, ell in ((3, 2), (3, 3), (5, 2))}
    return keys
