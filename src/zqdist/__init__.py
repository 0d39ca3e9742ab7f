"""Distance sets, sphere counts and quadratic Gauss sums over Z_q^d.

Exact brute-force oracles sit next to every closed form: Gauss-sum
evaluations, Fourier identities on Z_q^d, sphere counts with explicit error
bounds, and the spectral main-term/error decomposition of pair counts that
certifies when a point set realizes every distance.
"""

from .arith import (
    Modulus,
    Residue,
    factorize,
    jacobi,
    residue,
    tau,
)
from .distset import (
    CertificateRow,
    NuReport,
    PointSet,
    ThresholdReport,
    certificate_check,
    construct_even_weight,
    construct_zero_distance_lattice,
    distance,
    distance_set,
    nu_histogram,
    nu_pairs,
    nu_spectral_sweep,
    read_pointset,
    sample_random_set,
    theorem_threshold,
    write_pointset,
)
from .errors import BudgetError, DomainError, InconsistencyError
from .fourier import (
    GridFunction,
    Spectrum,
    dft_reference,
    forward,
    inverse,
    orthogonality_max_defect,
    plancherel_defect,
)
from .gauss import GaussSumValue, gauss_brute, gauss_closed, gauss_general, gauss_row
from .sphere import (
    DecayReport,
    SizeBoundReport,
    SphereCountReport,
    SphereSpec,
    decay_report,
    sphere_count_formula,
    sphere_counts_all,
    sphere_enumerate,
    sphere_fourier_direct,
    sphere_size_bound_check,
    sphere_spec,
    sphere_spectrum_formula,
)

__version__ = "0.1.0"

__all__ = [
    "Modulus", "Residue", "factorize", "tau", "jacobi", "residue",
    "GaussSumValue", "gauss_brute", "gauss_closed", "gauss_general", "gauss_row",
    "GridFunction", "Spectrum", "forward", "inverse",
    "plancherel_defect", "dft_reference", "orthogonality_max_defect",
    "SphereSpec", "SphereCountReport", "SizeBoundReport", "DecayReport",
    "sphere_spec", "sphere_enumerate", "sphere_counts_all",
    "sphere_count_formula", "sphere_size_bound_check", "sphere_fourier_direct",
    "sphere_spectrum_formula", "decay_report",
    "PointSet", "NuReport", "CertificateRow", "ThresholdReport",
    "distance", "distance_set", "nu_histogram", "nu_pairs",
    "nu_spectral_sweep", "theorem_threshold", "certificate_check",
    "construct_even_weight", "construct_zero_distance_lattice",
    "sample_random_set", "read_pointset", "write_pointset",
    "DomainError", "BudgetError", "InconsistencyError",
]
