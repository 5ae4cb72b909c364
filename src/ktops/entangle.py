"""Partial trace, Schmidt spectra, entanglement entropies, the linear
entropy straight from the joint amplitudes, and the Kolmogorov-Smirnov
statistic of eigenvector components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class ReducedDensityMatrix:
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError(f"RDM must be square, got shape {self.entries.shape}")
        if self.entries.size == 0:
            raise ValueError("RDM must not be empty, got shape (0, 0)")
        # written as `not <=`, so that NaN fails each check
        if not np.abs(self.entries - self.entries.conj().T).max() <= _HERMITICITY_TOL:
            raise ValueError("RDM not Hermitian within tolerance")
        tr = np.trace(self.entries).real
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"RDM trace {tr!r} too far from 1")


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Eigenvalues (descending, clipped at 0) and, when asked for, the
    eigenvectors of an RDM as columns in the same order (else None).

    clip_magnitude records the largest negative eigenvalue removed by
    clipping; roundoff-scale values (< 1e-10) are expected, anything larger
    indicates a broken input.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    clip_magnitude: float


def reduce(a: np.ndarray) -> ReducedDensityMatrix:
    """rho_1, the partial trace of |psi><psi| over top 2, from the N x N
    amplitudes a[m1 + j, m2 + j] = <m1, m2 | psi>; rho_2 is reduce(a.T)."""
    return ReducedDensityMatrix(a @ a.conj().T)


def rdm_entries(rdm: Union[ReducedDensityMatrix, np.ndarray]) -> np.ndarray:
    """The matrix of an RDM.  A ReducedDensityMatrix was checked when it was
    built; a raw array is wrapped in one here, so it gets the same checks."""
    if not isinstance(rdm, ReducedDensityMatrix):
        rdm = ReducedDensityMatrix(np.asarray(rdm))
    return rdm.entries


def schmidt(
    rdm: Union[ReducedDensityMatrix, np.ndarray], *, vectors: bool = False
) -> SchmidtSpectrum:
    """Hermitian eigenvalues, descending; the eigenvectors only if vectors is
    set, since the eigenvalue-only solver costs about half as much."""
    entries = rdm_entries(rdm)
    if vectors:
        w, v = np.linalg.eigh(entries)
        v = v[:, ::-1].copy()
    else:
        w, v = np.linalg.eigvalsh(entries), None
    w = w[::-1]
    clip = float(max(0.0, -w.min()))
    return SchmidtSpectrum(eigenvalues=np.maximum(w, 0.0), eigenvectors=v, clip_magnitude=clip)


def entropies(spectrum: SchmidtSpectrum) -> Tuple[float, float]:
    """(S_V, S_R) = (-sum lam ln lam, 1 - sum lam^2); 0 ln 0 := 0 by branch."""
    lam = spectrum.eigenvalues
    pos = lam[lam > 0.0]
    s_v = float(0.0 - (pos * np.log(pos)).sum())  # +0.0, not -0.0, for a pure spectrum
    s_r = float(1.0 - (lam * lam).sum())
    return s_v, s_r


def linear_entropy(a: np.ndarray) -> float:
    """S_R = 1 - Tr rho_1^2 = 1 - ||a a^dagger||_F^2 of the N x N joint
    amplitudes a, with no spectrum; rho_1 is formed as in reduce() but not
    checked."""
    rho = a @ a.conj().T
    return 1.0 - float((np.abs(rho) ** 2).sum())


def ks_exponential(values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the unit exponential."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = 1.0 - np.exp(-x)
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - cdf, cdf - (i - 1) / n).max())

