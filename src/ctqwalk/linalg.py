"""Dense complex-matrix kernels, input checks and every numerical tolerance.

Everything here works on plain ``numpy.ndarray`` matrices at desk scale
(superoperators for at most ``MAX_SUPEROPERATOR_DIM`` = 32 sites, i.e. up
to 1024x1024), so dense LAPACK routines are used throughout; there is no
sparse or iterative machinery.

This module is the one home of the package's tolerances (the constants
below) and of its matrix input checks; the other modules import both
from here rather than defining their own.

Vectorization convention (shared by every module): column stacking,
``vec(X) = X.flatten(order="F")``, under which the map ``rho -> A rho B``
has matrix ``kron(B.T, A)``. Hermitian matrices also have real
coordinates ``r`` with ``vec(X) = T r`` for the unitary ``T`` of
:func:`hermitian_basis`; a map that preserves Hermiticity is a real
matrix in them (:attr:`Superoperator.real_form`).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg

# Tolerances; the ones marked relative scale with max(1, largest entry).
#: Hermiticity defect of a generator or decomposed matrix (relative)
HERMITICITY_RTOL = 1e-12
#: Hermiticity defect and trace error of a density matrix
HERMITICITY_TOL = TRACE_TOL = 1e-10
#: propagated states may pick up eigenvalues this far below zero from float drift
STATE_PSD_TOL = 1e-8
#: eigenvalues of a PSD matrix may dip this far below zero from float drift
PSD_TOL = 1e-10
#: probabilities and real forms may carry at most this much imaginary noise;
#: beyond it is an error
IMAG_TOL = 1e-9
#: a classical distribution may dip this far below 0, and its sum stray this far from 1
PROB_TOL = 1e-12
#: diagonalization residual (relative) above which a superoperator takes the Pade route
SPECTRAL_RESIDUAL_TOL = 1e-12
#: largest entry of ``U diag(l) U^H - L`` for a decomposition to belong to ``L``
SPECTRAL_MATCH_TOL = 1e-8
#: default absolute gap below which two eigenvalues are treated as degenerate
DEGENERACY_TOL = 1e-8
#: generator eigenvalues with real part above ``-STATIONARY_TOL`` do not decay
STATIONARY_TOL = 1e-10

#: largest Hilbert dimension given a superoperator: n = 32 is a 1024^2
#: complex matrix (16 MiB), and every factorization of it is O(n^6)
MAX_SUPEROPERATOR_DIM = 32


class SuperoperatorSizeError(ValueError):
    """Hilbert dimension above :data:`MAX_SUPEROPERATOR_DIM`."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).flatten(order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector).reshape((dim, dim), order="F")


def _hermitian_pairs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """vec positions of the diagonal, and of the (x, y) and (y, x) entries for x < y."""
    x, y = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), x + dim * y, y + dim * x


def hermitian_basis(dim: int) -> np.ndarray:
    """Unitary ``T`` with ``vec(X) = T r`` and ``r`` real for every Hermitian X.

    Columns: the ``dim`` diagonal units ``E_xx`` first, then for each
    x < y the pair ``(E_xy + E_yx)/sqrt2`` and ``i(E_xy - E_yx)/sqrt2``.
    """
    diag, xy, yx = _hermitian_pairs(dim)
    t = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    t[diag, np.arange(dim)] = 1.0
    re = dim + 2 * np.arange(len(xy))
    t[xy, re] = t[yx, re] = np.sqrt(0.5)
    t[xy, re + 1] = 1j * np.sqrt(0.5)
    t[yx, re + 1] = -1j * np.sqrt(0.5)
    return t


def hermitian_coords(matrix: np.ndarray) -> np.ndarray:
    """Real ``r`` with ``vec(X) = hermitian_basis(n) @ r`` for a Hermitian X:
    the diagonal, then sqrt2-scaled (Re, Im) of each entry above it."""
    dim = np.shape(matrix)[0]
    v = vec(matrix)
    diag, xy, _ = _hermitian_pairs(dim)
    upper = np.sqrt(2.0) * v[xy]
    r = np.empty(dim * dim)
    r[:dim] = v[diag].real
    r[dim::2] = upper.real
    r[dim + 1::2] = upper.imag
    return r


def _check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _check_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = _check_square(a, name)
    defect = np.abs(a - a.conj().T).max()
    if defect > HERMITICITY_RTOL * max(1.0, np.abs(a).max()):
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return a


def expm_hermitian_generator(h: np.ndarray, t: float) -> np.ndarray:
    """``e^{-iHt}`` for Hermitian ``H`` via spectral decomposition.

    The spectral route keeps the result unitary to ~1e-12 regardless of
    ``t``, unlike Pade exponentiation of the anti-Hermitian ``-iHt``.
    """
    h = _check_hermitian(h, "generator")
    w, u = np.linalg.eigh(h)
    return (u * np.exp(-1j * w * t)) @ u.conj().T


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-PSD_TOL, 0)`` are clipped to zero before the root;
    anything below ``-PSD_TOL`` is an error, not noise.
    """
    m = _check_hermitian(matrix)
    w, u = np.linalg.eigh(m)
    if w.min() < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


# ---------------------------------------------------------------------------
# Superoperators
# ---------------------------------------------------------------------------

class Superoperator:
    """Linear map on density matrices, stored as an n^2 x n^2 matrix.

    Acts on column-stacked matrices. The class caches a diagonalization
    of its matrix the first time a semigroup action ``e^{Lt}`` is needed;
    if the matrix is too close to defective for the factorization to be
    trustworthy (reconstruction residual above ``SPECTRAL_RESIDUAL_TOL``
    relative), actions fall back to a dense Pade exponential, of which
    only the one for the last time asked is kept (``dqc`` asks for every
    start node at one time in a row). :attr:`real_form` is the same map as
    a real matrix in the Hermitian coordinates of :func:`hermitian_basis`,
    built once on first use; K(s, t) profiles on near-defective generators
    step in it.
    """

    def __init__(self, dim: int, matrix: np.ndarray):
        matrix = _check_square(matrix, "superoperator")
        if matrix.shape != (dim * dim, dim * dim):
            raise ValueError(
                f"superoperator for dim {dim} must be {dim*dim}x{dim*dim}, "
                f"got {matrix.shape}")
        self.dim = int(dim)
        self.matrix = _as_readonly(matrix)
        self._expm_last: tuple[float, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"Superoperator(dim={self.dim})"

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(eigenvalues, V, V^{-1}) if the diagonalization is reliable, else None."""
        try:
            w, v = np.linalg.eig(self.matrix)
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        residual = np.abs((v * w) @ vinv - self.matrix).max()
        if residual > SPECTRAL_RESIDUAL_TOL * max(1.0, np.abs(self.matrix).max()):
            return None
        return w, v, vinv

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        if self._spectral is not None:
            return self._spectral[0]
        return np.linalg.eigvals(self.matrix)

    def spectral_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        return self._spectral

    @cached_property
    def real_form(self) -> np.ndarray:
        """Real ``T^H M T`` for ``T = hermitian_basis(dim)``.

        Raises ArithmeticError if its imaginary part exceeds ``IMAG_TOL``
        relative to its scale: then the map does not preserve Hermiticity.
        """
        t = hermitian_basis(self.dim)
        m = t.conj().T @ self.matrix @ t
        bad = np.abs(m.imag).max()
        if bad > IMAG_TOL * max(1.0, np.abs(m).max()):
            raise ArithmeticError(
                f"superoperator does not preserve Hermiticity (imaginary part {bad:.3e})")
        return _as_readonly(m.real)

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Apply the map itself (not its exponential) to an n x n matrix."""
        return unvec(self.matrix @ vec(matrix), self.dim)

    def _expm_matrix(self, t: float) -> np.ndarray:
        last = self._expm_last
        if last is None or last[0] != t:
            last = (t, scipy.linalg.expm(self.matrix * t))
            self._expm_last = last
        return last[1]

    def expm_apply(self, t: float, matrix: np.ndarray) -> np.ndarray:
        """Apply ``e^{Lt}`` to an n x n matrix."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if t == 0:
            return np.asarray(matrix, dtype=np.complex128).copy()
        spectral = self._spectral
        v0 = vec(matrix)
        if spectral is not None:
            w, v, vinv = spectral
            out = v @ (np.exp(w * t) * (vinv @ v0))
        else:
            out = self._expm_matrix(t) @ v0
        return unvec(out, self.dim)


def vectorize_lindblad(h: np.ndarray,
                       jumps: list[tuple[float, np.ndarray]] | tuple = ()) -> Superoperator:
    """Matrix form of ``rho -> -i[H,rho] + sum_k g_k (G rho G+ - {G+G, rho}/2)``.

    Parameters
    ----------
    h : np.ndarray
        Hermitian generator of the coherent part.
    jumps : sequence of (rate, operator)
        Nonnegative rates with jump operators of matching dimension.
    """
    h = _check_hermitian(h, "Hamiltonian")
    n = h.shape[0]
    if n > MAX_SUPEROPERATOR_DIM:
        raise SuperoperatorSizeError(
            f"superoperator for {n} sites would be {n*n}x{n*n}; "
            f"the limit is {MAX_SUPEROPERATOR_DIM} sites")
    eye = np.eye(n)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, g in jumps:
        if rate < 0:
            raise ValueError(f"jump rates must be nonnegative, got {rate}")
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (n, n):
            raise ValueError(
                f"jump operator shape {g.shape} does not match Hamiltonian dim {n}")
        gg = g.conj().T @ g
        m = m + rate * (np.kron(g.conj(), g)
                        - 0.5 * np.kron(eye, gg)
                        - 0.5 * np.kron(gg.T, eye))
    return Superoperator(n, m)
