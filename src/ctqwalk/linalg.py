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
matrix in them (:attr:`Superoperator.real_form`). The Pade fallback
therefore takes one real exponential of it, for states and K(s, t)
profiles alike.

States and K(s, t) profiles factor a superoperator apart. States take the
complex eigendecomposition of the matrix if it reconstructs the matrix to
``SPECTRAL_RESIDUAL_TOL``. K profiles read :attr:`Superoperator.real_form`'s
own real eigendecomposition, its conjugate pairs folded into real
coordinates, behind two gates: its own reconstruction residual, or else the
population columns a profile reads meeting the Pade exponential's to
``PROB_TOL`` at ``_PROBE_TIMES``. Each factorization is computed once per
superoperator; where its gates refuse it, the route is the Pade exponential.

:class:`_Modes` holds such real mode coordinates, and its :meth:`_Modes.advance`
is the one kernel of every K profile: the Laplacian eigenbasis of
``dynamics`` (unitary and energy dephasing) is built as ``_Modes`` too.
"""
from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

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
#: a classical distribution may dip this far below 0, and its sum stray this far from 1;
#: also the largest probe error at which a K profile takes the spectral route
PROB_TOL = 1e-12
#: diagonalization residual (relative) above which state evolution takes the
#: Pade route; K profiles are gated by the population probe instead
SPECTRAL_RESIDUAL_TOL = 1e-12
#: default absolute gap below which two eigenvalues are treated as degenerate
DEGENERACY_TOL = 1e-8
#: generator eigenvalues with real part above ``-STATIONARY_TOL`` do not decay
STATIONARY_TOL = 1e-10


def fidelity_tol(dim: int) -> float:
    """How far rounding may carry a fidelity ``(sum_i sqrt(w_i))^2`` of dim x dim
    states past 1: each eigenvalue w_i is accurate to about ``dim * eps``, which
    its square root turns into ``sqrt(dim * eps)``, so the value is accurate to
    about ``2 dim sqrt(dim eps)`` (1.9e-6 at dim = 16). A pure state at t = 0,
    whose near-zero eigenvalues are rounding noise, reads 1 + 3.0e-8 on 16 sites.
    """
    return 2.0 * dim * np.sqrt(dim * np.finfo(np.float64).eps)


#: largest Hilbert dimension given a superoperator: n = 32 is a 1024^2
#: complex matrix (16 MiB), and every factorization of it is O(n^6)
MAX_SUPEROPERATOR_DIM = 32

#: steps h at which a K profile compares the spectral population columns with
#: the Pade exponential's, to accept a factorization that the residual gate refused
_PROBE_TIMES = (1.0, 10.0)


class SuperoperatorSizeError(ValueError):
    """Hilbert dimension above :data:`MAX_SUPEROPERATOR_DIM`."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """Read-only C-contiguous copy: the caller's array is neither aliased nor frozen."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).flatten(order="F")


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


def _hermitian_rows(b: np.ndarray, dim: int) -> np.ndarray:
    """``hermitian_basis(dim)^H @ b``, from the at most two rows of ``b`` in each output row."""
    diag, xy, yx = _hermitian_pairs(dim)
    out = np.empty(b.shape, dtype=np.complex128)
    out[:dim] = b[diag]
    out[dim::2] = np.sqrt(0.5) * (b[xy] + b[yx])
    out[dim + 1::2] = -1j * np.sqrt(0.5) * (b[xy] - b[yx])
    return out


def _hermitian_cols(r: np.ndarray, dim: int) -> np.ndarray:
    """``hermitian_basis(dim) @ r``, the inverse of :func:`_hermitian_rows`."""
    diag, xy, yx = _hermitian_pairs(dim)
    re, im = np.sqrt(0.5) * r[dim::2], np.sqrt(0.5) * r[dim + 1::2]
    out = np.empty(r.shape, dtype=np.complex128)
    out[diag] = r[:dim]
    out[xy] = re + 1j * im
    out[yx] = re - 1j * im
    return out


def _matvecs(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a @ r`` for each row r of ``rows``, one matrix-vector product per row.

    One product with all rows at once would round differently. A row that is
    a unit vector e_j (a site projector, in vec or Hermitian coordinates)
    takes column j of ``a``, which is what its product gives, bit for bit.
    A real ``a`` (the Pade exponential) takes the real and imaginary parts
    of a complex row separately, rather than being cast to complex per row.
    """
    real = np.isrealobj(a)
    out = np.empty((len(rows), a.shape[0]), dtype=np.complex128)
    for i, r in enumerate(rows):
        nz = np.flatnonzero(r)
        if len(nz) == 1 and r[nz[0]] == 1:
            out[i] = a[:, nz[0]]
        else:
            out[i] = a @ r.real + 1j * (a @ r.imag) if real else a @ r
    return out


def _check_square(a: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Finite complex square matrix; with ``stack``, also a (k, n, n) stack of them."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def _check_time(t: float, name: str = "time") -> None:
    if not 0 <= t < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {t}")


def _check_hermitian(a: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Hermitian up to ``HERMITICITY_RTOL`` relative to each matrix's largest entry."""
    a = _check_square(a, name, stack)
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if np.any(defect > HERMITICITY_RTOL * scale):
        raise ValueError(f"{name} is not Hermitian (defect {defect.max():.3e})")
    return a


def hermitian_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix, or of each of a (k, n, n) stack.

    Eigenvalues in ``[-PSD_TOL, 0)`` are clipped to zero before the root;
    anything below ``-PSD_TOL`` is an error, not noise.
    """
    m = _check_hermitian(matrix, stack=True)
    w, u = np.linalg.eigh(m)
    if w.min() < -PSD_TOL:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)[..., None, :]) @ u.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Superoperators
# ---------------------------------------------------------------------------

class _Modes(NamedTuple):
    """Mode coordinates as K profiles read them, in real arithmetic, and the one
    kernel that advances them (:meth:`advance`). Two providers build them: the
    real factorization of :attr:`Superoperator.real_form` and the Laplacian
    eigenbasis of ``dynamics``; each maps a start state to its coordinates.

    Coordinates y (k, 2m + r) hold first 2m pair coordinates, (Re, Im) of the
    complex coordinate of each of m modes, then one per real mode. Time tau
    multiplies complex mode j by ``e^{rates_j tau}`` and real mode i by
    ``e^{real_rates_i tau}``, and ``y @ read`` are the site populations.
    ``sites`` holds the coordinates of the n site projectors ``|y><y|``, one
    per row.
    """

    rates: np.ndarray       # (m,) complex
    real_rates: np.ndarray  # (r,) real
    sites: np.ndarray       # (n, 2m + r) real
    read: np.ndarray        # (2m + r, n) real

    def advance(self, y: np.ndarray, pair: np.ndarray, real: np.ndarray) -> np.ndarray:
        """Populations of the C-contiguous coordinates y (k, 2m + r), advanced in
        place by the tables ``pair`` (k, m) and ``real`` (k, r) of the two rates."""
        m = 2 * len(self.rates)
        modes = y[:, :m].view(np.complex128)
        modes *= pair
        y[:, m:] *= real
        return y @ self.read

    def meets(self, y: np.ndarray, targets: dict[float, np.ndarray]) -> bool:
        """Whether the populations of coordinates y advanced by each step h are
        within ``PROB_TOL`` of ``targets[h]``; a NaN refuses too."""
        return all(np.abs(self.advance(y.copy(), np.exp(self.rates * h),
                                       np.exp(self.real_rates * h)) - target).max() <= PROB_TOL
                   for h, target in targets.items())


class Superoperator:
    """Linear map on density matrices, stored as an n^2 x n^2 matrix.

    Acts on column-stacked matrices. States read one complex
    eigendecomposition of the matrix (:attr:`_eig`), cached the first time
    it is needed. Where the matrix is too close to defective for it to be
    trustworthy (residual above ``SPECTRAL_RESIDUAL_TOL`` relative, the gate
    of :meth:`spectral_factors`), actions fall back to one dense Pade
    exponential per call (:meth:`_expm_matrix`) of :attr:`real_form`, the
    same map as a real matrix in the Hermitian coordinates of
    :func:`hermitian_basis`, built once on first use. A map without a real
    form (one that does not preserve Hermiticity) has no Pade fallback.
    K(s, t) profiles read :attr:`_real_modes`, the real eigendecomposition
    of :attr:`real_form`, gated by its own residual or else by a probe
    against :attr:`_probe_rows`; where it is refused, they take the Pade
    exponential too.
    :meth:`expm_apply` acts on one matrix or on a (k, n, n) stack, such as
    the n start states of ``dqc`` at one time.
    """

    def __init__(self, dim: int, matrix: np.ndarray):
        matrix = _check_square(matrix, "superoperator")
        if matrix.shape != (dim * dim, dim * dim):
            raise ValueError(
                f"superoperator for dim {dim} must be {dim*dim}x{dim*dim}, "
                f"got {matrix.shape}")
        self.dim = int(dim)
        self.matrix = _as_readonly(matrix)

    def __repr__(self) -> str:
        return f"Superoperator(dim={self.dim})"

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | None:
        """The matrix's one eigensolve ``M = V diag(w) V^{-1}``, as ``(w, V, V^{-1},
        residual)`` with the reconstruction residual relative to ``max(1, max|M|)``;
        None if LAPACK fails. States read it; K profiles never do."""
        try:
            w, v = np.linalg.eig(self.matrix)
            vinv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return None
        residual = np.abs((v * w) @ vinv - self.matrix).max()
        return w, v, vinv, residual / max(1.0, np.abs(self.matrix).max())

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix) if self._eig is None else self._eig[0]

    def spectral_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(w, V, V^{-1})`` if the residual gate passes (the state route), else None."""
        eig = self._eig
        return None if eig is None or eig[3] > SPECTRAL_RESIDUAL_TOL else eig[:3]

    @cached_property
    def _probe_rows(self) -> dict[float, np.ndarray]:
        """Population rows ``e^{Rh}[:n]`` of the Pade exponential at each of
        :data:`_PROBE_TIMES`, for the K-profile probe of ``dynamics``."""
        return {h: self._expm_matrix(h)[:self.dim] for h in _PROBE_TIMES}

    @cached_property
    def _real_modes(self) -> tuple[_Modes, np.ndarray, bool] | None:
        """``(modes, inv, probed)``: the one real eigensolve (dgeev) of R =
        :attr:`real_form`, for K profiles.

        Its conjugate pairs are exact, so each pair keeps one eigenvector x,
        of eigenvalue w, with the real basis columns (Re x, Im x); a real mode
        keeps its vector. With phi, chi the rows of the real inverse for the
        pair, its part of ``e^{R tau} y`` is ``Re(conj(x) e^{conj(w) tau} (phi +
        i chi) y)``: the 2 of the fold and the 1/2 of the real basis cancel.
        So the basis is the read-out of :class:`_Modes` as it stands, at rates
        ``conj(w)``, and the mode coordinates of Hermitian coordinates r are
        ``inv @ r``. ``probed``: the reconstruction residual failed
        ``SPECTRAL_RESIDUAL_TOL``, so each start state is probed too.

        None if LAPACK fails, or if the residual fails and the populations of
        the n site projectors miss :attr:`_probe_rows`: a verdict that no start
        state changes. Raises ArithmeticError where the map has no real form.
        """
        r = self.real_form
        try:
            w, v = np.linalg.eig(r)
            pair, real = w.imag > 0, w.imag == 0
            m = 2 * int(pair.sum())
            basis = np.empty(r.shape)
            basis[:, :m].view(np.complex128)[...] = v[:, pair]
            basis[:, m:] = v[:, real].real
            inv = np.linalg.inv(basis)
        except np.linalg.LinAlgError:
            return None
        image = basis.copy()  # R basis, from the eigenvalues
        image[:, :m].view(np.complex128)[...] *= w[pair]
        image[:, m:] *= w[real].real
        residual = np.abs(image @ inv - r).max() / max(1.0, np.abs(r).max())
        n = self.dim
        modes = _Modes(w[pair].conj(), w[real].real, np.ascontiguousarray(inv[:, :n].T),
                       basis[:n].T.copy())
        probed = not residual <= SPECTRAL_RESIDUAL_TOL  # NaN too
        if probed and not modes.meets(
                modes.sites, {h: rows[:, :n].T for h, rows in self._probe_rows.items()}):
            return None
        return modes, inv, probed

    @cached_property
    def real_form(self) -> np.ndarray:
        """Real ``T^H M T`` for ``T = hermitian_basis(dim)``.

        T has at most two nonzeros per column, so both products are formed
        from index pairs in O(n^4), as ``T^H (T^H M^H)^H``.
        Raises ArithmeticError if its imaginary part exceeds ``IMAG_TOL``
        relative to its scale: then the map does not preserve Hermiticity.
        """
        n = self.dim
        m = _hermitian_rows(_hermitian_rows(self.matrix.conj().T, n).conj().T, n)
        bad = np.abs(m.imag).max()
        if bad > IMAG_TOL * max(1.0, np.abs(m).max()):
            raise ArithmeticError(
                f"superoperator does not preserve Hermiticity (imaginary part {bad:.3e})")
        return _as_readonly(m.real)

    def _expm_matrix(self, t: float) -> np.ndarray:
        """``e^{Rt}`` for R = :attr:`real_form`: the Pade fallback's one real exponential."""
        import scipy.linalg  # here: no other route needs it, and it is most of `import ctqwalk`

        return scipy.linalg.expm(self.real_form * t)

    def expm_apply(self, t: float, matrix: np.ndarray) -> np.ndarray:
        """Apply ``e^{Lt}`` to an n x n matrix or to each matrix of a (k, n, n) stack.

        Each matrix takes the same products as on its own (see :func:`_matvecs`).
        """
        _check_time(t)
        x = np.asarray(matrix, dtype=np.complex128)
        n = self.dim
        if x.ndim not in (2, 3) or x.shape[-2:] != (n, n):
            raise ValueError(f"expected {n}x{n} matrices, got shape {x.shape}")
        if t == 0:
            return x.copy()
        v0 = x.swapaxes(-1, -2).reshape(-1, n * n)  # vec of each matrix, one per row
        spectral = self.spectral_factors()
        if spectral is not None:
            w, v, vinv = spectral
            out = _matvecs(v, np.exp(w * t) * _matvecs(vinv, v0))
        else:
            # X = A + iB with A, B Hermitian has coordinates T^H vec X = a + ib,
            # a and b real; e^{Lt} preserves Hermiticity, so it maps them by e^{Rt}
            c = _hermitian_rows(v0.T, n).T
            out = _hermitian_cols(_matvecs(self._expm_matrix(t), c).T, n).T
        return out.reshape(x.shape).swapaxes(-1, -2)


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
