"""Regularized PSD solves and leave-one-out tuning of kernel ridge penalties.

One eigendecomposition K = Q diag(e) Q' serves every candidate penalty
and then the fit at the selected one, because the smoother
R = K (K + n lambda I)^{-1} has the same eigenvectors for all lambda.
The scalar and the embedding leave-one-out losses are one exact closed
form, not refits, written through I - R = Q diag(n lambda / (e + n lambda)) Q'
so that no digits cancel at small lambda; the test suite checks it
against brute-force refits to 1e-8 relative error.

The loss reads its output Gram only through a factor K_output = L L'
(n x r): y itself for the scalar loss, the pivoted-Cholesky factor of
:func:`gram_factor` for an embedding. With C = Q' L formed once, each
candidate costs one n x n by n x r product, n^2 r, where the dense form
n^-1 tr(S H K_output H) costs n^3. A Gaussian Gram over one continuous
column has r of about 20 at n = 2000; a full-rank output (r = n) costs
what the dense form did.

A system can also be built from the n x r factor of its own kernel, as
the conditional embeddings build theirs: it eigendecomposes only the
r x r matrix L'L and solves by Woodbury, n r^2 once in place of n^3.
Its loss splits the output factor once into its part in the kernel's
span and the rest (n r r_output), after which each candidate costs
n r^2, whatever the output's rank. The split is formed from the
factor itself, not from its Gram: every Gram-only form tried cancels
digits at high-leverage points. Where a point's leverage nears 1, the
suite checks this loss against the same brute-force refits to 1e-8
over the whole shipped grid, as it does at duplicated points.

A dense system that was never tuned (a forced or theoretical penalty)
solves by Cholesky instead. Every route runs on numpy's LAPACK alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .kernels import _BLOCK_BYTES

#: Default tuning grid: 20 log-spaced candidates spanning [1e-8, 1e2].
DEFAULT_GRID = np.logspace(-8.0, 2.0, 20)

_JITTER_UNIT = 1e-12  # first retry adds 1e-12 * mean(diag), then 10x per retry
_MAX_RETRIES = 3
_PANEL = 64  # columns per panel of gram_factor's loop, rows per block of a substitution


def _floats(value, name: str) -> np.ndarray:
    """`value` as a float array, else an InputError naming `name`."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be numeric", name) from None


def _check_square(K: np.ndarray, name: str) -> np.ndarray:
    K = _floats(K, name)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] == 0:
        raise InputError(f"{name} must be a non-empty square matrix, got {K.shape}")
    return _check_finite(K, name)


def _check_finite(K: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(K)):
        i, j = np.argwhere(~np.isfinite(K))[0]
        raise NumericalError(f"non-finite entry in {name} at ({i}, {j})")
    return K


@dataclass(frozen=True, eq=False)
class TuneReport:
    """Grid-search record: the candidates and their leave-one-out losses.

    `selected` is the first minimizer: on the sorted grid that
    :meth:`RidgeSystem.loo` searches, ties resolve to the smallest candidate.
    """

    grid: np.ndarray
    losses: np.ndarray

    def __post_init__(self) -> None:
        for name in ("grid", "losses"):
            object.__setattr__(self, name, _floats(getattr(self, name), name))
        if self.grid.shape != self.losses.shape or self.grid.ndim != 1:
            raise InputError("grid and losses must be 1-D arrays of equal length")
        if not np.all(np.isfinite(self.losses)):
            raise NumericalError("non-finite leave-one-out loss on the grid")

    @property
    def selected(self) -> float:
        return float(self.grid[int(np.argmin(self.losses))])


def gram_factor(K: np.ndarray) -> np.ndarray:
    """Pivoted-Cholesky factor L (n x r) of a PSD Gram, K = L L' to round-off.

    Each step pivots on the largest remaining diagonal, and the loop stops
    where LAPACK's dpstrf stops by default: once that diagonal is at most
    n eps max(diag K), with LAPACK's eps = 2^-53, so r is the numerical
    rank of K. Three routes, all on numpy's LAPACK:

    - a panel of 64 columns is filled left-looking, each column K's row p
      less the panel so far: a Gram of rank r below 64 costs n r^2 and
      no n x n allocation;
    - a Gram that fills the first panel is factored by dense Cholesky,
      kept when its smallest pivot squared clears the same tolerance
      (r = n);
    - otherwise (singular but of high rank, as with duplicated points)
      the pivoted loop goes on, panel by panel, on a copy of K that is
      updated in place by each finished panel's product, one block of
      rows at a time.

    K is only read, and must be exactly symmetric, as a Gram is: the
    loop reads its rows.
    """
    K = _check_square(K, "K")
    n = K.shape[0]
    diag = K.diagonal().copy()
    tol = n * np.finfo(float).epsneg * max(float(diag.max()), 0.0)
    pivoted = np.zeros(n, dtype=bool)
    done = []  # finished panels, whose rows are factor columns
    while True:
        P = np.zeros((min(_PANEL, n - _PANEL * len(done)), n))
        squares = np.zeros(n)  # each row's sum of squares in this panel
        for j in range(P.shape[0]):
            # the remaining diagonal, summed as dpstrf sums it
            d = diag - squares
            d[pivoted] = -np.inf
            p = int(np.argmax(d))
            if not d[p] > tol:
                return np.concatenate(done + [P[:j]]).T.copy()
            col = K[p] - P[:j, p] @ P[:j]
            col[pivoted] = 0.0
            pivot = np.sqrt(d[p])
            col *= 1.0 / pivot
            col[p] = pivot
            P[j] = col
            squares += col * col
            pivoted[p] = True
        done.append(P)
        if pivoted.all():
            return np.concatenate(done).T.copy()
        if len(done) == 1:
            try:
                L = np.linalg.cholesky(K)
            except np.linalg.LinAlgError:
                pass
            else:
                if L.diagonal().min() ** 2 > tol:
                    return L
            K = K.copy()
        height = max(1, _BLOCK_BYTES // (8 * n))
        for start in range(0, n, height):
            rows = slice(start, start + height)
            K[rows] -= P[:, rows].T @ P
        diag = K.diagonal().copy()


def _prepare_grid(grid) -> np.ndarray:
    g = _floats(DEFAULT_GRID if grid is None else grid, "tuning grid")
    if g.ndim != 1 or g.shape[0] == 0:
        raise InputError("tuning grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise InputError("tuning grid candidates must be finite and positive")
    g = np.sort(g)
    if np.any(g[1:] == g[:-1]):
        raise InputError("tuning grid candidates must be distinct")
    return g


@dataclass(eq=False)
class RidgeSystem:
    """A PSD kernel K and the one decomposition that solves K + ridge I.

    K is given dense, `RidgeSystem(K)`, or by an n x r factor,
    `RidgeSystem(factor=L)` with K = L L' (see :func:`gram_factor`).

    A dense system computes eigh(K) at its first leave-one-out loss,
    caches it and releases K; every later loss, solve and smooth reads
    that cache. A dense system that was never tuned solves by Cholesky
    instead: one eigendecomposition costs more than the solve it would
    replace. Every route reads only the lower triangle of K.

    A factored system eigendecomposes only the r x r matrix
    L'L = V diag(e) V', at its first loss or solve alike, and keeps
    W = L V, so that K = W W' and W'W = diag(e). Every solve is then
    (K + ridge I)^{-1} b = (b - W diag(1/(e + ridge)) W' b) / ridge,
    which needs ridge > 0: K is singular off the span of W. Its
    leave-one-out losses cost n r r_output once and n r^2 per
    candidate (see :meth:`_factored_losses`).

    When K + ridge I is numerically singular (the Cholesky factorization
    fails, a round-off negative eigenvalue leaves e + ridge <= 0, or a
    factored system gets ridge 0), a diagonal jitter is added:
    1e-12 * mean(diag K), growing tenfold, at most three retries. The
    largest jitter applied is kept on `jitter`.
    """

    kernel: np.ndarray | None = None
    factor: np.ndarray | None = None
    jitter: float = field(default=0.0, init=False)
    n: int = field(default=0, init=False)
    _eig: tuple | None = field(default=None, init=False, repr=False)
    _jitter_scale: float = field(default=1.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.kernel is None) == (self.factor is None):
            raise InputError("a ridge system takes either a kernel or its factor")
        if self.factor is None:
            K = self.kernel = _check_square(self.kernel, "kernel")
            self.n = K.shape[0]
            mean_diag = float(np.trace(K)) / self.n
        else:
            L = _floats(self.factor, "factor")
            if L.ndim != 2 or L.shape[0] == 0:
                raise InputError(f"factor must be a non-empty n x r matrix, got {L.shape}")
            self.factor = _check_finite(L, "factor")
            self.n = L.shape[0]
            mean_diag = float(np.sum(L * L)) / self.n
        if mean_diag > 0.0:
            self._jitter_scale = mean_diag

    def _with_jitter(self, ridge: float, attempt, method: str):
        """`attempt(ridge + jitter)` at the first jitter where it is not None."""
        value = _floats(ridge, "ridge")
        if value.ndim or not np.isfinite(value) or value < 0.0:
            raise InputError(f"ridge must be finite and >= 0, got {ridge}")
        ridge = float(value)
        scale = self._jitter_scale
        jitters = [0.0] + [_JITTER_UNIT * scale * 10.0**k for k in range(_MAX_RETRIES)]
        for jit in jitters:
            out = attempt(ridge + jit)
            if out is not None:
                self.jitter = max(self.jitter, jit)
                return out
        raise NumericalError(
            f"{method} failed for a {self.n}x{self.n} system with ridge {ridge:g}; "
            f"attempted jitters {[f'{j:g}' for j in jitters]}"
        )

    def _cho_solve(self, ridge: float, b: np.ndarray) -> tuple[np.ndarray, float]:
        """((K + shift I)^{-1} b, shift), shift = ridge + jitter, by Cholesky
        K + shift I = U'U: K is shifted in place and its diagonal restored
        bitwise, and K' upper (K lower) is numpy's fastest order. U' and U
        are substituted _PANEL rows at a time, each diagonal block by LU."""
        K = self.kernel if self.kernel.flags.writeable else self.kernel.copy()
        diag = K.diagonal().copy()

        def attempt(shift):
            K.flat[:: self.n + 1] = diag + shift
            try:
                return np.linalg.cholesky(K.T, upper=True), shift
            except np.linalg.LinAlgError:
                return None
            finally:
                K.flat[:: self.n + 1] = diag

        U, shift = self._with_jitter(ridge, attempt, "Cholesky")
        x = b.copy()
        blocks = [slice(s, s + _PANEL) for s in range(0, self.n, _PANEL)]
        for k in blocks:
            x[k] = np.linalg.solve(U[k, k].T, x[k] - U[: k.start, k].T @ x[: k.start])
        for k in reversed(blocks):
            x[k] = np.linalg.solve(U[k, k], x[k] - U[k, k.stop :] @ x[k.stop :])
        return x, shift

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(e, Q) with K = Q diag(e) Q' and e ascending: Q orthonormal
        (n x n) for a dense kernel, Q = W = L V (n x r) for a factor."""
        if self._eig is None:
            if self.factor is None:
                self._eig = np.linalg.eigh(self.kernel)
                self.kernel = None  # every later read goes through (e, Q)
            else:
                e, V = np.linalg.eigh(self.factor.T @ self.factor)
                self._eig = (e, self.factor @ V)
        return self._eig

    def _shift(self, ridge: float) -> float:
        """ridge plus the jitter that makes K + shift I positive definite."""
        e = self._eigh()[0]
        factored = self.factor is not None

        def attempt(shift):
            if factored and not shift > 0.0:
                return None  # the null space of a factor's K
            return shift if e.size == 0 or e[0] + shift > 0.0 else None

        return self._with_jitter(ridge, attempt, "eigendecomposition")

    def _rhs(self, b) -> np.ndarray:
        b = _floats(b, "rhs")
        rows = b.shape[0] if b.ndim in (1, 2) else -1
        if rows != self.n:
            raise InputError(f"rhs has {rows} rows, system has {self.n}")
        if not np.all(np.isfinite(b)):
            raise NumericalError("non-finite entry in right-hand side")
        return b

    def solve(self, ridge: float, b: np.ndarray) -> np.ndarray:
        """Return (K + ridge I)^{-1} b for a vector or matrix b.

        A factored system's Woodbury form has absolute error of about
        eps ||b|| / ridge, so a ridge far below the tuning grid loses
        digits that a dense solve keeps: on a full-rank 11-point Gram
        it is 9.0e-6 off the dense solve at ridge 1e-10 and 7.7e-13 at
        1e-3. Tuned penalties (ridge >= n 1e-8) are unaffected.
        """
        b = self._rhs(b)
        if self._eig is None and self.factor is None:
            return self._cho_solve(ridge, b)[0]
        shift = self._shift(ridge)
        e, Q = self._eig
        t = e + shift
        Qtb = (Q.T @ b) / (t if b.ndim == 1 else t[:, None])
        return Q @ Qtb if self.factor is None else (b - Q @ Qtb) / shift

    def smooth(self, ridge: float, X: np.ndarray) -> np.ndarray:
        """The smoother applied to X, K (K + ridge I)^{-1} X, for a vector or matrix X.

        From the cached eigenpairs this is Q diag(e / t) Q' X with
        t = e + ridge (W diag(1 / t) W' X for a factor): n^2 k for an
        n x k matrix X, and no n x n smoother is formed. An untuned dense
        system computes it as X - ridge (K + ridge I)^{-1} X by Cholesky.
        """
        X = self._rhs(X)
        if self._eig is None and self.factor is None:
            x, shift = self._cho_solve(ridge, X)
            return X - shift * x
        shift = self._shift(ridge)
        e, Q = self._eig
        t = e + shift
        s = e / t if self.factor is None else 1.0 / t
        QtX = Q.T @ X
        QtX *= s if X.ndim == 1 else s[:, None]
        return Q @ QtX

    def _dense_losses(self, g: np.ndarray, L: np.ndarray) -> np.ndarray:
        """H = Q diag(s) Q', so H L = Q (s C) with C = Q' L formed once and
        h = (Q o Q) s. The loss is invariant to the scale of s, so s is
        taken relative to its largest entry, (e_min + n lambda) /
        (e + n lambda): equal eigenvalues then give exactly equal entries.

        The whole grid is scored in few products: the candidates' s form
        the columns of an n x k matrix S, every h is (Q o Q) S, and Q o Q
        is released before H L is formed as Q [s_1 C ... s_m C] for groups
        of m candidates, m r_out <= n, so that neither the stacked operand
        nor the product exceeds one n x n. That is n^2 r_out per candidate,
        as one product per candidate costs, in fewer and wider calls.
        """
        e, Q = self._eigh()
        C = Q.T @ L
        T = e[:, None] + np.array([self._shift(self.n * lam) for lam in g])
        S = T[0] / T
        Q2 = Q**2
        h = Q2 @ S
        del Q2
        r = C.shape[1]
        group = max(1, self.n // r)
        hl2 = np.empty(S.shape)
        for start in range(0, g.size, group):
            block = slice(start, start + group)
            HL = Q @ (S[:, block, None] * C[:, None, :]).reshape(self.n, -1)
            HL *= HL
            hl2[:, block] = np.sum(HL.reshape(self.n, -1, r), axis=2)
            del HL  # with r_out = n, one n x n less while the next HL is formed
        return np.mean(hl2 / (h * h), axis=0)

    def _factored_losses(self, g: np.ndarray, L: np.ndarray) -> np.ndarray:
        """H = I - W diag(1/t) W' with t = e + n lambda, so h = 1 - (W o W)/t.

        W is split as U diag(nu)^{1/2}, nu the squared column norms of W
        (e up to round-off, and never negative), so U has unit columns.
        L splits once into L_perp = L - U C_u with C_u = U' L, and then
        H L = L_perp + U diag(a) C_u with a = 1 - nu/t, written
        (n lambda + (e - nu)) / t so that no digits cancel at small
        lambda. With t0 = rowsum(L_perp^2), R = L_perp C_u' and
        G = C_u C_u', all formed once (n r r_out),

            rowsum((H L)^2) = t0 + 2 rowsum(U_a o R) + rowsum((U_a G) o U_a)

        for U_a = U diag(a): n r^2 per candidate, whatever r_out is.
        The difference L_perp is formed before it is squared, as the
        dense form squares H L itself: rowsum(L^2) - rowsum((U C_u)^2)
        would cancel where a row of L lies almost in the span of U. It is
        formed one block of rows at a time and never held whole, so L is
        only read and no second n x n array exists.
        """
        e, W = self._eigh()
        W2 = W * W
        nu = np.sum(W2, axis=0)
        U = W / np.sqrt(nu)
        Cu = U.T @ L
        t0 = np.empty(self.n)
        R = np.empty(U.shape)
        height = max(1, _BLOCK_BYTES // (8 * max(1, L.shape[1])))
        for start in range(0, self.n, height):
            rows = slice(start, start + height)
            perp = U[rows] @ Cu
            np.subtract(L[rows], perp, out=perp)
            R[rows] = perp @ Cu.T
            perp *= perp
            t0[rows] = np.sum(perp, axis=1)
        G = Cu @ Cu.T
        drift = e - nu
        losses = np.empty(g.shape)
        for k, lam in enumerate(g):
            shift = self._shift(self.n * lam)
            t = e + shift
            h = 1.0 - W2 @ (1.0 / t)
            Ua = U * ((shift + drift) / t)
            hl2 = t0 + 2.0 * np.sum(Ua * R, axis=1) + np.sum((Ua @ G) * Ua, axis=1)
            losses[k] = np.mean(hl2 / (h * h))
        return losses

    def loo(self, factor: np.ndarray, grid=None) -> TuneReport:
        """Exact leave-one-out losses of the output factor L on the grid.

        `factor` is the n x r_out factor L of the output Gram L L' (see
        :func:`gram_factor`); a vector is one column, so a scalar
        regression passes y. With H = I - K (K + n lambda I)^{-1} and
        h = diag(H), each candidate's loss n^{-1} tr(diag(h)^{-2} H L L' H)
        = mean(rowsum((H L)^2) / h^2) is the mean squared distance between
        each held-out output and its leave-one-out prediction. It costs
        n^2 r_out per candidate on a dense system (:meth:`_dense_losses`),
        and n r r_out once and then n r^2 per candidate on a factored one
        (:meth:`_factored_losses`). L is only read.
        """
        L, g = self._rhs(factor), _prepare_grid(grid)
        L = L[:, None] if L.ndim == 1 else L
        if L.shape[1] == 0:  # a zero output Gram: the exact loss is 0
            return TuneReport(g, np.zeros(g.shape))
        losses = (self._dense_losses if self.factor is None else self._factored_losses)(g, L)
        return TuneReport(g, losses)
