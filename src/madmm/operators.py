"""Matrix-free linear operators used inside constraint terms.

Each operator maps a dense array of shape ``in_shape`` to one of shape
``out_shape`` and knows its own adjoint.  Three optional views let the solver
pick fast exact paths:

* ``identity_scale`` -- set when the operator equals ``alpha * I``;
* ``gram_diag()`` -- diagonal of ``op^T op`` (flattened, row-major) when that
  matrix is diagonal, else None;
* ``to_dense()`` -- explicit matrix acting on row-major flattened vectors,
  or None when building it would be too costly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import require_finite

_DENSE_PROBE_LIMIT = 4096


def _dim(shape) -> int:
    n = 1
    for s in shape:
        n *= int(s)
    return n


class LinearOp:
    """Base class; subclasses implement apply and adjoint."""

    identity_scale: float | None = None

    def __init__(self, in_shape, out_shape):
        self.in_shape = tuple(int(s) for s in in_shape)
        self.out_shape = tuple(int(s) for s in out_shape)

    @property
    def in_dim(self) -> int:
        return _dim(self.in_shape)

    @property
    def out_dim(self) -> int:
        return _dim(self.out_shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gram_diag(self):
        return None

    def to_dense(self):
        # Probe with basis vectors; only sensible for small operators.
        if self.in_dim > _DENSE_PROBE_LIMIT:
            return None
        basis = np.zeros(self.in_dim)
        cols = np.empty((self.out_dim, self.in_dim))
        for j in range(self.in_dim):
            basis[j] = 1.0
            cols[:, j] = self.apply(basis.reshape(self.in_shape)).ravel()
            basis[j] = 0.0
        return cols


class ScaledIdentity(LinearOp):
    """alpha * I on arrays of a fixed shape."""

    def __init__(self, alpha: float, shape):
        super().__init__(shape, shape)
        self.alpha = float(alpha)
        require_finite(self.alpha, "ScaledIdentity alpha")
        self.identity_scale = self.alpha

    def apply(self, x):
        return self.alpha * np.asarray(x, dtype=float)

    def adjoint(self, w):
        return self.alpha * np.asarray(w, dtype=float)

    def gram_diag(self):
        return np.full(self.in_dim, self.alpha ** 2)

    def to_dense(self):
        return self.alpha * np.eye(self.in_dim)


class DenseOp(LinearOp):
    """Explicit matrix acting on the row-major flattening of the input; the
    matrix must not change after construction, as its gram view is kept."""

    def __init__(self, mat, in_shape=None, out_shape=None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("DenseOp expects a 2-D matrix")
        require_finite(mat, "DenseOp matrix")
        if in_shape is None:
            in_shape = (mat.shape[1], 1)
        if out_shape is None:
            out_shape = (mat.shape[0], 1)
        if mat.shape != (_dim(out_shape), _dim(in_shape)):
            raise ValueError(
                f"matrix shape {mat.shape} does not map {in_shape} to {out_shape}")
        super().__init__(in_shape, out_shape)
        self.mat = mat

    def apply(self, x):
        return (self.mat @ np.ravel(x)).reshape(self.out_shape)

    def adjoint(self, w):
        return (self.mat.T @ np.ravel(w)).reshape(self.in_shape)

    @cached_property
    def _gram_diag(self):
        # mat^T mat is formed at most once; gram_diag hands out copies.
        if self.in_dim > 512:
            return None
        g = self.mat.T @ self.mat
        off = g - np.diag(np.diag(g))
        if np.all(off == 0.0):
            return np.diag(g).copy()
        return None

    def gram_diag(self):
        d = self._gram_diag
        return None if d is None else d.copy()

    def to_dense(self):
        return self.mat.copy()


class TransposeOp(LinearOp):
    """x -> x.T; orthogonal, so its gram is the identity."""

    def __init__(self, in_shape):
        super().__init__(in_shape, (in_shape[1], in_shape[0]))

    def apply(self, x):
        return np.asarray(x, dtype=float).T.copy()

    def adjoint(self, w):
        return np.asarray(w, dtype=float).T.copy()

    def gram_diag(self):
        return np.ones(self.in_dim)


class DiagExtract(LinearOp):
    """Z (n, n) -> diag(Z) as an (n, 1) column."""

    def __init__(self, n: int):
        super().__init__((n, n), (n, 1))
        self.n = int(n)

    def apply(self, x):
        return np.diag(np.asarray(x, dtype=float)).reshape(self.n, 1).copy()

    def adjoint(self, w):
        return np.diag(np.ravel(w).astype(float))

    def gram_diag(self):
        mask = np.eye(self.n)
        return mask.ravel().copy()


class BroadcastOnes(LinearOp):
    """b (1, 1) -> b * ones(out_shape); the adjoint sums its argument."""

    def __init__(self, out_shape):
        super().__init__((1, 1), out_shape)

    def apply(self, x):
        return np.full(self.out_shape, float(np.ravel(x)[0]))

    def adjoint(self, w):
        return np.array([[float(np.sum(w))]])

    def gram_diag(self):
        return np.array([float(self.out_dim)])
