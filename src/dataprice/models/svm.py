"""Support vector machines: one SMO with second-order working-set
selection, stopped on the KKT gap or after SMO_STEPS_PER_ROW steps per
dual variable, for the classification dual in n variables and for the
epsilon-insensitive regression dual in 2n variables."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite


def sq_distances(A, B, B_sq=None) -> np.ndarray:
    """Squared Euclidean distance from every row of A to every row of B, as
    |a|^2 + |b|^2 - 2 a.b; B_sq holds the squared row norms of B when the
    caller keeps them. Rounding can leave it slightly below 0."""
    if B_sq is None:
        B_sq = np.sum(B ** 2, axis=1)
    D = A @ B.T
    D *= -2.0
    D += np.sum(A ** 2, axis=1)[:, None] + B_sq[None, :]
    return D


def rbf_in_place(D, gamma: float) -> np.ndarray:
    """The rbf kernel of squared distances D, computed in place."""
    np.maximum(D, 0.0, out=D)
    D *= -gamma
    return np.exp(D, out=D)


def kernel_matrix(A, B, kernel: str, gamma: float = 1.0, B_sq=None) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if kernel == "linear":
        return A @ B.T
    if kernel == "rbf":
        return rbf_in_place(sq_distances(A, B, B_sq), gamma)
    raise ModelError("unknown kernel %r (supported: linear, rbf)" % kernel)


class _KernelModel(Model):
    def __init__(self, support_vectors, coef, b, kernel, gamma, **kw):
        super().__init__(kw.pop("task"), **kw)
        self.support_vectors = np.atleast_2d(np.asarray(support_vectors, dtype=np.float64))
        self.coef = np.asarray(coef, dtype=np.float64)  # alpha_i*y_i or beta_i
        self.b = float(b)
        self.kernel = kernel
        self.gamma = float(gamma)
        self.sv_sq = np.sum(self.support_vectors ** 2, axis=1)

    def decision_function(self, X):
        X = self._check_input(X)
        K = kernel_matrix(X, self.support_vectors, self.kernel, self.gamma,
                          self.sv_sq)
        return K @ self.coef + self.b

    def params_dict(self):
        return {"support_vectors": self.support_vectors.tolist(),
                "coef": self.coef.tolist(), "b": self.b,
                "kernel": self.kernel, "gamma": self.gamma}


@register
class SVMModel(_KernelModel):
    family = "svm"

    def __init__(self, support_vectors, coef, b, kernel, gamma, **kw):
        kw.setdefault("task", "classification")
        super().__init__(support_vectors, coef, b, kernel, gamma, **kw)

    def scores(self, X):
        return self.decision_function(X)

    def predict(self, X):
        return np.where(self.decision_function(X) >= 0, 1, -1).astype(np.int64)


@register
class SVRModel(_KernelModel):
    family = "svr"

    def __init__(self, support_vectors, coef, b, kernel, gamma, **kw):
        kw.setdefault("task", "regression")
        super().__init__(support_vectors, coef, b, kernel, gamma, **kw)

    def predict(self, X):
        return self.decision_function(X)


# SMO takes at most this many steps per dual variable (a classifier has one
# per training row, a regression two)
SMO_STEPS_PER_ROW = 100


def _smo(K, r, lo, hi, tol: float, cap: int):
    """SMO with second-order working-set selection (Fan, Chen & Lin 2005,
    the solver of LIBSVM) on the dual

        max  r' beta - 1/2 beta' Q beta   s.t. sum(beta) = 0, lo <= beta <= hi

    where beta stacks len(r) / n copies of the n rows of the kernel matrix
    K, so variable t reads kernel row K[t mod n] and Q (K tiled copy by
    copy) is never built.

    It keeps F = r - Q beta, the gradient. Each step takes i, the variable
    with the largest F among those that may move up, and stops when that F
    exceeds the smallest F among those that may move down by at most tol:
    the KKT conditions then hold within tol. Otherwise j is the one that
    may move down whose pair with i gains the most in a Newton step (a
    curvature <= 0 counts as 1e-12), and beta_i rises and beta_j falls by
    that step, clipped to the box (a clipped variable is set to its bound
    exactly). It also stops after cap steps. The bias is the mean F over
    free variables, else the midpoint of the final gap. Returns beta, the
    bias, the steps taken and the final gap.
    """
    n = len(K)
    diag = K.diagonal()
    beta = np.zeros(len(r))
    F = r.copy()
    by_copy = F.reshape(-1, n)  # a view: one row of F per copy
    for steps in range(cap + 1):
        i = int(np.argmax(np.where(beta < hi, F, -np.inf)))
        gain = F[i] - np.where(beta > lo, F, np.inf)
        gap = float(np.max(gain))
        if gap <= tol or steps == cap:
            break
        Ki = K[i % n]
        curv = diag[i % n] + diag - 2.0 * Ki
        curv[curv <= 0] = 1e-12
        g = gain.reshape(-1, n)
        j = int(np.argmax(np.where(g > 0, g ** 2 / curv, -1.0)))
        d = min(gain[j] / curv[j % n], hi[i] - beta[i], beta[j] - lo[j])
        beta[i] = hi[i] if d == hi[i] - beta[i] else beta[i] + d
        beta[j] = lo[j] if d == beta[j] - lo[j] else beta[j] - d
        by_copy -= d * (Ki - K[j % n])

    free = (beta > lo) & (beta < hi)
    if free.any():
        b = float(np.mean(F[free]))
    else:
        b = 0.5 * float(np.max(F[beta < hi]) + np.min(F[beta > lo]))
    return beta, b, steps, gap


def fit_svm(X, y, C: float = 1.0, kernel: str = "linear", gamma: float = 1.0,
            tol: float = 1e-3) -> SVMModel:
    """The soft-margin classifier by `_smo`; labels must be in {-1, +1}.

    The dual variables are beta = alpha * y, the model's coef, in
    [min(0, C y), max(0, C y)], with r = y, so F is each row's label less
    its decision value without the bias. SMO stops when the KKT gap is at
    most tol, or after SMO_STEPS_PER_ROW steps per row. hyperparams record
    the steps taken (iterations), the final gap and whether it fell within
    tol (converged).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y = np.asarray(y, dtype=np.float64)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ModelError("labels must be -1/+1")
    if len(np.unique(y)) < 2:
        raise ModelError("both classes must be present")
    if C <= 0:
        raise ModelError("C must be positive")
    K = kernel_matrix(X, X, kernel, gamma)
    beta, b, steps, gap = _smo(K, y, np.minimum(0.0, C * y),
                               np.maximum(0.0, C * y), tol,
                               SMO_STEPS_PER_ROW * len(y))
    sv = beta != 0
    return SVMModel(X[sv], beta[sv], b, kernel, gamma,
                    hyperparams={"C": C, "kernel": kernel, "gamma": gamma,
                                 "tol": tol, "iterations": steps, "gap": gap,
                                 "converged": bool(gap <= tol)})


def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1, kernel: str = "linear",
            gamma: float = 1.0, tol: float = 1e-4,
            max_iter: int | None = None) -> SVRModel:
    """Epsilon-insensitive regression by `_smo` on the 2n-variable dual, as
    LIBSVM solves it: alpha in [0, C] and -alpha* in [-C, 0] on two copies
    of the rows, with r = (y - eps, y + eps), so that

        max  -1/2 coef' K coef - eps * sum(alpha + alpha*) + y' coef
        s.t. sum(coef) = 0,  coef = alpha - alpha*

    SMO stops when the KKT gap is at most tol, or after max_iter steps
    (None: SMO_STEPS_PER_ROW per variable). Free variables then have
    |f - y| = eps within tol. A fit where no multiplier moved keeps one
    support vector of coef 0: a model with none would reload from its
    saved form without its column count, and could not predict.
    hyperparams record the steps taken (iterations), the cap they ran
    under (max_iter), the final gap and whether it fell within tol
    (converged).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y = np.asarray(y, dtype=np.float64)
    if C <= 0:
        raise ModelError("C must be positive")
    if epsilon < 0:
        raise ModelError("epsilon must be >= 0")
    if tol < 0:
        raise ModelError("tol must be >= 0")
    if max_iter is not None and max_iter < 1:
        raise ModelError("max_iter must be >= 1")
    n = len(y)
    cap = SMO_STEPS_PER_ROW * 2 * n if max_iter is None else max_iter
    beta, b, steps, gap = _smo(kernel_matrix(X, X, kernel, gamma),
                               np.concatenate((y - epsilon, y + epsilon)),
                               np.repeat([0.0, -C], n), np.repeat([C, 0.0], n),
                               tol, cap)
    coef = beta[:n] + beta[n:]
    sv = coef != 0
    if not sv.any():
        sv = np.array([0])
    return SVRModel(X[sv], coef[sv], b, kernel, gamma,
                    hyperparams={"C": C, "epsilon": epsilon, "kernel": kernel,
                                 "gamma": gamma, "tol": tol, "max_iter": cap,
                                 "iterations": steps, "gap": gap,
                                 "converged": bool(gap <= tol)})
