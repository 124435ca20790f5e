"""Support vector machines: one SMO with second-order working-set
selection, stopped on the KKT gap or after SMO_STEPS_PER_ROW steps per
dual variable, for the classification dual in n variables and for the
epsilon-insensitive regression dual in 2n variables.

The SMO steps several duals over one kernel matrix in lockstep. fit_svms
fits the one-vs-rest members of a classifier so, from one kernel matrix;
fit_svm and fit_svr solve one dual."""

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
    the solver of LIBSVM) on T duals over one kernel matrix K, in lockstep.
    Problem t is

        max  r_t' beta - 1/2 beta' Q beta
        s.t. sum(beta) = 0,  lo_t <= beta <= hi_t

    for rows t of the (T, m) arrays r, lo and hi, where beta stacks m / n
    copies of the n rows of K, so variable v reads kernel row K[v mod n]
    and Q (K tiled copy by copy) is never built.

    Each problem keeps F = r_t - Q beta, the gradient. Each step takes i,
    the variable with the largest F among those that may move up, and the
    problem stops when that F exceeds the smallest F among those that may
    move down by at most tol: the KKT conditions then hold within tol.
    Otherwise j is the one that may move down whose pair with i gains the
    most in a Newton step (a curvature <= 0 counts as 1e-12), and beta_i
    rises and beta_j falls by that step, clipped to the box (a clipped
    variable is set to its bound exactly). A problem also stops after cap
    steps. The problems still running take each step's array work
    together, and each one's step and clipping in Python scalars, so every
    problem takes the steps it would take alone. Its bias is the mean F
    over free variables, else the midpoint of the final gap. Returns beta
    (T, m), and the biases, the steps taken and the final gaps as lists.
    """
    n = len(K)
    diag = K.diagonal()
    T, m = r.shape
    row_of = np.arange(m) % n  # the kernel row of each variable
    beta_out, F_out = np.empty((T, m)), np.empty((T, m))
    steps_out, gap_out = [0] * T, [0.0] * T
    # the working rows: each live problem's variables and box as Python
    # floats, its gradient, and which of its variables may rise or fall
    live = list(range(T))
    beta, box_lo, box_hi = [[0.0] * m for _ in live], lo.tolist(), hi.tolist()
    F, rises, falls = r.copy(), 0.0 < hi, 0.0 > lo
    at = np.arange(0, T * m, m)  # where each working row starts in F
    d = np.empty((T, 1))  # each working row's step
    for steps in range(cap + 1):
        i = np.where(rises, F, -np.inf).argmax(axis=1)
        gain = F.take(i + at)[:, None] - np.where(falls, F, np.inf)
        gaps = gain.max(axis=1).tolist()
        if steps == cap or any(gap <= tol for gap in gaps):
            keep = []
            for t, (p, gap) in enumerate(zip(live, gaps)):
                if steps == cap or gap <= tol:
                    beta_out[p], F_out[p] = beta[t], F[t]
                    steps_out[p], gap_out[p] = steps, gap
                else:
                    keep.append(t)
            if not keep:
                break
            live = [live[t] for t in keep]
            beta, box_lo, box_hi = ([rows[t] for t in keep]
                                    for rows in (beta, box_lo, box_hi))
            F, rises, falls = F[keep], rises[keep], falls[keep]
            i, gain = i[keep], gain[keep]
            at, d = at[:len(keep)], d[:len(keep)]
        ki = row_of.take(i)
        Ki = K.take(ki, axis=0)
        curv = diag.take(ki)[:, None] + diag - 2.0 * Ki
        curv[curv <= 0] = 1e-12
        g = gain.reshape(len(live), -1, n)
        j = np.where(g > 0, g ** 2 / curv[:, None], -1.0).reshape(
            len(live), -1).argmax(axis=1)
        kj = row_of.take(j)
        for t, (it, jt, kt) in enumerate(zip(i.tolist(), j.tolist(),
                                             kj.tolist())):
            b, lo_t, hi_t = beta[t], box_lo[t], box_hi[t]
            dt = min(gain[t, jt] / curv[t, kt], hi_t[it] - b[it],
                     b[jt] - lo_t[jt])
            b[it] = hi_t[it] if dt == hi_t[it] - b[it] else b[it] + dt
            b[jt] = lo_t[jt] if dt == b[jt] - lo_t[jt] else b[jt] - dt
            rises[t, it], falls[t, it] = b[it] < hi_t[it], b[it] > lo_t[it]
            rises[t, jt], falls[t, jt] = b[jt] < hi_t[jt], b[jt] > lo_t[jt]
            d[t, 0] = dt
        by_copy = F.reshape(len(live), -1, n)  # a view: one row per copy
        by_copy -= (d * (Ki - K.take(kj, axis=0)))[:, None]

    bias = []
    for beta_t, F_t, lo_t, hi_t in zip(beta_out, F_out, lo, hi):
        free = (beta_t > lo_t) & (beta_t < hi_t)
        if free.any():
            bias.append(float(np.mean(F_t[free])))
        else:
            bias.append(0.5 * float(np.max(F_t[beta_t < hi_t])
                                    + np.min(F_t[beta_t > lo_t])))
    return beta_out, bias, steps_out, gap_out


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
    return fit_svms(X, [y], C, kernel, gamma, tol)[0]


def fit_svms(X, targets, C: float = 1.0, kernel: str = "linear",
             gamma: float = 1.0, tol: float = 1e-3) -> list[SVMModel]:
    """One fit_svm model per target on one X, as one-vs-rest fits its
    members: the kernel matrix is computed once and `_smo` solves the
    targets' duals in lockstep, so each model equals fit_svm on its own
    target."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for y in targets:
        require_finite(X, y)
    y = np.array(targets, dtype=np.float64)  # (targets, rows)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ModelError("labels must be -1/+1")
    if any(len(np.unique(t)) < 2 for t in y):
        raise ModelError("both classes must be present")
    if C <= 0:
        raise ModelError("C must be positive")
    K = kernel_matrix(X, X, kernel, gamma)
    beta, bias, steps, gaps = _smo(K, y, np.minimum(0.0, C * y),
                                   np.maximum(0.0, C * y), tol,
                                   SMO_STEPS_PER_ROW * y.shape[1])
    models = []
    for beta_t, b, steps_t, gap in zip(beta, bias, steps, gaps):
        sv = beta_t != 0
        models.append(SVMModel(
            X[sv], beta_t[sv], b, kernel, gamma,
            hyperparams={"C": C, "kernel": kernel, "gamma": gamma, "tol": tol,
                         "iterations": steps_t, "gap": gap,
                         "converged": bool(gap <= tol)}))
    return models


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
    (beta,), (b,), (steps,), (gap,) = _smo(
        kernel_matrix(X, X, kernel, gamma),
        np.concatenate((y - epsilon, y + epsilon))[None],
        np.repeat([0.0, -C], n)[None], np.repeat([C, 0.0], n)[None], tol, cap)
    coef = beta[:n] + beta[n:]
    sv = coef != 0
    if not sv.any():
        sv = np.array([0])
    return SVRModel(X[sv], coef[sv], b, kernel, gamma,
                    hyperparams={"C": C, "epsilon": epsilon, "kernel": kernel,
                                 "gamma": gamma, "tol": tol, "max_iter": cap,
                                 "iterations": steps, "gap": gap,
                                 "converged": bool(gap <= tol)})
