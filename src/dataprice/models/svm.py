"""Support vector machines: SMO with second-order working-set selection,
stopped on the KKT gap, for classification, and a restarted proximal
gradient solver for the epsilon-insensitive regression dual, stopped on its
duality gap."""

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


# SMO takes at most this many steps per training row
SMO_STEPS_PER_ROW = 100


def fit_svm(X, y, C: float = 1.0, kernel: str = "linear", gamma: float = 1.0,
            tol: float = 1e-3) -> SVMModel:
    """SMO on the dual with second-order working-set selection (Fan, Chen &
    Lin 2005, the solver of LIBSVM); labels must be in {-1, +1}.

    It keeps beta = alpha * y, the model's coef, in [min(0, C y),
    max(0, C y)] with sum(beta) = 0, and F = y - K beta, each row's label
    less its decision value without the bias. Each step takes i, the
    multiplier with the largest F among those that may move up, and stops
    when that F exceeds the smallest F among those that may move down by
    at most tol: the KKT conditions then hold within tol. Otherwise j is
    the one that may move down whose pair with i gains the most in a
    Newton step (a curvature <= 0 counts as 1e-12), and beta_i rises and
    beta_j falls by that step, clipped to the box. It also stops after
    SMO_STEPS_PER_ROW steps per row. The bias is the mean F over free
    multipliers, else the midpoint of the final gap. hyperparams record
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
    n = len(y)
    K = kernel_matrix(X, X, kernel, gamma)
    diag = K.diagonal()
    lo, hi = np.minimum(0.0, C * y), np.maximum(0.0, C * y)
    beta = np.zeros(n)
    F = y.copy()
    cap = SMO_STEPS_PER_ROW * n
    for steps in range(cap + 1):
        i = int(np.argmax(np.where(beta < hi, F, -np.inf)))
        gain = F[i] - np.where(beta > lo, F, np.inf)
        gap = float(np.max(gain))
        if gap <= tol or steps == cap:
            break
        curv = diag[i] + diag - 2.0 * K[i]
        curv[curv <= 0] = 1e-12
        j = int(np.argmax(np.where(gain > 0, gain ** 2 / curv, -1.0)))
        d = min(gain[j] / curv[j], hi[i] - beta[i], beta[j] - lo[j])
        beta[i] = hi[i] if d == hi[i] - beta[i] else beta[i] + d
        beta[j] = lo[j] if d == beta[j] - lo[j] else beta[j] - d
        F -= d * (K[i] - K[j])

    free = (beta > lo) & (beta < hi)
    if free.any():
        b = float(np.mean(F[free]))
    else:
        b = 0.5 * float(np.max(F[beta < hi]) + np.min(F[beta > lo]))
    sv = beta != 0
    return SVMModel(X[sv], beta[sv], b, kernel, gamma,
                    hyperparams={"C": C, "kernel": kernel, "gamma": gamma,
                                 "tol": tol, "iterations": steps, "gap": gap,
                                 "converged": bool(gap <= tol)})


def _soft_box(s, thr: float, C: float):
    """Soft-threshold s by thr, then clip to the box [-C, C]."""
    return np.clip(np.sign(s) * np.maximum(np.abs(s) - thr, 0.0), -C, C)


# change of slope, in nu, of sum_i _soft_box(z_i - nu) at each of the four
# breakpoint groups z - thr - C, z - thr, z + thr, z + thr + C
_KNOT_SLOPES = np.array([-1.0, 1.0, -1.0, 1.0])


def svr_prox(z, thr: float, C: float):
    """argmin_b 1/2||b - z||^2 + thr*||b||_1 over -C <= b_i <= C, sum(b) = 0.

    The solution is b(nu) = _soft_box(z - nu) at the multiplier nu of the
    sum constraint where sum(b(nu)) = 0. That sum is piecewise linear and
    nonincreasing in nu: coordinate i has slope -1 on (z_i - thr - C,
    z_i - thr) and on (z_i + thr, z_i + thr + C), and 0 elsewhere. Sorting
    the breakpoints gives the sum at each of them from the cumulative
    slopes; nu is the zero on the piece where the sum changes sign (a
    continuous quadratic knapsack; Kiwiel 2008). Each breakpoint group is
    the sorted z shifted by a constant, so it is already ascending, and the
    stable sort only merges four runs; ties still go to the lower group
    first.
    """
    n = len(z)
    zs = np.sort(z)
    knots = np.concatenate((zs - (thr + C), zs - thr, zs + thr, zs + (thr + C)))
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    slope = np.cumsum(_KNOT_SLOPES[order // n])  # on (knots[k], knots[k+1])
    at_knot = n * C + np.concatenate(
        ([0.0], np.cumsum(slope[:-1] * np.diff(knots))))
    k = int(np.argmax(at_knot <= 0.0))  # at_knot[0] = nC > 0 >= at_knot[k]
    # the cumulative sums only locate the piece; the sum at its left end is
    # evaluated directly, so rounding does not accumulate over the knots
    lo = knots[k - 1]
    nu = lo - _soft_box(z - lo, thr, C).sum() / slope[k - 1]
    return _soft_box(z - nu, thr, C)


def _svr_gap(beta, Kbeta, y, C: float, epsilon: float):
    """The duality gap of beta, relative to the primal value, and the bias
    that certifies it.

    The primal value is 1/2 beta' K beta + C sum max(0, |y - K beta - b| -
    eps) at the b that minimizes it: the loss is convex and piecewise
    linear in b, with knots y - K beta +- eps, and its slope is 0 between
    the two middle ones, so b is their midpoint. A primal value of 0 is
    optimal, and its gap counts as 0.
    """
    n = len(y)
    quad = float(beta @ Kbeta)
    dual = -0.5 * quad - epsilon * float(np.abs(beta).sum()) + float(y @ beta)
    r = y - Kbeta
    mid = np.partition(np.concatenate((r - epsilon, r + epsilon)), (n - 1, n))
    b = 0.5 * float(mid[n - 1] + mid[n])
    primal = 0.5 * quad + C * float(np.maximum(np.abs(r - b) - epsilon, 0.0).sum())
    return (primal - dual) / primal if primal > 0 else 0.0, b


def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1, kernel: str = "linear",
            gamma: float = 1.0, tol: float = 1e-4, max_iter: int = 5000) -> SVRModel:
    """Epsilon-insensitive regression solved on the paired-multiplier dual
    in the collapsed variables beta_i = alpha_i - alpha_i*:

        max  D = -1/2 beta' K beta - eps * sum|beta| + y' beta
        s.t. sum(beta) = 0,  -C <= beta_i <= C

    by accelerated proximal gradient (FISTA; Beck & Teboulle 2009) with
    gradient restart (O'Donoghue & Candes 2015): the momentum resets when
    the step from the extrapolated point z to the new iterate turns back
    against the last move. `svr_prox` handles the l1 term, the box and the
    sum constraint jointly and exactly, by a breakpoint search on the
    constraint multiplier. After each step it stops when the duality gap
    (P - D) / P of the new iterate, against the primal value P of
    `_svr_gap`, is at most tol, or after max_iter iterations. The model
    keeps the bias of that primal value, so the gap certifies the saved
    coefficients and bias. hyperparams record the iterations run, the
    final gap and whether it fell within tol (converged).
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
    if max_iter < 1:
        raise ModelError("max_iter must be >= 1")
    n = len(y)
    K = kernel_matrix(X, X, kernel, gamma)
    L = float(np.linalg.eigvalsh(K)[-1]) + 1e-12

    beta, Kbeta = np.zeros(n), np.zeros(n)
    z, Kz = beta, Kbeta
    t = 1.0
    step = 1.0 / L
    for iterations in range(1, max_iter + 1):
        beta_new = svr_prox(z - step * (Kz - y), step * epsilon, C)
        Kbeta_new = K @ beta_new
        gap, b = _svr_gap(beta_new, Kbeta_new, y, C, epsilon)
        if gap <= tol:
            break
        move = beta_new - beta
        if float((z - beta_new) @ move) > 0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        m = (t - 1.0) / t_next
        # K z by linearity, from the two products already at hand
        z = beta_new + m * move
        Kz = Kbeta_new + m * (Kbeta_new - Kbeta)
        beta, Kbeta, t = beta_new, Kbeta_new, t_next

    sv = np.abs(beta_new) > 1e-10
    if not sv.any():
        sv = np.array([0])
    return SVRModel(X[sv], beta_new[sv], b, kernel, gamma,
                    hyperparams={"C": C, "epsilon": epsilon, "kernel": kernel,
                                 "gamma": gamma, "tol": tol, "max_iter": max_iter,
                                 "iterations": iterations, "gap": gap,
                                 "converged": bool(gap <= tol)})
