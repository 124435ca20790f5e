"""Support vector machines: SMO solver for classification and a proximal
solver for the epsilon-insensitive regression dual."""

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


# SMO makes at most twice this many examination passes
SMO_MAX_PASSES = 200


def fit_svm(X, y, C: float = 1.0, kernel: str = "linear", gamma: float = 1.0,
            tol: float = 1e-3, seed: int = 0) -> SVMModel:
    """Platt-style SMO with an error cache; labels must be in {-1, +1}.

    Runs alternating full/non-bound examination passes until no multiplier
    moves, which leaves every point KKT-consistent within tol.
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
    alpha = np.zeros(n)
    b = 0.0
    errors = -y.copy()  # f(x)=0 initially
    rng = np.random.default_rng(seed)

    def take_step(i1, i2):
        nonlocal b
        if i1 == i2:
            return False
        a1, a2 = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        E1, E2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            L, H = max(0.0, a1 + a2 - C), min(C, a1 + a2)
        else:
            L, H = max(0.0, a2 - a1), min(C, C + a2 - a1)
        if L >= H:
            return False
        eta = K[i1, i1] + K[i2, i2] - 2.0 * K[i1, i2]
        if eta > 0:
            a2_new = a2 + y2 * (E1 - E2) / eta
            a2_new = min(max(a2_new, L), H)
        else:
            # objective is linear along the constraint; move to the better end
            f1 = y1 * (E1 + b) - a1 * K[i1, i1] - s * a2 * K[i1, i2]
            f2 = y2 * (E2 + b) - s * a1 * K[i1, i2] - a2 * K[i2, i2]
            L1 = a1 + s * (a2 - L)
            H1 = a1 + s * (a2 - H)
            obj_l = (L1 * f1 + L * f2 + 0.5 * L1 ** 2 * K[i1, i1]
                     + 0.5 * L ** 2 * K[i2, i2] + s * L * L1 * K[i1, i2])
            obj_h = (H1 * f1 + H * f2 + 0.5 * H1 ** 2 * K[i1, i1]
                     + 0.5 * H ** 2 * K[i2, i2] + s * H * H1 * K[i1, i2])
            if obj_l < obj_h - 1e-12:
                a2_new = L
            elif obj_l > obj_h + 1e-12:
                a2_new = H
            else:
                return False
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        b1 = b - E1 - y1 * (a1_new - a1) * K[i1, i1] - y2 * (a2_new - a2) * K[i1, i2]
        b2 = b - E2 - y1 * (a1_new - a1) * K[i1, i2] - y2 * (a2_new - a2) * K[i2, i2]
        if 0 < a1_new < C:
            b_new = b1
        elif 0 < a2_new < C:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        errors[:] = errors + (y1 * (a1_new - a1) * K[i1]
                              + y2 * (a2_new - a2) * K[i2] + (b_new - b))
        alpha[i1], alpha[i2] = a1_new, a2_new
        b = b_new
        return True

    def examine(i2):
        y2, a2, E2 = y[i2], alpha[i2], errors[i2]
        r2 = E2 * y2
        if (r2 < -tol and a2 < C) or (r2 > tol and a2 > 0):
            non_bound = np.where((alpha > 0) & (alpha < C))[0]
            if len(non_bound) > 1:
                i1 = non_bound[np.argmax(np.abs(errors[non_bound] - E2))]
                if take_step(int(i1), i2):
                    return True
            if len(non_bound):
                start = rng.integers(len(non_bound))
                for k in range(len(non_bound)):
                    if take_step(int(non_bound[(start + k) % len(non_bound)]), i2):
                        return True
            start = rng.integers(n)
            for k in range(n):
                if take_step(int((start + k) % n), i2):
                    return True
        return False

    examine_all = True
    for _ in range(SMO_MAX_PASSES * 2):
        changed = 0
        if examine_all:
            for i in range(n):
                changed += examine(i)
        else:
            for i in np.where((alpha > 0) & (alpha < C))[0]:
                changed += examine(int(i))
        if examine_all:
            if changed == 0:
                break
            examine_all = False
        elif changed == 0:
            examine_all = True

    sv = alpha > 1e-12
    return SVMModel(X[sv], (alpha * y)[sv], b, kernel, gamma,
                    hyperparams={"C": C, "kernel": kernel, "gamma": gamma,
                                 "tol": tol},
                    seed=seed)


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
    continuous quadratic knapsack; Kiwiel 2008).
    """
    n = len(z)
    knots = np.concatenate((z - (thr + C), z - thr, z + thr, z + (thr + C)))
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


def fit_svr(X, y, C: float = 1.0, epsilon: float = 0.1, kernel: str = "linear",
            gamma: float = 1.0, tol: float = 1e-6, max_iter: int = 5000) -> SVRModel:
    """Epsilon-insensitive regression solved on the paired-multiplier dual
    in the collapsed variables beta_i = alpha_i - alpha_i*:

        max  -1/2 beta' K beta - eps * sum|beta| + y' beta
        s.t. sum(beta) = 0,  -C <= beta_i <= C

    by accelerated proximal gradient (FISTA); `svr_prox` handles the l1
    term, the box and the sum constraint jointly and exactly, by a
    breakpoint search on the constraint multiplier.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y = np.asarray(y, dtype=np.float64)
    if C <= 0:
        raise ModelError("C must be positive")
    if epsilon < 0:
        raise ModelError("epsilon must be >= 0")
    n = len(y)
    K = kernel_matrix(X, X, kernel, gamma)
    L = float(np.linalg.eigvalsh(K)[-1]) + 1e-12

    beta = np.zeros(n)
    z = beta.copy()
    t_prev = 1.0
    step = 1.0 / L
    for _ in range(max_iter):
        grad = K @ z - y  # gradient of the smooth part (negated objective)
        beta_new = svr_prox(z - step * grad, step * epsilon, C)
        t = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_prev ** 2))
        z = beta_new + ((t_prev - 1.0) / t) * (beta_new - beta)
        if np.max(np.abs(beta_new - beta)) < tol:
            beta = beta_new
            break
        beta, t_prev = beta_new, t

    f_raw = K @ beta
    free = (np.abs(beta) > 1e-8) & (np.abs(beta) < C - 1e-8)
    if free.any():
        b = float(np.mean(y[free] - f_raw[free] - epsilon * np.sign(beta[free])))
    else:
        b = float(np.mean(y - f_raw))
    sv = np.abs(beta) > 1e-10
    if not sv.any():
        sv = np.array([0])
    return SVRModel(X[sv], beta[sv], b, kernel, gamma,
                    hyperparams={"C": C, "epsilon": epsilon, "kernel": kernel,
                                 "gamma": gamma, "tol": tol, "max_iter": max_iter})
