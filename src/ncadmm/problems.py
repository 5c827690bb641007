"""Losses, regularizers, constraint systems and proximal operators.

Everything here is read-only after construction, so instances can be shared
freely between solver runs and diagnostic code.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, logsumexp, softmax

from .data import check_count
from .exceptions import ConfigError, InputError, NumericalError

# sup over u of |d^2/du^2 1/(1+e^u)| = p(1-p)|1-2p|, read off a scan of
# 200001 evenly spaced u in [-8, 8]. The scan's grid misses the true supremum
# sqrt(3)/18, taken where p = 1/2 +- sqrt(3)/6, by 2.1e-13 from below;
# tests/oracles.py recomputes it
SIGMOID_CURVATURE = 0.09622504486472483


def _as_matrix(A):
    """A as a float csr matrix if it is sparse, a dense float array if not."""
    if sp.issparse(A):
        A = A.tocsr().astype(float)
        # one stored entry per position, as the row rebuilds assume
        A.sum_duplicates()
        return A
    return np.asarray(A, dtype=float)


class ConstraintSystem:
    """The linear coupling Ax - y = c with cached spectral data of A^T A.

    A must have full column rank; construction fails otherwise because every
    theory constant downstream divides by the smallest eigenvalue of A^T A.

    A^T A is formed in A's own format. When it has no nonzero off-diagonal
    entry (stacked identities, column scalings of them) its eigenvalues are
    its diagonal, read in O(nnz); any other A^T A goes through a dense
    eigvalsh. No dense A^T A outlives the constructor.
    """

    def __init__(self, A, c):
        self.A = _as_matrix(A)
        self.c = np.asarray(c, dtype=float)
        q = self.A.shape[0]
        if self.c.shape != (q,):
            raise ConfigError(f"c has shape {self.c.shape}, expected ({q},)")
        # built once: scipy's .T makes a new matrix object on every access
        self.AT = self.A.T
        AtA = self.AT @ self.A
        diag = AtA.diagonal()
        nnz = AtA.count_nonzero() if sp.issparse(AtA) else np.count_nonzero(AtA)
        if nnz == np.count_nonzero(diag):
            # eigvalsh returns the diagonal of a diagonal matrix exactly
            self.phi_min_A = float(diag.min())
            self.norm_AtA = float(diag.max())
        else:
            evals = np.linalg.eigvalsh(AtA.toarray() if sp.issparse(AtA) else AtA)
            self.phi_min_A = float(evals[0])
            self.norm_AtA = float(evals[-1])
        if self.phi_min_A <= 1e-10 * max(1.0, self.norm_AtA):
            raise ConfigError(
                "A is (numerically) column rank deficient: "
                f"smallest eigenvalue of A^T A is {self.phi_min_A:.3e}"
            )

    @property
    def q(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]


class Rows:
    """Feature and label rows of a validated index set, gathered once.

    Every loss method names its samples with Rows: a loss's `gather` builds
    them from an index array, and its `all_rows` is the full set over its
    stored arrays. len() is the row count.
    """

    __slots__ = ("index", "features", "labels")

    def __init__(self, index, features, labels):
        self.index = index
        self.features = features
        self.labels = labels

    def __len__(self):
        return self.index.size

    def take(self, positions):
        """Rows at `positions` (a slice or an index array) of this set, by
        each array's own indexing. Only a slice of dense features is a view;
        csr rows are always copied."""
        return Rows(self.index[positions], self.features[positions],
                    self.labels[positions])


def _nonzeros(feats):
    """(row, column, value) of every stored entry of a csr matrix."""
    rows = np.repeat(np.arange(feats.shape[0]), np.diff(feats.indptr))
    return rows, feats.indices, feats.data


class _LinearModelLoss:
    """Row handling shared by losses of a linear model.

    A component gradient is grad f_i(x) = c_i (x) a_i + s(x): per-sample
    coefficients c_i times the sample's feature row, plus a term s shared by
    every sample (None when the loss has none). Each loss's
    `coefficients(x, rows)` gives (c, s), `component_rows` rebuilds the rows
    from them, and `grad_matrix` is the two composed, so a row rebuilt later
    from stored coefficients is bitwise the row `grad_matrix` gave. Every
    method takes its samples as Rows: `gather` builds them from an index
    array, and `all_rows` is every sample, read from the stored arrays in
    place.

    The shared construction stores the features through `_as_matrix`,
    checks one label per row and builds `all_rows`. Each loss gives
    `lipschitz_bound(max_sq)`: its full gradient's Lipschitz constant from
    the largest squared feature-row norm.
    """

    def __init__(self, features, labels):
        self.features = _as_matrix(features)
        self.labels = labels
        if labels.shape[0] != self.features.shape[0]:
            raise ConfigError("feature/label count mismatch")
        self.all_rows = Rows(np.arange(self.n), self.features, labels)

    @property
    def n(self):
        return self.features.shape[0]

    def gather(self, index_set):
        """Rows of a 1-D integer index array, each index in [0, n): the one
        place an index array is checked, then taken from `all_rows`."""
        idx = np.asarray(index_set)
        if idx.ndim != 1 or idx.size == 0:
            raise InputError("index set must be a non-empty 1-D sequence")
        # refused, not read as a mask or truncated to indices
        if idx.dtype.kind not in "iu":
            raise InputError(f"index set must hold integers, got {idx.dtype}")
        if idx.min() < 0 or idx.max() >= self.n:
            raise InputError(f"sample index out of range [0, {self.n})")
        return self.all_rows.take(idx.astype(int, copy=False))

    def grad(self, x, rows):
        coef, shared = self.coefficients(x, rows)
        return self.component_mean(coef, rows.features, shared)

    def grad_matrix(self, x, rows):
        """Per-sample gradients stacked as rows (len(rows) x d)."""
        coef, shared = self.coefficients(x, rows)
        return self.component_rows(coef, rows.features, shared)

    def subtract_rows(self, out, coef, feats, shared):
        """out -= component_rows(coef, feats, shared), in place."""
        out -= self.component_rows(coef, feats, shared)


def _sigmoid_losses(scores, labels):
    # 1/(1+e^u) = expit(-u), overflow safe on both tails
    return expit(-(labels * scores))


class SigmoidLoss(_LinearModelLoss):
    """Average of per-sample sigmoid losses 1 / (1 + exp(b_i a_i^T x)).

    Nonconvex and smooth; values lie in (0, 1) for every sample.
    """

    def __init__(self, features, labels):
        labels = np.asarray(labels, dtype=float)
        if set(np.unique(labels)) - {-1.0, 1.0}:
            raise ConfigError("sigmoid loss labels must be in {-1, +1}")
        super().__init__(features, labels)

    @property
    def d(self):
        return self.features.shape[1]

    @staticmethod
    def lipschitz_bound(max_sq):
        # an upper bound up to the constant's 2.2e-12 (relative) margin
        return max_sq * SIGMOID_CURVATURE

    @staticmethod
    def _coef_from_losses(p, labels):
        """Per-row c_i with grad f_i(x) = c_i a_i."""
        return -labels * p * (1.0 - p)

    def coefficients(self, x, rows):
        p = _sigmoid_losses(rows.features @ x, rows.labels)
        return self._coef_from_losses(p, rows.labels), None

    def component_rows(self, coef, feats, shared=None):
        if sp.issparse(feats):
            return feats.multiply(coef[:, None]).toarray()
        return coef[:, None] * feats

    @staticmethod
    def component_mean(coef, feats, shared=None):
        """Mean of the component rows, from one product with the features."""
        return np.asarray(feats.T @ coef).ravel() / coef.size

    def value(self, x, rows):
        return float(np.mean(_sigmoid_losses(rows.features @ x, rows.labels)))

    def on_rows(self, features, labels):
        """This loss on other samples."""
        return SigmoidLoss(features, labels)

    def error_and_value(self, x):
        """(misclassification rate, value) over every stored sample, both
        from one product with the features; a score >= 0 predicts +1."""
        scores = np.asarray(self.features @ x).ravel()
        pred = np.where(scores >= 0, 1.0, -1.0)
        err = float(np.mean(pred != self.labels))
        return err, float(np.mean(_sigmoid_losses(scores, self.labels)))

    def value_and_grad(self, x, rows):
        """(value, grad), both from one product with the rows."""
        p = _sigmoid_losses(rows.features @ x, rows.labels)
        coef = self._coef_from_losses(p, rows.labels)
        return float(np.mean(p)), self.component_mean(coef, rows.features)


class SmoothedMultiTaskLoss(_LinearModelLoss):
    """Multinomial logistic loss plus the smoothed log-sum sparsity penalty.

    Operates on x = vec(X) with X of shape (classes, d_features); the penalty
    nu1 * (sum kappa(|X_ij|) - kappa0 ||X||_1) with kappa(a) = beta*log(1+a/theta)
    is concave, nonpositive, and C^1 with gradient 0 at X = 0.

    A component gradient is P_i (x) a_i + penalty_grad(X): the softmax
    residual P_i of the sample, one coefficient per class, and the penalty
    gradient as the term every sample shares. Features are stored as csr.
    """

    def __init__(self, features, labels, classes, nu1, beta=1.0, theta=1.0):
        if not all(math.isfinite(v) for v in (nu1, beta, theta)):
            raise ConfigError("nu1, beta and theta must be finite numbers")
        if beta <= 0 or theta <= 0:
            raise ConfigError("log-sum parameters beta, theta must be > 0")
        if nu1 < 0:
            raise ConfigError("penalty weight nu1 must be >= 0")
        labels = np.asarray(labels, dtype=float)
        # a fraction is refused, not truncated; so is a NaN
        if not np.all((labels == np.floor(labels)) & (0 <= labels) & (labels < classes)):
            raise ConfigError("class labels must be whole numbers in [0, classes)")
        super().__init__(sp.csr_matrix(features), labels.astype(int))
        self.classes = int(classes)
        self.nu1, self.beta, self.theta = float(nu1), float(beta), float(theta)

    @property
    def kappa0(self):
        return self.beta / self.theta

    @property
    def d_features(self):
        return self.features.shape[1]

    @property
    def d(self):
        return self.classes * self.d_features

    def lipschitz_bound(self, max_sq):
        # softmax hessian norm <= ||a||^2 / 2; penalty curvature <= nu1*beta/theta^2
        return max_sq * 0.5 + self.nu1 * self.beta / self.theta**2

    def _as_X(self, x):
        return np.asarray(x, dtype=float).reshape(self.classes, self.d_features)

    def penalty_value(self, X):
        absX = np.abs(X)
        kap = self.beta * np.log1p(absX / self.theta)
        return self.nu1 * float(kap.sum() - self.kappa0 * absX.sum())

    def penalty_grad(self, X):
        absX = np.abs(X)
        return self.nu1 * np.sign(X) * (
            self.beta / (self.theta + absX) - self.beta / self.theta
        )

    @staticmethod
    def _mean_nll(Z, labels):
        lse = logsumexp(Z, axis=1)
        picked = Z[np.arange(labels.size), labels]
        return float(np.mean(lse - picked))

    @staticmethod
    def _softmax_residual(Z, labels):
        """softmax(Z) - onehot(labels)."""
        P = softmax(Z, axis=1)
        P[np.arange(labels.size), labels] -= 1.0
        return P

    def coefficients(self, x, rows):
        X = self._as_X(x)
        P = self._softmax_residual(np.asarray(rows.features @ X.T), rows.labels)
        return P, self.penalty_grad(X)

    def component_rows(self, P, feats, shared):
        """Rows P_i (x) a_i + shared; shared is one (classes, d_features)
        term for every row or one per row."""
        G = np.empty((len(P), self.classes, self.d_features))
        np.add(shared, 0.0, out=G)
        return self.add_products(P, feats, G)

    def add_products(self, P, feats, G):
        """Rows P_i (x) a_i + G_i, written into G and returned as len(P) x d.

        G is (len(P), classes, d_features) and holds each row's shared term
        s plus 0.0, which turns -0.0 into +0.0 and changes nothing else. The
        rows are then bitwise `einsum("ic,ij->icj", P, dense feats) + s`:
        einsum forms each product as 0.0 + P_ic a_ij, which is +0.0 at a
        zero feature, and (0.0 + p) + s equals p + (s + 0.0) for every p and
        s. So the csr features add their stored entries' products only;
        every other entry keeps s + 0.0.
        """
        flat, _, prod = self._stored_products(P, *_nonzeros(feats))
        G = G.reshape(-1)
        prod += G[flat]
        G[flat] = prod
        return G.reshape(len(P), self.d)

    def subtract_rows(self, out, P, feats, shared):
        """out -= component_rows(P, feats, shared), in place.

        The rows are not rebuilt: `out` first loses shared + 0.0
        everywhere, the rows' value off their stored entries (see
        `add_products`); the stored entries are then set to the old value
        minus the new one.
        """
        flat, cell, prod = self._stored_products(P, *_nonzeros(feats))
        shared = (shared + 0.0).ravel()
        prod += shared[cell]
        out_flat = out.reshape(-1)
        old = out_flat[flat]
        out -= shared
        out_flat[flat] = old - prod

    def _stored_products(self, P, row, col, val):
        """Flat places, in a (len(P), classes, d_features) array, of every
        class at the stored features (row, col, val), their places in one
        (classes, d_features) term, and the products P[row, c] * val."""
        cell = np.arange(self.classes) * self.d_features + col[:, None]
        flat = cell + (row * self.d)[:, None]
        return flat, cell, P[row] * val[:, None]

    @staticmethod
    def component_mean(P, feats, shared):
        """Mean of the component rows, from one product with the features;
        shared is one (classes, d_features) term, the rows' mean one."""
        G = np.asarray(P.T @ feats) / len(P)
        G += shared
        return G.ravel()

    def value(self, x, rows):
        X = self._as_X(x)
        Z = np.asarray(rows.features @ X.T)
        return self._mean_nll(Z, rows.labels) + self.penalty_value(X)

    def on_rows(self, features, labels):
        """This loss, with its classes and penalty, on other samples."""
        return SmoothedMultiTaskLoss(
            features, labels, self.classes, self.nu1,
            beta=self.beta, theta=self.theta,
        )

    def error_and_value(self, x):
        """(misclassification rate, value) over every stored sample, both
        from one product with the features; the top score's class is the
        prediction."""
        X = self._as_X(x)
        scores = np.asarray(self.features @ X.T)
        err = float(np.mean(scores.argmax(axis=1) != self.labels))
        return err, self._mean_nll(scores, self.labels) + self.penalty_value(X)

    def value_and_grad(self, x, rows):
        """(value, grad), both from one product with the rows."""
        X = self._as_X(x)
        Z = np.asarray(rows.features @ X.T)
        value = self._mean_nll(Z, rows.labels) + self.penalty_value(X)
        P = self._softmax_residual(Z, rows.labels)
        return value, self.component_mean(P, rows.features, self.penalty_grad(X))


@dataclass(frozen=True)
class L1Block:
    start: int
    stop: int
    weight: float

    def value(self, y):
        return self.weight * float(np.abs(y).sum())

    def prox(self, v, scale):
        return prox_l1(v, self.weight * scale)

    def subgrad_dist_sq(self, v, y, w):
        """dist(v, subdifferential at y)^2, exact; w is not read."""
        return l1_subgrad_dist_sq(v, y, self.weight)


@dataclass(frozen=True)
class NuclearNormBlock:
    start: int
    stop: int
    weight: float
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows * self.cols != self.stop - self.start:
            raise ConfigError(
                "nuclear-norm block length must equal rows * cols"
            )

    def value(self, y):
        s = np.linalg.svd(y.reshape(self.rows, self.cols), compute_uv=False)
        return self.weight * float(s.sum())

    def prox(self, v, scale):
        V = v.reshape(self.rows, self.cols)
        return prox_nuclear(V, self.weight * scale).ravel()

    def subgrad_dist_sq(self, v, y, w):
        """The proof-side surrogate ||w||^2, w = rho * -(A (x - x_prev))."""
        return float(w @ w)


class BlockSeparableRegularizer:
    """g(y) = sum of per-block l1 / nuclear-norm terms.

    Block row-ranges must partition [0, p) contiguously and in order.
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise ConfigError("regularizer needs at least one block")
        pos = 0
        for blk in blocks:
            if blk.start != pos or blk.stop <= blk.start:
                raise ConfigError(
                    "block row-ranges must be contiguous and cover [0, p)"
                )
            if not (math.isfinite(blk.weight) and blk.weight >= 0):
                raise ConfigError(
                    f"block weights must be finite and >= 0, got {blk.weight!r}"
                )
            pos = blk.stop
        self.blocks = blocks
        self.p = pos

    @classmethod
    def l1(cls, p, weight):
        return cls([L1Block(0, p, weight)])

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return sum(blk.value(y[blk.start : blk.stop]) for blk in self.blocks)

    def prox(self, v, scale):
        """argmin_y g(y) + (1 / (2*scale)) ||y - v||^2, blockwise."""
        v = np.asarray(v, dtype=float)
        out = np.empty_like(v)
        for blk in self.blocks:
            out[blk.start : blk.stop] = blk.prox(v[blk.start : blk.stop], scale)
        return out


def prox_l1(v, threshold):
    """Coordinatewise soft threshold: sign(v) * max(|v| - t, 0)."""
    if threshold < 0:
        raise InputError("l1 prox threshold must be >= 0")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def l1_subgrad_dist_sq(v, y, weight):
    """Squared distance of v to the subdifferential of weight*||.||_1 at y:
    coordinates with y_i != 0 pin the subgradient to weight*sign(y_i), zero
    coordinates allow the full box [-weight, weight]."""
    pinned = np.abs(v - weight * np.sign(y))
    boxed = np.maximum(np.abs(v) - weight, 0.0)
    per_coord = np.where(y != 0.0, pinned, boxed)
    return float(per_coord @ per_coord)


def prox_nuclear(V, threshold):
    """Singular-value soft threshold from a full SVD of V."""
    if threshold < 0:
        raise InputError("nuclear prox threshold must be >= 0")
    V = np.asarray(V, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(V, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed in nuclear prox: {exc}") from exc
    return (U * np.maximum(s - threshold, 0.0)) @ Vt


@dataclass
class CompositeProblem:
    """Smooth component-wise loss + block-separable regularizer + constraints."""

    loss: object
    regularizer: BlockSeparableRegularizer
    constraints: ConstraintSystem

    def __post_init__(self):
        if self.loss.d != self.constraints.d:
            raise ConfigError(
                f"loss dimension {self.loss.d} != constraint columns "
                f"{self.constraints.d}"
            )
        if self.regularizer.p != self.constraints.q:
            raise ConfigError(
                f"regularizer dimension {self.regularizer.p} != constraint rows "
                f"{self.constraints.q}"
            )

    @property
    def n(self):
        return self.loss.n

    @property
    def d(self):
        return self.loss.d

    @property
    def p(self):
        return self.regularizer.p

    def grad(self, x, rows=None):
        """Mean gradient over Rows of the loss, every sample by default."""
        return self.loss.grad(x, self.loss.all_rows if rows is None else rows)

    def grad_matrix(self, x, rows):
        return self.loss.grad_matrix(x, rows)


def build_graph_guided_A(edges, d):
    """Constraint system for the graph-guided fused lasso on d features.

    `edges` is (ii, jj): distinct pairs i < j in row-major order, as
    `np.nonzero(np.triu(support, 1))` lists a symmetric support's. One row
    e_i^T - e_j^T per edge, followed by an identity block so A has full
    column rank even for dense graphs; c = 0.
    """
    ii, jj = (np.asarray(e, dtype=np.intp) for e in edges)
    if ii.ndim != 1 or ii.shape != jj.shape:
        raise InputError("edges must be two 1-D index arrays of one length")
    # with 0 <= i < j < d, keys i*d + j increase iff pairs are distinct, in order
    if ii.size and not (0 <= ii.min() and jj.max() < d and (ii < jj).all()
                        and (np.diff(ii * d + jj) > 0).all()):
        raise InputError(f"edges must be distinct 0 <= i < j < d={d}, row-major")
    n_edges = ii.size
    q = n_edges + d
    rows = np.concatenate([np.arange(n_edges)] * 2 + [n_edges + np.arange(d)])
    cols = np.concatenate([ii, jj, np.arange(d)])
    vals = np.concatenate([np.ones(n_edges), -np.ones(n_edges), np.ones(d)])
    A = sp.csr_matrix((vals, (rows, cols)), shape=(q, d))
    return ConstraintSystem(A, np.zeros(q))


def build_overlap_A(d, k):
    """Stacked-identity constraint A = [I; ...; I] (k copies), c = 0."""
    if k < 1:
        raise ConfigError("number of overlapping copies k must be >= 1")
    check_count(k * d, f"overlap constraint of k={k} copies x d={d}")
    A = sp.vstack([sp.identity(d, format="csr")] * k, format="csr")
    return ConstraintSystem(A, np.zeros(k * d))


def build_multitask_constraints(m, d, nu1, nu2, kappa0):
    """A = [I; I] on vec(X) plus the l1 / nuclear split regularizer.

    Block 1 is l1 with weight nu1*kappa0 on the first m*d rows of y, block 2
    is the nuclear norm of the (m, d) reshape with weight nu2.
    """
    if m < 1 or d < 1:
        raise ConfigError("m and d must be >= 1")
    md = m * d
    cs = build_overlap_A(md, 2)
    reg = BlockSeparableRegularizer(
        [
            L1Block(0, md, nu1 * kappa0),
            NuclearNormBlock(md, 2 * md, nu2, m, d),
        ]
    )
    return cs, reg
