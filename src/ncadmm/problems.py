"""Losses, regularizers, constraint systems and proximal operators.

Everything here is read-only after construction, so instances can be shared
freely between solver runs and diagnostic code.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, logsumexp

from .exceptions import ConfigError, InputError, NumericalError

_SPARSE_DENSITY_CUTOFF = 0.10


def _as_matrix(A):
    """Return A as csr when it is sparse enough, dense float array otherwise."""
    if sp.issparse(A):
        A = A.tocsr().astype(float)
        # one stored entry per position, as the row rebuilds assume
        A.sum_duplicates()
        density = A.nnz / (A.shape[0] * A.shape[1])
        if density >= _SPARSE_DENSITY_CUTOFF:
            return A.toarray()
        return A
    A = np.asarray(A, dtype=float)
    if A.size >= 4:
        density = np.count_nonzero(A) / A.size
        if density < _SPARSE_DENSITY_CUTOFF:
            return sp.csr_matrix(A)
    return A


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

    def residual(self, x, y):
        """Ax - y - c."""
        return self.A @ x - y - self.c


def _check_index_set(index_set, n):
    idx = np.asarray(index_set, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise InputError("index set must be a non-empty 1-D sequence")
    if idx.min() < 0 or idx.max() >= n:
        raise InputError(f"sample index out of range [0, {n})")
    return idx


class Rows:
    """Feature and label rows of a validated index set, gathered once.

    Pass it wherever an index set goes to reuse the same rows across calls;
    len() is its row count.
    """

    __slots__ = ("index", "features", "labels")

    def __init__(self, index, features, labels):
        self.index = index
        self.features = features
        self.labels = labels

    def __len__(self):
        return self.index.size

    def take(self, positions):
        """Rows at `positions` (a slice or an index array) of this set.

        Positions 0..len-1 in order return this set itself, not a copy.
        """
        if isinstance(positions, slice):
            positions = np.arange(len(self))[positions]
        elif np.array_equal(positions, np.arange(len(self))):
            return self
        return Rows(
            self.index[positions],
            _take_features(self.features, positions),
            self.labels[positions],
        )


def _take_features(features, idx):
    """Feature rows idx. A csr matrix is sliced with numpy from its indptr,
    indices and data: the arrays scipy's row index builds, for a fraction of
    its per-call cost."""
    if not sp.issparse(features):
        return features[idx]
    indptr = features.indptr
    starts = indptr[idx]
    counts = indptr[idx + 1] - starts
    ptr = np.zeros(idx.size + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=ptr[1:])
    pos = np.arange(ptr[-1], dtype=indptr.dtype) + np.repeat(starts - ptr[:-1], counts)
    return type(features)(
        (features.data[pos], features.indices[pos], ptr),
        shape=(idx.size, features.shape[1]),
    )


def _nonzeros(feats):
    """(row, column, value) of every stored entry of a csr matrix."""
    rows = np.repeat(np.arange(feats.shape[0]), np.diff(feats.indptr))
    return rows, feats.indices, feats.data


def _gather(features, labels, index_set):
    """Rows of an index set; already gathered Rows pass through.

    The full index set in order, arange(n), selects the stored arrays
    themselves, without a copy; any other set is gathered once.
    """
    if isinstance(index_set, Rows):
        return index_set
    n = features.shape[0]
    idx = _check_index_set(index_set, n)
    if idx.size == n and np.array_equal(idx, np.arange(n)):
        return Rows(idx, features, labels)
    return Rows(idx, _take_features(features, idx), labels[idx])


def _select_rows(features, labels, index_set):
    """Validated (features, labels) rows of an index set or of Rows."""
    rows = _gather(features, labels, index_set)
    return rows.features, rows.labels


class _LinearModelLoss:
    """Row handling shared by losses of a linear model.

    A component gradient is grad f_i(x) = c_i (x) a_i + s(x): per-sample
    coefficients c_i times the sample's feature row, plus a term s shared by
    every sample (None when the loss has none). `coefficients` gives (c, s),
    `component_rows` rebuilds the rows from them, and `grad_matrix` is the
    two composed, so a row rebuilt later from stored coefficients is
    bitwise the row `grad_matrix` gave.
    """

    @property
    def n(self):
        return self.features.shape[0]

    def gather(self, index_set):
        return _gather(self.features, self.labels, index_set)

    def coefficients(self, x, index_set):
        feats, labels = _select_rows(self.features, self.labels, index_set)
        return self._coefficients(x, feats, labels)

    def grad(self, x, index_set):
        feats, labels = _select_rows(self.features, self.labels, index_set)
        coef, shared = self._coefficients(x, feats, labels)
        return self.component_mean(coef, feats, shared)

    def grad_matrix(self, x, index_set):
        """Per-sample gradients stacked as rows (|I| x d)."""
        feats, labels = _select_rows(self.features, self.labels, index_set)
        coef, shared = self._coefficients(x, feats, labels)
        return self.component_rows(coef, feats, shared)

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
        self.features = _as_matrix(features)
        self.labels = np.asarray(labels, dtype=float)
        if set(np.unique(self.labels)) - {-1.0, 1.0}:
            raise ConfigError("sigmoid loss labels must be in {-1, +1}")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ConfigError("feature/label count mismatch")

    @property
    def d(self):
        return self.features.shape[1]

    @staticmethod
    def _coef_from_losses(p, labels):
        """Per-row c_i with grad f_i(x) = c_i a_i."""
        return -labels * p * (1.0 - p)

    def _coefficients(self, x, feats, labels):
        p = _sigmoid_losses(feats @ x, labels)
        return self._coef_from_losses(p, labels), None

    def component_rows(self, coef, feats, shared=None):
        if sp.issparse(feats):
            return feats.multiply(coef[:, None]).toarray()
        return coef[:, None] * feats

    @staticmethod
    def component_mean(coef, feats, shared=None):
        """Mean of the component rows, from one product with the features."""
        return np.asarray(feats.T @ coef).ravel() / coef.size

    def value(self, x, index_set):
        feats, labels = _select_rows(self.features, self.labels, index_set)
        return float(np.mean(_sigmoid_losses(feats @ x, labels)))

    def value_from_scores(self, x, scores):
        """value over every stored sample, given scores = features @ x."""
        return float(np.mean(_sigmoid_losses(scores, self.labels)))

    def value_and_grad(self, x, index_set):
        """(value, grad), both from one product with the rows."""
        feats, labels = _select_rows(self.features, self.labels, index_set)
        p = _sigmoid_losses(feats @ x, labels)
        grad = self.component_mean(self._coef_from_losses(p, labels), feats)
        return float(np.mean(p)), grad


class SmoothedMultiTaskLoss(_LinearModelLoss):
    """Multinomial logistic loss plus the smoothed log-sum sparsity penalty.

    Operates on x = vec(X) with X of shape (classes, d_features); the penalty
    nu1 * (sum kappa(|X_ij|) - kappa0 ||X||_1) with kappa(a) = beta*log(1+a/theta)
    is concave, nonpositive, and C^1 with gradient 0 at X = 0.

    A component gradient is P_i (x) a_i + penalty_grad(X): the softmax
    residual P_i of the sample, one coefficient per class, and the penalty
    gradient as the term every sample shares.
    """

    def __init__(self, features, labels, classes, nu1, beta=1.0, theta=1.0):
        if beta <= 0 or theta <= 0:
            raise ConfigError("log-sum parameters beta, theta must be > 0")
        if nu1 < 0:
            raise ConfigError("penalty weight nu1 must be >= 0")
        self.features = _as_matrix(features)
        self.labels = np.asarray(labels, dtype=int)
        self.classes = int(classes)
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= classes
        ):
            raise ConfigError("class labels must lie in [0, classes)")
        self.nu1 = float(nu1)
        self.beta = float(beta)
        self.theta = float(theta)

    @property
    def kappa0(self):
        return self.beta / self.theta

    @property
    def d_features(self):
        return self.features.shape[1]

    @property
    def d(self):
        return self.classes * self.d_features

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
        """softmax(Z) - onehot(labels); shifts Z in place."""
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        P[np.arange(labels.size), labels] -= 1.0
        return P

    def _coefficients(self, x, feats, labels):
        X = self._as_X(x)
        P = self._softmax_residual(np.asarray(feats @ X.T), labels)
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
        s. So sparse features add their stored entries' products only; every
        other entry keeps s + 0.0.
        """
        if not sp.issparse(feats):
            G += np.einsum("ic,ij->icj", P, feats)
            return G.reshape(len(P), self.d)
        flat, _, prod = self._stored_products(P, *_nonzeros(feats))
        G = G.reshape(-1)
        prod += G[flat]
        G[flat] = prod
        return G.reshape(len(P), self.d)

    def subtract_rows(self, out, P, feats, shared):
        """out -= component_rows(P, feats, shared), in place.

        Sparse rows skip the rebuild: `out` first loses shared + 0.0
        everywhere, the rows' value off their stored entries (see
        `add_products`); the stored entries are then set to the old value
        minus the new one.
        """
        if not sp.issparse(feats):
            return super().subtract_rows(out, P, feats, shared)
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

    def value(self, x, index_set):
        feats, labels = _select_rows(self.features, self.labels, index_set)
        X = self._as_X(x)
        Z = np.asarray(feats @ X.T)
        return self._mean_nll(Z, labels) + self.penalty_value(X)

    def value_from_scores(self, x, scores):
        """value over every stored sample, given scores = features @ X^T."""
        return self._mean_nll(scores, self.labels) + self.penalty_value(
            self._as_X(x)
        )

    def value_and_grad(self, x, index_set):
        """(value, grad), both from one product with the rows."""
        feats, labels = _select_rows(self.features, self.labels, index_set)
        X = self._as_X(x)
        Z = np.asarray(feats @ X.T)
        value = self._mean_nll(Z, labels) + self.penalty_value(X)
        P = self._softmax_residual(Z, labels)
        return value, self.component_mean(P, feats, self.penalty_grad(X))


@dataclass(frozen=True)
class L1Block:
    start: int
    stop: int
    weight: float
    kind: str = field(default="l1", init=False)

    def value(self, y):
        return self.weight * float(np.abs(y).sum())

    def prox(self, v, scale):
        return prox_l1(v, self.weight * scale)


@dataclass(frozen=True)
class NuclearNormBlock:
    start: int
    stop: int
    weight: float
    rows: int
    cols: int
    kind: str = field(default="nuclear", init=False)

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
            if blk.weight < 0:
                raise ConfigError("block weights must be >= 0")
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

    def full_index_set(self):
        return np.arange(self.n)

    def smooth_value(self, x, index_set=None):
        if index_set is None:
            index_set = self.full_index_set()
        return self.loss.value(x, index_set)

    def grad(self, x, index_set=None):
        if index_set is None:
            index_set = self.full_index_set()
        return self.loss.grad(x, index_set)

    def value_and_grad(self, x, index_set=None):
        if index_set is None:
            index_set = self.full_index_set()
        return self.loss.value_and_grad(x, index_set)

    def gather(self, index_set):
        return self.loss.gather(index_set)

    def grad_matrix(self, x, index_set):
        return self.loss.grad_matrix(x, index_set)

    def reg_value(self, y):
        return self.regularizer.value(y)

    def objective(self, x, y):
        """f(x) + g(y), the constrained-form objective."""
        return self.smooth_value(x) + self.reg_value(y)

    def objective_x(self, x):
        """f(x) + g(Ax). Only meaningful for c = 0."""
        return self.smooth_value(x) + self.reg_value(self.constraints.A @ x)


def build_graph_guided_A(precision_support):
    """Constraint system for the graph-guided fused lasso.

    One row e_i^T - e_j^T per upper-triangle edge of the support, followed by
    an identity block so A has full column rank even for dense graphs; c = 0.
    """
    S = np.asarray(precision_support, dtype=bool)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError("precision support must be a square matrix")
    if not np.array_equal(S, S.T):
        raise InputError("precision support must be symmetric")
    d = S.shape[0]
    ii, jj = np.nonzero(np.triu(S, k=1))
    n_edges = ii.size
    q = n_edges + d
    rows = np.concatenate(
        [np.arange(n_edges), np.arange(n_edges), n_edges + np.arange(d)]
    )
    cols = np.concatenate([ii, jj, np.arange(d)])
    vals = np.concatenate(
        [np.ones(n_edges), -np.ones(n_edges), np.ones(d)]
    )
    A = sp.csr_matrix((vals, (rows, cols)), shape=(q, d))
    return ConstraintSystem(A, np.zeros(q))


def build_overlap_A(d, k):
    """Stacked-identity constraint A = [I; ...; I] (k copies), c = 0."""
    if k < 1:
        raise ConfigError("number of overlapping copies k must be >= 1")
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
