import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ncadmm import problems
from ncadmm.exceptions import ConfigError, InputError

from conftest import dense_AtA, make_graph_guided_problem


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


class TestProx:
    def test_l1_known_values(self):
        v = np.array([3.0, -2.0, 0.5, 0.0])
        out = problems.prox_l1(v, 1.0)
        assert np.allclose(out, [2.0, -1.0, 0.0, 0.0])

    def test_l1_zero_threshold_is_identity(self, rng):
        v = rng.standard_normal(20)
        assert np.array_equal(problems.prox_l1(v, 0.0), v)

    def test_l1_negative_threshold_rejected(self):
        with pytest.raises(InputError):
            problems.prox_l1(np.ones(3), -0.1)

    def test_nuclear_diagonal_matches_l1_on_singular_values(self):
        V = np.diag([3.0, 1.5, 0.2])
        out = problems.prox_nuclear(V, 1.0)
        assert np.allclose(out, np.diag([2.0, 0.5, 0.0]), atol=1e-12)

    def test_nuclear_shrinks_singular_values(self, rng):
        V = rng.standard_normal((4, 6))
        t = 0.3
        out = problems.prox_nuclear(V, t)
        s_in = np.linalg.svd(V, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        assert np.allclose(s_out, np.maximum(s_in - t, 0.0), atol=1e-10)


_EPS = np.finfo(float).eps


class TestProxOptimality:
    """v - prox(v) lies in t times the subdifferential of the norm at prox(v)."""

    @settings(max_examples=200, deadline=None)
    @given(
        v=hnp.arrays(float, st.integers(1, 12), elements=st.floats(-1e6, 1e6)),
        t=st.floats(0.0, 1e6),
    )
    def test_l1(self, v, t):
        p = problems.prox_l1(v, t)
        g = v - p
        zero = p == 0.0
        # at 0 the subdifferential of |.| is [-1, 1]
        assert np.all(np.abs(v[zero]) <= t)
        # elsewhere it is sign(p), up to the rounding of |v| - t
        nz = ~zero
        assert np.array_equal(np.sign(p[nz]), np.sign(v[nz]))
        tol = 2.0 * _EPS * np.maximum(np.abs(v[nz]), t)
        assert np.all(np.abs(g[nz] - t * np.sign(p[nz])) <= tol)

    @settings(max_examples=200, deadline=None)
    @given(
        V=hnp.arrays(
            float, st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-10.0, 10.0),
        ),
        t=st.floats(0.0, 10.0),
    )
    def test_nuclear(self, V, t):
        P = problems.prox_nuclear(V, t)
        G = V - P
        scale = max(1.0, float(np.linalg.norm(V, 2)))
        tol = 1e-8 * scale
        # the subdifferential of the nuclear norm at P = U_r S_r V_r^T is
        # U_r V_r^T + W with U_r^T W = 0, W V_r = 0 and ||W||_2 <= 1
        U, s, Vt = np.linalg.svd(P)
        r = int(np.count_nonzero(s > 1e-6 * scale))
        Ur, Vr = U[:, :r], Vt[:r].T
        assert np.linalg.norm(G @ Vr - t * Ur) <= tol
        assert np.linalg.norm(Ur.T @ G - t * Vr.T) <= tol
        assert np.linalg.norm(G, 2) <= t + tol


class TestSigmoidLoss:
    def test_labels_validated(self, rng):
        with pytest.raises(ConfigError):
            problems.SigmoidLoss(rng.standard_normal((5, 3)), np.arange(5.0))

    def test_value_range(self, rng):
        loss = problems.SigmoidLoss(
            rng.standard_normal((30, 4)),
            np.where(rng.random(30) < 0.5, -1.0, 1.0),
        )
        v = loss.value(rng.standard_normal(4), np.arange(30))
        assert 0.0 < v < 1.0

    def test_grad_matches_finite_differences(self, rng):
        feats = rng.standard_normal((20, 5))
        labels = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        loss = problems.SigmoidLoss(feats, labels)
        x = rng.standard_normal(5)
        idx = np.arange(20)
        g = loss.grad(x, idx)
        g_num = numeric_grad(lambda z: loss.value(z, idx), x)
        assert np.allclose(g, g_num, atol=1e-8)

    def test_grad_matrix_mean_equals_grad(self, rng):
        feats = rng.standard_normal((15, 4))
        labels = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        loss = problems.SigmoidLoss(feats, labels)
        x = rng.standard_normal(4)
        idx = np.arange(15)
        assert np.allclose(
            loss.grad_matrix(x, idx).mean(axis=0), loss.grad(x, idx), atol=1e-14
        )

    def test_sparse_features_agree_with_dense(self, rng):
        dense = rng.standard_normal((12, 6))
        dense[rng.random((12, 6)) < 0.92] = 0.0
        labels = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        a = problems.SigmoidLoss(dense, labels)
        b = problems.SigmoidLoss(sp.csr_matrix(dense), labels)
        x = rng.standard_normal(6)
        idx = np.arange(12)
        assert np.allclose(a.grad(x, idx), b.grad(x, idx), atol=1e-12)

    def test_index_bounds_checked(self, rng):
        loss = problems.SigmoidLoss(rng.standard_normal((5, 2)), np.ones(5))
        with pytest.raises(InputError):
            loss.value(np.zeros(2), [0, 5])


class TestMultiTaskLoss:
    def make(self, rng, n=18, d=4, m=3, nu1=1e-3):
        feats = rng.standard_normal((n, d))
        labels = rng.integers(0, m, size=n)
        return problems.SmoothedMultiTaskLoss(feats, labels, m, nu1)

    def test_grad_matches_finite_differences(self, rng):
        loss = self.make(rng)
        x = rng.standard_normal(loss.d) * 0.5
        idx = np.arange(loss.n)
        g = loss.grad(x, idx)
        g_num = numeric_grad(lambda z: loss.value(z, idx), x)
        assert np.allclose(g, g_num, atol=1e-7)

    def test_penalty_nonpositive_and_zero_at_origin(self, rng):
        loss = self.make(rng)
        X = rng.standard_normal((3, 4))
        assert loss.penalty_value(X) <= 0.0
        assert loss.penalty_value(np.zeros((3, 4))) == 0.0
        assert np.allclose(loss.penalty_grad(np.zeros((3, 4))), 0.0)

    def test_grad_matrix_mean_equals_grad(self, rng):
        loss = self.make(rng)
        x = rng.standard_normal(loss.d)
        idx = np.arange(loss.n)
        assert np.allclose(
            loss.grad_matrix(x, idx).mean(axis=0), loss.grad(x, idx), atol=1e-12
        )

    def test_bad_class_labels_rejected(self, rng):
        with pytest.raises(ConfigError):
            problems.SmoothedMultiTaskLoss(
                rng.standard_normal((4, 2)), np.array([0, 1, 2, 3]), 3, 1e-3
            )


class TestFullIndexSet:
    """The full index set reads the stored rows in place; every result must
    be bitwise what the same formulas give on an explicitly gathered copy."""

    @staticmethod
    def make(kind, layout, rng, n=60, d=9, classes=3):
        feats = rng.standard_normal((n, d))
        # losses store features below 10% density as csr, others dense
        feats[rng.random((n, d)) < (0.95 if layout == "csr" else 0.5)] = 0.0
        if layout == "csr":
            feats = sp.csr_matrix(feats)
        if kind == "sigmoid":
            labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            return problems.SigmoidLoss(feats, labels)
        labels = rng.integers(0, classes, size=n)
        return problems.SmoothedMultiTaskLoss(feats, labels, classes, 1e-3)

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_bitwise_equal_to_gathered_rows(self, kind, layout, rng, monkeypatch):
        loss = self.make(kind, layout, rng)
        assert sp.issparse(loss.features) == (layout == "csr")
        x = rng.standard_normal(loss.d)
        full = np.arange(loss.n)
        fast = (loss.value(x, full), loss.grad(x, full), loss.grad_matrix(x, full))

        def gather(features, labels, index_set):
            idx = np.asarray(index_set, dtype=int)
            return features[idx], labels[idx]

        monkeypatch.setattr(problems, "_select_rows", gather)
        ref = (loss.value(x, full), loss.grad(x, full), loss.grad_matrix(x, full))
        assert fast[0] == ref[0]
        assert np.array_equal(fast[1], ref[1])
        assert np.array_equal(fast[2], ref[2])

    def test_full_set_selects_stored_rows(self, rng):
        loss = self.make("sigmoid", "dense", rng)
        feats, labels = problems._select_rows(
            loss.features, loss.labels, np.arange(loss.n)
        )
        assert feats is loss.features and labels is loss.labels
        # a reordered or repeated set of the same size is gathered
        perm = np.arange(loss.n)[::-1]
        feats, _ = problems._select_rows(loss.features, loss.labels, perm)
        assert feats is not loss.features
        assert np.array_equal(feats, loss.features[perm])

    def test_full_set_still_validated(self, rng):
        loss = self.make("sigmoid", "dense", rng)
        with pytest.raises(InputError):
            loss.grad(np.zeros(loss.d), np.arange(loss.n) + 1)


class TestOnePass:
    """value_and_grad, value_from_scores and gathered Rows give bitwise the
    numbers of the separate calls they replace."""

    make = staticmethod(TestFullIndexSet.make)

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_value_and_grad_equal_separate_calls(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        x = rng.standard_normal(loss.d)
        for idx in (np.arange(loss.n), rng.integers(0, loss.n, size=17)):
            value, grad = loss.value_and_grad(x, idx)
            assert value == loss.value(x, idx)
            assert np.array_equal(grad, loss.grad(x, idx))

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_value_from_scores_equals_value(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        x = rng.standard_normal(loss.d)
        if kind == "sigmoid":
            scores = np.asarray(loss.features @ x).ravel()
        else:
            scores = np.asarray(loss.features @ x.reshape(loss.classes, -1).T)
        assert loss.value_from_scores(x, scores) == loss.value(x, np.arange(loss.n))

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_gathered_rows_serve_every_call(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        x = rng.standard_normal(loss.d)
        idx = np.array([4, 4, 0, 17, 3])
        rows = loss.gather(idx)
        assert len(rows) == idx.size and loss.gather(rows) is rows
        assert loss.value(x, rows) == loss.value(x, idx)
        assert np.array_equal(loss.grad(x, rows), loss.grad(x, idx))
        assert np.array_equal(loss.grad_matrix(x, rows), loss.grad_matrix(x, idx))

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    def test_component_rows_rebuild_grad_matrix(self, kind, rng):
        loss = self.make(kind, "csr", rng)
        x = rng.standard_normal(loss.d)
        rows = loss.gather(rng.integers(0, loss.n, size=9))
        coef, shared = loss.coefficients(x, rows)
        assert np.array_equal(
            loss.component_rows(coef, rows.features, shared),
            loss.grad_matrix(x, rows),
        )

    def test_take_in_order_is_the_same_rows(self, rng):
        loss = self.make("sigmoid", "dense", rng)
        rows = loss.gather(np.array([5, 2, 9]))
        assert rows.take(np.arange(3)) is rows
        assert np.array_equal(rows.take(np.array([2, 0])).index, [9, 5])


class TestRegularizer:
    def test_blocks_must_be_contiguous(self):
        with pytest.raises(ConfigError):
            problems.BlockSeparableRegularizer(
                [problems.L1Block(0, 3, 1.0), problems.L1Block(4, 6, 1.0)]
            )

    def test_value_and_prox_blockwise(self, rng):
        reg = problems.BlockSeparableRegularizer(
            [
                problems.L1Block(0, 4, 0.5),
                problems.NuclearNormBlock(4, 10, 0.2, 2, 3),
            ]
        )
        v = rng.standard_normal(10)
        expected = 0.5 * np.abs(v[:4]).sum() + 0.2 * np.linalg.svd(
            v[4:].reshape(2, 3), compute_uv=False
        ).sum()
        assert np.isclose(reg.value(v), expected)
        out = reg.prox(v, 2.0)
        assert np.allclose(out[:4], problems.prox_l1(v[:4], 1.0))
        assert np.allclose(
            out[4:], problems.prox_nuclear(v[4:].reshape(2, 3), 0.4).ravel()
        )

    def test_nuclear_block_shape_checked(self):
        with pytest.raises(ConfigError):
            problems.NuclearNormBlock(0, 5, 1.0, 2, 3)


class TestConstraintSystem:
    def test_rank_deficient_rejected(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ConfigError):
            problems.ConstraintSystem(A, np.zeros(2))

    def test_spectral_cache(self):
        cs = problems.build_overlap_A(3, 2)
        assert np.isclose(cs.phi_min_A, 2.0)
        assert np.isclose(cs.norm_AtA, 2.0)

    def test_c_shape_checked(self):
        with pytest.raises(ConfigError, match="c has shape"):
            problems.ConstraintSystem(np.eye(2), np.zeros(3))

    def test_residual(self, rng):
        cs = problems.build_overlap_A(3, 2)
        x = rng.standard_normal(3)
        y = rng.standard_normal(6)
        assert np.allclose(cs.residual(x, y), np.tile(x, 2) - y)


def stacked(scales, k):
    """[D; ...; D] (k copies) with D = diag(scales), as csr."""
    return sp.vstack([sp.diags(scales, format="csr")] * k, format="csr")


class TestDiagonalSpectrum:
    """A diagonal A^T A gives its spectral data without a dense eigvalsh."""

    @staticmethod
    def dense_reference(A):
        return np.linalg.eigvalsh((A.T @ A).toarray())[[0, -1]]

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 60), k=st.integers(1, 6))
    def test_stacked_identity_bitwise(self, d, k):
        A = stacked(np.ones(d), k)
        cs = problems.ConstraintSystem(A, np.zeros(k * d))
        lo, hi = self.dense_reference(A)
        assert (cs.phi_min_A, cs.norm_AtA) == (lo, hi) == (k, k)

    @settings(max_examples=60, deadline=None)
    @given(
        scales=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=60),
        k=st.integers(1, 6),
    )
    def test_column_scaled_stack_bitwise(self, scales, k):
        A = stacked(scales, k)
        q = A.shape[0]
        for system in (A, A.toarray()):
            cs = problems.ConstraintSystem(system, np.zeros(q))
            # the product in cs.A's own format, as eigvalsh would see it
            lo, hi = np.linalg.eigvalsh(dense_AtA(cs))[[0, -1]]
            assert (cs.phi_min_A, cs.norm_AtA) == (lo, hi)
            if sp.issparse(cs.A):
                assert (lo, hi) == tuple(self.dense_reference(A))

    def test_stored_zeros_are_not_off_diagonal(self, monkeypatch):
        # an explicit zero off the diagonal leaves A^T A diagonal
        A = stacked(np.arange(1.0, 21.0), 2).tolil()
        A[0, 5] = 1.0
        A = A.tocsr()
        A.data[A.indices == 5] *= np.array([0.0, 1.0, 1.0])
        assert A.nnz == 41 and A.count_nonzero() == 40

        def no_eigvalsh(M):
            raise AssertionError("dense eigvalsh on a diagonal A^T A")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        cs = problems.ConstraintSystem(A, np.zeros(40))
        assert sp.issparse(cs.A) and cs.A.nnz == 41
        assert (cs.phi_min_A, cs.norm_AtA) == (2.0, 800.0)

    @pytest.mark.parametrize("dense", [False, True])
    def test_zero_column_rank_deficient(self, dense):
        scales = np.ones(30)
        scales[7] = 0.0
        A = stacked(scales, 2)
        with pytest.raises(ConfigError, match="column rank deficient"):
            problems.ConstraintSystem(A.toarray() if dense else A, np.zeros(60))

    def test_overlap_setup_is_linear_in_d(self):
        # a dense A^T A at d = 20000 would take 3.2 GB
        tracemalloc.start()
        try:
            cs = problems.build_overlap_A(20000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert (cs.phi_min_A, cs.norm_AtA) == (2.0, 2.0)

    @pytest.mark.parametrize("build", [
        lambda: problems.build_overlap_A(30, 3),
        lambda: problems.build_overlap_A(3, 2),
        lambda: make_graph_guided_problem(d=30).constraints,
        lambda: make_graph_guided_problem(d=8, empty_support=True).constraints,
    ], ids=["overlap-sparse", "overlap-dense", "graph", "graph-empty"])
    def test_spectrum_kept_without_dense_AtA(self, build):
        cs = build()
        # entries of A are 0 and +-1, so every product is exact
        A = cs.A.toarray() if sp.issparse(cs.A) else cs.A
        lo, hi = np.linalg.eigvalsh(A.T @ A)[[0, -1]]
        assert (cs.phi_min_A, cs.norm_AtA) == (lo, hi)
        assert set(vars(cs)) == {"A", "AT", "c", "phi_min_A", "norm_AtA"}


class TestBuilders:
    def test_graph_guided_rows(self):
        S = np.zeros((4, 4), dtype=bool)
        S[0, 2] = S[2, 0] = True
        cs = problems.build_graph_guided_A(S)
        A = cs.A.toarray() if sp.issparse(cs.A) else cs.A
        assert A.shape == (5, 4)
        assert np.allclose(A[0], [1.0, 0.0, -1.0, 0.0])
        assert np.allclose(A[1:], np.eye(4))
        assert cs.phi_min_A > 0

    def test_graph_guided_empty_support_is_identity(self):
        cs = problems.build_graph_guided_A(np.zeros((5, 5), dtype=bool))
        A = cs.A.toarray() if sp.issparse(cs.A) else cs.A
        assert np.allclose(A, np.eye(5))

    def test_graph_guided_asymmetric_rejected(self):
        S = np.zeros((3, 3), dtype=bool)
        S[0, 1] = True
        with pytest.raises(InputError):
            problems.build_graph_guided_A(S)

    def test_multitask_constraints(self):
        cs, reg = problems.build_multitask_constraints(2, 3, 1e-3, 1e-2, 0.5)
        assert cs.q == 12 and cs.d == 6 and reg.p == 12
        assert reg.blocks[0].kind == "l1"
        assert np.isclose(reg.blocks[0].weight, 5e-4)
        assert reg.blocks[1].kind == "nuclear"
        assert reg.blocks[1].rows == 2 and reg.blocks[1].cols == 3


class TestCompositeProblem:
    def test_dimension_mismatch_rejected(self, rng):
        cs = problems.build_overlap_A(3, 2)
        loss = problems.SigmoidLoss(rng.standard_normal((5, 4)), np.ones(5))
        reg = problems.BlockSeparableRegularizer.l1(6, 1e-3)
        with pytest.raises(ConfigError):
            problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)

    def test_regularizer_length_checked_against_rows(self, rng):
        cs = problems.build_overlap_A(3, 2)
        loss = problems.SigmoidLoss(rng.standard_normal((5, 3)), np.ones(5))
        reg = problems.BlockSeparableRegularizer.l1(3, 1e-3)
        with pytest.raises(ConfigError, match="constraint rows 6"):
            problems.CompositeProblem(loss=loss, regularizer=reg, constraints=cs)

    def test_objective_x_consistent(self, rng):
        prob = make_graph_guided_problem(n=40, d=5, seed=2)
        x = rng.standard_normal(5)
        y = np.asarray(prob.constraints.A @ x).ravel()
        assert np.isclose(prob.objective_x(x), prob.objective(x, y))


def einsum_rows(P, dense, shared):
    """Component rows from every feature, zeros included: the dense rebuild
    the sparse one must equal byte for byte."""
    G = np.einsum("ic,ij->icj", P, dense)
    G += shared
    return G.reshape(len(P), -1)


# values that reach the signed-zero and underflow corners of the rebuild
_CORNERS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, -1e-160]
)
_COEF = st.one_of(_CORNERS, st.floats(-1.0, 1.0))
_VALUE = st.one_of(_CORNERS, st.floats(-1e3, 1e3))


@st.composite
def csr_features(draw, n, d_features):
    """csr rows, some with no stored entry, some storing explicit zeros."""
    mask = draw(hnp.arrays(bool, (n, d_features)))
    values = draw(hnp.arrays(float, int(mask.sum()), elements=_VALUE))
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return sp.csr_matrix(
        (values, np.nonzero(mask)[1], indptr), shape=(n, d_features)
    )


def multitask_on(feats, classes, nu1=0.0):
    """A multi-task loss whose stored features are exactly `feats`, kept
    sparse whatever their density."""
    labels = np.arange(feats.shape[0]) % classes
    loss = problems.SmoothedMultiTaskLoss(feats, labels, classes, nu1)
    loss.features = feats
    return loss


class TestSparseRebuild:
    """Rows rebuilt from stored entries only are bytewise the dense einsum
    (tobytes: array_equal does not see the sign of a zero)."""

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 7)),
        per_row=st.booleans(),
        data=st.data(),
    )
    def test_rows(self, shape, per_row, data):
        M, C, dF = shape
        feats = data.draw(csr_features(M, dF))
        P = data.draw(hnp.arrays(float, (M, C), elements=_COEF))
        shared = data.draw(hnp.arrays(
            float, (M, C, dF) if per_row else (C, dF), elements=_VALUE
        ))
        loss = multitask_on(feats, C)
        got = loss.component_rows(P, feats, shared)
        assert got.tobytes() == einsum_rows(P, feats.toarray(), shared).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 7)),
        data=st.data(),
    )
    def test_subtract_rows(self, shape, data):
        n, C, dF = shape
        feats = data.draw(csr_features(n, dF))
        # repeated indices: only each sample's first place is subtracted
        batch = np.array(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=8)
        ))
        loss = multitask_on(feats, C)
        rows = loss.gather(batch)
        uniq, first = np.unique(rows.index, return_index=True)
        old = data.draw(hnp.arrays(float, (uniq.size, C * dF), elements=_VALUE))
        P = data.draw(hnp.arrays(float, (uniq.size, C), elements=_COEF))
        shared = data.draw(hnp.arrays(float, (C, dF), elements=_VALUE))
        want = old - einsum_rows(P, feats.toarray()[uniq], shared)
        got = old.copy()
        loss.subtract_rows(got, P, rows.take(first).features, shared)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, nu1", [
        ("sigmoid", None), ("multitask", 0.0), ("multitask", 1e-2),
    ])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_subtract_rows_equal_old_minus_new(self, kind, nu1, layout, rng):
        loss = TestFullIndexSet.make(kind, layout, rng)
        if kind == "multitask":
            loss.nu1 = nu1
        x = rng.standard_normal(loss.d)
        x[::3] = -0.0
        rows = loss.gather(rng.integers(0, loss.n, size=25))
        uniq, first = np.unique(rows.index, return_index=True)
        assert uniq.size < len(rows)
        new = rows.take(first)
        coef, shared = loss.coefficients(x, new)
        if layout == "csr":
            # a sparse row's coefficients do not depend on the rows around it
            assert coef.tobytes() == loss.coefficients(x, rows)[0][first].tobytes()
        old = rng.standard_normal((uniq.size, loss.d))
        old[:, ::4] = -0.0
        got = old.copy()
        loss.subtract_rows(got, coef, new.features, shared)
        want = old - loss.component_rows(coef, new.features, shared)
        assert got.tobytes() == want.tobytes()

    def test_sparse_rows_never_densify(self, monkeypatch, rng):
        class NoDense(sp.csr_matrix):
            def toarray(self, *args, **kwargs):
                raise AssertionError("sparse rows were densified")

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum ran over sparse rows")

        feats = NoDense(sp.random(8, 30, density=0.05, format="csr", random_state=1))
        loss = multitask_on(feats, 3)
        P, shared = rng.standard_normal((8, 3)), rng.standard_normal((3, 30))
        rows = loss.gather(np.array([5, 1, 5, 7]))
        assert isinstance(rows.features, NoDense)
        monkeypatch.setattr(np, "einsum", no_einsum)
        loss.component_rows(P, rows.features, shared)
        loss.subtract_rows(
            np.zeros((3, 90)), P[:3], rows.take(np.array([0, 1, 3])).features, shared
        )

    def test_gathered_csr_equals_scipy_row_index(self, rng):
        feats = sp.random(40, 25, density=0.05, format="csr", random_state=2)
        loss = multitask_on(feats, 2)
        idx = rng.integers(0, 40, size=30)
        for got in (loss.gather(idx).features,
                    loss.gather(idx).take(np.array([3, 0, 3])).features,
                    loss.gather(idx).take(slice(4, 9)).features):
            assert sp.issparse(got) and got.format == "csr"
        got = loss.gather(idx).features
        want = feats[idx]
        for attr in ("indptr", "indices", "data"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        sub = loss.gather(idx).take(slice(4, 9)).features
        assert (sub != feats[idx[4:9]]).nnz == 0
