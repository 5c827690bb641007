import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ncadmm import problems
from ncadmm.exceptions import ConfigError, InputError

from conftest import dense_AtA, make_graph_guided_problem
import oracles


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
        v = loss.value(rng.standard_normal(4), loss.gather(np.arange(30)))
        assert 0.0 < v < 1.0

    def test_grad_matches_finite_differences(self, rng):
        feats = rng.standard_normal((20, 5))
        labels = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        loss = problems.SigmoidLoss(feats, labels)
        x = rng.standard_normal(5)
        idx = loss.gather(np.arange(20))
        g = loss.grad(x, idx)
        g_num = numeric_grad(lambda z: loss.value(z, idx), x)
        assert np.allclose(g, g_num, atol=1e-8)

    def test_grad_matrix_mean_equals_grad(self, rng):
        feats = rng.standard_normal((15, 4))
        labels = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        loss = problems.SigmoidLoss(feats, labels)
        x = rng.standard_normal(4)
        idx = loss.gather(np.arange(15))
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
        assert np.allclose(
            a.grad(x, a.gather(idx)), b.grad(x, b.gather(idx)), atol=1e-12
        )


class TestGather:
    """`gather` is where an index array is checked: a non-empty 1-D array
    of integers in [0, n), and nothing it might be read as."""

    @staticmethod
    def make(rng, n=6):
        return problems.SigmoidLoss(rng.standard_normal((n, 2)), np.ones(n))

    # an int conversion would read these as samples 1 0 1 0 0 0, as 1 2,
    # and as 0
    @pytest.mark.parametrize("index_set", [
        np.array([True, False, True, False, False, False]), [1.7, 2.2], [0.9],
    ], ids=["bool_mask", "floats", "fraction"])
    def test_non_integer_refused(self, index_set, rng):
        with pytest.raises(InputError, match="integers"):
            self.make(rng).gather(index_set)

    @pytest.mark.parametrize("index_set", [[], [[0, 1]], 3, [0, 6], [-1, 2]])
    def test_empty_non_1d_and_out_of_range_refused(self, index_set, rng):
        with pytest.raises(InputError):
            self.make(rng).gather(index_set)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.uint64])
    def test_integer_dtypes_gathered(self, dtype, rng):
        loss = self.make(rng)
        rows = loss.gather(np.array([5, 0, 5], dtype=dtype))
        assert rows.index.tolist() == [5, 0, 5]
        assert np.array_equal(rows.features, loss.features[[5, 0, 5]])


class TestMultiTaskLoss:
    def make(self, rng, n=18, d=4, m=3, nu1=1e-3):
        feats = rng.standard_normal((n, d))
        labels = rng.integers(0, m, size=n)
        return problems.SmoothedMultiTaskLoss(feats, labels, m, nu1)

    def test_grad_matches_finite_differences(self, rng):
        loss = self.make(rng)
        x = rng.standard_normal(loss.d) * 0.5
        idx = loss.gather(np.arange(loss.n))
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
        idx = loss.gather(np.arange(loss.n))
        assert np.allclose(
            loss.grad_matrix(x, idx).mean(axis=0), loss.grad(x, idx), atol=1e-12
        )

    def test_bad_class_labels_rejected(self, rng):
        with pytest.raises(ConfigError):
            problems.SmoothedMultiTaskLoss(
                rng.standard_normal((4, 2)), np.array([0, 1, 2, 3]), 3, 1e-3
            )

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.9], [0.0, np.nan, 1.0]])
    def test_fractional_class_labels_rejected(self, labels):
        # refused, not truncated to a class
        with pytest.raises(ConfigError, match="whole numbers"):
            problems.SmoothedMultiTaskLoss(np.eye(3, 2), np.array(labels), 3, 1e-3)

    def test_whole_valued_float_labels_accepted(self):
        # as parse_libsvm's multiclass mode gives them
        loss = problems.SmoothedMultiTaskLoss(
            np.eye(3, 2), np.array([2.0, 0.0, 1.0]), 3, 1e-3
        )
        assert loss.labels.dtype.kind == "i" and loss.labels.tolist() == [2, 0, 1]

    def test_feature_label_count_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="count mismatch"):
            problems.SmoothedMultiTaskLoss(np.eye(4, 2), np.array([0, 1, 2]), 3, 1e-3)

    @pytest.mark.parametrize("name", ["nu1", "beta", "theta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_penalty_parameter_rejected(self, name, value, rng):
        kw = {"nu1": 1e-3, name: value}
        with pytest.raises(ConfigError, match="finite"):
            problems.SmoothedMultiTaskLoss(
                rng.standard_normal((4, 2)), np.array([0, 1, 2, 0]), 3, **kw
            )


class TestFullIndexSet:
    """A loss's `all_rows` reads the stored rows in place; every result must
    be bitwise what the same formulas give on an explicitly gathered copy."""

    @staticmethod
    def make(kind, layout, rng, n=60, d=9, classes=3):
        feats = rng.standard_normal((n, d))
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
    def test_bitwise_equal_to_gathered_rows(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        # the sigmoid loss keeps the given layout; the multi-task loss
        # stores csr for any input
        assert sp.issparse(loss.features) == (layout == "csr" or kind == "multitask")
        x = rng.standard_normal(loss.d)
        full = loss.all_rows
        fast = (loss.value(x, full), loss.grad(x, full), loss.grad_matrix(x, full))

        # a copy of every row, gathered by plain numpy indexing
        idx = np.arange(loss.n)
        copy = problems.Rows(idx, loss.features[idx], loss.labels[idx])
        ref = (loss.value(x, copy), loss.grad(x, copy), loss.grad_matrix(x, copy))
        assert fast[0] == ref[0]
        assert np.array_equal(fast[1], ref[1])
        assert np.array_equal(fast[2], ref[2])

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    def test_all_rows_are_the_stored_arrays(self, kind, rng):
        loss = self.make(kind, "dense", rng)
        full = loss.all_rows
        assert full.features is loss.features and full.labels is loss.labels
        assert np.array_equal(full.index, np.arange(loss.n))
        # an index array is gathered, arange(n) included
        rows = loss.gather(np.arange(loss.n))
        assert rows.features is not loss.features
        assert not np.shares_memory(rows.labels, loss.labels)

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_sliced_rows_equal_gathered_rows(self, layout, rng):
        loss = self.make("sigmoid", layout, rng)
        rows = loss.all_rows
        for part in (slice(7, 30), slice(50, None), slice(0, 60, 4)):
            got, want = rows.take(part), rows.take(np.arange(loss.n)[part])
            assert np.array_equal(got.index, want.index)
            assert np.array_equal(got.labels, want.labels)
            if layout == "csr":
                assert (got.features != want.features).nnz == 0
            else:
                assert np.array_equal(got.features, want.features)

    def test_dense_slice_is_a_view(self, rng):
        loss = self.make("sigmoid", "dense", rng)
        part = loss.all_rows.take(slice(10, 40))
        assert np.shares_memory(part.features, loss.features)
        assert np.shares_memory(part.labels, loss.labels)

    def test_full_set_still_validated(self, rng):
        loss = self.make("sigmoid", "dense", rng)
        with pytest.raises(InputError):
            loss.gather(np.arange(loss.n) + 1)


class TestOnePass:
    """value_and_grad, error_and_value and gathered Rows give bitwise the
    numbers of the separate calls they replace."""

    make = staticmethod(TestFullIndexSet.make)

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_value_and_grad_equal_separate_calls(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        x = rng.standard_normal(loss.d)
        for idx in (loss.all_rows, loss.gather(np.arange(loss.n)),
                    loss.gather(rng.integers(0, loss.n, size=17))):
            value, grad = loss.value_and_grad(x, idx)
            assert value == loss.value(x, idx)
            assert np.array_equal(grad, loss.grad(x, idx))

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_error_and_value_equals_value(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        x = rng.standard_normal(loss.d)
        err, value = loss.error_and_value(x)
        assert value == loss.value(x, loss.all_rows)
        assert 0.0 <= err <= 1.0

    @pytest.mark.parametrize("kind", ["sigmoid", "multitask"])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_gathered_rows_serve_every_call(self, kind, layout, rng):
        loss = self.make(kind, layout, rng)
        x = rng.standard_normal(loss.d)
        idx = np.array([4, 4, 0, 17, 3])
        rows = loss.gather(idx)
        assert len(rows) == idx.size
        # the same rows gathered by plain numpy indexing
        ref = problems.Rows(idx, loss.features[idx], loss.labels[idx])
        assert loss.value(x, rows) == loss.value(x, ref)
        assert np.array_equal(loss.grad(x, rows), loss.grad(x, ref))
        assert np.array_equal(loss.grad_matrix(x, rows), loss.grad_matrix(x, ref))

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

    def test_take_of_an_index_array_gathers(self, rng):
        loss = self.make("sigmoid", "dense", rng)
        full = loss.all_rows
        taken = full.take(np.arange(loss.n))
        assert taken is not full
        assert not np.shares_memory(taken.features, loss.features)
        assert np.array_equal(taken.features, loss.features)
        rows = loss.gather(np.array([5, 2, 9]))
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

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
    def test_block_weight_must_be_finite_and_nonnegative(self, weight):
        with pytest.raises(ConfigError, match="block weights"):
            problems.BlockSeparableRegularizer.l1(4, weight)

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
        cs = problems.build_graph_guided_A(([0], [2]), 4)
        A = cs.A.toarray() if sp.issparse(cs.A) else cs.A
        assert A.shape == (5, 4)
        assert np.allclose(A[0], [1.0, 0.0, -1.0, 0.0])
        assert np.allclose(A[1:], np.eye(4))
        assert cs.phi_min_A > 0

    def test_graph_guided_empty_support_is_identity(self):
        cs = problems.build_graph_guided_A(([], []), 5)
        A = cs.A.toarray() if sp.issparse(cs.A) else cs.A
        assert np.allclose(A, np.eye(5))

    @pytest.mark.parametrize("ii, jj", [
        ([1, 0], [2, 1]),          # unordered
        ([0, 0], [2, 1]),          # unordered within a row
        ([0, 0], [1, 1]),          # duplicated
        ([1], [1]),                # i = j
        ([2], [1]),                # i > j
        ([-1], [1]),               # i below 0
        ([0], [3]),                # j = d
        ([[0]], [[1]]),            # not 1-D
        ([0, 1], [2]),             # lengths differ
    ], ids=["unordered", "unordered-row", "duplicated", "i-eq-j", "i-gt-j",
            "negative", "j-out-of-range", "2-d", "lengths"])
    def test_graph_guided_bad_edges_rejected(self, ii, jj):
        with pytest.raises(InputError):
            problems.build_graph_guided_A((ii, jj), 3)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda d: hnp.arrays(bool, (d, d))))
    def test_graph_guided_edges_match_support_builder(self, raw):
        # any symmetric support, diagonal included, which both ignore
        support = raw | raw.T
        ref = oracles.build_graph_guided_A_from_support(support)
        cs = problems.build_graph_guided_A(
            np.nonzero(np.triu(support, 1)), support.shape[0]
        )
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(cs.A, attr), getattr(ref.A, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert cs.A.shape == ref.A.shape
        assert (cs.phi_min_A, cs.norm_AtA) == (ref.phi_min_A, ref.norm_AtA)

    def test_multitask_constraints(self):
        cs, reg = problems.build_multitask_constraints(2, 3, 1e-3, 1e-2, 0.5)
        assert cs.q == 12 and cs.d == 6 and reg.p == 12
        assert isinstance(reg.blocks[0], problems.L1Block)
        assert np.isclose(reg.blocks[0].weight, 5e-4)
        assert isinstance(reg.blocks[1], problems.NuclearNormBlock)
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
        assert np.isclose(
            oracles.objective_x(prob, x), oracles.objective(prob, x, y)
        )


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
    loss.all_rows = problems.Rows(np.arange(feats.shape[0]), feats, loss.labels)
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
        def no_dense(*args, **kwargs):
            raise AssertionError("sparse rows were densified")

        def no_einsum(*args, **kwargs):
            raise AssertionError("einsum ran over sparse rows")

        feats = sp.random(8, 30, density=0.05, format="csr", random_state=1)
        loss = multitask_on(feats, 3)
        P, shared = rng.standard_normal((8, 3)), rng.standard_normal((3, 30))
        rows = loss.gather(np.array([5, 1, 5, 7]))
        taken = rows.take(np.array([0, 1, 3]))
        # scipy's row indexing need not keep a subclass: guard the classes
        # of the rows themselves
        for cls in {type(rows.features), type(taken.features)}:
            assert issubclass(cls, sp.csr_matrix)
            monkeypatch.setattr(cls, "toarray", no_dense)
        monkeypatch.setattr(np, "einsum", no_einsum)
        loss.component_rows(P, rows.features, shared)
        loss.subtract_rows(np.zeros((3, 90)), P[:3], taken.features, shared)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 7)), data=st.data())
    def test_taken_rows_are_canonical_dense_rows(self, shape, data):
        """Rows gathered (repeats included), sliced, and taken from a gather
        are canonical csr, one stored entry per position as `add_products`
        assumes, and hold the dense rows, empty rows and stored zeros
        included."""
        n, dF = shape
        feats = data.draw(csr_features(n, dF))
        loss = multitask_on(feats, 2)
        idx = np.array(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=10)
        ))
        rows = loss.gather(idx)
        sub = np.array(data.draw(
            st.lists(st.integers(0, idx.size - 1), min_size=1, max_size=6)
        ))
        part, full_part = data.draw(st.slices(idx.size)), data.draw(st.slices(n))
        dense = feats.toarray()
        for got, want in ((rows, idx), (rows.take(sub), idx[sub]),
                          (rows.take(part), idx[part]),
                          (loss.all_rows.take(full_part), np.arange(n)[full_part])):
            F = got.features
            assert sp.issparse(F) and F.format == "csr"
            assert F.has_canonical_format
            assert all((np.diff(F.indices[a:b]) > 0).all()
                       for a, b in zip(F.indptr[:-1], F.indptr[1:]))
            assert F.nnz == np.diff(feats.indptr)[want].sum()
            assert F.toarray().tobytes() == dense[want].tobytes()
            assert np.array_equal(got.index, want)
            assert np.array_equal(got.labels, loss.labels[want])


_SCORE = st.one_of(st.sampled_from([1e300, -1e300, 0.0, -0.0]),
                   st.floats(-1e300, 1e300))


class TestSoftmaxResidual:
    @settings(max_examples=200, deadline=None)
    @given(
        Z=hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                     elements=_SCORE),
        tied=st.booleans(),
        data=st.data(),
    )
    def test_equals_explicit_max_shift_exp_divide(self, Z, tied, data):
        if tied:
            Z[0] = Z[0, 0]
        labels = data.draw(hnp.arrays(
            np.intp, Z.shape[0], elements=st.integers(0, Z.shape[1] - 1)
        ))
        E = np.exp(Z - Z.max(axis=1, keepdims=True))
        want = E / E.sum(axis=1, keepdims=True)
        want[np.arange(labels.size), labels] -= 1.0
        got = problems.SmoothedMultiTaskLoss._softmax_residual(Z, labels)
        assert got.tobytes() == want.tobytes()
