import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ncadmm import cli, data
from ncadmm.exceptions import ConfigError, ParseError

import oracles


class TestGraphGuided:
    def test_shapes_and_labels(self):
        ds, prec, x_star = data.gen_graph_guided(50, 7, seed=0)
        assert ds.features.shape == (50, 7)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
        assert x_star.shape == (7,)
        assert prec.Lambda.shape == (7, 7)

    def test_precision_positive_definite(self):
        _, prec, _ = data.gen_graph_guided(10, 12, seed=3)
        evals = np.linalg.eigvalsh(prec.Lambda)
        assert evals[0] >= 0.1 - 1e-12

    def test_edges_are_the_off_diagonal_nonzeros_in_row_major_order(self):
        _, prec, _ = data.gen_graph_guided(10, 12, seed=3)
        ii, jj = prec.edges
        assert ii.size > 0
        assert (ii < jj).all()
        assert (np.diff(ii * 12 + jj) > 0).all()
        # together with their mirror images, exactly Lambda's off-diagonal nonzeros
        graph = np.zeros((12, 12), dtype=bool)
        graph[ii, jj] = graph[jj, ii] = True
        off_diagonal = ~np.eye(12, dtype=bool)
        assert np.array_equal(graph, (prec.Lambda != 0) & off_diagonal)

    def test_deterministic(self):
        a = data.gen_graph_guided(30, 5, seed=9)
        b = data.gen_graph_guided(30, 5, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert np.array_equal(a[2], b[2])

    def test_seed_changes_data(self):
        a = data.gen_graph_guided(30, 5, seed=9)
        b = data.gen_graph_guided(30, 5, seed=10)
        assert not np.array_equal(a[0].features, b[0].features)

    def test_truth_independent_of_sample_count(self):
        # separate substreams: growing n must not change x_star or Lambda
        _, prec_a, xs_a = data.gen_graph_guided(10, 6, seed=4)
        _, prec_b, xs_b = data.gen_graph_guided(200, 6, seed=4)
        assert np.array_equal(xs_a, xs_b)
        assert np.array_equal(prec_a.Lambda, prec_b.Lambda)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            data.gen_graph_guided(0, 5, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), d=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), shuffled=st.booleans())
    def test_bytes_equal_the_one_pass_generator(self, n, d, seed, shuffled):
        order = np.random.default_rng(seed).permutation(n) if shuffled else None
        ds, prec, x_star = data.gen_graph_guided(n, d, seed, order=order)
        ref_ds, ref_prec, ref_x = oracles.gen_graph_guided(n, d, seed, order=order)
        pairs = {
            "Lambda": (prec.Lambda, ref_prec.Lambda),
            "edges": (np.array(prec.edges), np.array(ref_prec.edges)),
            "shift": (np.float64(prec.shift), np.float64(ref_prec.shift)),
            "x_star": (x_star, ref_x),
            "features": (ds.features, ref_ds.features),
            "labels": (ds.labels, ref_ds.labels),
        }
        assert [name for name, (got, want) in pairs.items()
                if got.dtype != want.dtype or got.shape != want.shape
                or got.tobytes() != want.tobytes()] == []

    def test_draw_holds_one_precision_and_one_transform(self):
        # Lambda, eigh's vectors, their scaled copy and Lambda^{-1/2} are the
        # most ever alive at once; the one-pass build held 7.25 d^2 floats
        n, d = 64, 1000
        tracemalloc.start()
        try:
            data.gen_graph_guided(n, d, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * d * d * 8 + n * d * 8


class TestOverlap:
    def test_shapes(self):
        ds, x_star = data.gen_overlap(40, seed=1, grid=6)
        assert ds.features.shape == (40, 36)
        assert set(np.unique(ds.labels)) <= {-1.0, 1.0}

    def test_truth_sparsity_pattern(self):
        _, x_star = data.gen_overlap(5, seed=2, grid=6)
        X = x_star.reshape(6, 6, order="F")
        assert np.all(X[:, 1:] == 0.0)
        assert np.any(X[:, 0] != 0.0)


GOOD = """\
# comment line
+1 1:0.5 3:-2.0

-1 2:1.0
+1 1:1.5 2:0.25 4:4.0
"""


class TestParseLibsvm:
    def test_basic(self):
        ds = data.parse_libsvm(io.StringIO(GOOD))
        assert ds.n == 3 and ds.d == 4
        dense = ds.features.toarray()
        assert np.allclose(dense[0], [0.5, 0.0, -2.0, 0.0])
        assert np.allclose(dense[1], [0.0, 1.0, 0.0, 0.0])
        assert set(ds.labels) == {-1.0, 1.0}

    def test_n_features_override(self):
        ds = data.parse_libsvm(io.StringIO(GOOD), n_features=6)
        assert ds.d == 6
        with pytest.raises(ParseError):
            data.parse_libsvm(io.StringIO(GOOD), n_features=2)
        with pytest.raises(ConfigError, match="d=16385 is above"):
            data.parse_libsvm(io.StringIO(GOOD), n_features=data.MAX_DIM + 1)

    def test_bad_label(self):
        with pytest.raises(ParseError) as exc:
            data.parse_libsvm(io.StringIO("abc 1:1.0\n"))
        assert exc.value.line == 1

    def test_nonincreasing_index(self):
        with pytest.raises(ParseError):
            data.parse_libsvm(io.StringIO("+1 2:1.0 2:2.0\n"))
        with pytest.raises(ParseError):
            data.parse_libsvm(io.StringIO("+1 3:1.0 1:2.0\n"))

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            data.parse_libsvm(io.StringIO("+1 0:1.0\n"))

    def test_bad_feature_token(self):
        with pytest.raises(ParseError) as exc:
            data.parse_libsvm(io.StringIO("+1 1:1.0\n-1 2\n"))
        assert exc.value.line == 2

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            data.parse_libsvm(io.StringIO("# only comments\n\n"))

    @pytest.mark.parametrize("reader", ["path", "binary stream"])
    def test_non_utf8_byte_is_a_parse_error(self, reader, tmp_path):
        # 0xff never occurs in UTF-8; the 160 KB before it span blocks, and
        # the line named is no later than the bad one, line 20001
        raw = b"1 1:0.5\n" * 20000 + b"-1 2:1\xff\n"
        path = tmp_path / "bad.libsvm"
        path.write_bytes(raw)
        source = str(path) if reader == "path" else io.BytesIO(raw)
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            data.parse_libsvm(source)
        first = int(str(exc.value).split("at line ")[1].split()[0])
        assert 1 < first <= 20001
        assert str(exc.value).endswith("or later: byte 0xff: invalid start byte")

    def test_binary_label_mapping(self):
        ds = data.parse_libsvm(io.StringIO("2 1:1\n4 1:2\n2 1:3\n"))
        assert np.array_equal(ds.labels, [-1.0, 1.0, -1.0])

    def test_multiclass_label_mapping(self):
        ds = data.parse_libsvm(io.StringIO("7 1:1\n3 1:2\n9 1:3\n3 1:4\n"))
        assert np.array_equal(ds.labels, [1.0, 0.0, 2.0, 0.0])
        assert ds.meta["classes"] == 3

    def test_forced_binary_on_multiclass_rejected(self):
        with pytest.raises(ParseError):
            data.parse_libsvm(
                io.StringIO("1 1:1\n2 1:2\n3 1:3\n"), label_mode="binary"
            )

    def test_unknown_label_mode_rejected(self):
        # a misspelt mode is refused, not read as "raw"
        with pytest.raises(ConfigError, match="got 'binarry'"):
            data.parse_libsvm(io.StringIO("1 1:1\n2 1:2\n"), label_mode="binarry")

    def test_round_trip(self, tmp_path, rng):
        feats = rng.standard_normal((10, 5))
        feats[rng.random((10, 5)) < 0.5] = 0.0
        labels = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        ds = data.Dataset(features=feats, labels=labels, meta={"name": "t"})
        path = tmp_path / "t.libsvm"
        data.write_libsvm(ds, path, sidecar=path.with_suffix(".json"))
        back = data.parse_libsvm(path, n_features=5)
        assert np.allclose(back.features.toarray(), feats, atol=0)
        assert np.array_equal(back.labels, labels)
        assert path.with_suffix(".json").exists()

    def test_nan_features_rejected(self):
        with pytest.raises(ConfigError):
            data.Dataset(features=np.array([[np.nan]]), labels=np.array([1.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        dense=hnp.arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 8)),
            elements=st.one_of(
                st.just(0.0),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
        ),
        data_=st.data(),
    )
    def test_round_trip_property(self, dense, data_):
        feats = sp.csr_matrix(dense)
        labels = np.asarray(data_.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=dense.shape[0], max_size=dense.shape[0],
        )))
        ds = data.Dataset(features=feats, labels=labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.libsvm")
            data.write_libsvm(ds, path)
            back = data.parse_libsvm(
                path, n_features=dense.shape[1], label_mode="raw"
            )
        assert back.features.shape == feats.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(
                getattr(back.features, attr), getattr(feats, attr)
            )
        assert np.array_equal(back.labels, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestSparseFiniteCheck:
    """Sparse features are checked through their stored values only."""

    def test_dataset(self, bad):
        feats = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        feats.data[1] = bad
        with pytest.raises(ConfigError, match="NaN/Inf"):
            data.Dataset(features=feats, labels=np.array([1.0, -1.0]))
        with pytest.raises(ConfigError, match="NaN/Inf"):
            data.Dataset(features=feats.tocoo(), labels=np.array([1.0, -1.0]))

    def test_parse_libsvm(self, bad):
        text = f"1 1:0.5\n-1 2:{bad!r}\n"
        with pytest.raises(ConfigError, match="NaN/Inf"):
            data.parse_libsvm(io.StringIO(text))

    def test_split(self, bad):
        feats = sp.random(20, 6, density=0.3, format="csr", random_state=0)
        ds = data.Dataset(features=feats, labels=np.ones(20))
        ds.features.data[3] = bad
        with pytest.raises(ConfigError, match="NaN/Inf"):
            data.split(ds, 0.5, seed=0)


class TestSplit:
    def test_disjoint_exhaustive(self):
        ds, _, _ = data.gen_graph_guided(31, 4, seed=0)
        tr, te = data.split(ds, 0.5, seed=5)
        assert tr.n + te.n == 31
        assert tr.meta["split"] == "train" and te.meta["split"] == "test"
        joined = np.vstack([tr.features, te.features])
        assert {tuple(row) for row in joined} == {
            tuple(row) for row in np.asarray(ds.features)
        }

    def test_deterministic(self):
        ds, _, _ = data.gen_graph_guided(20, 4, seed=0)
        a = data.split(ds, 0.6, seed=1)
        b = data.split(ds, 0.6, seed=1)
        assert np.array_equal(a[0].features, b[0].features)

    def test_degenerate_rejected(self):
        ds, _, _ = data.gen_graph_guided(5, 3, seed=0)
        with pytest.raises(ConfigError):
            data.split(ds, 0.01, seed=0)
        with pytest.raises(ConfigError):
            data.split(ds, 1.5, seed=0)


def loop_parse(source, n_features=None, label_mode="auto"):
    """The line-by-line LIBSVM parser `parse_libsvm` replaced, kept as the
    oracle its vectorised form must match, result and error alike. It
    refuses a label that is not finite and an index beyond int64."""
    labels, rows, cols, vals = [], [], [], []
    max_idx = 0
    row = 0
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
            if not np.isfinite(label):
                raise ValueError
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", lineno) from None
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(f"bad feature token {tok!r}", lineno)
            try:
                idx = int(idx_s)
                np.int64(idx)
                val = float(val_s)
            except (ValueError, OverflowError):
                raise ParseError(f"bad feature token {tok!r}", lineno) from None
            if idx <= prev_idx:
                raise ParseError(
                    f"feature indices must be 1-based strictly increasing, "
                    f"got {idx} after {prev_idx}", lineno
                )
            prev_idx = idx
            rows.append(row)
            cols.append(idx - 1)
            vals.append(val)
        max_idx = max(max_idx, prev_idx)
        labels.append(label)
        row += 1
    if row == 0:
        raise ParseError("empty dataset: no data lines found")
    d = n_features if n_features is not None else max_idx
    if d < max_idx:
        raise ParseError(f"n_features={d} smaller than max index {max_idx}")
    feats = sp.csr_matrix(
        (vals, (rows, cols)), shape=(row, max(d, 1)), dtype=float
    )
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if label_mode == "auto":
        label_mode = "binary" if uniq.size == 2 else (
            "multiclass" if uniq.size > 2 else "raw"
        )
    if label_mode == "binary":
        if uniq.size != 2:
            raise ParseError(
                f"binary label mapping needs exactly 2 distinct labels, got {uniq.size}"
            )
        labels = np.where(labels == uniq[0], -1.0, 1.0)
        classes = 2
    elif label_mode == "multiclass":
        remap = {v: i for i, v in enumerate(uniq)}
        labels = np.array([remap[v] for v in labels], dtype=float)
        classes = uniq.size
    else:
        classes = uniq.size
    return data.Dataset(
        features=feats,
        labels=labels,
        meta={"name": "libsvm", "n": row, "d": feats.shape[1],
              "classes": classes, "source": "libsvm", "label_mode": label_mode},
    )


def _outcome(parse, text, **kwargs):
    try:
        return parse(io.StringIO(text), **kwargs)
    except (ParseError, ConfigError) as exc:
        return exc


def assert_same_parse(text, **kwargs):
    """parse_libsvm and the line loop agree: the same Dataset bytes, or the
    same error type, message and line."""
    want = _outcome(loop_parse, text, **kwargs)
    got = _outcome(data.parse_libsvm, text, **kwargs)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "line", None) == getattr(want, "line", None)
        return
    assert not isinstance(got, Exception), got
    assert got.features.format == want.features.format == "csr"
    assert got.features.shape == want.features.shape
    assert got.features.has_canonical_format and want.features.has_canonical_format
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got.features, attr), getattr(want.features, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.meta == want.meta


_GOOD_VALUES = ["1", "-2.5", "0", "-0.0", "1e-3", "0.1", "7", "1_0.5"]
_BAD_FEATURES = ["3:", ":2", "a:b:c", "1:2:3", "4:x", "0:1", "-2:1", "abc", "2", "+3:1"]
_SEPS = [" ", "\t", "  ", " \t "]


@st.composite
def libsvm_lines(draw):
    kind = draw(st.sampled_from(["data", "data", "data", "blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t"]))
    if kind == "comment":
        return draw(st.sampled_from(["", " ", "\t"])) + "#" + draw(
            st.sampled_from(["", " note", "1 2:3", "#"])
        )
    label = draw(st.sampled_from(["1", "-1", "+1", "2", "0.5", "3", "abc", "1:2", "1e1"]))
    idx = sorted(draw(st.sets(st.integers(1, 12), max_size=5)))
    tokens = [f"{i}:{draw(st.sampled_from(_GOOD_VALUES))}" for i in idx]
    if draw(st.integers(0, 3)) == 0:
        # a malformed token, a repeated index or a decreasing one
        at = draw(st.integers(0, len(tokens)))
        bad = draw(st.one_of(
            st.sampled_from(_BAD_FEATURES),
            st.just(tokens[at - 1] if at else "5:1"),
            st.just(f"{idx[0] - 1 if idx else 1}:1"),
        ))
        tokens.insert(at, bad)
    seps = [draw(st.sampled_from(_SEPS)) for _ in tokens]
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + label + "".join(s + t for s, t in zip(seps, tokens))


class TestVectorisedParse:
    """parse_libsvm against the line loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(libsvm_lines(), max_size=8),
        newline=st.sampled_from(["\n", "\r\n"]),
        label_mode=st.sampled_from(["auto", "raw", "multiclass", "binary"]),
        n_features=st.sampled_from([None, 4, 12, 20]),
        block_chars=st.sampled_from([1, 20, 1 << 16]),
    )
    def test_matches_line_loop(self, lines, newline, label_mode, n_features,
                               block_chars):
        text = newline.join(lines)
        # blocks of one line, of a few lines, and of the whole text
        with mock.patch.object(data, "_PARSE_BLOCK_CHARS", block_chars):
            assert_same_parse(text, label_mode=label_mode, n_features=n_features)

    @pytest.mark.parametrize("text", [
        "1\t1:0.5\t3:2\n-1 2:1\n",
        "# head\n\n1 1:1\n  # indented comment\n-1 2:1\n",
        "1 1:1\n\n\n-1 1 :2\n",
        "1 1:1\n-1 3:\n",
        "1 1:1\n-1 a:b:c\n",
        "1 1:1 2:2\n-1 3:1 2:1\n",
        "1 1:1 1:2\n",
        "1 2:1 1 :2 0:3\n",
        "1 1:1\n-1 3:x 1:1\n",
        "abc 3:1\n",
        "1 1:1\n-1\n2 2:2\n",
        "1 1:1 2:2\n-1 3:",
        "nan 1:1\n1 1:2\n2 1:3\n",
        "1 1:1\n-1 99999999999999999999:1\n",
        "1 1:1\n1e400 2:1\n",
    ])
    def test_malformed_and_edge_inputs(self, text):
        assert_same_parse(text)
        assert_same_parse(text, label_mode="raw")


HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_shot(kind, n, size, seed):
    """(features, labels) by the one-shot formulas the blocked generators
    replaced: all n x d normals in one draw, one product, one gemv. `size`
    is d for graph_guided and the grid for overlap."""
    if kind == "overlap":
        rng_x, rng_feat, rng_noise = data._substreams(seed, 3)
        X = np.zeros((size, size))
        X[:, 0] = rng_x.standard_normal(size)
        x_star = X.ravel(order="F")
        feats = rng_feat.standard_normal((n, size * size))
        noise = rng_noise.standard_normal(n)
    else:
        d = size
        rng_prec, rng_x, rng_feat, rng_noise = data._substreams(seed, 4)
        raw = np.zeros((d, d))
        mask = rng_prec.random((d, d)) >= 0.95
        mags = rng_prec.uniform(0.25, 0.75, size=(d, d))
        signs = np.where(rng_prec.random((d, d)) < 0.5, -1.0, 1.0)
        raw[mask] = (signs * mags)[mask]
        evals, evecs = np.linalg.eigh(0.5 * (raw + raw.T))
        evals = evals + max(0.0, 0.1 - float(evals[0]))
        x_star = rng_x.standard_normal(d)
        inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
        feats = rng_feat.standard_normal((n, d)) @ inv_sqrt
        noise = rng_noise.uniform(0.0, 1.0, size=n)
    return feats, np.where(feats @ x_star + noise >= 0.0, 1.0, -1.0)


def setup_mismatches(kind, n, size, seed=3, frac=0.5):
    """Names of the arrays in which the generator in natural order and
    build_problem's train and test sets differ from the one-shot formulas
    and a copying shuffle-then-split of them."""
    feats, labels = one_shot(kind, n, size, seed)
    if kind == "overlap":
        ds, _ = data.gen_overlap(n, seed, grid=size)
        spec = {"kind": kind, "n": n, "grid": size}
    else:
        ds, _, _ = data.gen_graph_guided(n, size, seed)
        spec = {"kind": kind, "n": n, "d": size}
    problem, test, _ = cli.build_problem(
        dict(spec, seed=seed, train_fraction=frac)
    )
    perm = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed + 1))
    ).permutation(n)
    tr, te = np.sort(perm[:round(frac * n)]), np.sort(perm[round(frac * n):])
    pairs = {
        "natural.features": (ds.features, feats),
        "natural.labels": (ds.labels, labels),
        "train.features": (problem.loss.features, feats[tr]),
        "train.labels": (problem.loss.labels, labels[tr]),
        "test.features": (test.features, feats[te]),
        "test.labels": (test.labels, labels[te]),
    }
    return [name for name, (got, want) in pairs.items()
            if got.dtype != want.dtype or got.tobytes() != want.tobytes()]


def in_one_blas_thread(name, *args):
    """JSON result of this module's function `name`(*args), run in a fresh
    interpreter whose BLAS uses one thread.

    Only there do the blocked products round as one product over all n rows
    does: with more threads, gemv splits its rows between the threads at
    points that depend on its length.
    """
    env = dict(os.environ, **dict.fromkeys(BLAS_ENV, "1"))
    env["PYTHONPATH"] = os.pathsep.join([HERE, SRC, env.get("PYTHONPATH", "")])
    code = ("import json, sys, test_data; "
            f"print(json.dumps(test_data.{name}(*json.loads(sys.argv[1]))))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def blocked_setup_mismatches(kind, cases):
    return {f"{n}x{size}": setup_mismatches(kind, n, size) for n, size in cases}


def blocked_product_mismatches(n, d, seed=0):
    """The generator's row blocks on which Z @ W or (Z @ W) @ v differs from
    the rows of one product over all n rows, for random Z, W and v."""
    rng = np.random.default_rng(seed)
    Z, W, v = (rng.standard_normal(shape) for shape in ((n, d), (d, d), d))
    F = Z @ W
    s = F @ v
    return [[a, b] for a, b in data._row_blocks(n, d)
            if (Z[a:b] @ W).tobytes() != F[a:b].tobytes()
            or (F[a:b] @ v).tobytes() != s[a:b].tobytes()]


class TestOneCopySetup:
    """Synthetic kinds are generated block by block straight into split
    order; build_problem's train and test sets are views of one array."""

    @pytest.mark.parametrize("kind, cases", [
        # (20000, 200): 28 blocks, the last with the remainder merged in;
        # (2000, 50): one block; (18468, 50): 7 blocks of 2624 rows and 100
        # more, too few for the blocked gemm kernel on their own
        ("graph_guided", [(20000, 200), (20000, 50), (2000, 50), (5, 3),
                          (18468, 50)]),
        ("overlap", [(20000, 20), (20000, 7), (2000, 7), (5, 3)]),
    ])
    def test_bitwise_equal_to_one_shot_formulas(self, kind, cases):
        got = in_one_blas_thread("blocked_setup_mismatches", kind, cases)
        assert got == {f"{n}x{size}": [] for n, size in cases}

    @pytest.mark.parametrize("n, d", [(20000, 200), (18468, 50), (30001, 33)])
    def test_row_blocks_round_as_one_product(self, n, d):
        # the labels see a score's rounding only through its sign, so the
        # products are compared on random matrices as well
        assert in_one_blas_thread("blocked_product_mismatches", n, d) == []

    @pytest.mark.parametrize("n, d, blocks", [
        (5, 3, [(0, 5)]),
        (2000, 200, [(0, 704), (704, 2000)]),
        # rows wider than a block still come 64 at a time
        (130, 200_000, [(0, 64), (64, 130)]),
    ])
    def test_row_blocks(self, n, d, blocks):
        assert list(data._row_blocks(n, d)) == blocks

    @pytest.mark.parametrize("kind", ["graph_guided", "overlap"])
    def test_views_share_one_array(self, kind):
        spec = {"kind": kind, "n": 301, "d": 6, "grid": 3, "seed": 2}
        problem, test, _ = cli.build_problem(spec)
        train = problem.loss.features
        assert train.base is not None and train.base is test.features.base
        assert train.shape[0] + test.n == 301
        assert test.meta["split"] == "test" and test.meta["n"] == 301
        assert test.meta["name"] == kind

    def test_order_writes_each_drawn_row_to_its_place(self):
        ds, _, _ = data.gen_graph_guided(300, 5, seed=1)
        order = np.random.default_rng(0).permutation(300)
        perm, _, _ = data.gen_graph_guided(300, 5, seed=1, order=order)
        assert np.array_equal(perm.features, ds.features[order])
        assert np.array_equal(perm.labels, ds.labels[order])

    @pytest.mark.parametrize("order", [[0, 1, 1, 3], [0, 1, 2], [0, 1, 2, 4]])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ConfigError, match="permutation"):
            data.gen_overlap(4, seed=0, grid=2, order=order)

    def test_build_problem_holds_one_copy(self):
        n, d = 20000, 200
        tracemalloc.start()
        try:
            cli.build_problem({"kind": "graph_guided", "n": n, "d": d, "seed": 0})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copying split reaches 2.1 n d 8 bytes
        assert peak <= 1.25 * n * d * 8

    def test_finite_check_builds_no_mask(self):
        feats = np.ones((4000, 100))
        tracemalloc.start()
        try:
            data.Dataset(features=feats, labels=np.ones(4000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < feats.size // 8  # the mask alone is feats.size bytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_finite_check_still_refuses(self, bad):
        feats = np.zeros((3, 4))
        feats[2, 1] = bad
        with pytest.raises(ConfigError, match="NaN/Inf"):
            data.Dataset(features=feats, labels=np.ones(3))

    def test_split_indices_are_split_rows(self):
        ds, _, _ = data.gen_graph_guided(41, 4, seed=0)
        tr, te = data.split_indices(41, 0.3, seed=7)
        train, test = data.split(ds, 0.3, seed=7)
        assert np.array_equal(train.features, ds.features[tr])
        assert np.array_equal(test.labels, ds.labels[te])
        assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(41))
