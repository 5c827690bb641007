"""Synthetic data generation and LIBSVM-format ingestion.

All generators draw from independent Philox substreams per quantity, so
e.g. changing the sample count never changes the true parameter vector.
"""

import io
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, InternalInvariantError, ParseError

_MIN_PRECISION_EIG = 0.1
_PARSE_BLOCK_CHARS = 1 << 16
_GEN_BLOCK_BYTES = 1 << 20
_GEN_ROW_ALIGN = 64
_LABEL_MODES = ("auto", "binary", "multiclass", "raw")
# the largest feature count, and model dimension, accepted anywhere: a d x d
# float64 array, which graph-guided problems build, takes 2 GiB at this d
MAX_DIM = 16384


@dataclass
class Dataset:
    features: object  # dense ndarray or csr matrix, n x d
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # a sparse matrix is finite iff its stored values are; NaN carries
        # through min and max, so both are finite iff every value is, and no
        # n x d mask is built
        feats = self.features
        values = feats.tocsr().data if sp.issparse(feats) else feats
        if values.size and not np.isfinite([values.min(), values.max()]).all():
            raise ConfigError("dataset features contain NaN/Inf")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


@dataclass
class PrecisionModel:
    Lambda: np.ndarray
    edges: tuple  # (ii, jj): Lambda's off-diagonal nonzeros, i < j, row-major
    shift: float


def check_dim(d, what):
    """Refuse a dimension above MAX_DIM, before anything of its size exists."""
    if d > MAX_DIM:
        raise ConfigError(
            f"{what}: d={d} is above the largest supported d={MAX_DIM}"
        )


def check_count(count, what):
    """Refuse, before any allocation, more 8-byte values than one array holds."""
    if count > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"{what}: {count} values of 8 bytes do not fit one array")


def _substreams(seed, k):
    return [
        np.random.Generator(np.random.Philox(s))
        for s in np.random.SeedSequence(seed).spawn(k)
    ]


def _sign_labels(scores):
    # sign(0) maps to +1
    return np.where(scores >= 0.0, 1.0, -1.0)


def _row_blocks(n, d):
    """(start, stop) of the contiguous row blocks, about 1 MiB each, in which
    an n x d draw is made.

    With one BLAS thread, each block's products round bitwise as one product
    over all n rows does. Every block starts at a multiple of 64 rows, so
    gemv groups the rows alike, and the remainder joins the last block. A
    block of d >= 8 columns times a d x d matrix takes more than 1e6
    multiply-adds, too many for OpenBLAS's small-matrix gemm kernel, which
    rounds differently; with fewer columns the two were measured to agree.
    """
    rows = max(1, _GEN_BLOCK_BYTES // (8 * d))
    rows = -(-rows // _GEN_ROW_ALIGN) * _GEN_ROW_ALIGN
    starts = [k * rows for k in range(max(1, n // rows))]
    return zip(starts, starts[1:] + [n])


def _draw_rows(rng, n, d, x_star, noise, order, transform=None):
    """(features, labels): standard-normal rows, times `transform` when given,
    labelled by the sign of row @ x_star + noise, drawn a block at a time.

    Row k of the output is drawn row order[k] (the k-th drawn row when
    `order` is None), so the features exist once, already in that order.
    """
    dest = np.arange(n)
    if order is not None:
        order = np.asarray(order)
        if order.shape != (n,) or not np.array_equal(np.sort(order), dest):
            raise ConfigError(f"order must be a permutation of range({n})")
        dest[order] = np.arange(n)
    feats = np.empty((n, d))
    scores = np.empty(n)
    for start, stop in _row_blocks(n, d):
        block = rng.standard_normal((stop - start, d))
        if transform is not None:
            block = block @ transform
        scores[start:stop] = block @ x_star + noise[start:stop]
        feats[dest[start:stop]] = block
    labels = _sign_labels(scores)
    return feats, (labels if order is None else labels[order])


def gen_graph_guided(n, d, seed, order=None):
    """Sparse-precision Gaussian features with sigmoid-model labels.

    Raw precision entries are 0 with probability 0.95, otherwise uniform on
    [-0.75,-0.25] u [0.25,0.75]; the matrix is symmetrized and its diagonal
    shifted so the smallest eigenvalue is at least 0.1. With `order`, a
    permutation of range(n), sample order[k] is row k.

    Lambda is built in place, and every other d x d array but Lambda^{-1/2}
    is freed before the features are drawn.
    """
    if n < 1 or d < 1:
        raise ConfigError("n and d must be >= 1")
    check_dim(d, "graph_guided features")
    check_count(n * d, f"n={n} samples x d={d} features")
    rng_prec, rng_x, rng_feat, rng_noise = _substreams(seed, 4)

    # the raw entries, signed magnitudes on the mask and +0.0 off it; a
    # product with a sign of +-1.0 is exact, so negating in place is too
    mask = rng_prec.random((d, d)) >= 0.95
    Lam = rng_prec.uniform(0.25, 0.75, size=(d, d))
    np.negative(Lam, out=Lam, where=rng_prec.random((d, d)) < 0.5)
    Lam[~mask] = 0.0
    del mask
    Lam += Lam.T
    Lam *= 0.5
    evals, evecs = np.linalg.eigh(Lam)
    shift = max(0.0, _MIN_PRECISION_EIG - float(evals[0]))
    # shift * I adds +0.0 off the diagonal, which changes no entry: none is -0.0
    Lam[np.diag_indices(d)] += shift
    evals = evals + shift

    x_star = rng_x.standard_normal(d)

    # N(0, Lam^{-1}) through the symmetric inverse square root
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    del evecs
    ii, jj = np.nonzero(Lam)
    upper = ii < jj
    edges = ii[upper], jj[upper]
    del ii, jj, upper
    noise = rng_noise.uniform(0.0, 1.0, size=n)
    feats, labels = _draw_rows(rng_feat, n, d, x_star, noise, order, inv_sqrt)
    ds = Dataset(
        features=feats,
        labels=labels,
        meta={"name": "graph_guided", "n": n, "d": d, "classes": 2,
              "source": "synthetic", "seed": seed},
    )
    return ds, PrecisionModel(Lambda=Lam, edges=edges, shift=shift), x_star


def gen_overlap(n, seed, grid=20, order=None):
    """Standard-normal features; true parameter is a grid x grid matrix with
    only its first column nonzero; labels via the noisy sign model. With
    `order`, a permutation of range(n), sample order[k] is row k."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    d = grid * grid
    check_dim(d, f"overlap features on a {grid} x {grid} grid")
    check_count(n * d, f"n={n} samples x d={d} features")
    rng_x, rng_feat, rng_noise = _substreams(seed, 3)
    X = np.zeros((grid, grid))
    X[:, 0] = rng_x.standard_normal(grid)
    x_star = X.ravel(order="F")  # column-major: first column first
    noise = rng_noise.standard_normal(n)
    feats, labels = _draw_rows(rng_feat, n, d, x_star, noise, order)
    ds = Dataset(
        features=feats,
        labels=labels,
        meta={"name": "overlap", "n": n, "d": d, "classes": 2,
              "source": "synthetic", "seed": seed},
    )
    return ds, x_star


def parse_libsvm(source, n_features=None, label_mode="auto"):
    """Parse LIBSVM sparse text: `label idx:val ...`, 1-based increasing idx
    up to MAX_DIM.

    Blank lines and `#` comments are skipped. label_mode:
      "auto"       two distinct values map smaller -> -1, larger -> +1;
                   more map to class indices 0..m-1 by sorted order
      "binary"     force the two-value mapping
      "multiclass" force the sorted class-index remap
      "raw"        keep labels as parsed
    """
    if label_mode not in _LABEL_MODES:
        raise ConfigError(
            f"label_mode must be one of {', '.join(_LABEL_MODES)}, got {label_mode!r}"
        )
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh, n_features=n_features, label_mode=label_mode)
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        source = io.TextIOWrapper(source, encoding="utf-8")

    parts, offset = [], 0
    # about 64 KB of text at a time bounds the parse's own memory
    try:
        for lines in iter(lambda: source.readlines(_PARSE_BLOCK_CHARS), []):
            parts.append(_parse_lines(lines, offset))
            offset += len(lines)
    except UnicodeDecodeError as exc:  # text decodes by the block: no exact line
        raise ParseError(f"not UTF-8 text at line {offset + 1} or later: byte "
                         f"0x{exc.object[exc.start]:02x}: {exc.reason}") from None
    if not sum(part[0].size for part in parts):
        raise ParseError("empty dataset: no data lines found")
    labels, counts, cols, vals = map(np.concatenate, zip(*parts))
    row = labels.size
    max_idx = int(cols.max()) if cols.size else 0

    d = n_features if n_features is not None else max_idx
    if d < max_idx:
        raise ParseError(f"n_features={d} smaller than max index {max_idx}")
    check_dim(d, "n_features")
    # indices strictly increase on each line, so this CSR is canonical
    indptr = np.concatenate([[0], np.cumsum(counts)])
    feats = sp.csr_matrix((vals, cols - 1, indptr), shape=(row, max(d, 1)))
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
        labels = np.searchsorted(uniq, labels).astype(float)
        classes = uniq.size
    else:
        classes = uniq.size
    return Dataset(
        features=feats,
        labels=labels,
        meta={"name": "libsvm", "n": row, "d": feats.shape[1],
              "classes": classes, "source": "libsvm", "label_mode": label_mode},
    )


def _parse_lines(lines, offset):
    """(labels, feature counts, indices, values) of the data lines among
    `lines`, which follow `offset` lines of the file; the ParseError of the
    first malformed one.

    The checks run over the whole block at once. If one fails, the block's
    data lines are checked again one at a time, so the first malformed line
    raises.
    """
    data_lines = [
        (lineno, tokens)
        for lineno, tokens in enumerate(map(str.split, lines), start=offset + 1)
        if tokens and tokens[0][0] != "#"
    ]
    parsed = _parse_block([tokens for _, tokens in data_lines])
    if parsed is None:
        # every block check is exact, so some line fails on its own too
        for lineno, tokens in data_lines:
            _check_line(tokens, lineno)
        raise InternalInvariantError(
            f"lines {offset + 1}-{offset + len(lines)} fail a block check "
            "but parse one at a time"
        )
    return parsed


def _parse_block(token_lines):
    """(labels, feature counts, indices, values) of the data lines' token
    lists, or None if any of them is malformed."""
    counts = np.array([len(tokens) - 1 for tokens in token_lines], dtype=np.intp)
    feats = [tok for tokens in token_lines for tok in tokens[1:]]
    joined = " ".join(feats)
    if not _one_colon_each(joined, len(feats)):
        return None
    pieces = joined.replace(":", " ").split(" ") if feats else []
    try:
        labels = np.fromiter(map(float, [tokens[0] for tokens in token_lines]),
                             float, len(token_lines))
        cols = np.fromiter(map(int, pieces[0::2]), np.int64, len(feats))
        vals = np.fromiter(map(float, pieces[1::2]), float, len(feats))
    except (ValueError, OverflowError):
        return None
    # each index against the one before it on its line, 0 for a line's first
    prev = np.empty_like(cols)
    prev[1:] = cols[:-1]
    prev[(np.cumsum(counts) - counts)[counts > 0]] = 0
    if not (np.isfinite(labels).all() and (cols > prev).all()
            and (cols <= MAX_DIM).all()):
        return None
    return labels, counts, cols, vals


def _one_colon_each(joined, count):
    """Whether each of the `count` space-joined, whitespace-free tokens
    holds exactly one ':'."""
    # ':' and ' ' are single bytes that no other UTF-8 character contains
    text = np.frombuffer(joined.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = text[(text == ord(":")) | (text == ord(" "))]
    # exactly one ':' per token leaves the separators alternating ": : :"
    return bool(seps.size == max(2 * count - 1, 0)
                and (seps[0::2] == ord(":")).all()
                and (seps[1::2] == ord(" ")).all())


def _check_line(tokens, lineno):
    """Raise the ParseError of a data line's first malformed token; a label
    that is not finite, an index beyond int64 and one above MAX_DIM are
    malformed."""
    try:
        if not np.isfinite(float(tokens[0])):
            raise ValueError
    except ValueError:
        raise ParseError(f"bad label token {tokens[0]!r}", lineno) from None
    prev_idx = 0
    for tok in tokens[1:]:
        idx_s, _, val_s = tok.partition(":")
        try:
            idx = int(idx_s)
            np.int64(idx)  # OverflowError outside int64
            float(val_s)
        except (ValueError, OverflowError):
            raise ParseError(f"bad feature token {tok!r}", lineno) from None
        if idx > MAX_DIM:
            raise ParseError(
                f"feature index {idx}: d={idx} is above the largest "
                f"supported d={MAX_DIM}", lineno
            )
        if idx <= prev_idx:
            raise ParseError(
                f"feature indices must be 1-based strictly increasing, "
                f"got {idx} after {prev_idx}", lineno
            )
        prev_idx = idx


def write_libsvm(dataset, path, sidecar=None):
    """Write the sparse LIBSVM text form; optional JSON sidecar with meta."""
    feats = sp.csr_matrix(dataset.features)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(feats.shape[0]):
            start, stop = feats.indptr[i], feats.indptr[i + 1]
            pairs = " ".join(
                f"{j + 1}:{v:.17g}"
                for j, v in zip(feats.indices[start:stop], feats.data[start:stop])
            )
            label = dataset.labels[i]
            label_s = f"{int(label)}" if float(label).is_integer() else f"{label:.17g}"
            fh.write(f"{label_s} {pairs}".rstrip() + "\n")
    if sidecar is not None:
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(dataset.meta, fh, indent=2)


def split_indices(n, fraction, seed):
    """Sorted (train, test) indices of a seeded shuffle-then-split of n
    samples; disjoint and exhaustive."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError("split fraction must lie strictly between 0 and 1")
    n_train = int(round(fraction * n))
    if n_train <= 0 or n_train >= n:
        raise ConfigError(
            f"degenerate split: {n_train} train / {n - n_train} test samples"
        )
    check_count(n, f"split of n={n} samples")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _tagged(dataset, rows, tag):
    meta = dict(dataset.meta)
    meta["split"] = tag
    return Dataset(
        features=dataset.features[rows], labels=dataset.labels[rows], meta=meta
    )


def split(dataset, fraction, seed):
    """Seeded shuffle-then-split into (train, test) copies."""
    train, test = split_indices(dataset.n, fraction, seed)
    return _tagged(dataset, train, "train"), _tagged(dataset, test, "test")


def split_views(dataset, n_train):
    """(train, test) views of the first n_train rows and of the rest, tagged
    as `split` tags its copies."""
    return (_tagged(dataset, slice(None, n_train), "train"),
            _tagged(dataset, slice(n_train, None), "test"))
