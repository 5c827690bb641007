"""Synthetic data generation and LIBSVM-format ingestion.

All generators draw from independent Philox substreams per quantity, so
e.g. changing the sample count never changes the true parameter vector.
"""

import io
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigError, ParseError

_MIN_PRECISION_EIG = 0.1


@dataclass
class Dataset:
    features: object  # dense ndarray or csr matrix, n x d
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # a sparse matrix is finite iff its stored values are
        feats = self.features
        values = feats.tocsr().data if sp.issparse(feats) else feats
        if not np.isfinite(values).all():
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
    support: np.ndarray
    shift: float


def _substreams(seed, k):
    return [
        np.random.Generator(np.random.Philox(s))
        for s in np.random.SeedSequence(seed).spawn(k)
    ]


def _sign_labels(scores):
    # sign(0) maps to +1
    return np.where(scores >= 0.0, 1.0, -1.0)


def gen_graph_guided(n, d, seed):
    """Sparse-precision Gaussian features with sigmoid-model labels.

    Raw precision entries are 0 with probability 0.95, otherwise uniform on
    [-0.75,-0.25] u [0.25,0.75]; the matrix is symmetrized and its diagonal
    shifted so the smallest eigenvalue is at least 0.1.
    """
    if n < 1 or d < 1:
        raise ConfigError("n and d must be >= 1")
    rng_prec, rng_x, rng_feat, rng_noise = _substreams(seed, 4)

    raw = np.zeros((d, d))
    mask = rng_prec.random((d, d)) >= 0.95
    mags = rng_prec.uniform(0.25, 0.75, size=(d, d))
    signs = np.where(rng_prec.random((d, d)) < 0.5, -1.0, 1.0)
    raw[mask] = (signs * mags)[mask]
    Lam = 0.5 * (raw + raw.T)
    evals, evecs = np.linalg.eigh(Lam)
    shift = max(0.0, _MIN_PRECISION_EIG - float(evals[0]))
    Lam = Lam + shift * np.eye(d)
    evals = evals + shift
    support = (np.abs(Lam) > 0) & ~np.eye(d, dtype=bool)

    x_star = rng_x.standard_normal(d)

    # N(0, Lam^{-1}) through the symmetric inverse square root
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    feats = rng_feat.standard_normal((n, d)) @ inv_sqrt

    noise = rng_noise.uniform(0.0, 1.0, size=n)
    labels = _sign_labels(feats @ x_star + noise)
    ds = Dataset(
        features=feats,
        labels=labels,
        meta={"name": "graph_guided", "n": n, "d": d, "classes": 2,
              "source": "synthetic", "seed": seed},
    )
    return ds, PrecisionModel(Lambda=Lam, support=support, shift=shift), x_star


def gen_overlap(n, seed, grid=20):
    """Standard-normal features; true parameter is a grid x grid matrix with
    only its first column nonzero; labels via the noisy sign model."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    rng_x, rng_feat, rng_noise = _substreams(seed, 3)
    d = grid * grid
    X = np.zeros((grid, grid))
    X[:, 0] = rng_x.standard_normal(grid)
    x_star = X.ravel(order="F")  # column-major: first column first
    feats = rng_feat.standard_normal((n, d))
    noise = rng_noise.standard_normal(n)
    labels = _sign_labels(feats @ x_star + noise)
    ds = Dataset(
        features=feats,
        labels=labels,
        meta={"name": "overlap", "n": n, "d": d, "classes": 2,
              "source": "synthetic", "seed": seed},
    )
    return ds, x_star


def parse_libsvm(source, n_features=None, label_mode="auto"):
    """Parse LIBSVM sparse text: `label idx:val ...`, 1-based increasing idx.

    Blank lines and `#` comments are skipped. label_mode:
      "auto"       two distinct values map smaller -> -1, larger -> +1;
                   more map to class indices 0..m-1 by sorted order
      "binary"     force the two-value mapping
      "multiclass" force the sorted class-index remap
      "raw"        keep labels as parsed
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_libsvm(fh, n_features=n_features, label_mode=label_mode)
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        source = io.TextIOWrapper(source, encoding="utf-8")

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
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", lineno) from None
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(f"bad feature token {tok!r}", lineno)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
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
    return Dataset(
        features=feats,
        labels=labels,
        meta={"name": "libsvm", "n": row, "d": feats.shape[1],
              "classes": classes, "source": "libsvm", "label_mode": label_mode},
    )


def write_libsvm(dataset, path, sidecar=None):
    """Write the sparse LIBSVM text form; optional JSON sidecar with meta."""
    feats = dataset.features
    if not sp.issparse(feats):
        feats = sp.csr_matrix(feats)
    feats = feats.tocsr()
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
            json.dump(dataset.meta, fh, indent=2, default=str)


def split(dataset, fraction, seed):
    """Seeded shuffle-then-split into (train, test); disjoint and exhaustive."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError("split fraction must lie strictly between 0 and 1")
    n = dataset.n
    n_train = int(round(fraction * n))
    if n_train == 0 or n_train == n:
        raise ConfigError(
            f"degenerate split: {n_train} train / {n - n_train} test samples"
        )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = rng.permutation(n)
    tr, te = np.sort(perm[:n_train]), np.sort(perm[n_train:])

    def take(idx, tag):
        meta = dict(dataset.meta)
        meta["split"] = tag
        return Dataset(
            features=dataset.features[idx], labels=dataset.labels[idx], meta=meta
        )

    return take(tr, "train"), take(te, "test")
