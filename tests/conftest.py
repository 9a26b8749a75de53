import contextlib
import gc
import io
import sys
from typing import NamedTuple

import numpy as np
import pytest

import oracles
from vngender import classical, cli, data_io, names_core
from vngender.featurize import CsrMatrix


def csr(docs, n_features=None) -> CsrMatrix:
    """docs as dicts feature -> value; zero values are not stored. Without
    n_features, the matrix is as wide as its largest feature index."""
    rows = [sorted((int(f), float(v)) for f, v in dict(d).items() if v) for d in docs]
    if n_features is None:
        n_features = 1 + max((f for row in rows for f, _ in row), default=0)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [f for row in rows for f, _ in row]
    data = [v for row in rows for _, v in row]
    return CsrMatrix(indptr, indices, data, n_features)


def python_frames(fn, *args):
    """(fn(*args), the number of Python function frames the call entered).
    The collector is off meanwhile: its callbacks would add frames."""
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call"

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return result, frames


class Prediction(NamedTuple):
    label: int
    score: float


def predict_row(model, doc) -> Prediction:
    """Label and score of one row, given as a dict feature -> value."""
    labels, scores = classical.predict(model, csr([doc]))
    return Prediction(int(labels[0]), float(scores[0]))


def row_dict(matrix: CsrMatrix, i: int) -> dict:
    """Row i of a matrix as a dict feature -> value."""
    sl = slice(matrix.indptr[i], matrix.indptr[i + 1])
    return dict(zip(matrix.indices[sl].tolist(), matrix.data[sl].tolist()))


def random_instance(seed, max_docs=8, max_features=6, max_count=4):
    """Small random counts instance with both classes present."""
    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(2, max_docs + 1))
    n_features = int(rng.integers(1, max_features + 1))
    docs = []
    for _ in range(n_docs):
        doc = {}
        for f in range(n_features):
            c = int(rng.integers(0, max_count + 1))
            if c and rng.random() < 0.7:
                doc[f] = c
        docs.append(doc)
    labels = [int(rng.integers(0, 2)) for _ in range(n_docs)]
    labels[0] = 1
    labels[-1] = 0
    return docs, labels, n_features


def planted_docs(n, fidelity, seed, mask_label="mn+fin"):
    """Selected-component token docs plus labels from a synthetic corpus."""
    dataset = data_io.generate_synthetic(n, fidelity, seed)
    mask = names_core.parse_mask(mask_label)
    docs = []
    for name in dataset.names:
        comps = oracles.segment(oracles.normalize(name))
        docs.append(oracles.select_components(comps, mask))
    return docs, dataset.labels.tolist()


@pytest.fixture(scope="session")
def planted_small():
    return data_io.generate_synthetic(800, 1.0, 21)


@pytest.fixture(scope="session")
def planted_noisy():
    return data_io.generate_synthetic(2400, 0.9, 22)


# Small options that keep the bundle fixtures fast.
FAST_OPTIONS = {
    "random_forest": ["--trees", "5", "--max-depth", "4"],
    "decision_tree": ["--max-depth", "6"],
    "lstm": ["--hidden", "4", "--embedding-dim", "8", "--epochs", "1"],
}
SPLIT_SEED = 3
# The (kind, mask) of every bundle `bundle_paths` trains: every kind under
# "full", and multinomial NB and the LSTM under "fan".
BUNDLES = [(kind, "full") for kind in classical.MODEL_KINDS]
BUNDLES += [("multinomial_nb", "fan"), ("lstm", "fan")]


def run_cli(argv) -> tuple[int, str, str]:
    """`vngender <argv>` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def names_csv(tmp_path_factory):
    """Synthetic three-token names plus 60 one-token names, which have no
    family component."""
    dataset = data_io.generate_synthetic(600, 0.9, 23)
    rng = np.random.default_rng(23)
    names, labels = dataset.names.copy(), dataset.labels.tolist()
    for _ in range(60):
        names.append(str(rng.choice(data_io.GIVEN_POOL)).capitalize())
        labels.append(int(rng.integers(0, 2)))
    path = tmp_path_factory.mktemp("data") / "names.csv"
    data_io.save_dataset(data_io.Dataset(names, labels), path)
    return path


@pytest.fixture(scope="session")
def bundle_paths(names_csv, tmp_path_factory):
    """Trained bundle paths by (kind, mask), one for each of `BUNDLES`."""
    out = tmp_path_factory.mktemp("bundles")
    paths = {}
    for kind, mask in BUNDLES:
        path = out / f"{kind}-{mask}.bundle"
        code, *_ = run_cli(["train", "--data", names_csv, "--model", kind, "--mask", mask,
                           "--seed", SPLIT_SEED, "--out", path, *FAST_OPTIONS.get(kind, [])])
        assert code == 0
        paths[kind, mask] = path
    return paths
