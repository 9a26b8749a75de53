import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import unicodedata
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vngender import classical, data_io, evaluation as ev, featurize, names_core as nc
from vngender.data_io import Dataset
from vngender.errors import DataError, EvaluationError, ToolkitError, TrainingError
from vngender.evaluation import ModelSpec, SplitSpec
from vngender.featurize import VectorizerConfig


def tiny_dataset(n_male, n_female):
    names = [f"Lê Văn M{i}" for i in range(n_male)] + [f"Lê Thị F{i}" for i in range(n_female)]
    return Dataset(names, [1] * n_male + [0] * n_female)


class TestStratifiedSplit:
    def test_hundred_per_label_gives_exact_sizes(self):
        train, dev, test = ev.stratified_split(tiny_dataset(100, 100), SplitSpec(seed=5))
        assert (len(train), len(dev), len(test)) == (140, 20, 40)
        assert train.label_counts() == {0: 70, 1: 70}
        assert dev.label_counts() == {0: 10, 1: 10}
        assert test.label_counts() == {0: 20, 1: 20}

    @settings(max_examples=60, deadline=None)
    @given(
        n_male=st.integers(3, 60),
        n_female=st.integers(3, 60),
        seed=st.integers(0, 1000),
    )
    def test_partition_and_floor_arithmetic(self, n_male, n_female, seed):
        ds = tiny_dataset(n_male, n_female)
        spec = SplitSpec(seed=seed)
        train, dev, test = ev.stratified_split(ds, spec)
        # exact floor arithmetic, per label
        for label, n in ((1, n_male), (0, n_female)):
            c1 = math.floor(Fraction(7, 10) * n)
            c2 = math.floor(Fraction(8, 10) * n)
            assert train.label_counts()[label] == c1
            assert dev.label_counts()[label] == c2 - c1
            assert test.label_counts()[label] == n - c2
        # partition: every record exactly once
        assert sorted(ds.names) == sorted(train.names + dev.names + test.names)

    def test_same_seed_identical_output(self):
        ds = tiny_dataset(37, 23)
        a = ev.stratified_split(ds, SplitSpec(seed=9))
        b = ev.stratified_split(ds, SplitSpec(seed=9))
        for part_a, part_b in zip(a, b):
            assert part_a.names == part_b.names
            assert part_a.labels.tolist() == part_b.labels.tolist()

    def test_different_seed_different_order(self):
        ds = tiny_dataset(37, 23)
        a = ev.stratified_split(ds, SplitSpec(seed=9))
        b = ev.stratified_split(ds, SplitSpec(seed=10))
        assert any(x.names != y.names for x, y in zip(a, b))

    def test_small_label_rejected(self):
        with pytest.raises(EvaluationError, match="label 0"):
            ev.stratified_split(tiny_dataset(5, 2), SplitSpec())

    def test_label_other_than_zero_or_one_rejected(self):
        ds = tiny_dataset(5, 5)
        with pytest.raises(DataError, match="^labels must be 0 or 1$"):
            Dataset(ds.names + ["Lê Văn Nam"], [*ds.labels.tolist(), 2])


class TestConfusion:
    def test_mixed_counts(self):
        cm = ev.confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)

    def test_perfect_predictions(self):
        cm = ev.confusion([1, 0, 1], [1, 0, 1])
        assert cm.fp == 0 and cm.fn == 0

    def test_constant_one_on_all_zero_truth(self):
        cm = ev.confusion([0, 0, 0], [1, 1, 1])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (0, 0, 3, 0)

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            ev.confusion([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            ev.confusion([], [])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
    def test_arrays_and_lists_count_like_a_counter(self, pairs):
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        counts = Counter(pairs)
        expected = ev.ConfusionMatrix(tp=counts[1, 1], fp=counts[0, 1], tn=counts[0, 0],
                                      fn=counts[1, 0])
        assert ev.confusion(y_true, y_pred) == expected
        got = ev.confusion(np.array(y_true, dtype=np.int64), np.array(y_pred, dtype=np.int64))
        assert got == expected
        assert all(type(n) is int for n in (got.tp, got.fp, got.tn, got.fn))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20), st.data())
    def test_a_label_outside_zero_or_one_rejected(self, labels, data):
        bad = list(labels)
        bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(st.sampled_from([2, -1]))
        for y_true, y_pred in ((bad, labels), (labels, bad)):
            for convert in (list, np.array):
                with pytest.raises(EvaluationError, match="labels must be 0 or 1"):
                    ev.confusion(convert(y_true), convert(y_pred))


class TestMacroMetrics:
    def test_hand_computed_example(self):
        m = ev.macro_metrics(ev.ConfusionMatrix(tp=50, fp=10, tn=30, fn=10))
        assert m.per_class[1].precision == pytest.approx(50 / 60)
        assert m.per_class[1].recall == pytest.approx(50 / 60)
        assert m.per_class[1].f1 == pytest.approx(5 / 6, abs=1e-12)

    def test_perfect_predictions_are_all_ones(self):
        m = ev.macro_metrics(ev.ConfusionMatrix(tp=5, fp=0, tn=7, fn=0))
        assert m.macro_precision == m.macro_recall == m.macro_f1 == 1.0

    def test_zero_over_zero_is_zero(self):
        m = ev.macro_metrics(ev.ConfusionMatrix(tp=0, fp=0, tn=3, fn=2))
        assert m.per_class[1].precision == 0.0
        assert m.per_class[1].recall == 0.0
        assert m.per_class[1].f1 == 0.0

    @given(
        tp=st.integers(0, 200), fp=st.integers(0, 200),
        tn=st.integers(0, 200), fn=st.integers(0, 200),
    )
    def test_macro_is_mean_of_per_class(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        m = ev.macro_metrics(ev.ConfusionMatrix(tp, fp, tn, fn))
        assert abs(m.macro_f1 - (m.per_class[1].f1 + m.per_class[0].f1) / 2) <= 1e-12
        assert abs(
            m.macro_precision
            - (m.per_class[1].precision + m.per_class[0].precision) / 2
        ) <= 1e-12

    @given(
        y_true=st.lists(st.integers(0, 1), min_size=2, max_size=40).filter(
            lambda ys: 0 < sum(ys) < len(ys)
        ),
        constant=st.integers(0, 1),
    )
    def test_constant_predictor_macro_is_half_of_class_f1(self, y_true, constant):
        cm = ev.confusion(y_true, [constant] * len(y_true))
        m = ev.macro_metrics(cm)
        assert m.macro_f1 == pytest.approx(m.per_class[constant].f1 / 2, abs=1e-12)
        assert m.per_class[1 - constant].f1 == 0.0

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30
        ),
        seed=st.integers(0, 100),
    )
    def test_joint_reordering_leaves_metrics_unchanged(self, pairs, seed):
        import random

        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        shuffled = pairs[:]
        random.Random(seed).shuffle(shuffled)
        a = ev.macro_metrics(ev.confusion(y_true, y_pred))
        b = ev.macro_metrics(
            ev.confusion([t for t, _ in shuffled], [p for _, p in shuffled])
        )
        assert a == b


class TestRunExperiment:
    def test_planted_rule_multinomial_reaches_perfect_macro_f1(self):
        ds = data_io.generate_synthetic(2000, 1.0, 17)
        result = ev.run_experiment(
            ds, nc.parse_mask("mn+fin"), ModelSpec("multinomial_nb", VectorizerConfig("count")),
            SplitSpec(seed=2),
        )
        assert result.metrics.macro_f1 == 1.0

    def test_family_only_stays_near_majority_baseline(self):
        ds = data_io.generate_synthetic(2000, 1.0, 17)
        result = ev.run_experiment(
            ds, nc.parse_mask("fan"), ModelSpec("multinomial_nb", VectorizerConfig("count")),
            SplitSpec(seed=2),
        )
        train, _, test = ev.stratified_split(ds, SplitSpec(seed=2))
        majority = 1 if train.label_counts()[1] >= train.label_counts()[0] else 0
        baseline = ev.macro_metrics(
            ev.confusion(test.labels, [majority] * len(test))
        )
        assert abs(result.metrics.macro_f1 - baseline.macro_f1) <= 0.02

    def test_skipped_records_are_counted(self):
        names = [f"Lê Văn M{i}" for i in range(15)] + [f"Lê Thị F{i}" for i in range(15)]
        # two-token names have no middle component
        names += [f"Trần N{i}" for i in range(6)]
        ds = Dataset(names, [1] * 15 + [0] * 15 + [1] * 6)
        result = ev.run_experiment(
            ds, nc.parse_mask("mn"), ModelSpec("multinomial_nb", VectorizerConfig("count")),
            SplitSpec(seed=0),
        )
        assert sum(result.skipped.values()) == 6

    def test_lstm_pipeline_runs(self):
        ds = data_io.generate_synthetic(300, 1.0, 4)
        spec = ModelSpec(
            "lstm", seed=3,
            options={"hidden": 8, "epochs": 1, "embedding_dim": 16,
                     "learning_rate": 0.5},
        )
        result = ev.run_experiment(ds, nc.parse_mask("mn+fin"), spec, SplitSpec(seed=1))
        assert 0.0 <= result.metrics.macro_f1 <= 1.0
        assert len(result.model.train_meta["epoch_losses"]) == 1

    def test_cell_takes_every_input_from_model_input(self, monkeypatch):
        ds = data_io.generate_synthetic(300, 1.0, 4)
        calls = []
        original = classical.model_input

        def counted(kind, docs, *args):
            calls.append((kind, len(docs)))
            return original(kind, docs, *args)

        monkeypatch.setattr(classical, "model_input", counted)
        train, _, test = ev.stratified_split(ds, SplitSpec(seed=1))
        for spec in (ModelSpec("multinomial_nb", VectorizerConfig("count")),
                     ModelSpec("lstm", options={"hidden": 2, "epochs": 1, "embedding_dim": 4})):
            calls.clear()
            ev.run_experiment(ds, nc.parse_mask("full"), spec, SplitSpec(seed=1))
            assert calls == [(spec.kind, len(train)), (spec.kind, len(test))]


class TestModelSpec:
    def test_matrix_kind_requires_vectorizer(self):
        with pytest.raises(EvaluationError, match="multinomial_nb needs a vectorizer"):
            ModelSpec("multinomial_nb")

    def test_token_kind_takes_no_vectorizer(self):
        with pytest.raises(EvaluationError, match="lstm reads tokens and takes no vectorizer"):
            ModelSpec("lstm", VectorizerConfig("count"))

    def test_label(self):
        assert ModelSpec("lstm").label == "lstm"
        assert ModelSpec("linear_svm", VectorizerConfig("tfidf")).label == "linear_svm+tfidf"


class TestFitContract:
    """Every kind fits on (x, labels) and rejects bad labels with one message."""

    DOCS = [["lê", "văn", "nam"], ["lê", "thị", "mai"], ["trần", "văn", "an"],
            ["hồ", "thị", "hà"]]
    OPTIONS = {"random_forest": {"n_trees": 2},
               "lstm": {"hidden": 2, "epochs": 1, "embedding_dim": 4}}

    def fit(self, kind, labels):
        docs = featurize.encode(self.DOCS)
        cfg = None if classical.MODEL_KINDS[kind].reads_tokens else VectorizerConfig("count")
        vocabulary = featurize.fit_vocabulary(docs, cfg or VectorizerConfig())
        x = classical.model_input(kind, docs, vocabulary, cfg)
        return classical.train_classifier(kind, x, labels, **self.OPTIONS.get(kind, {}))

    @pytest.mark.parametrize("kind", list(classical.MODEL_KINDS))
    def test_fits_on_x_and_labels(self, kind):
        assert self.fit(kind, [1, 0, 1, 0]).kind == kind

    @pytest.mark.parametrize("kind", list(classical.MODEL_KINDS))
    @pytest.mark.parametrize("labels, message", [
        ([1, 0, 2, 0], "^labels must be 0 or 1$"),
        ([1, 0, 1], r"^expected 4 labels, one per row, got shape \(3,\)$"),
        ([1, 1, 1, 1], "^training set contains a single class$"),
    ])
    def test_bad_labels_rejected_alike(self, kind, labels, message):
        with pytest.raises(TrainingError, match=message):
            self.fit(kind, labels)


@pytest.fixture(scope="module")
def report_and_dataset():
    ds = data_io.generate_synthetic(1600, 0.9, 23)
    specs = [ModelSpec("multinomial_nb", VectorizerConfig("count")),
             ModelSpec("linear_svm", VectorizerConfig("count"), seed=1)]
    report = ev.run_ablation(ds, specs, SplitSpec(seed=6))
    return report, ds, specs


class TestRunAblation:
    def test_exactly_seven_masks(self, report_and_dataset):
        report, *_ = report_and_dataset
        assert len(report.mask_labels) == 7
        assert set(report.mask_labels) == set(nc.MASKS)
        assert len(report.cells) == 14

    def test_middle_name_masks_dominate(self, report_and_dataset):
        report, *_ = report_and_dataset
        with_mn = [m for m in report.mask_labels if "mn" in m or m == "full"]
        without_mn = [m for m in report.mask_labels if m not in with_mn]
        for model in report.model_labels:
            floor_mn = min(report.cells[(m, model)].macro_f1 for m in with_mn)
            ceil_rest = max(report.cells[(m, model)].macro_f1 for m in without_mn)
            assert floor_mn > ceil_rest

    def test_single_cell_reproduces_run_experiment(self, report_and_dataset):
        report, ds, specs = report_and_dataset
        for mask in nc.ALL_MASKS:
            for spec in specs:
                result = ev.run_experiment(ds, mask, spec, SplitSpec(seed=6))
                assert report.cells[(mask.label, result.model_label)] == result.metrics
        assert len(report.cells) == 14

    def test_two_specs_with_one_label_rejected(self, report_and_dataset, monkeypatch):
        _, ds, _ = report_and_dataset
        specs = [ModelSpec("linear_svm", VectorizerConfig("count"), options={"c": 1.0}),
                 ModelSpec("linear_svm", VectorizerConfig("count"), options={"c": 1e-5})]
        monkeypatch.setattr(ev, "_encode_split", None)  # rejected before any encoding
        with pytest.raises(EvaluationError, match=r"^model linear_svm\+count is given twice$"):
            ev.run_ablation(ds, specs, SplitSpec(6))

    def test_report_formats(self, report_and_dataset):
        report, *_ = report_and_dataset
        text = ev.format_ablation(report)
        assert text.count("\n") == 8  # header + 7 masks
        payload = ev.ablation_to_dict(report)
        assert len(payload["cells"]) == 14
        assert set(payload["skipped"]) == set(nc.MASKS)

    def test_splits_and_segments_each_record_once(self, report_and_dataset, monkeypatch):
        _, ds, specs = report_and_dataset
        calls = Counter()

        def count_calls(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count_calls(nc, "tokenize")
        count_calls(nc, "normalize")
        count_calls(nc, "segment")
        count_calls(ev, "stratified_split")
        count_calls(ev, "_split_indices")
        count_calls(featurize, "encode")
        ev.run_ablation(ds, specs, SplitSpec(seed=6))
        # One batch: every name is normalized in one `tokenize` call, its
        # tokens are encoded in one `encode` call, and its components come
        # from token positions, not from `segment`.
        assert calls == {"tokenize": 1, "encode": 1, "_split_indices": 1}


def one_token_dataset() -> Dataset:
    """One-token names: the masks without a given name (`fan`, `mn` and
    `fan+mn`) leave no training record."""
    return Dataset([f"M{i}" for i in range(12)] + [f"F{i}" for i in range(12)],
                   [1] * 12 + [0] * 12)


class TestAblationProcesses:
    """`run_ablation` on the CPUs of a patched affinity set: the parent
    forks one worker per CPU beyond the first."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the affinity set's size; returns the list of forks made."""
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)

        def set_cpus(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            return forks

        return set_cpus

    def parent_takes_no_cell(self, monkeypatch):
        """Leave every cell to the workers."""
        parent, take_cells = os.getpid(), ev._take_cells
        monkeypatch.setattr(ev, "_take_cells",
                            lambda *args: {} if os.getpid() == parent else take_cells(*args))

    def test_one_and_four_cpus_write_the_same_report(self, cpus, report_and_dataset):
        _, ds, specs = report_and_dataset
        reports = {}
        for n in (1, 4):
            forks = cpus(n)
            forks.clear()
            reports[n] = json.dumps(ev.ablation_to_dict(ev.run_ablation(ds, specs, SplitSpec(6))))
            assert len(forks) == n - 1
        assert reports[1] == reports[4]

    def test_a_broken_matrix_built_in_a_worker_fails_the_run(self, cpus, monkeypatch,
                                                             report_and_dataset):
        """The suite's `CsrMatrix` check runs in forked workers too."""
        _, ds, specs = report_and_dataset
        forks = cpus(2)
        transform = featurize.transform

        def stores_a_zero(*args):
            m = transform(*args)
            data = m.data.copy()
            data[:1] = 0.0
            return featurize.CsrMatrix(m.indptr, m.indices, data, m.n_features)

        monkeypatch.setattr(featurize, "transform", stores_a_zero)
        self.parent_takes_no_cell(monkeypatch)
        with pytest.raises(AssertionError, match="^stored zero$"):
            ev.run_ablation(ds, specs, SplitSpec(6))
        assert len(forks) == 1

    def test_a_cell_error_in_a_worker_reaches_the_caller(self, cpus, monkeypatch):
        ds = one_token_dataset()
        specs = [ModelSpec("multinomial_nb", VectorizerConfig("count"))]
        cpus(1)
        with pytest.raises(EvaluationError) as serial:
            ev.run_ablation(ds, specs, SplitSpec(0))
        assert str(serial.value) == "no usable training records under mask 'fan'"
        forks = cpus(4)
        self.parent_takes_no_cell(monkeypatch)
        run_cell = ev._run_cell

        def slow(*args):
            time.sleep(0.2)  # so that each worker takes a cell before one fails
            return run_cell(*args)

        monkeypatch.setattr(ev, "_run_cell", slow)
        # Cells 0 (`fan`) and 1 (`mn`) fail, each in a worker of its own;
        # the lower one is raised.
        with pytest.raises(EvaluationError) as parallel:
            ev.run_ablation(ds, specs, SplitSpec(0))
        assert len(forks) == 3
        assert str(parallel.value) == str(serial.value)

    def test_a_worker_that_dies_is_an_error_naming_its_status(self, cpus, monkeypatch,
                                                              report_and_dataset):
        _, ds, specs = report_and_dataset
        forks = cpus(2)
        parent, run_cell = os.getpid(), ev._run_cell

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run_cell(*args)

        monkeypatch.setattr(ev, "_run_cell", dies_in_a_worker)
        self.parent_takes_no_cell(monkeypatch)
        with pytest.raises(ToolkitError, match=r"ablation worker process \d+ \(exit status 3\)"):
            ev.run_ablation(ds, specs, SplitSpec(6))
        assert len(forks) == 1

    def test_no_fork_while_another_thread_runs(self, cpus, report_and_dataset):
        report, ds, specs = report_and_dataset
        forks = cpus(4)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert ev.run_ablation(ds, specs, SplitSpec(6)) == report
        finally:
            done.set()
            thread.join()
        assert forks == []

    def test_sigint_leaves_no_worker_running(self, tmp_path):
        # In a child interpreter: its workers log their pids and then hang
        # in their first cell, and the test interrupts the parent.
        script = f"""
import os, sys, time
sys.path.insert(0, {os.path.dirname(os.path.dirname(ev.__file__))!r})
from vngender import data_io, evaluation as ev
from vngender.evaluation import ModelSpec, SplitSpec
from vngender.featurize import VectorizerConfig
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
parent = os.getpid()

def hang(*args):
    if os.getpid() != parent:
        with open({str(tmp_path / "pids")!r}, "a") as fh:
            fh.write(f"{{os.getpid()}}\\n")
    time.sleep(60)

ev._run_cell = hang
ev.run_ablation(data_io.generate_synthetic(100, 0.9, 1),
                [ModelSpec("multinomial_nb", VectorizerConfig("count"))], SplitSpec(0))
"""
        proc = subprocess.Popen([sys.executable, "-c", script], stderr=subprocess.PIPE)
        pids_file = tmp_path / "pids"
        deadline = time.monotonic() + 30
        while not (pids_file.exists() and len(pids_file.read_text().split()) == 2):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == -signal.SIGINT and err.decode().endswith("KeyboardInterrupt\n")
        for pid in map(int, pids_file.read_text().split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_ctrl_c_while_the_parent_waits_on_its_workers_reaps_them(self, tmp_path):
        # In a child interpreter, in a session of its own: the parent takes
        # no cell and waits on its workers, which hang in their first cell;
        # Ctrl-C reaches the whole process group. The parent reports what
        # `waitpid` finds once `run_ablation` has raised.
        script = f"""
import os, sys, time
sys.path.insert(0, {os.path.dirname(os.path.dirname(ev.__file__))!r})
from vngender import data_io, evaluation as ev
from vngender.evaluation import ModelSpec, SplitSpec
from vngender.featurize import VectorizerConfig
os.sched_getaffinity = lambda pid: {{0, 1, 2}}
parent, take_cells = os.getpid(), ev._take_cells
ev._take_cells = lambda *args: {{}} if os.getpid() == parent else take_cells(*args)

def hang(*args):
    with open({str(tmp_path / "pids")!r}, "a") as fh:
        fh.write(f"{{os.getpid()}}\\n")
    time.sleep(60)

ev._run_cell = hang
try:
    ev.run_ablation(data_io.generate_synthetic(100, 0.9, 1),
                    [ModelSpec("multinomial_nb", VectorizerConfig("count"))], SplitSpec(0))
except KeyboardInterrupt:
    try:
        print(os.waitpid(-1, os.WNOHANG))
    except ChildProcessError:
        print("no child")
"""
        out, err = tmp_path / "out", tmp_path / "err"
        with open(out, "wb") as out_fh, open(err, "wb") as err_fh:
            proc = subprocess.Popen([sys.executable, "-c", script], stdout=out_fh,
                                    stderr=err_fh, start_new_session=True)
        pids_file = tmp_path / "pids"
        try:
            deadline = time.monotonic() + 30
            while not (pids_file.exists() and len(pids_file.read_text().split()) == 2):
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.02)
            time.sleep(0.2)  # the parent is in its wait on the first worker
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(30) == 0
        finally:
            proc.kill()
            proc.wait()
            try:  # a worker left running would hang for a minute
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert (out.read_text(), err.read_text()) == ("no child\n", "")


# Names the encoded split must handle like per-record segmentation does.
EDGE_NAMES = (
    "Lan", "Minh",                                      # one token: given only
    "Trần Nam", "Lê Hà",                                # two tokens: no middle
    "Nguyễn Thị Diệu Linh", "Tôn Nữ Thị Mỹ Hà",         # several middle tokens
    "Phạm Văn Đức Minh Quân",
    "Lê Văn Văn Nam", "Hồ Thị Hồ Hồ",                   # a token repeated in a name
    "Đỗ Đức Anh", "Do Duc Anh", "Đô Dúc Ánh", "Dỗ Dức Anh",  # tone marks, đ/d
    unicodedata.normalize("NFD", "Nguyễn Thị Hiền"),    # decomposed spelling
)
TIED_CAP = 5   # max_features below every mask's vocabulary size
SPLIT = SplitSpec(seed=4)
ORACLE_CONFIGS = {
    "cli-default": [ModelSpec("linear_svm", VectorizerConfig("count"), seed=4),
                    ModelSpec("bernoulli_nb", VectorizerConfig("tfidf", 4000), seed=4)],
    "capped": [ModelSpec("multinomial_nb", VectorizerConfig("count", 3)),
               ModelSpec("logistic_regression", VectorizerConfig("tfidf", TIED_CAP))],
    "tokens": [ModelSpec("lstm", seed=2, options={"hidden": 4, "embedding_dim": 8,
                                                  "epochs": 1}),
               ModelSpec("decision_tree", VectorizerConfig("count", 50),
                         options={"max_depth": 4})],
}


def edge_case_dataset(seed: int) -> Dataset:
    """Synthetic three-token names plus each of `EDGE_NAMES` four times, all
    edge names with seeded random labels."""
    rng = np.random.default_rng(seed)
    synthetic = data_io.generate_synthetic(300, 0.85, seed)
    rows = list(zip(synthetic.names, synthetic.labels.tolist()))
    rows += [(name, int(rng.integers(0, 2))) for name in EDGE_NAMES * 4]
    rng.shuffle(rows)
    names, labels = zip(*rows)
    return Dataset(list(names), labels)


NAME_TOKENS = st.sampled_from(["nguyễn", "Trần", "thị", "VĂN", "hiền", "Đức", "đức", "duc",
                                "minh", "tú", "a", "xyz"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \n ", "\u3000"])


@st.composite
def raw_names(draw):
    """1-7 tokens with padded or inner whitespace, in NFC or NFD form."""
    tokens = draw(st.lists(NAME_TOKENS, min_size=1, max_size=7))
    name = tokens[0] + "".join(draw(SEPARATORS) + tok for tok in tokens[1:])
    name = draw(st.sampled_from(["", " ", "\t "])) + name + draw(st.sampled_from(["", "  ", "\n"]))
    return unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), name)


@st.composite
def raw_datasets(draw):
    """At least three records of each label, in any order."""
    labels = [0] * draw(st.integers(3, 15)) + [1] * draw(st.integers(3, 15))
    labels = draw(st.permutations(labels))
    return Dataset([draw(raw_names()) for _ in labels], labels)


class TestEncodedSplit:
    @settings(max_examples=80, deadline=None)
    @given(ds=raw_datasets(), seed=st.integers(0, 1000))
    def test_every_mask_selects_what_the_oracle_selects(self, ds, seed):
        spec = SplitSpec(seed=seed)
        encoded = ev._encode_split(ds, spec)
        for subset, records in zip(encoded.values(), ev.stratified_split(ds, spec)):
            for mask in nc.ALL_MASKS:
                docs, labels, skipped = subset.select(mask)
                assert labels.dtype == np.int64
                assert (docs.docs(), labels.tolist(), skipped) == oracles.select_subset(records, mask)


class TestAblationOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("config", list(ORACLE_CONFIGS))
    def test_report_matches_token_list_oracle(self, config, seed):
        ds = edge_case_dataset(seed)
        specs = ORACLE_CONFIGS[config]
        ours = ev.ablation_to_dict(ev.run_ablation(ds, specs, SPLIT))
        expected = ev.ablation_to_dict(oracles.ablation_report(ds, specs, SPLIT))
        assert json.dumps(ours) == json.dumps(expected)

    @pytest.mark.parametrize("max_features", [None, 3, TIED_CAP, 50])
    def test_every_cell_matches_token_list_oracle(self, max_features):
        ds = edge_case_dataset(0)
        spec = ModelSpec("multinomial_nb", VectorizerConfig("tfidf", max_features))
        for mask in nc.ALL_MASKS:
            result = ev.run_experiment(ds, mask, spec, SPLIT)
            expected = oracles.experiment(ds, mask, spec, SPLIT)
            vocab, oracle_vocab = result.vocabulary, expected.pop("vocabulary")
            assert vocab.tokens == oracle_vocab.tokens
            assert vocab.doc_freq.tolist() == oracle_vocab.doc_freq.tolist()
            assert vocab.n_docs == oracle_vocab.n_docs
            assert {name: getattr(result, name) for name in expected} == expected

    def test_edge_cases_tie_at_the_feature_cap(self):
        # At least one mask's train totals tie across the TIED_CAP cut, so the
        # tie rule decides which tokens the capped vocabulary keeps.
        train = ev.stratified_split(edge_case_dataset(0), SPLIT)[0]
        ties = 0
        for mask in nc.ALL_MASKS:
            docs, _, _ = oracles.select_subset(train, mask)
            totals = sorted(Counter(tok for doc in docs for tok in doc).values(), reverse=True)
            ties += len(totals) > TIED_CAP and totals[TIED_CAP - 1] == totals[TIED_CAP]
        assert ties
