"""The three benchmark workloads: `ablate`, `train` and `serve`.

Each drives the program only through its public entry points: `cli.main`
in-process for `ablate` and `train`, and a `vngender serve` child process
for `serve`. Each checks every output and counts failed operations.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus as corpus_mod
import httpload

N_NAMES = 26_000
# setup_s is the median of several set-ups spread over the run, because the
# host's speed drifts: one burst of set-ups can land in a slow second.
LOADS_PER_ABLATE = 3      # load_dataset calls before each ablate pass
LOADS_PER_TRAIN = 1       # load_dataset calls before each train command
SPAWNS_PER_BATCH = 2      # server starts before each serve batch
MIN_PASSES = 3            # ablate passes and serve batches; their median is work_s
MASKS = ("fan", "mn", "fin", "fan+mn", "fan+fin", "mn+fin", "full")
ABLATE_MODELS = ("linear_svm+count", "bernoulli_nb+tfidf")   # the CLI default
LSTM_EPOCHS = 1
# Options that bound the seed's run time (listed in README.md).
TRAIN_OPTIONS = {
    "multinomial_nb": [],
    "bernoulli_nb": [],
    "logistic_regression": [],
    "linear_svm": [],
    "decision_tree": ["--max-depth", "8"],
    "random_forest": ["--trees", "20", "--max-depth", "8"],
    "lstm": ["--epochs", str(LSTM_EPOCHS)],
}
SERVE_KIND = "random_forest"
CONNECTIONS = 2           # keep-alive connections; the machine has 2 CPUs
BATCH = 200               # requests in the serve mix; one closed-loop batch
REF_RATE = 25.0           # requests/s the seed sustains on 2 connections
LADDER = (25, 50, 100, 200, 400, 800, 1600)
LADDER_STEP_S = 2.0
GIVE_UP_S = 1.0           # an open-loop request not sent by then is dropped
LATENCY_LIMIT_S = 0.100
HEALTH_PROBES = 40
REPLAYS = 3               # traced in-process replays of the serve mix
F1_TOL = 1e-12


@dataclass
class Run:
    """State shared by a workload run: inputs, counters and results."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    program: object           # the imported `vngender` package
    tracer: object
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)  # end-to-end metric -> sample count
    setups: list = field(default_factory=list)   # set-up times, seconds
    layer: dict = field(default_factory=dict)   # per-layer values the tracer cannot see
    notes: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    @contextlib.contextmanager
    def traced(self, on: bool):
        was, self.tracer.enabled = self.tracer.enabled, on
        try:
            yield
        finally:
            self.tracer.enabled = was


def cli(run: Run, argv: list[str]) -> tuple[bool, float]:
    """`vngender <argv>` in-process with stdout captured: (exit code 0, seconds)."""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run.program.cli.main([str(a) for a in argv])
    except Exception as exc:  # a traceback from the program is a failed operation
        run.problems.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        code = -1
    return code == 0, time.perf_counter() - start


def macro_f1(truth: list[int], pred: list[int]) -> float:
    """Mean over both classes of per-class F1 (0/0 counts as 0)."""
    f1s = []
    for cls in (0, 1):
        tp = sum(1 for t, p in zip(truth, pred) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(truth, pred) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(truth, pred) if t == cls and p != cls)
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(f1s) / 2


def make_corpus(run: Run):
    corpus = corpus_mod.generate(N_NAMES, run.seed)
    csv_path = run.work / "names.csv"
    corpus.write_csv(csv_path)
    run.notes["distinct_tokens"] = corpus.distinct_tokens()
    return corpus, csv_path


def timed_loads(run: Run, csv_path: Path, count: int) -> None:
    """Set-up samples for the in-process workloads: time to load the CSV.

    Each load starts from a collected heap, as in a fresh process; otherwise
    the collections it triggers depend on the loads before it.
    """
    with run.traced(False):
        for _ in range(count):
            gc.collect()
            start = time.perf_counter()
            dataset = run.program.data_io.load_dataset(csv_path)
            run.setups.append(time.perf_counter() - start)
            if len(dataset) != N_NAMES or dataset.rejects:
                run.fail(f"load_dataset read {len(dataset)} rows, {len(dataset.rejects)} rejected")


def record_setup(run: Run) -> None:
    run.end_to_end["setup_s"] = statistics.median(run.setups)
    run.samples["setup_s"] = len(run.setups)


def self_peak_rss(run: Run) -> None:
    run.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def passes(run: Run, one_pass, min_passes: int) -> list[float]:
    """Repeat `one_pass(traced)` for --seconds and at least `min_passes` times.

    The host's speed drifts by tens of percent for seconds at a time, so
    work_s is the median of several passes. With tracing, one plain pass and
    one traced pass give trace.overhead_frac. Returns the plain pass times.
    """
    if run.trace:
        plain = one_pass(False)
        with run.traced(True):
            traced = one_pass(True)
        run.layer["trace.overhead_frac"] = traced / plain - 1.0
        return [plain]
    times = [one_pass(False)]
    while len(times) < min_passes or sum(times) < run.seconds:
        times.append(one_pass(False))
    return times


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def expected_skips(corpus) -> dict[str, int]:
    """Records each mask must skip: one-token names have no family and no
    middle, two-token names have no middle."""
    one = sum(1 for n in corpus.n_tokens if n == 1)
    two = sum(1 for n in corpus.n_tokens if n == 2)
    skips = dict.fromkeys(MASKS, 0)
    skips.update({"fan": one, "mn": one + two, "fan+mn": one})
    return skips


def check_ablation(run: Run, report: dict, skips: dict) -> list[float]:
    """Every (mask, model) cell present with scores in [0, 1]; returns macro-F1s."""
    f1s = []
    for mask in MASKS:
        for model in ABLATE_MODELS:
            cell = report.get("cells", {}).get(f"{mask}|{model}")
            scores = [cell.get(k) for k in ("male_f1", "female_f1", "macro_f1")] if cell else []
            if not scores or not all(isinstance(s, float) and 0.0 <= s <= 1.0 for s in scores):
                run.fail(f"ablate cell {mask}|{model} missing or out of range: {cell}")
                continue
            f1s.append(cell["macro_f1"])
    if len(report.get("cells", {})) != len(MASKS) * len(ABLATE_MODELS):
        run.fail(f"ablate report has {len(report.get('cells', {}))} cells")
    if report.get("skipped") != skips:
        run.fail(f"ablate skip counts {report.get('skipped')} != expected {skips}")
    for model in ABLATE_MODELS:
        cells = report.get("cells", {})
        if f"full|{model}" in cells and f"fan|{model}" in cells:
            if cells[f"full|{model}"]["macro_f1"] <= cells[f"fan|{model}"]["macro_f1"]:
                run.fail(f"{model}: full mask does not beat fan")
    return f1s


def ablate(run: Run) -> None:
    corpus, csv_path = make_corpus(run)
    skips = expected_skips(corpus)
    run.notes["skipped"] = skips
    out = run.work / "ablation.json"
    reports = []

    def one_pass(traced: bool) -> float:
        timed_loads(run, csv_path, LOADS_PER_ABLATE)
        run.attempted += len(MASKS) * len(ABLATE_MODELS)
        ok, seconds = cli(run, ["ablate", "--data", csv_path, "--seed", run.seed, "--out", out])
        if not ok:
            run.fail("ablate command failed", len(MASKS) * len(ABLATE_MODELS))
            return seconds
        with open(out, encoding="utf-8") as fh:
            reports.append(json.load(fh))
        return seconds

    times = passes(run, one_pass, MIN_PASSES)
    record_setup(run)
    run.end_to_end["work_s"] = statistics.median(times)
    run.samples["work_s"] = len(times)
    if reports:
        f1s = check_ablation(run, reports[0], skips)
        if any(r != reports[0] for r in reports[1:]):
            run.fail("ablate reports differ between passes of the same seed")
        run.layer["macro_f1"] = statistics.fmean(f1s) if f1s else 0.0
    self_peak_rss(run)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def check_bundle(run: Run, kind: str, path: Path, test_split) -> float | None:
    """Reload the bundle, re-score the seeded test split, compare macro-F1."""
    bundle = run.program.bundle
    loaded = bundle.load_model(path)
    if loaded.model_kind != kind:
        run.fail(f"{kind}: bundle reloads as {loaded.model_kind}")
        return None
    truth, pred = [], []
    for rec in test_split.records:
        truth.append(rec.gender)
        pred.append(bundle.bundle_predict(loaded, rec.full_name)["label"])
    stored = loaded.train_meta["metrics"]["macro_f1"]
    rescored = macro_f1(truth, pred)
    if abs(rescored - stored) > F1_TOL:
        run.fail(f"{kind}: re-scored macro-F1 {rescored!r} != stored {stored!r}")
        return None
    if kind == "logistic_regression":
        meta = loaded.model.train_meta
        run.layer["classical.lr_n_iter"] = meta["n_iter"]
        run.layer["classical.lr_converged"] = int(meta["converged"])
    return stored


def train(run: Run) -> None:
    program = run.program
    _, csv_path = make_corpus(run)
    paths = {kind: run.work / f"{kind}.bundle" for kind in TRAIN_OPTIONS}
    per_kind: dict[str, list[float]] = {kind: [] for kind in TRAIN_OPTIONS}
    model_ids: dict[str, str] = {}

    def one_pass(traced: bool) -> float:
        total = 0.0
        for kind, options in TRAIN_OPTIONS.items():
            timed_loads(run, csv_path, LOADS_PER_TRAIN)
            run.attempted += 1
            ok, seconds = cli(run, ["train", "--data", csv_path, "--model", kind,
                                    "--seed", run.seed, "--out", paths[kind], *options])
            total += seconds
            if not traced:
                per_kind[kind].append(seconds)
            if not ok:
                run.fail(f"train {kind} failed")
                continue
            run.layer[f"bundle.bytes.{kind}"] = os.path.getsize(paths[kind])
            with run.traced(False):
                model_id = program.bundle.load_model(paths[kind]).model_id
            if model_ids.setdefault(kind, model_id) != model_id:
                run.fail(f"train {kind}: model_id differs between passes of the same seed")
        return total

    times = passes(run, one_pass, 1)
    record_setup(run)
    run.end_to_end["work_s"] = statistics.median(times)
    run.samples["work_s"] = len(times)
    for kind, ts in per_kind.items():
        run.layer[f"train.{kind}_s"] = statistics.median(ts)

    dataset = program.data_io.load_dataset(csv_path)
    test = program.evaluation.stratified_split(dataset, program.evaluation.SplitSpec(seed=run.seed))[2]
    f1s = [check_bundle(run, kind, paths[kind], test) for kind in model_ids]
    f1s = [f for f in f1s if f is not None]
    run.layer["macro_f1"] = statistics.fmean(f1s) if f1s else 0.0
    self_peak_rss(run)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

def _variant(rng: np.random.Generator, name: str) -> str:
    """The same name with other case, whitespace or Unicode composition."""
    choice = int(rng.integers(5))
    if choice == 0:
        return name.upper()
    if choice == 1:
        return name.lower()
    if choice == 2:
        return "  " + name.replace(" ", " \t  ") + "\n"
    if choice == 3:
        return unicodedata.normalize("NFD", name)
    return unicodedata.normalize("NFD", name.swapcase())


def request_mix(run: Run, corpus, test_split, loaded, n: int) -> list[httpload.Request]:
    """Held-out names (80%), names with unseen given syllables (8%), case /
    whitespace / NFD variants of held-out names (8%) and invalid bodies (4%).

    Expected 200 bodies come from in-process `bundle_predict` on the served
    bundle; a variant must score exactly as its canonical name does.
    """
    bundle = run.program.bundle
    rng = np.random.default_rng([run.seed, 1])
    records = test_split.records
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.96:
            rec = records[int(rng.integers(len(records)))]
            name = rec.full_name
            if u >= 0.88:
                male = int(rng.random() < corpus_mod.MALE_SHARE)
                name = corpus_mod.fresh_name(rng, corpus, male)
            elif u >= 0.80:
                name = _variant(rng, name)
                if bundle.bundle_predict(loaded, name) != bundle.bundle_predict(loaded, rec.full_name):
                    run.fail(f"variant {name!r} scores differently from {rec.full_name!r}")
            body = json.dumps({"name": name}, ensure_ascii=False).encode("utf-8")
            out.append(httpload.Request(body, 200, {}, name))
        elif u < 0.98:
            out.append(httpload.Request(b'{"name": " \\t "}', 400, {"error": "empty_name"}))
        else:
            out.append(httpload.Request(b'{"name": "Nguy', 400, {"error": "malformed_json"}))
    return out


def replay(run: Run, loaded, requests: list[httpload.Request]) -> float:
    """Fill in the expected bodies by scoring every name in-process; returns seconds."""
    predict = run.program.bundle.bundle_predict
    start = time.perf_counter()
    for req in requests:
        if req.name is not None:
            req.expect = predict(loaded, req.name)
    return time.perf_counter() - start


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(n: int) -> int:
    """p99 with at least 1000 samples, else the highest whole percentile
    with at least ten samples beyond it."""
    return 99 if n >= 1000 else max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def tally(run: Run, outs: list, phase: str) -> list[httpload.Outcome]:
    """Count the requests sent and the wrong answers among them."""
    sent = [o for o in outs if o is not None]
    run.attempted += len(sent)
    bad = sum(1 for o in sent if not o.ok)
    if bad:
        run.fail(f"{bad} wrong responses {phase}", bad)
    return sent


def reference_rate(run: Run, port: int, requests: list[httpload.Request]) -> None:
    """Open-loop latency at a rate the seed sustains, for --seconds."""
    n = int(REF_RATE * run.seconds)
    outs = httpload.open_loop(port, [requests[i % len(requests)] for i in range(n)],
                              REF_RATE, CONNECTIONS, GIVE_UP_S)
    sent = tally(run, outs, f"at {REF_RATE}/s")
    if len(sent) < n:
        run.fail(f"{n - len(sent)} requests not sent at {REF_RATE}/s", n - len(sent))
    lat = [o.done - o.due for o in sent]
    pct = tail_pct(len(lat))
    run.layer["serve.p50_ms"] = 1e3 * statistics.median(lat)
    run.layer["serve.tail_pct"] = pct
    run.layer["serve.tail_ms"] = 1e3 * percentile(lat, pct)
    run.layer["serve.generator_late_p99_ms"] = 1e3 * percentile([o.late for o in sent], 99)


def ladder(run: Run, port: int, requests: list[httpload.Request]) -> float:
    """Highest rate whose p99 latency from due time stays within the limit,
    with every request sent and answered correctly and no backlog left at
    the end of the step."""
    best = 0.0
    for rate in LADDER:
        n = int(rate * LADDER_STEP_S)
        outs = httpload.open_loop(port, [requests[i % len(requests)] for i in range(n)],
                                  rate, CONNECTIONS, GIVE_UP_S)
        sent = tally(run, outs, f"at {rate}/s")
        if len(sent) < n or not all(o.ok for o in sent):
            break
        lat = [o.done - o.due for o in sent]
        if percentile(lat, 99) > LATENCY_LIMIT_S or lat[-1] > LATENCY_LIMIT_S:
            break
        best = float(rate)
    return best


def serve(run: Run) -> None:
    program = run.program
    corpus, csv_path = make_corpus(run)
    bundle_path = run.work / "served.bundle"
    ok, _ = cli(run, ["train", "--data", csv_path, "--model", SERVE_KIND, "--seed", run.seed,
                      "--out", bundle_path, *TRAIN_OPTIONS[SERVE_KIND]])
    if not ok:
        raise RuntimeError(f"could not train the {SERVE_KIND} bundle to serve")
    run.layer[f"bundle.bytes.{SERVE_KIND}"] = os.path.getsize(bundle_path)
    dataset = program.data_io.load_dataset(csv_path)
    test = program.evaluation.stratified_split(dataset, program.evaluation.SplitSpec(seed=run.seed))[2]

    with run.traced(run.trace):
        loaded = program.bundle.load_model(bundle_path)
    run.layer["featurize.vocab_size"] = len(loaded.vocabulary)
    # The served model's test-set score; every served label is checked
    # against in-process scoring, so it is also what clients get.
    run.layer["macro_f1"] = loaded.train_meta["metrics"]["macro_f1"]
    requests = request_mix(run, corpus, test, loaded, BATCH)
    plain_s = replay(run, loaded, requests)
    if run.trace:
        # A replay takes a tenth of a second, so compare medians of several.
        plain, traced = [plain_s], []
        for _ in range(REPLAYS):
            with run.traced(True):
                traced.append(replay(run, loaded, requests))
            plain.append(replay(run, loaded, requests))
        run.layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0

    env = dict(os.environ, PYTHONPATH=str(Path(program.__file__).parent.parent))
    argv = [sys.executable, "-m", "vngender.cli", "serve", "--model", str(bundle_path)]
    proc = None
    with open(run.work / "server.log", "wb") as log:
        try:
            # A batch client: every request due at once, two connections,
            # each batch on a freshly started server.
            batches = []
            while len(batches) < MIN_PASSES or sum(batches) < run.seconds:
                for _ in range(SPAWNS_PER_BATCH):
                    if proc is not None:
                        httpload.stop_server(proc)
                        proc = None
                    port = httpload.free_port()
                    proc, seconds = httpload.start_server(
                        argv + ["--bind", f"{httpload.HOST}:{port}"], env, port, log)
                    run.setups.append(seconds)
                outs = httpload.open_loop(port, requests, math.inf, CONNECTIONS)
                tally(run, outs, "in a closed-loop batch")
                batches.append(max(o.done for o in outs) - outs[0].due)
            record_setup(run)
            run.end_to_end["work_s"] = statistics.median(batches)
            run.samples["work_s"] = len(batches)

            if run.trace:
                reference_rate(run, port, requests)
                run.layer["serve.max_rps"] = ladder(run, port, requests)
                health, bad = httpload.health_latencies(port, HEALTH_PROBES, loaded.model_id)
                run.attempted += HEALTH_PROBES
                if bad:
                    run.fail(f"{bad} wrong /health responses", bad)
                run.layer["service.health_p50_ms"] = 1e3 * statistics.median(health)
                predict_p50_ms = run.tracer.stat("bundle.bundle_predict").p50_us() / 1e3
                run.layer["service.overhead_p50_ms"] = run.layer["serve.p50_ms"] - predict_p50_ms
        finally:
            if proc is not None:
                httpload.stop_server(proc)
    run.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {"ablate": ablate, "train": train, "serve": serve}
