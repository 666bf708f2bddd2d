"""telkit benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-tune --seed 0 --seconds 25 --trace 0

``--trace 0`` measures end to end with the program unmodified; ``--trace 1``
wraps telkit's layer functions (see ``tracer.py``) and reports per-layer
self times and counts instead.  The last line of standard output is the
result object; the line before it is a summary with the machine facts,
every named metric of the workload with its unit, the error rate and
the output digests.  See README.md in this directory.
"""

import time

PROCESS_START = time.perf_counter()  # imports count towards set-up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SETUPS = 3  # set-ups (inputs + warm-up) per run; set-up time takes their median
REFERENCE_SEED = 0

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  Names ending in ".s" are self time.
PER_LAYER = {
    "learners.fit.svm.s": "s",
    "learners.fit.tree.s": "s",
    "learners.fit.logit.s": "s",
    "learners.fit.knn.s": "s",
    "learners.fit.calls": "count",
    "learners.cross_val_accuracy.calls": "count",
    "learners.cross_val_accuracy.s": "s",
    "learners.predict.calls": "count",
    "learners.predict.rows_per_call": "rows/call",
    "learners.predict.s": "s",
    "hosvd.hosvd.calls": "count",
    "hosvd.hosvd.s": "s",
    "hosvd.decompositions_per_train_sample": "calls/sample",
    "hosvd.rank_search.s": "s",
    "hosvd.reconstruct.calls": "count",
    "hosvd.reconstruct.s": "s",
    "linalg.thin_svd.calls": "count",
    "linalg.thin_svd.s": "s",
    "linalg.pca_fit.s": "s",
    "tensor.unfold.calls": "count",
    "tensor.unfold.s": "s",
    "tensor.mode_n_product.calls": "count",
    "tensor.mode_n_product.s": "s",
    "ensemble.regroup.s": "s",
    "ensemble.telvi_fit.s": "s",
    "ensemble.telvi_predict.calls": "count",
    "ensemble.telvi_predict.s": "s",
    "ensemble.majority_vote.calls": "count",
    "ensemble.majority_vote.s": "s",
    "ensemble.bagging_fit.s": "s",
    "experiment.stage.load_s": "s",
    "experiment.stage.split_s": "s",
    "experiment.stage.decompose_s": "s",
    "experiment.stage.tune_s": "s",
    "experiment.stage.fit_s": "s",
    "experiment.stage.evaluate_s": "s",
    "model_io.save_model.s": "s",
    "model_io.load_model.s": "s",
    "model_io.model_bytes": "B",
    "canonical.canonical_json.s": "s",
    "io.load_tensor_dataset.s": "s",
    "io.save_tensor_dataset.s": "s",
    "io.teld_bytes": "B",
    "cli.train.s": "s",
    "cli.predict.s": "s",
    "synth.synth_generate.s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_telkit():
    """Import telkit from this checkout's ``src``, never from elsewhere."""
    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    import telkit

    origin = Path(telkit.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"telkit imported from {origin}, not from {src}")


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = CHECKOUT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = CHECKOUT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": commit,
    }


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


class Checker:
    """Count operations and the ones that failed.

    An operation fails when it raised, failed its workload's own check,
    produced bytes that differ from the first pass's, or, at the
    reference seed, bytes whose digest differs from ``golden.json``.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.first: dict[str, bytes] = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result) -> None:
        self.passes += 1
        for op in result.ops:
            self.attempted += 1
            problem = None
            if not op.ok:
                problem = "raised or failed its own check"
            elif op.output is not None:
                reference = self.first.setdefault(op.name, op.output)
                digest = hashlib.sha256(op.output).hexdigest()
                if op.output != reference:
                    problem = "output differs from the first pass"
                elif op.name in self.golden and digest != self.golden[op.name]:
                    problem = "output differs from the reference digest"
            if problem:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{op.name}: {problem}")
            # drop the bytes, so memory does not grow with the pass count
            op.output = None

    def digests(self) -> dict:
        return {
            name: hashlib.sha256(output).hexdigest()
            for name, output in self.first.items()
        }


def timed_pass(workload, checker):
    started = time.perf_counter()
    result = workload.run_pass()
    seconds = time.perf_counter() - started
    checker.check(result)
    return seconds, result


def named_metrics(passes, pass_seconds) -> dict:
    """The workload's user-facing metrics: one per timed step, plus
    per-sample latency percentiles where the workload has them."""
    steps: dict[str, list[float]] = {}
    latencies = []
    for result in passes:
        for op in result.ops:
            if op.latency:
                latencies.append(op.seconds * 1e3)
            else:
                steps.setdefault(op.name, []).append(op.seconds)
    out = {
        f"{name}_s": {"value": statistics.median(values), "unit": "s"}
        for name, values in steps.items()
    }
    if latencies:
        out["predict_p50_ms"] = {"value": statistics.median(latencies), "unit": "ms"}
        out["predict_p95_ms"] = {"value": percentile(latencies, 95), "unit": "ms"}
        out["predict_samples"] = {"value": len(latencies), "unit": "count"}
    out["pass_s"] = {"value": statistics.median(pass_seconds), "unit": "s"}
    for op, timings in passes[0].stages.items():
        for stage in timings:
            out[f"{op}.{stage}"] = {
                "value": statistics.median(
                    p.stages[op][stage] for p in passes if op in p.stages
                ),
                "unit": "s",
            }
    return out


def layer_metrics(tracer, result, workload):
    """Per-layer values and span counts of one traced unit (input
    preparation + pass); counts of nested spans are keyed "scope/span"."""
    summary = tracer.summary()
    values = {name: 0 for name in PER_LAYER}
    for span, entry in summary.items():
        if f"{span}.s" in values:
            values[f"{span}.s"] = entry["self_s"]
        if f"{span}.calls" in values:
            values[f"{span}.calls"] = entry["calls"]
        if span.startswith("learners.fit."):
            values["learners.fit.calls"] += entry["calls"]
    predicts = summary.get("learners.predict", {"calls": 0})["calls"]
    if predicts:
        values["learners.predict.rows_per_call"] = tracer.predict_rows / predicts
    if result.train_samples:
        values["hosvd.decompositions_per_train_sample"] = (
            tracer.training_decompositions() / result.train_samples
        )
    for timings in result.stages.values():
        for stage, seconds in timings.items():
            if f"experiment.stage.{stage}" in values:
                values[f"experiment.stage.{stage}"] += seconds
    values["model_io.model_bytes"] = result.model_bytes
    values["io.teld_bytes"] = getattr(workload, "teld_bytes", 0)
    counts = {span: entry["calls"] for span, entry in sorted(summary.items())}
    counts.update(
        (f"{scope}/{span}", calls)
        for scope, nested in sorted(tracer.scoped_counts().items())
        for span, calls in sorted(nested.items())
    )
    return values, counts


def measure_untraced(args, workload, checker, summary) -> dict:
    """Closed-loop passes of the plain program until ``--seconds`` have
    passed; the last pass may run past the window."""
    deadline = time.perf_counter() + args.seconds
    passes, pass_seconds = [], []
    while not passes or time.perf_counter() < deadline:
        seconds, result = timed_pass(workload, checker)
        passes.append(result)
        pass_seconds.append(seconds)
    summary["pass_seconds"] = pass_seconds
    summary["metrics"] = named_metrics(passes, pass_seconds)
    return {
        "pass_s": statistics.median(pass_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(args, workload, checker, summary) -> dict:
    """Alternate an untraced pass with a traced unit (input preparation
    and one pass) until ``--seconds`` have passed; per-layer values are
    medians over the traced units."""
    from tracer import Tracer

    tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    untraced, traced, unit_values, unit_counts = [], [], [], []
    while not traced or time.perf_counter() < deadline:
        seconds, _ = timed_pass(workload, checker)
        untraced.append(seconds)
        tracer.reset()
        tracer.install()
        try:
            workload.prepare()
            seconds, result = timed_pass(workload, checker)
        finally:
            tracer.uninstall()
        traced.append(seconds)
        values, counts = layer_metrics(tracer, result, workload)
        unit_values.append(values)
        unit_counts.append(counts)
    metrics = {
        name: statistics.median(values[name] for values in unit_values)
        for name in PER_LAYER
    }
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    tracer.write_jsonl(
        CHECKOUT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    )
    counts_repeat = all(counts == unit_counts[0] for counts in unit_counts)
    if not counts_repeat:
        checker.failed += 1
        checker.problems.append("span counts differ between traced passes")
    summary["pass_seconds"] = {"untraced": untraced, "traced": traced}
    summary["counts"] = unit_counts[0]
    summary["counts_repeat"] = counts_repeat
    summary["spans"] = tracer.summary()
    return metrics


def run(args, workload, import_s: float) -> dict:
    golden = {}
    if args.seed == REFERENCE_SEED:
        golden = json.loads((BENCH_DIR / "golden.json").read_text())[args.workload]
    checker = Checker(golden)

    prepare_s, warm_up_s = [], []
    for _ in range(SETUPS):
        started = time.perf_counter()
        workload.prepare()
        prepared = time.perf_counter()
        workload.warm_up()
        prepare_s.append(prepared - started)
        warm_up_s.append(time.perf_counter() - prepared)
    setup_s = import_s + statistics.median(
        prepare + warm_up for prepare, warm_up in zip(prepare_s, warm_up_s)
    )

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(),
        "setup": {"import_s": import_s, "prepare_s": prepare_s,
                  "warm_up_s": warm_up_s},
    }
    if args.trace:
        metrics, units = measure_traced(args, workload, checker, summary), PER_LAYER
    else:
        metrics = {"setup_s": setup_s}
        metrics.update(measure_untraced(args, workload, checker, summary))
        summary["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        units = END_TO_END
    summary["passes"] = checker.passes
    summary["error_rate"] = checker.failed / checker.attempted
    summary["problems"] = checker.problems
    summary["digests"] = checker.digests()
    print(json.dumps(summary, sort_keys=True))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_telkit()
    except ImportError as exc:
        print(f"error: cannot import telkit from this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # its imports count towards set-up

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    workdir = CHECKOUT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        outcome = run(args, workload, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
