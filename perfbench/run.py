"""Benchmark entry point.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

Run from the repository root. It imports the package from ``src/``, makes
the workload's inputs from ``--seed``, measures it for about ``--seconds``
(more when a workload's minimum run count needs it), checks the outputs and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` gives the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once traced and gives the
per-layer metrics, with the spans written to ``perfbench/out/``. Earlier
lines record the environment, the metrics as a table, digests and any
failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Matrices here are at most a few hundred wide, so one BLAS thread is as
# fast as two and does not contend with the Python thread on a shared box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the workloads and metrics, with their units and bounds
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src" / "switchprompt").glob("*.py"))
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in sources}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "seed": seed,
        "source_lines": {"total": sum(lines.values()), **lines},
    }


def end_to_end(outcome, peak_rss_mb: float) -> dict[str, float]:
    import numpy as np

    steps_ms = 1000.0 * np.array(outcome.step_s)
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "run_s": statistics.median(outcome.run_s),
        "train_examples_per_s": statistics.median(outcome.train_rate),
        "step_ms_p50": float(np.percentile(steps_ms, 50)),
        "step_ms_p90": float(np.percentile(steps_ms, 90)),
        "eval_examples_per_s": statistics.median(outcome.eval_rate),
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": outcome.test_accuracy,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import golden
    from tracing import Tracer
    from workloads import SPECS, WORKLOADS, make_inputs

    spec = SPECS[args.workload]
    workload = WORKLOADS[args.workload]
    inputs = make_inputs(spec, args.seed)
    reference = json.loads(golden.REFERENCE.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        try:
            golden_run = golden.golden_outputs(work / "golden")
            gate = golden.compare(golden_run, reference)
        except Exception:  # a failing program is reported, not fatal
            golden_run = {"digests": {}}
            gate = [(f"golden run raised:\n{traceback.format_exc()}", golden.operations(reference))]
        if args.trace:
            untraced = workload(spec, inputs, None, work / "untraced")
            with Tracer() as tracer:
                traced = workload(spec, inputs, None, work / "traced")
            outcomes = [untraced, traced]
        else:
            outcomes = [workload(spec, inputs, args.seconds, work / "run")]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = golden.operations(reference) + sum(o.attempted for o in outcomes)
    failed = sum(n for _, n in gate) + sum(o.failed for o in outcomes)
    problems = [p for p, _ in gate] + [p for o in outcomes for p in o.problems]
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    complete = all(o.run_s for o in outcomes)
    values = {}
    if not complete:
        print("no timed run completed; no metrics", file=sys.stderr)
    elif args.trace:
        values = tracer.metrics()
        values["trace.overhead_ratio"] = (
            statistics.median(traced.run_s) / statistics.median(untraced.run_s)
        )
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(outcomes[0], peak_rss_mb)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }

    print(json.dumps({"env": environment(args.seed), "workload": args.workload}))
    digests = {f"golden.{k}": v for k, v in golden_run["digests"].items()}
    digests.update((k, v) for o in outcomes for k, v in o.digests.items())
    print(json.dumps({"digests": digests}))
    print(f"error_rate: {failed}/{attempted} operations failed")
    print(f"samples: {len(outcomes[-1].unit_s)} timed units, {len(outcomes[-1].step_s)} steps, "
          f"{len(outcomes[-1].setup_s)} set-ups")
    width = max((len(name) for name in metrics), default=0)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if complete and len(metrics) == len(declared) else 1


if __name__ == "__main__":
    sys.exit(main())
