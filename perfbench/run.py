"""hindcaus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with `--trace 1` it holds every
per-layer metric instead. Workload settings live in perfbench/workloads.json.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def load_settings(workload: str) -> dict:
    spec = json.loads((HERE / "workloads.json").read_text())
    if workload not in spec["workloads"]:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(spec['workloads'])}")
    s = {**spec["defaults"], **spec["workloads"][workload], "name": workload}
    if s["n_eval"] % s["batch_size"] or s["n_eval"] < s["batch_size"]:
        raise ValueError(f"n_eval must be a positive multiple of batch_size in {workload!r}")
    return s


def metric_specs() -> dict:
    """BENCHMARK.json: the metric names, units and directions to emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def line(name: str, value: float, unit: str, better: str) -> None:
    print(f"  {name:<42} {value:>16.6f} {unit:<9} ({better} is better)")


def report(metrics: dict, specs: list[dict]) -> dict:
    """Print every metric with unit and direction; check the names against
    the spec and return the result's metrics object."""
    names = [m["name"] for m in specs]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for m in specs:
        line(m["name"], metrics[m["name"]], m["unit"], m["better"])
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "hindcaus" / "__init__.py").is_file():
        print(f"perfbench: no hindcaus sources under {src}", file=sys.stderr)
        return 2
    try:
        settings = load_settings(args.workload)
        specs = metric_specs()["per_layer" if args.trace else "end_to_end"]
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # Thread counts are read once, when numpy loads BLAS.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(src), str(HERE)]
    import bench

    import_s = time.perf_counter() - _T0
    result = bench.run(settings, args.seed, args.seconds, bool(args.trace), import_s)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    metrics = report(result.metrics, specs)
    print("  not bounded (wall clock, and training quality, which is exact for a seed):")
    for name, (unit, better) in bench.UNBOUNDED.items():
        line(name, result.unbounded[name], unit, better)
    for problem in result.ledger.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"provenance": result.provenance}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.ledger.failed == 0,
                "attempted": result.ledger.attempted,
                "failed": result.ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
