"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/sweep.py --seeds 1,2,3 [--out FILE]

Runs `run.py` once per workload of BENCHMARK.json and seed with --trace 0 and
its run_seconds, then once per workload with --trace 1 at the first seed, one
process at a time. For every
end-to-end metric it prints the median and the spread: the distance between
the quartiles (statistics.quantiles(n=4)) as a share of the median. With
--out it also writes those figures, the traced run's per-layer metrics and
every run's unbounded values and digests to FILE as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(x) for x in args.seeds.split(",")]

    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, values = [], {}
        for seed in seeds:
            result, prov = run_once(workload, seed, seconds, 0)
            runs.append(
                {
                    "seed": seed,
                    **{k: result[k] for k in ("correct", "attempted", "failed")},
                    "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                    "unbounded": prov["unbounded"],
                    "digest": prov["digest"],
                }
            )
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        traced, prov = run_once(workload, seeds[0], seconds, 1)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        e2e = {name: {**summarise(v), "unit": units[name]} for name, v in values.items()}
        out["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {
                "seed": seeds[0],
                "correct": traced["correct"],
                "metrics": {k: m["value"] for k, m in traced["metrics"].items()},
            },
            "runs": runs,
        }
        out["provenance"] = {k: v for k, v in prov.items() if k not in ("digest", "unbounded")}
        failed = sum(r["failed"] for r in runs) + traced["failed"]
        print(f"{workload}: {len(runs) + 1} runs, {failed} failed operations")
        for name, s in e2e.items():
            print(f"  {name:<20} median {s['median']:>12.4f} {s['unit']:<5} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
