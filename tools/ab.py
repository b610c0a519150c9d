"""Paired benchmark runs of two revisions.

    python3 tools/ab.py PARENT CHANGE --workload W --seed N --pairs 10 --seconds 25

Extracts both revisions with `git archive` into a temporary directory and
runs each one's `perfbench/run.py` (untraced) alternately, one run of each
side per pair, swapping which side runs first from pair to pair. Then it
prints, per end-to-end metric of the parent's BENCHMARK.json, both sides'
medians and quartiles and the pairs in which the change read better, and
whether the digests and the failed-check counts agree. It writes nothing
in the repository; the extracted trees are removed at exit.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ("trail_sha256", "cmi_sha256")


def extract(rev: str, dest: Path) -> Path:
    """The files of revision `rev` of this repository, under `dest`."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)
    return dest


def run(tree: Path, workload: str, seed: int, seconds: float) -> str:
    """The standard output of one untraced benchmark run of `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        tail = done.stderr[-2000:]
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{tail}")
    return done.stdout


def parse(stdout: str) -> tuple[dict, dict]:
    """A run's provenance and result objects: its last two lines."""
    provenance, result = stdout.strip().splitlines()[-2:]
    return json.loads(provenance)["provenance"], json.loads(result)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(parent: list[str], change: list[str], specs: list[dict]) -> list[str]:
    """Report lines for paired runs: parent[i] and change[i] are the
    standard outputs of pair i, and `specs` the end-to-end metrics of
    BENCHMARK.json (name, unit, better)."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need as many parent runs as change runs, got {len(parent)}, {len(change)}")
    runs = {"parent": [parse(out) for out in parent], "change": [parse(out) for out in change]}
    pairs = len(parent)
    head = f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}  change better"
    lines = [f"{'metric':<18} {head}"]
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for _, r in got] for side, got in runs.items()}
        cells = []
        for side in ("parent", "change"):
            q1, q2, q3 = quartiles(values[side])
            cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        lines.append(f"{name:<18} {cells[0]:>32} {cells[1]:>32}  {wins}/{pairs} ({spec['unit']})")
    for key in DIGESTS:
        seen = {side: sorted({prov["digest"][key] for prov, _ in got}) for side, got in runs.items()}
        agree = len(seen["parent"]) == 1 and seen["parent"] == seen["change"]
        shown = " / ".join(",".join(d[:8] for d in seen[side]) for side in ("parent", "change"))
        lines.append(f"{key}: {shown}: {'agree' if agree else 'DIFFER'}")
    failed = {side: sum(r["failed"] for _, r in got) for side, got in runs.items()}
    lines.append(f"failed checks: parent {failed['parent']}, change {failed['change']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        revs = {"parent": args.parent, "change": args.change}
        trees = {side: extract(rev, Path(tmp) / side) for side, rev in revs.items()}
        specs = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        outputs: dict[str, list[str]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                outputs[side].append(run(trees[side], args.workload, args.seed, args.seconds))
                metrics = parse(outputs[side][-1])[1]["metrics"]
                shown = ", ".join(f"{m['name']} {metrics[m['name']]['value']:.4g}" for m in specs)
                print(f"pair {i + 1}/{args.pairs} {side}: {shown}", file=sys.stderr, flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s:")
    print(f"parent {args.parent}, change {args.change}")
    print("\n".join(summary(outputs["parent"], outputs["change"], specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
