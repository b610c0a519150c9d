"""Workloads, timed loops, correctness checks and metrics behind `run.py`.

Every call into hindcaus goes through a module attribute (`env_api.`,
`models.`, `objective.`, `numcore.`, `graph.`) so that the tracer can observe
it by swapping that attribute. The untraced path and the traced path run the
same code; the traced one only has wrappers installed.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import hindcaus.env as env_api
import hindcaus.graph as graph
import hindcaus.models as models
import hindcaus.numcore as numcore
import hindcaus.objective as objective
from hindcaus.env import EnvConfig, TrainBatch
from tracer import Tracer, count_tape_nodes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEARNER_FIELDS = ("o", "a", "tau", "r")
EPISODE_FIELDS = ("o", "a", "tau", "r", "gt_h", "gt_eps")
# Printed beside the bounded metrics of BENCHMARK.json, not bounded: the raw
# wall-clock times, and the training quality (taken at quality_step, exact for
# a seed), which moves with the seed as much as the training outcome does.
UNBOUNDED = {
    "wall_setup_s": ("s", "lower"),
    "wall_transitions_per_s": ("1/s", "higher"),
    "wall_op_ms_p50": ("ms", "lower"),
    "wall_op_ms_p90": ("ms", "lower"),
    "reference_ms_p50": ("ms", "lower"),
    "eval_loss_final": ("nats", "lower"),
    "graph_accuracy_final": ("fraction", "higher"),
    "hidden_recovery_final": ("fraction", "higher"),
}
LOOP_ROOTS = ("op", "graph_update", "checkpoint")
# Bounded times are reported at reference speed: each one is divided by the
# time the reference kernel took just before it, then multiplied by this,
# about its time on a 2-vCPU Xeon host, so that there the figures read close
# to wall time.
REFERENCE_NOMINAL_S = 2e-3
# setup_s is import time plus set-up time, each the median of several
# samples: set-up is repeated in this process, and the import is timed here
# and again in fresh interpreters.
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import bench; print(time.perf_counter() - t0)"
)


def _no_span(name: str):
    return nullcontext()


class Reference:
    """Fixed work timed before every measured interval.

    Small shared hosts change speed by up to 1.4x every few seconds and drift
    over minutes, as hyperthread siblings get busy. The same slowdown hits
    this kernel, so interval / kernel time is steady where the interval
    alone is not. The kernel mixes BLAS calls, numpy per-call overhead and
    interpreted Python as the ops do. In slow phases the last two slow down
    more than BLAS; their shares here are those under which op time / kernel
    time varied least over the ops of a run. It allocates nothing but small
    ints, so the program's own memory behaviour stays in the ratio.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.random((320, 64))
        self.w = rng.random((64, 64)) / 64
        self.bufs = (np.empty((320, 64)), np.empty((320, 64)))
        self.small = np.zeros(8)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        x = self.x
        for k in range(12):
            out = self.bufs[k % 2]
            np.matmul(x, self.w, out=out)
            np.tanh(out, out=out)
            x = out
        for _ in range(300):
            np.add(self.small, 1.0, out=self.small)
        acc, slots = 0, {}
        for i in range(3000):
            slots[i & 63] = acc
            acc += i * 3
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor taking a time measured now to reference speed."""
        return REFERENCE_NOMINAL_S / statistics.median(self.seconds() for _ in range(3))

    def since(self, before: float, seconds: float) -> tuple[float, float]:
        """`seconds` measured since `before = self.scale()`, in wall clock and
        at reference speed. The host's speed can change within a set-up, so
        the scale is the mean of the reference speeds before and after."""
        after = self.scale()
        return seconds, seconds * 2.0 / (1.0 / before + 1.0 / after)


def child_import_seconds() -> float:
    """Time to import the benchmark and hindcaus in a fresh interpreter."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


# -- correctness bookkeeping --------------------------------------------------


@dataclass
class Ledger:
    """Checked operations: every check is one attempt, a false one a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def learner_batch_ok(batch) -> bool:
    """The learner gets a TrainBatch and nothing else: no gt_h, no gt_eps."""
    return type(batch) is TrainBatch and tuple(f.name for f in fields(batch)) == LEARNER_FIELDS


def cmi_ok(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)) and np.all(values >= 0.0))


# -- set-up -------------------------------------------------------------------


def env_config(s: dict, seed: int) -> EnvConfig:
    make = EnvConfig.chain if s["graph"] == "chain" else EnvConfig.full
    return make(
        s["d_s"],
        l=s["l"],
        horizon=s["horizon"],
        noise_target=s["noise_target"],
        noise_probs=list(s["noise_probs"]),
        seed=seed,
    )


@dataclass
class SetUp:
    seconds: float
    dataset_path: Path
    generated: env_api.Dataset
    data: env_api.Dataset
    bundle: models.ModelBundle
    checkpoint: tuple | None  # identify: (path, arrays read back)
    held_out_count: int

    @property
    def train(self):
        return self.data.episodes[: -self.held_out_count]

    @property
    def held_out(self):
        return self.data.episodes[-self.held_out_count :]


def set_up(s: dict, seed: int, workdir: Path) -> SetUp:
    """Everything before the first timed op: rollout, dataset write and read,
    model build and, on identify, the checkpoint round-trip."""
    t0 = time.perf_counter()
    cfg = env_config(s, seed)
    generated = env_api.generate_dataset(cfg, s["n_train"] + s["n_eval"], seed=seed)
    path = workdir / "dataset.jsonl"
    env_api.save_dataset(generated, path)
    data = env_api.load_dataset(path)
    hyper = models.ModelHyper(hidden_dim=s["hidden_dim"], embed_dim=s["embed_dim"])
    bundle = models.build_models(data.config, s["variant"], s["learner_seed"], hyper)
    checkpoint = None
    if s["kind"] == "identify":
        ckpt = workdir / "identify-model"
        models.save_checkpoint(bundle.store, ckpt, config_hash=data.config_hash, step=0)
        arrays, _, _ = models.load_checkpoint(ckpt, expected_config_hash=data.config_hash)
        checkpoint = (ckpt, arrays)
    return SetUp(
        seconds=time.perf_counter() - t0,
        dataset_path=path,
        generated=generated,
        data=data,
        bundle=bundle,
        checkpoint=checkpoint,
        held_out_count=s["n_eval"],
    )


def check_set_up(su: SetUp, ledger: Ledger) -> None:
    """Dataset round-trip bit-exact on every field; identify's checkpoint
    round-trip bit-exact on every tensor, then loaded into the model."""
    a, b = su.generated, su.data
    ok = a.config == b.config and same_bits(a.gt_graph, b.gt_graph) and len(a) == len(b)
    ok = ok and all(
        same_bits(getattr(x, f), getattr(y, f))
        for x, y in zip(a.episodes, b.episodes)
        for f in EPISODE_FIELDS
    )
    ledger.check(ok, "dataset round-trip is not bit-exact")
    if su.checkpoint is not None:
        _, arrays = su.checkpoint
        live = {n: t.data for n, t in su.bundle.store.tensors().items()}
        ok = arrays.keys() == live.keys() and all(same_bits(arrays[n], live[n]) for n in live)
        ledger.check(ok, "identify checkpoint round-trip is not bit-exact")
        su.bundle.store.load_arrays(arrays)


# -- evaluation (beside the learner, never fed back) --------------------------


def hidden_recovery(s: dict, bundle, episodes) -> float:
    """Share of hidden cells where a zero-noise hard unroll of phi equals
    gt_h, under the best relabelling of the l values, per hidden factor."""
    cfg = bundle.env
    batch = env_api.stack_episodes(episodes)
    zeros = np.zeros((batch.size, cfg.d_h, cfg.l))
    with numcore.no_grad():
        enc = models.BatchEncoding(batch, cfg)
        _, samples = bundle.encoder.unroll(
            enc, temperature=s["temperature"], noise_for=lambda t: zeros, hard=True
        )
    pred = np.stack([x.data.argmax(axis=-1) for x in samples], axis=1)  # (B, T+1, d_h)
    truth = np.stack([e.gt_h for e in episodes])
    scores = []
    for q in range(cfg.d_h):
        confusion = np.zeros((cfg.l, cfg.l))
        np.add.at(confusion, (pred[..., q].ravel(), truth[..., q].ravel()), 1.0)
        best = max(confusion[np.arange(cfg.l), perm].sum() for perm in itertools.permutations(range(cfg.l)))
        scores.append(best / confusion.sum())
    return float(np.mean(scores))


def evaluate(s: dict, su: SetUp, bundle, cmi) -> dict:
    """Quality on the whole held-out set, under no_grad, with the current graph."""
    eval_batch = env_api.stack_episodes(su.held_out)
    ocfg = objective.ObjectiveConfig(reward_weight=s["reward_weight"], temperature=s["temperature"])
    rand = objective.StepRandomness(s["learner_seed"], 0, tag="eval")
    with numcore.no_grad():
        _, br = objective.total_objective(eval_batch, bundle, cmi.binarized, rand, ocfg)
    return {
        "eval_loss_final": br.total,
        "graph_accuracy_final": graph.graph_accuracy(cmi.binarized, su.data.gt_graph),
        "hidden_recovery_final": hidden_recovery(s, bundle, su.held_out),
    }


# -- timed loops --------------------------------------------------------------


@dataclass
class Pass:
    """One timed loop: per-op seconds, its wall time, and what it computed."""

    op_s: list[float]  # the op alone
    loop_s: list[float]  # the op plus the graph update or checkpoint after it
    ref_s: list[float]  # the reference kernel, timed just before the op
    trail: np.ndarray  # per-op values of the first quality_step ops
    cmi_values: np.ndarray  # EMA CMI after quality_step ops
    quality: dict
    checkpoint_bytes: int = 0

    def digest(self) -> dict:
        return {
            "ops": len(self.trail),
            "trail_sha256": hashlib.sha256(self.trail.tobytes()).hexdigest(),
            "cmi_sha256": hashlib.sha256(self.cmi_values.tobytes()).hexdigest(),
        }

    def same_result(self, other: "Pass") -> bool:
        return (
            same_bits(self.trail, other.trail)
            and same_bits(self.cmi_values, other.cmi_values)
            and self.quality == other.quality
        )


def train_batch(episodes, seed: int, step: int, size: int) -> TrainBatch:
    idx = numcore.stream(seed, "perfbench", "batch", step).integers(0, len(episodes), size=size)
    return env_api.stack_episodes([episodes[i] for i in idx])


def save_state(bundle, opt, cmi, step: int, path: Path, config_hash: str) -> None:
    models.save_checkpoint(
        bundle.store,
        path,
        config_hash=config_hash,
        step=step,
        extras={"adam_steps": opt.step_count, "cmi_updates": cmi.updates},
        extra_arrays={**opt.state_tensors(), "cmi/values": cmi.values},
    )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def timed_loop(s, su: SetUp, cmi, seconds, span, op, between=lambda step: None) -> Pass:
    """Call op(step) until quality_step ops are done and `seconds` of loop
    time have passed. Each op is timed on its own; `between(step)` (graph
    updates, checkpoint saves) counts in the loop time only. The reference
    kernel before each op and the quality evaluation after quality_step ops
    are not loop time."""
    clock, n_q, ref = time.perf_counter, s["quality_step"], Reference()
    op_s, loop_s, ref_s, trail = [], [], [], []
    quality, cmi_at_q = None, None
    step, busy = 0, 0.0
    gc.collect()
    while step < n_q or busy < seconds:
        ref_s.append(ref.seconds())
        t0 = clock()
        with span("op"):
            row = op(step)
        t1 = clock()
        step += 1
        between(step)
        op_s.append(t1 - t0)
        loop_s.append(clock() - t0)
        busy += loop_s[-1]
        if step <= n_q:
            trail.append(row)
        if step == n_q:
            with span("eval"):
                quality = evaluate(s, su, su.bundle, cmi)
            cmi_at_q = cmi.values.copy()
    return Pass(op_s, loop_s, ref_s, np.array(trail), cmi_at_q, quality)


def run_train(s, seed, su: SetUp, seconds, ledger, tracer, workdir) -> Pass:
    span = tracer.span if tracer else _no_span
    bundle, lseed, config_hash = su.bundle, s["learner_seed"], su.data.config_hash
    opt = numcore.Adam(bundle.store.trainable(), lr=s["lr"])
    cmi = graph.CmiMatrix.initial(su.data.config.d_s, s["threshold"], s["ema_coeff"])
    ocfg = objective.ObjectiveConfig(reward_weight=s["reward_weight"], temperature=s["temperature"])
    batch = None

    def step_op(step: int) -> list[float]:
        nonlocal batch
        batch = train_batch(su.train, seed, step, s["batch_size"])
        opt.zero_grad()
        rand = objective.StepRandomness(lseed, step)
        total, br = objective.total_objective(batch, bundle, cmi.binarized, rand, ocfg)
        if tracer:
            tracer.count("numcore.tape_nodes", count_tape_nodes(total))
        numcore.backward(total)
        opt.step()
        losses = [getattr(br, c) for c in objective.COMPONENTS]
        ledger.check(
            learner_batch_ok(batch) and bool(np.all(np.isfinite(losses))),
            f"step {step}: non-finite loss or non-TrainBatch input",
        )
        return losses

    def between(step: int) -> None:
        if step % s["graph_every"] == 0:
            with span("graph_update"):
                bundle.sync_target()
                fresh = graph.cmi_from_batch(bundle, batch, lseed, step, s["temperature"])
                cmi.update_ema(fresh)
            ledger.check(cmi_ok(fresh), f"step {step}: CMI estimate not finite or negative")
        if step % s["checkpoint_every"] == 0:
            with span("checkpoint"):
                save_state(bundle, opt, cmi, step, workdir / "train-checkpoint", config_hash)

    p = timed_loop(s, su, cmi, seconds, span, step_op, between)

    # Round-trip the final state, Adam moments and CMI included, untimed.
    final = workdir / "train-final"
    save_state(bundle, opt, cmi, len(p.op_s), final, config_hash)
    arrays, got_step, extras = models.load_checkpoint(final, expected_config_hash=config_hash)
    live = {n: t.data for n, t in bundle.store.tensors().items()}
    live.update(opt.state_tensors())
    live["cmi/values"] = cmi.values
    ok = arrays.keys() == live.keys() and all(same_bits(arrays[n], live[n]) for n in live)
    ok = ok and got_step == len(p.op_s)
    ok = ok and extras == {"adam_steps": opt.step_count, "cmi_updates": cmi.updates}
    ledger.check(ok, "training checkpoint round-trip is not bit-exact")
    p.checkpoint_bytes = dir_bytes(final)
    return p


def run_identify(s, seed, su: SetUp, seconds, ledger, tracer, workdir) -> Pass:
    span = tracer.span if tracer else _no_span
    B = s["batch_size"]
    cmi = graph.CmiMatrix.initial(su.data.config.d_s, s["threshold"], s["ema_coeff"])

    def cmi_op(step: int) -> np.ndarray:
        lo = (step * B) % len(su.held_out)
        batch = env_api.stack_episodes(su.held_out[lo : lo + B])
        fresh = graph.cmi_from_batch(su.bundle, batch, s["learner_seed"], step, s["temperature"])
        cmi.update_ema(fresh)
        ledger.check(
            learner_batch_ok(batch) and cmi_ok(fresh),
            f"op {step}: CMI estimate not finite or negative, or non-TrainBatch input",
        )
        return fresh.ravel()

    # These ops allocate arrays just above glibc's initial mmap threshold, so
    # they page-fault on every call until the process frees a larger block,
    # which raises the threshold. The evaluation at quality_step does that
    # and made later ops 1.3x faster. Run one evaluation first, untimed, as
    # a longer-lived process would have. It changes no model state.
    with span("warmup"):
        evaluate(s, su, su.bundle, cmi)
    p = timed_loop(s, su, cmi, seconds, span, cmi_op)
    p.checkpoint_bytes = dir_bytes(su.checkpoint[0])
    return p


def run_pass(s, seed, su, seconds, ledger, tracer, workdir) -> Pass:
    loop = run_train if s["kind"] == "train" else run_identify
    return loop(s, seed, su, seconds, ledger, tracer, workdir)


# -- metrics --------------------------------------------------------------------


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10)


def at_reference(p: Pass) -> tuple[list[float], list[float]]:
    """Op and loop times at reference speed."""
    scale = [REFERENCE_NOMINAL_S / r for r in p.ref_s]
    return [t * k for t, k in zip(p.op_s, scale)], [t * k for t, k in zip(p.loop_s, scale)]


def end_to_end(s: dict, setup_s: float, p: Pass) -> dict:
    transitions = s["batch_size"] * s["horizon"] * len(p.op_s)
    op, loop = at_reference(p)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "transitions_per_s": transitions / sum(loop),
        "op_ms_p50": statistics.median(op) * 1e3,
        "op_ms_p90": deciles(op)[-1] * 1e3,
    }


def unbounded(s: dict, wall_setup_s: float, p: Pass) -> dict:
    transitions = s["batch_size"] * s["horizon"] * len(p.op_s)
    return {
        "wall_setup_s": wall_setup_s,
        "wall_transitions_per_s": transitions / sum(p.loop_s),
        "wall_op_ms_p50": statistics.median(p.op_s) * 1e3,
        "wall_op_ms_p90": deciles(p.op_s)[-1] * 1e3,
        "reference_ms_p50": statistics.median(p.ref_s) * 1e3,
        **p.quality,
    }


# Step-context spans, reported per loop op.
STEP_LAYERS = {
    "env.dataset.stack": "env.dataset.stack_ms",
    "models.encoders.unroll": "models.encoders.unroll_ms",
    "models.encoders.target_unroll": "models.encoders.target_unroll_ms",
    "models.transition.features": "models.transition.features_ms",
    "models.transition.pool_head": "models.transition.pool_head_ms",
    "models.reward": "models.reward.ms",
    "objective": "objective.self_ms",
    "numcore.backward": "numcore.backward_ms",
    "numcore.optim.adam": "numcore.optim.adam_ms",
}
# Spans of a graph update (inside or beside graph.cmi), reported per CMI call.
CMI_LAYERS = {
    "graph.cmi": "graph.cmi_ms",
    "graph.estimate": "graph.estimate_ms",
    "graph.ema": "graph.ema_ms",
    "models.store.sync_target": "models.store.sync_target_ms",
    "models.encoders.target_unroll": "graph.cmi.encoders.target_unroll_ms",
    "models.transition.features": "graph.cmi.transition.features_ms",
    "models.transition.pool_head": "graph.cmi.transition.pool_head_ms",
}


def layer_metrics(tr: Tracer, su: SetUp, traced: Pass, overhead_pct: float) -> dict:
    self_s = tr.self_times()
    step_t, step_n = defaultdict(float), defaultdict(int)
    cmi_t, cmi_n = defaultdict(float), defaultdict(int)
    whole = defaultdict(list)  # name -> inclusive durations, any context
    n_ops = n_cmi = 0
    for i, sp in enumerate(tr.spans):
        whole[sp.name].append(sp.end - sp.start)
        chain = tr.ancestry(i)
        if chain[-1] not in LOOP_ROOTS:
            continue
        if sp.name == "op":
            n_ops += 1
        elif sp.name == "graph.cmi":
            n_cmi += 1
        if "graph.cmi" in chain or chain[-1] == "graph_update" or sp.name == "graph.ema":
            cmi_t[sp.name] += self_s[i]
            cmi_n[sp.name] += 1
        else:
            step_t[sp.name] += self_s[i]
            step_n[sp.name] += 1

    def per(total: float, n: int) -> float:
        return total / n if n else 0.0

    def mean(xs: list[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    n_episodes = len(su.data)
    out = {
        "env.rollout.us_per_episode": mean(whole["env.rollout"]) * 1e6,
        "env.dataset.save_us_per_episode": mean(whole["env.dataset.save"]) * 1e6 / n_episodes,
        "env.dataset.load_us_per_episode": mean(whole["env.dataset.load"]) * 1e6 / n_episodes,
        "env.dataset.bytes_per_episode": su.dataset_path.stat().st_size / n_episodes,
    }
    for span_name, metric in STEP_LAYERS.items():
        out[metric] = per(step_t[span_name], n_ops) * 1e3
    out["models.encoders.calls"] = per(
        step_n["models.encoders.unroll"] + step_n["models.encoders.target_unroll"], n_ops
    )
    out["models.transition.features_calls"] = per(step_n["models.transition.features"], n_ops)
    out["models.transition.pool_head_calls"] = per(step_n["models.transition.pool_head"], n_ops)
    out["numcore.tape_nodes"] = per(tr.counts.get("numcore.tape_nodes", 0), n_ops)
    for span_name, metric in CMI_LAYERS.items():
        out[metric] = per(cmi_t[span_name], n_cmi) * 1e3
    out["graph.cmi.transition.features_calls"] = per(cmi_n["models.transition.features"], n_cmi)
    out["graph.cmi.transition.pool_head_calls"] = per(cmi_n["models.transition.pool_head"], n_cmi)
    out["models.store.save_ms"] = mean(whole["models.store.save"]) * 1e3
    out["models.store.load_ms"] = mean(whole["models.store.load"]) * 1e3
    out["models.store.bytes"] = float(traced.checkpoint_bytes)
    gc_loop = [g for g in tr.gc_events if g[2] in LOOP_ROOTS]
    out["runtime.gc_pause_ms"] = per(sum(g[0] for g in gc_loop), n_ops) * 1e3
    out["runtime.gc_collections"] = per(len(gc_loop), n_ops)
    out["runtime.gc_collected"] = per(sum(g[1] for g in gc_loop), n_ops)
    out["trace.overhead_pct"] = overhead_pct
    return out


# -- provenance -------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(s: dict, seed: int, seconds: float, trace: bool, p: Pass, extra: dict) -> dict:
    op = at_reference(p)[0]
    op_p90 = deciles(op)[-1]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(ROOT),
        "workload": s,
        "setup_repeats": SETUP_REPEATS,
        "import_repeats": IMPORT_REPEATS,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unbounded": extra,
        "ops_timed": len(p.op_s),
        "ops_beyond_p90": sum(1 for x in op if x > op_p90),
        "digest": p.digest(),
    }


# -- one benchmark run --------------------------------------------------------------


@dataclass
class Result:
    metrics: dict
    unbounded: dict
    ledger: Ledger
    provenance: dict


def run(s: dict, seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    """Set up SETUP_REPEATS times, then run the timed loop: once untraced,
    or with `trace` for half the time untraced and half traced, comparing the
    two results bit for bit."""
    ledger = Ledger()
    ref = Reference()
    import_scale = ref.scale()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{s['name']}-", dir=scratch))
    try:
        imports = [(import_s, import_s * import_scale)]
        for _ in range(IMPORT_REPEATS - 1):
            before = ref.scale()
            imports.append(ref.since(before, child_import_seconds()))
        setups = []
        for _ in range(SETUP_REPEATS):
            su = None  # free the previous repeat before building the next
            gc.collect()
            before = ref.scale()
            su = set_up(s, seed, workdir)
            setups.append(ref.since(before, su.seconds))
            check_set_up(su, ledger)
        setup_s = statistics.median(x for _, x in imports) + statistics.median(x for _, x in setups)
        extra_wall = statistics.median(w for w, _ in imports) + statistics.median(w for w, _ in setups)
        budget = seconds / 2 if trace else seconds
        plain = run_pass(s, seed, su, budget, ledger, None, workdir)
        if not trace:
            metrics = end_to_end(s, setup_s, plain)
            extra = unbounded(s, extra_wall, plain)
            return Result(metrics, extra, ledger, provenance(s, seed, seconds, trace, plain, extra))

        su = None
        gc.collect()
        tracer = Tracer()
        with tracer.installed():
            su = set_up(s, seed, workdir)
            check_set_up(su, ledger)
            tracer.watch_bundle(su.bundle)
            traced = run_pass(s, seed, su, budget, ledger, tracer, workdir)
        ledger.check(plain.same_result(traced), "traced run differs from the untraced run")
        traced_p50 = statistics.median(at_reference(traced)[0])
        overhead = (traced_p50 / statistics.median(at_reference(plain)[0]) - 1.0) * 100.0
        metrics = layer_metrics(tracer, su, traced, overhead)
        extra = unbounded(s, extra_wall, traced)
        return Result(metrics, extra, ledger, provenance(s, seed, seconds, trace, traced, extra))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
