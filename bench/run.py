"""relattn benchmark: one closed-loop workload per run, timed or traced.

    python3 bench/run.py --workload train_synth --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced run instead. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report. Each run also writes ``bench/out/<workload>-seed<n>-*.json``
(machine metadata and every metric; for a traced run, every span).

The exit code is 0 only when the correctness gate matches the stored
references and no operation failed; it is 2 when the package cannot be
imported from ``src/``.
"""

from __future__ import annotations

import os

# One BLAS thread: a single closed-loop caller, and run-to-run spread that
# does not depend on what else shares the machine's cores. Must be set
# before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXIT_FAILED = 1
EXIT_MISSING = 2

sys.path.insert(0, str(SRC))
try:
    import relattn
except ImportError as exc:
    print(f"bench: cannot import relattn from {SRC}: {exc}", file=sys.stderr)
    sys.exit(EXIT_MISSING)
if Path(relattn.__file__).resolve().parent.parent != SRC:
    print(f"bench: relattn was imported from {relattn.__file__}, not from {SRC}",
          file=sys.stderr)
    sys.exit(EXIT_MISSING)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Driver-facing metrics; each applies to every workload. A step is one train
# step (forward + backward + Adam on one batch) on the train workloads and
# one evaluation of a chunk of held-out bags on eval_synth. setup_s and
# step_ms_norm are host-normalised (see hostspeed.py): the median, over
# set-ups or steps, of the time over the reference kernel's time just
# before it, times hostspeed.REF_MS. On a shared host, other tenants slow
# the core for seconds to minutes at a time, and raw times of whole runs
# move with them; the ratio does not.
END_TO_END = {
    "setup_s": "s",
    "step_ms_norm": "ms",
    "peak_rss_mb": "MB",
}

# The readable report: every end-to-end metric, on the workloads it applies to.
REPORT_UNITS = {
    "setup_s": "s",
    "setup_s_wall": "s",
    "step_ms_norm": "ms",
    "step_ms_p5": "ms",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "train_bags_per_s": "bags/s",
    "train_loss_last": "loss",
    "eval_bags_per_s": "bags/s",
    "eval_pr_auc": "auc",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "ref_ms_p50": "ms",
}

# Per-layer metrics of a traced run. *_ms is self time per train step, or per
# held-out bag on eval_synth; data.*, training.checkpoint_load_ms are per
# set-up. A layer that does not run on a workload reads 0.
PER_LAYER = {
    "encoder.embed.fwd_ms": "ms",
    "encoder.embed.bwd_ms": "ms",
    "encoder.embed.tape_records": "count",
    "encoder.bilstm.fwd_ms": "ms",
    "encoder.bilstm.bwd_ms": "ms",
    "encoder.bilstm.tape_records": "count",
    "encoder.lstm_steps": "count",
    "encoder.useful_col_frac": "ratio",
    "word_attention.fwd_ms": "ms",
    "word_attention.bwd_ms": "ms",
    "word_attention.calls": "count",
    "word_attention.tape_records": "count",
    "sentence_attention.fwd_ms": "ms",
    "sentence_attention.bwd_ms": "ms",
    "sentence_attention.calls": "count",
    "sentence_attention.tape_records": "count",
    "model.self_fwd_ms": "ms",
    "model.self_bwd_ms": "ms",
    "model.tape_records": "count",
    "autodiff.tape_records": "count",
    "autodiff.backward_ms": "ms",
    "training.loss.fwd_ms": "ms",
    "training.loss.bwd_ms": "ms",
    "training.loss.tape_records": "count",
    "training.adam_ms": "ms",
    "training.zero_grad_ms": "ms",
    "training.checkpoint_load_ms": "ms",
    "data.load_ms": "ms",
    "data.make_batches_ms": "ms",
    "evaluation.score_ms": "ms",
    "evaluation.hard_predictions_ms": "ms",
    "evaluation.metrics_ms": "ms",
    "evaluation.forward_passes_per_bag": "count",
    "trace.step_ms": "ms",
    "trace.uncovered_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# The self times that make up one traced step; with trace.uncovered_ms they
# add up to trace.step_ms.
STEP_PARTS = (
    "encoder.embed.fwd_ms", "encoder.embed.bwd_ms", "encoder.bilstm.fwd_ms",
    "encoder.bilstm.bwd_ms", "word_attention.fwd_ms", "word_attention.bwd_ms",
    "sentence_attention.fwd_ms", "sentence_attention.bwd_ms", "model.self_fwd_ms",
    "model.self_bwd_ms", "autodiff.backward_ms", "training.loss.fwd_ms",
    "training.loss.bwd_ms", "training.adam_ms", "training.zero_grad_ms",
    "evaluation.score_ms", "evaluation.hard_predictions_ms", "evaluation.metrics_ms",
    "trace.uncovered_ms",
)

# Per-workload run shape. `loss_at`/`loss_window`: train_loss_last is the mean
# loss of steps [loss_at - loss_window, loss_at), counted from the first step,
# so it is fixed for a seed; an untraced run always reaches step `loss_at`.
# `trace_steps`: a traced run times this fixed batch sequence once untraced and
# once traced, so its counts repeat exactly.
SHAPES = {
    "train_synth": dict(kind="train", warmup=3, loss_at=100, loss_window=10, trace_steps=32),
    "train_nyt": dict(kind="train", warmup=1, loss_at=8, loss_window=4, trace_steps=4),
    "eval_synth": dict(kind="eval", min_cycles=2),
}
SETUP_REPEATS = 7
SMOKE_STEPS = 2
GATE_RTOL = 1e-4    # float32 reduction reordering moves these by ~1e-6 relative
GATE_ATOL = 1e-5


def machine_info() -> dict:
    """Core count, interpreter, numpy and BLAS, and the BLAS thread count in use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3


def count_one(_result) -> tuple[int, int]:
    return 1, 0


def count_bags(result) -> tuple[int, int]:
    return result.checked, result.failed


class Attempts:
    """Counts operations and failures; prints the first failure's traceback."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, count, fn, *args):
        """Call ``fn``; return (True, result), or (False, None) if it raised.

        ``count(result)`` gives the (attempted, failed) operations of a call
        that returned; a call that raised is one failed operation.
        """
        try:
            result = fn(*args)
        except Exception:   # a failed step is counted and the loop goes on
            if not self.failed:
                traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return False, None
        attempted, failed = count(result)
        self.attempted += attempted
        self.failed += failed
        return True, result


# ---------------------------------------------------------------------------
# correctness gate


def check_gate(name: str) -> bool:
    reference = json.loads((wl.ASSETS / "reference.json").read_text(encoding="utf-8"))[name]
    values = wl.GATES[name]()
    ok = len(values) == len(reference) and bool(
        np.allclose(values, reference, rtol=GATE_RTOL, atol=GATE_ATOL))
    if not ok:
        worst = max((abs(a - b) for a, b in zip(values, reference)), default=None)
        print(f"bench: correctness gate failed for {name}: {len(values)} values against "
              f"{len(reference)} references, worst difference {worst}", file=sys.stderr)
    return ok


# ---------------------------------------------------------------------------
# set-up


def session_factory(name: str, seed: int, smoke: bool):
    """A zero-argument set-up function; inputs the package never sees are made here."""
    if name == "train_synth":
        return lambda: wl.setup_train_synth(seed, smoke)
    if name == "train_nyt":
        records = wl.nyt_inputs(seed, smoke)
        return lambda: wl.nyt_session(records, seed)
    return lambda: wl.setup_eval_synth(seed, smoke)


def timed_setup(make, repeats: int, ref: hostspeed.ReferenceKernel):
    """Build the session ``repeats`` times.

    Returns the last session, the median set-up time, and the median ratio
    of each set-up's time to the mean reference kernel time on either side.
    """
    times, ratios = [], []
    session = None
    for _ in range(repeats):
        session = None   # release the previous one before building the next
        gc.collect()
        before = ref()
        start = perf_counter()
        session = make()
        times.append(perf_counter() - start)
        ratios.append(times[-1] / ((before + ref()) / 2))
    return session, statistics.median(times), statistics.median(ratios)


# ---------------------------------------------------------------------------
# untraced measurement


class Steps:
    """Step times, with the reference kernel timed between consecutive steps."""

    def __init__(self, ref: hostspeed.ReferenceKernel) -> None:
        self.ref = ref
        self.seconds: list[float] = []
        self.ref_seconds: list[float] = []
        self._ref_before: list[int] = []   # index in ref_seconds of each kept step's kernel

    def timed(self, attempts: Attempts, count, fn, *args):
        """Run ``fn`` through ``attempts``; keep its time if it succeeded."""
        self.ref_seconds.append(self.ref())
        t0 = perf_counter()
        ok, result = attempts.run(count, fn, *args)
        elapsed = perf_counter() - t0
        if ok:
            self.seconds.append(elapsed)
            self._ref_before.append(len(self.ref_seconds) - 1)
        return ok, result, elapsed

    def ratios(self) -> list[float]:
        """Each step's time over the mean of the kernel times on either side of it."""
        refs = self.ref_seconds + [self.ref()]
        return [s / ((refs[i] + refs[i + 1]) / 2) for s, i in zip(self.seconds, self._ref_before)]


def measure_train(session, shape: dict, seconds: float, smoke: bool, attempts: Attempts,
                  steps: Steps):
    warmup = 0 if smoke else shape["warmup"]
    loss_at = SMOKE_STEPS if smoke else shape["loss_at"]
    window = SMOKE_STEPS if smoke else shape["loss_window"]
    rates, losses = [], {}
    index = 0
    start = None
    while True:
        if index == warmup:
            start = perf_counter()
        if index >= warmup and (index - warmup >= SMOKE_STEPS if smoke else
                                perf_counter() - start >= seconds and index >= loss_at):
            break
        bags = session.next_batch()
        if index < warmup:
            ok, loss = attempts.run(count_one, session.step, bags)
        else:
            ok, loss, elapsed = steps.timed(attempts, count_one, session.step, bags)
            if ok:
                rates.append(len(bags) / elapsed)
        if ok:
            losses[index] = loss
        index += 1
    window_losses = [losses.get(i, float("nan")) for i in range(loss_at - window, loss_at)]
    return {"train_bags_per_s": statistics.median(rates) if rates else float("nan"),
            "train_loss_last": float(np.mean(window_losses))}


def measure_eval(session, shape: dict, seconds: float, smoke: bool, attempts: Attempts,
                 steps: Steps):
    cycle = len(session.chunks)
    if not smoke:
        session.run_pass(session.chunks[0])   # warm-up
    rates, records = [], []
    start = perf_counter()
    done = 0
    while not (done >= cycle and (smoke or (perf_counter() - start >= seconds
                                            and done >= shape["min_cycles"] * cycle))):
        chunk = session.next_chunk()
        ok, result, elapsed = steps.timed(attempts, count_bags, session.run_pass, chunk)
        if ok:
            rates.append(result.bags / elapsed)
            if done < cycle:
                records.extend(result.records)
        done += 1
    return {"eval_bags_per_s": statistics.median(rates) if rates else float("nan"),
            "eval_pr_auc": session.pr_auc(records)}


def measure(make, shape: dict, seconds: float, smoke: bool, attempts: Attempts):
    ref = hostspeed.ReferenceKernel()
    session, setup_wall, setup_ratio = timed_setup(make, 1 if smoke else SETUP_REPEATS, ref)
    steps = Steps(ref)
    run = measure_train if shape["kind"] == "train" else measure_eval
    report = run(session, shape, seconds, smoke, attempts, steps)
    step_s = steps.seconds
    if not step_s:
        raise SystemExit("bench: every timed step failed")
    ratios = steps.ratios()
    report.update({
        "setup_s": setup_ratio * hostspeed.REF_MS / 1e3,
        "setup_s_wall": setup_wall,
        "step_ms_norm": statistics.median(ratios) * hostspeed.REF_MS,
        "step_ms_p5": percentile_ms(step_s, 5),
        "step_ms_p50": percentile_ms(step_s, 50),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": attempts.failed / max(attempts.attempted, 1),
        "ref_ms_p50": percentile_ms(steps.ref_seconds, 50),
    })
    if len(step_s) >= 100:   # at least ten samples above the 90th percentile
        report["step_ms_p90"] = percentile_ms(step_s, 90)
    return report, len(step_s)


# ---------------------------------------------------------------------------
# traced measurement


def trace_run(make, shape: dict, smoke: bool, attempts: Attempts):
    """Per-layer metrics over a fixed sequence of steps, each run untraced and traced."""
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.step("setup"):
        session = make()

    if shape["kind"] == "train":
        steps = SMOKE_STEPS if smoke else shape["trace_steps"]
        attempts.run(count_one, session.step, session.next_batch())   # warm-up
        next_unit, run_unit, count = session.next_batch, session.step, count_one
        norm, set_instances = steps, None
    else:
        steps = len(session.chunks)
        session.run_pass(session.chunks[0])   # warm-up
        next_unit, run_unit, count = session.next_chunk, session.run_pass, count_bags
        norm = len(session.dataset.bags)
        set_instances = sum(len(bag.instances) for bag in session.dataset.bags)

    # Each unit runs untraced, then traced, so both timings see the same
    # spells of host contention; the sequence restarts from its first unit.
    session.reset()
    untraced = 0.0
    for k in range(steps):
        unit = next_unit()
        t0 = perf_counter()
        attempts.run(count, run_unit, unit)
        untraced += perf_counter() - t0
        with tracer.installed(), tracer.step(k):
            attempts.run(count, run_unit, unit)

    totals = tracer.totals(range(steps))
    metrics = layer_metrics(totals, tracer.totals(["setup"]), norm, set_instances)
    metrics["trace.overhead_frac"] = totals["root_s"] / untraced
    return metrics, tracer


def layer_metrics(steps: dict, setup: dict, norm: int, set_instances: int | None) -> dict:
    """Per-layer metrics per step (per held-out bag on eval) from tracer totals."""
    fwd, bwd, counts = steps["fwd"], steps["bwd"], steps["counts"]

    def ms(seconds: float) -> float:
        return seconds / norm * 1e3

    out = {}
    for layer in ("encoder.embed", "encoder.bilstm", "word_attention", "sentence_attention",
                  "training.loss"):
        out[f"{layer}.fwd_ms"] = ms(fwd[layer])
        out[f"{layer}.bwd_ms"] = ms(bwd[layer])
    for layer in ("encoder.embed", "encoder.bilstm", "word_attention", "sentence_attention",
                  "model", "training.loss"):
        out[f"{layer}.tape_records"] = counts[f"{layer}.tape_records"] / norm
    out["encoder.lstm_steps"] = counts["encoder.lstm_step_calls"] / 2 / norm
    out["encoder.useful_col_frac"] = (counts["encoder.true_cols"] / counts["encoder.run_cols"]
                                      if counts["encoder.run_cols"] else 0.0)
    out["word_attention.calls"] = counts["word_attention.calls"] / norm
    out["sentence_attention.calls"] = counts["sentence_attention.calls"] / norm
    out["model.self_fwd_ms"] = ms(fwd["model"])
    out["model.self_bwd_ms"] = ms(bwd["model"])
    out["autodiff.tape_records"] = sum(
        n for key, n in counts.items() if key.endswith(".tape_records")) / norm
    out["autodiff.backward_ms"] = ms(fwd["autodiff.backward"])
    out["training.adam_ms"] = ms(fwd["training.adam"])
    out["training.zero_grad_ms"] = ms(fwd["training.zero_grad"])
    out["training.checkpoint_load_ms"] = setup["fwd"]["training.checkpoint_load"] * 1e3
    out["data.load_ms"] = setup["fwd"]["data.load"] * 1e3
    out["data.make_batches_ms"] = setup["fwd"]["data.make_batches"] * 1e3
    out["evaluation.score_ms"] = ms(fwd["evaluation.score"])
    out["evaluation.hard_predictions_ms"] = ms(fwd["evaluation.hard_predictions"])
    out["evaluation.metrics_ms"] = ms(fwd["evaluation.metrics"])
    out["evaluation.forward_passes_per_bag"] = (counts["encoder.instances"] / set_instances
                                                if set_instances else 0.0)
    out["trace.step_ms"] = ms(steps["root_s"])
    out["trace.uncovered_ms"] = ms(fwd[tracing.UNCOVERED] + bwd[tracing.UNCOVERED])
    return out


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a couple of steps or bags on small inputs, for self-tests")
    return parser.parse_args(argv)


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for key, unit in units.items():
        if key in values:
            print(f"  {key:<36} {values[key]:>16.6g}  {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    logging.getLogger("relattn").setLevel(logging.ERROR)   # warnings about noisy data
    name, shape = args.workload, SHAPES[args.workload]
    machine = machine_info()
    if machine["blas_threads"] is not None and machine["blas_threads"] > machine["nproc"]:
        print(f"bench: BLAS would use {machine['blas_threads']} threads on "
              f"{machine['nproc']} cores", file=sys.stderr)
        return EXIT_FAILED
    print(f"relattn benchmark  workload={name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("machine " + json.dumps(machine))

    gate_ok = check_gate(name)
    make = session_factory(name, args.seed, args.smoke)
    attempts = Attempts()
    tag = f"{name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    if args.trace:
        metrics, tracer = trace_run(make, shape, args.smoke, attempts)
        tracer.write(OUT / f"{tag}-spans.json", {"workload": name, "seed": args.seed})
        units, driver = PER_LAYER, PER_LAYER
        print_table("per-layer (traced run)", metrics, units)
        parts = sum(metrics[k] for k in STEP_PARTS)
        print(f"  self times + uncovered = {parts:.6g} ms of a "
              f"{metrics['trace.step_ms']:.6g} ms traced step")
    else:
        metrics, samples = measure(make, shape, args.seconds, args.smoke, attempts)
        units, driver = REPORT_UNITS, END_TO_END
        unit_of_work = "one batch" if shape["kind"] == "train" else "one chunk of held-out bags"
        print_table(f"end to end ({samples} timed steps; a step is {unit_of_work})",
                    metrics, units)

    correct = gate_ok and attempts.failed == 0
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps({
        "workload": name, "seed": args.seed, "seconds": args.seconds, "machine": machine,
        "correct": correct, "attempted": attempts.attempted, "failed": attempts.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in driver.items()},
    }))
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
