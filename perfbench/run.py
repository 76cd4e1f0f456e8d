"""cocolour benchmark: seeded workloads driven through the CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

One caller runs one op at a time (a closed loop with a single client, no
threads).  An op is one ``cocolour.cli.main`` call with its printed output
captured: argument parsing, the library work, and the JSON text.  Every op's
output is checked against an oracle after the timed pass.

``--trace 0`` prints the end-to-end metrics of untraced passes.  ``--trace 1``
alternates untraced and traced passes and prints per-layer metrics: calls,
self time and counters per traced function, per-subcommand latency from the
untraced passes, and the tracing overhead.  Timings are reported at a
reference host speed, from speed probes taken during the run (``speed.py``).
The last stdout line is one JSON object; a summary and any failures go to
stderr.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats, setup_s is their median: at least SETUPS_MIN, more while
# they take under SETUP_SECONDS together, so that short set-ups get more.
SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 4, 40, 3.0
COLD_STARTS = 30  # fresh interpreter runs for cold_start_ms
COLD_PROBES = 10  # speed probes before, and again after, each of them
PROBE_EVERY = 0.02  # seconds between timer-driven speed probes
COLD_ARGV = ["-m", "cocolour.cli", "classify", "--mode", "kcol", "--k", "4", "--t", "8"]


def import_program():
    """Import cocolour from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "cocolour" / "cli.py").is_file():
        sys.exit(f"perfbench: no cocolour sources under {src}")
    sys.path.insert(0, str(src))
    import cocolour

    if not Path(cocolour.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: cocolour was imported from {cocolour.__file__}, not {src}")


def pin_to_one_cpu():
    """Run this process, and the processes it spawns, on one CPU.

    The host's CPUs change speed independently, so the speed probe must run
    on the CPU that the ops and the cold starts run on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_pass(cli, ops, clock, tracer=None):
    """Run every op once; returns (pass seconds, (start, end) of each op,
    outputs), all on ``clock``."""
    spans = [(0.0, 0.0)] * len(ops)
    outputs = [None] * len(ops)
    saved = sys.stdout, sys.stderr
    sys.stderr = io.StringIO()  # argparse usage text for malformed argv
    start = clock()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            sys.stdout = buf = io.StringIO()
            t0 = clock()
            try:
                code = cli.main(op.argv)
            except Exception as exc:  # an escaped exception is a failed op
                spans[i] = (t0, clock())
                outputs[i] = (None, f"{type(exc).__name__}: {exc}")
            else:
                spans[i] = (t0, clock())
                outputs[i] = (code, buf.getvalue())
    finally:
        wall = clock() - start
        sys.stdout, sys.stderr = saved
    return wall, spans, outputs


def at_reference(probe, first, wall, spans):
    """A pass's timings at the reference speed: (pass seconds, op seconds,
    pass seconds scaled as a whole).

    Each op is scaled by the probes around it, and the pass's time between
    ops by the probes of the whole pass, from sample ``first`` on.
    """
    f = probe.scale(first)
    times = [(t1 - t0) * probe.scale_at(t0, t1) for t0, t1 in spans]
    between = wall - sum(t1 - t0 for t0, t1 in spans)
    return sum(times) + between * f, times, wall * f


def check_pass(ops, outputs, failures, failed):
    """Add (kind, subcommand, message) for each failed op to ``failures``,
    and the op's index to the set ``failed``."""
    for i, (op, (code, text)) in enumerate(zip(ops, outputs)):
        if code is None:
            kind, err = "escaped", text
        else:
            kind = "wrong"
            try:
                err = op.check(code, text)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                err = f"malformed payload ({type(exc).__name__}: {exc})"
        if err is not None:
            failed.add(i)
            failures.setdefault((kind, op.sub, err), " ".join(op.argv))


def normalised(outputs):
    """Outputs without the timing field, to compare traced with untraced."""
    out = []
    for code, text in outputs:
        try:
            rep = json.loads(text)
        except ValueError:
            out.append((code, text))
            continue
        if isinstance(rep, dict):
            rep.pop("elapsed", None)
        out.append((code, json.dumps(rep, sort_keys=True)))
    return out


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, -(-len(sorted_values) * q // 100) - 1)]


class ColdStarts:
    """Wall times of fresh ``python -m cocolour.cli`` processes, one at a time."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.cmd = [sys.executable, *COLD_ARGV]
        self.ms = []
        self.ok = True
        self._spawn()  # byte-code caches, page cache
        self.warm_up_ms = self._spawn()  # to plan the time of the cold starts

    def _spawn(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        try:
            verdict = json.loads(proc.stdout)["result"]["verdict"]
        except (ValueError, KeyError, TypeError):
            verdict = None
        self.ok = self.ok and proc.returncode == 0 and verdict == "NPComplete"
        return elapsed * 1e3

    def sample(self, count, probe):
        """Spawn ``count`` processes, each timed at the reference speed of
        the probes taken just before and just after it.  The timer must be
        stopped, or its probes would compete with the child."""
        for _ in range(count):
            first = len(probe.samples)
            for _ in range(COLD_PROBES):
                probe.take()
            ms = self._spawn()
            for _ in range(COLD_PROBES):
                probe.take()
            self.ms.append(ms * probe.scale(first))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import corpus

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(corpus.WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    print(json.dumps(result))
    return 0


def measure(args, work):
    """Set up, run the passes, check them; returns the result object."""
    import corpus
    import layers
    from spans import Tracer
    from speed import Probe

    from cocolour import cli

    pin_to_one_cpu()
    # Spawned before the probe timer starts, whose probes would compete with
    # the child for the CPU.
    cold = None if args.trace else ColdStarts()
    probe = Probe(PROBE_EVERY)
    probe.start()
    try:
        return measure_probed(args, work, corpus, layers, cli, probe, Tracer(probe.clock), cold)
    finally:
        probe.stop()


def measure_probed(args, work, corpus, layers, cli, probe, tracer, cold):
    """``measure``, with the probe timer running."""
    clock = probe.clock
    setup_times, file_sets = [], []
    while len(setup_times) < SETUPS_MIN or (
        len(setup_times) < SETUPS_MAX and sum(setup_times) < SETUP_SECONDS
    ):
        t0 = clock()
        # Every set-up writes the same files into one directory.  Deleting a
        # set-up's files slowed the next set-up's writes by up to 20x on a
        # 2-vCPU VM.
        built = corpus.build(args.workload, args.seed, str(work / "inputs"))
        t1 = clock()
        setup_times.append((t1 - t0) * probe.scale_at(t0, t1))
        file_sets.append(built.files)
    ops = built.ops
    deterministic = all(files == file_sets[0] for files in file_sets)
    # The cold starts run after the passes, in the same --seconds.
    reserved = 0.0 if cold is None else COLD_STARTS * cold.warm_up_ms / 1e3

    # An op that fails in any pass counts once in ``failed``, so that both
    # counts depend on the seed only, not on how many passes fit in a run.
    failures, failed = {}, set()
    untraced = []  # at_reference of each untraced pass
    traced = []  # traced pass seconds
    layer_passes = []  # per-layer metrics per traced pass
    same_outputs = True  # traced outputs equal the untraced ones
    reference = None
    rounds = []  # real seconds of the passes of each round, without checks
    while True:
        gc.collect()
        first = len(probe.samples)
        t0 = time.perf_counter()
        wall, spans, outputs = run_pass(cli, ops, clock)
        rounds.append(time.perf_counter() - t0)
        untraced.append(at_reference(probe, first, wall, spans))
        if len(untraced) == 1:
            # Set-up and one pass.  Later passes repeat the same work, but
            # hold more of the benchmark's own records, and how many of them
            # fit depends on the host's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_pass(ops, outputs, failures, failed)
        reference = reference or normalised(outputs)
        if args.trace:
            tracer.reset()
            gc.collect()
            first = len(probe.samples)
            tracer.install(layers.targets())
            t0 = time.perf_counter()
            try:
                wall, spans, outputs = run_pass(cli, ops, clock, tracer)
            finally:
                tracer.uninstall()
            rounds[-1] += time.perf_counter() - t0
            traced.append(wall)
            per_pass = layers.pass_metrics(tracer)
            # The benchmark's own time between ops.  Self times are span time
            # minus child-span time, so they and loop_s add up to wall.
            per_pass["bench.loop_s"] = wall - sum(t1 - t0 for t0, t1 in spans)
            per_pass["trace.wall_s"] = wall
            # A traced pass is scaled as a whole, so that the parts still
            # add up.
            f = probe.scale(first)
            layer_passes.append({k: v * f if k.endswith("_s") else v for k, v in per_pass.items()})
            check_pass(ops, outputs, failures, failed)
            same_outputs = same_outputs and normalised(outputs) == reference
        # --seconds bounds the passes and the cold starts.  The checks are
        # left out: the first round's compute the oracle's reference values,
        # whose cost depends on the seed, and would change how many passes
        # fit.
        if sum(rounds) + statistics.median(rounds) + reserved > args.seconds:
            break
    if cold is not None:
        probe.stop()  # a probe during a spawn would compete with the child
        cold.sample(COLD_STARTS, probe)
    op_ms = sorted(t * 1e3 for _, times, _ in untraced for t in times)
    if args.trace:
        metrics = per_layer_metrics(layers, ops, untraced, layer_passes)
        metrics["bench.probe_ms"] = statistics.median(probe.samples)
        metrics["ops.samples"] = len(op_ms)
        metrics["ops.fail_frac"] = len(failed) / len(ops)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "wall_s": (statistics.median(w for w, _, _ in untraced), "s"),
            "op_p50_ms": (nearest_rank(op_ms, 50), "ms"),
            "op_p90_ms": (nearest_rank(op_ms, 90), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cold_start_ms": (statistics.median(cold.ms), "ms"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    wrong = any(kind == "wrong" for kind, _, _ in failures)
    correct = deterministic and same_outputs and not wrong and (cold is None or cold.ok)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(ops)} ops/pass, {len(untraced)} untraced + {len(traced)} traced passes, "
        f"{len(failed)} of {len(ops)} ops failed, {len(op_ms)} untraced op latencies, "
        f"{len(setup_times)} set-ups, {len(probe.samples)} probes, {reserved:.1f} s reserved for cold starts; "
        f"setups identical={deterministic}, traced outputs identical={same_outputs}, "
        f"cold starts ok={cold is None or cold.ok}",
        file=sys.stderr,
    )
    print("  untraced pass seconds: " + " ".join(f"{w:.3f}" for w, _, _ in untraced), file=sys.stderr)
    for (kind, sub, err), argv in sorted(failures.items()):
        print(f"  {kind} [{sub}] {err} -- e.g. cocolour {argv}", file=sys.stderr)
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def per_layer_metrics(layers, ops, untraced, layer_passes):
    """Medians over traced passes, plus overhead and per-subcommand latency.

    All timings are at the reference speed.  Overhead compares passes
    scaled as a whole, as the traced passes are.
    """
    metrics = {k: statistics.median(p[k] for p in layer_passes) for k in layer_passes[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(w for _, _, w in untraced)
    for sub in layers.SUBCOMMANDS:
        samples = [t * 1e3 for _, times, _ in untraced for op, t in zip(ops, times) if op.sub == sub]
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(samples) if samples else 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())
