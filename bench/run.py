#!/usr/bin/env python3
"""Benchmark of the stairdim pipeline: end-to-end metrics and a traced per-layer pass.

Run from the repository root:

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --record bench/baseline.json

One workload per run. ``--trace 0`` times the workload's stairdim commands and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics. ``--workload all`` runs every
workload both ways, each in its own process, prints the layer-share table and
optionally records the results. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metrics emitted there are the ones ``BENCHMARK.json`` names.

The program is imported from ``src/`` of the checkout and nothing else: the
benchmark exits with code 2 when that source tree is missing. Scratch files
go under ``.bench_work/`` and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# glibc sysconf names for the cache sizes (L3, then L2), read via cpuid
_SC_LEVEL3_CACHE_SIZE = 194
_SC_LEVEL2_CACHE_SIZE = 191


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def last_level_cache_bytes() -> int | None:
    for name in (_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE):
        try:
            size = os.sysconf(name)
        except (OSError, ValueError):
            continue
        if size > 0:
            return size
    return None


def host_info(dimrad_threads: str | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": last_level_cache_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "DIMRAD_THREADS_removed": dimrad_threads,
        "commit": git_commit(),
    }


def trimmed_mean(values, trim: float = 0.2) -> float:
    """Mean of the middle values, ``trim`` of them cut from each end.

    Pass times on a shared host switch between a fast and a slow mode for
    seconds at a time. A median snaps to whichever mode holds the majority
    of a run's passes, so it varies more from run to run than a mean that
    drops only the extremes.
    """
    v = sorted(values)
    k = int(len(v) * trim)
    return statistics.fmean(v[k : len(v) - k])


class Calibration:
    """A fixed loop, timed during every command, that measures the host's speed.

    On a shared host the speed of a CPU switches between a fast and a slow
    mode, 1.5 to 2 times apart, for seconds at a time, and drifts over
    minutes. The loop is timed once before every stairdim command and then,
    while the command runs, for ``SHORT_ROUNDS`` rounds every ``PERIOD_S``
    seconds of command time, from a timer signal. A command's time is scaled
    by ``REFERENCE_S / trimmed mean of the loop's times during it``, so the
    loop sees the same mix of fast and slow modes as the command. Reported
    times are therefore seconds on the reference host: the 2-core x86_64 VM
    the benchmark was written on. The loop does the kinds of work the program
    does: small FFTs, small matrix products, elementwise numpy and Python
    dictionary updates. It runs no stairdim code, so a change to the program
    cannot change it.
    """

    REFERENCE_S = 0.032  # one sample of ROUNDS rounds on the reference host
    ROUNDS = 150
    SHORT_ROUNDS = 15
    PERIOD_S = 0.05

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._np = numpy
        self._cube = rng.standard_normal((144, 8, 8)) + 0j
        self._w = rng.standard_normal((32, 16))
        self.samples: list[float] = []  # seconds per ROUNDS rounds
        self.total_s = 0.0  # time spent in the loop, kept out of command times

    def sample(self, rounds: int = ROUNDS) -> None:
        np = self._np
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(rounds):
            acc += float(np.abs(np.fft.fft(self._cube, axis=0)[:, 0, :]).sum())
            for _ in range(10):
                acc += float((np.maximum(self._w @ self._w.T, 0.0) * 0.5 + 1.0)[0, 0])
            table = {}
            for j in range(200):
                table[j] = j * 0.5
        spent = time.perf_counter() - t0
        self.samples.append(spent * self.ROUNDS / rounds)
        self.total_s += spent

    @contextlib.contextmanager
    def during(self, pause=None):
        """Sample every ``PERIOD_S`` seconds inside the block; ``pause`` hides each sample."""

        active = True

        def on_alarm(signum, frame) -> None:
            if not active:  # delivered while the block was being left: do not re-arm
                return
            with pause() if pause else contextlib.nullcontext():
                self.sample(self.SHORT_ROUNDS)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)
        try:
            yield
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, samples=None) -> float:
        """Multiply a time measured alongside ``samples`` (default: all) by this."""
        return self.REFERENCE_S / trimmed_mean(self.samples if samples is None else samples)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One run of one workload; returns every metric it measured."""
    from tracing import Tracer, cli_self_s, layer_metrics, layer_shares, patched
    from workloads import SIZES, WORKLOADS, Run

    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, SIZES[size])
        calibration = Calibration()
        run = Run(work, calibration)
        tracer = Tracer() if trace else None

        def attach(phase: str | None):
            run.tracer = tracer if phase else None
            if phase:
                tracer.phase = phase
                return patched(tracer)
            return contextlib.nullcontext()

        def checked(fn, i: int) -> None:
            # outputs a failed command never wrote make a failed check, not a crash
            try:
                fn(run, i)
            except (OSError, KeyError, ValueError) as exc:
                run.check("outputs_readable", False, f"{type(exc).__name__}: {exc}")

        setup_s = []
        for i in range(wl.setups):
            traced = tracer is not None and wl.traced_setup and i == wl.setups - 1
            with attach("setup" if traced else None):
                before = run.command_s
                wl.setup(run, i)
                setup_s.append(run.command_s - before)
            checked(wl.check_setup, i)

        passes: dict[bool, list[dict]] = {False: [], True: []}
        pass_s = []  # real seconds per pass, checks included, to fit the run to ``seconds``
        start = time.perf_counter()
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            with attach("timed" if traced else None):
                passes[traced].append(wl.iterate(run, i))
            checked(wl.check_iteration, i)
            pass_s.append(time.perf_counter() - t0)
            i += 1
            left = seconds - (time.perf_counter() - start)
            if i >= wl.min_passes and statistics.median(pass_s) > left:
                break

        untraced = passes[False]
        scale = calibration.factor()
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": trimmed_mean(p["wall_s"] for p in untraced), "unit": "s"},
            "items_per_s": {
                "value": trimmed_mean(p["items"] / p["items_s"] for p in untraced),
                "unit": "1/s",
            },
        }
        try:
            accuracy = wl.accuracy()
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            run.check("outputs_readable", False, f"({type(exc).__name__}: {exc})")
            accuracy = {}
        units = {"mae_init_cm": "cm", "mae_final_cm": "cm", "pair_rate": "ratio"}
        for key, value in accuracy.items():
            metrics[key] = {"value": value, "unit": units[key]}

        shares = {}
        if tracer is not None:
            run.check(
                "traced_decomposition_equals_process_frame",
                tracer.decomposition_frames > 0 and tracer.decomposition_mismatches == 0,
                f"({tracer.decomposition_mismatches} of {tracer.decomposition_frames} frames)",
            )
            metrics.update(layer_metrics(tracer, scale))
            traced_wall = trimmed_mean(p["wall_s"] for p in passes[True])
            metrics["cli.self_s"] = {
                "value": scale * cli_self_s(tracer.spans) / len(passes[True]),
                "unit": "s",
            }
            metrics["trace_overhead_pct"] = {
                "value": 100.0 * (traced_wall / metrics["wall_s"]["value"] - 1.0),
                "unit": "%",
                "detail": f"traced {traced_wall:.4f} s vs untraced {metrics['wall_s']['value']:.4f} s",
            }
            shares = layer_shares(tracer.spans)

        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "size": size,
            "setups": len(setup_s),
            "calibration": {"samples_s": calibration.samples, "scale": scale},
            "passes": {"untraced": untraced, "traced": passes[True]},
            "attempted": run.attempted,
            "failed": run.failed,
            "checks": run.checks,
            "failures": run.failures,
            "inexact": run.inexact,
            "metrics": metrics,
            "shares_pct": shares,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def contract_metrics(spec: dict, result: dict) -> dict:
    """The metrics BENCHMARK.json names for this mode, checked for their units."""
    listed = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    out = {}
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise SystemExit(f"bench: metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            raise SystemExit(f"bench: metric {m['name']} in {got['unit']}, expected {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_report(spec: dict, result: dict, host: dict) -> None:
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"== stairdim bench: workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']:g} trace={result['trace']} size={result['size']} "
        f"(set-ups {result['setups']}, untraced passes {len(result['passes']['untraced'])}, "
        f"traced passes {len(result['passes']['traced'])})"
    )
    print("host: " + json.dumps(host, sort_keys=True))
    cal = result["calibration"]
    print(
        f"host speed: calibration loop {trimmed_mean(cal['samples_s']) * 1e3:.1f} ms "
        f"(reference {Calibration.REFERENCE_S * 1e3:.1f} ms, {len(cal['samples_s'])} samples); "
        f"measured times x {cal['scale']:.4f} = reference-host times"
    )
    for check, (passed, failed) in sorted(result["checks"].items()):
        print(f"check {check}: {'ok' if not failed else 'FAILED'} ({passed} passed, {failed} failed)")
    for line in result["failures"]:
        print(f"failure: {line}")
    for check, (inexact, frames) in sorted(result["inexact"].items()):
        print(f"note {check}: {inexact} of {frames} frames equal only to float round-off")
    print(f"error_rate: {result['failed']}/{result['attempted']}")
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        direction = f"{better[name]} is better" if name in better else "not in BENCHMARK.json"
        detail = f"  [{m['detail']}]" if "detail" in m else ""
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} ({direction}){detail}")
    if result["shares_pct"]:
        print("self-time share by layer (% of traced timed passes):")
        for layer, pct in result["shares_pct"].items():
            print(f"  {layer:12s} {pct:6.2f}")


def run_all(args, spec: dict, host: dict) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    from tracing import LAYERS

    results = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__)), "--workload", w["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--size", args.size, "--detail",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write("".join(
                line for line in proc.stdout.splitlines(keepends=True)
                if not line.startswith("detail: ")
            ))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"bench: {w['name']} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            detail = next(
                line for line in proc.stdout.splitlines() if line.startswith("detail: ")
            )
            results.append(json.loads(detail[len("detail: ") :]))

    print("\n== layer self-time share (% of traced timed passes)")
    names = [w["name"] for w in spec["workloads"]]
    traced = {r["workload"]: r for r in results if r["trace"]}
    print("| layer | " + " | ".join(names) + " |")
    print("|---|" + "---:|" * len(names))
    for layer in LAYERS:
        cells = " | ".join(f"{traced[n]['shares_pct'][layer]:.1f}" for n in names)
        print(f"| {layer} | {cells} |")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.record:
        record = {
            "host": host,
            "settings": {"seed": args.seed, "seconds": args.seconds, "size": args.size},
            "results": results,
        }
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{r['workload']}.{name}": {"value": m["value"], "unit": m["unit"]}
            for r in results
            for name, m in contract_metrics(spec, r).items()
        },
    }))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", help="with --workload all: write every result to this JSON file")
    parser.add_argument("--detail", action="store_true", help="also print the full result as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stairdim" / "cli.py").is_file():
        print(f"bench: no stairdim source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    dimrad_threads = os.environ.pop("DIMRAD_THREADS", None)
    host = host_info(dimrad_threads)

    if args.workload == "all":
        return run_all(args, spec, host)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_report(spec, result, host)
    if args.detail:
        print("detail: " + json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(spec, result),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
