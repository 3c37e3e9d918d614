"""Spans around calls into the stairdim layers, recorded from outside the package.

A traced run swaps selected module attributes of ``stairdim`` for wrappers
that open a span per call, and puts the originals back afterwards; nothing in
``src/`` is edited. The layer of a span is the part of its name before the
first dot, which is the module that owns the wrapped function.

``process_frame`` is not wrapped but replaced: the benchmark calls the stage
functions itself, in the order ``process_frame`` does, so that range/Doppler,
stationary slice, range CFAR and AoA each get a span. Every decomposed frame
is compared with the real ``process_frame`` output on a paused clock, so the
comparison costs the traced timings nothing.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

# Tail percentiles tried from the highest down; a percentile is reported only
# when at least TAIL_MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

# Layers in pipeline order; ``rf_params`` and ``numerics`` are timed inside
# their callers.
LAYERS = (
    "scene",
    "chirp_sim",
    "dsp_chain",
    "dimension",
    "scenario",
    "enhancer",
    "evaluation",
    "cli",
)

# Timing metrics: (metric name, span name, scale to the metric's unit).
TIMINGS = (
    ("scene.generate_walk_ms", "scene.generate_walk", 1e3),
    ("chirp_sim.synthesize_ms", "chirp_sim.synthesize", 1e3),
    ("chirp_sim.quantize_ms", "chirp_sim.quantize", 1e3),
    ("chirp_sim.save_cube_ms", "chirp_sim.save_cube", 1e3),
    ("chirp_sim.load_cube_ms", "chirp_sim.load_cube", 1e3),
    ("dsp_chain.process_frame_ms", "dsp_chain.process_frame", 1e3),
    ("dsp_chain.range_doppler_ms", "dsp_chain.range_doppler", 1e3),
    ("dsp_chain.stationary_slice_ms", "dsp_chain.stationary_slice", 1e3),
    ("dsp_chain.range_cfar_ms", "dsp_chain.range_cfar", 1e3),
    ("dsp_chain.aoa_ms", "dsp_chain.aoa", 1e3),
    ("dimension.estimate_ms", "dimension.estimate", 1e3),
    ("dimension.pair_search_ms", "dimension.pair_search", 1e3),
    ("scenario.run_scenario_ms", "scenario.run_scenario", 1e3),
    ("enhancer.epoch_ms", "enhancer.epoch", 1e3),
    ("enhancer.step_us", "enhancer.step", 1e6),
    ("enhancer.forward_ms", "enhancer.forward", 1e3),
    ("enhancer.read_dataset_ms", "enhancer.read_dataset", 1e3),
    ("enhancer.write_dataset_ms", "enhancer.write_dataset", 1e3),
    ("evaluation.report_ms", "evaluation.report", 1e3),
)


class Tracer:
    """In-memory spans on a clock that can be paused.

    A span is ``[name, start, end, parent index, phase]``. Time spent inside
    :meth:`paused` (output checks, calibration samples) is taken off the
    clock, so neither the enclosing spans nor the traced wall time include it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "timed"
        self.decomposition_frames = 0
        self.decomposition_mismatches = 0
        self._stack: list[int] = []
        self._paused_s = 0.0
        self._pause_depth = 0

    def now(self) -> float:
        return time.perf_counter() - self._paused_s

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), 0.0, parent, self.phase])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.now()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span known only after the fact, with no parent or children."""
        self.spans.append([name, start, end, -1, self.phase])

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    @contextlib.contextmanager
    def paused(self):
        # a calibration sample can pause the clock while it is already paused
        self._pause_depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._pause_depth -= 1
            if self._pause_depth == 0:
                self._paused_s += time.perf_counter() - t0


def _wrap(tracer: Tracer, name: str, fn, after=None):
    def traced(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if after is not None:
            after(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _decomposed_process_frame(tracer: Tracer, dsp):
    """``process_frame`` rebuilt from the public stage functions, with spans."""
    real = dsp.process_frame

    def process_frame(cube, cfg=None):
        cfg = cfg or dsp.DspConfig()
        frame = tracer.enter("dsp_chain.process_frame")
        try:
            with tracer.span("dsp_chain.range_doppler"):
                rd = dsp.range_doppler_transform(cube, cfg)
            with tracer.span("dsp_chain.stationary_slice"):
                sl = dsp.extract_stationary_slice(rd)
                profile = dsp.accumulate_range_profile(sl)
            with tracer.span("dsp_chain.range_cfar"):
                det = dsp.local_maxima(profile, dsp.cfar_detect(profile, cfg.range_cfar))
            bins = range(profile.size) if cfg.exhaustive_aoa else det
            with tracer.span("dsp_chain.aoa"):
                per_bin = [dsp.aoa_on_targets(sl, [k], cfg, profile=profile).entries for k in bins]
            kept = {int(k) for k in det}
            entries = tuple(e for k, found in zip(bins, per_bin) if int(k) in kept for e in found)
            tl = dsp.TargetList(
                entries=entries, gamma_rad=sl.meta.gamma_rad, timestamp_s=sl.meta.timestamp_s
            )
        finally:
            tracer.exit(frame)
        c = tracer.counts
        c["frames"] += 1
        c["range_detections"] += len(det)
        c["aoa_bins"] += len(bins)
        c["aoa_bins_with_angle"] += sum(1 for found in per_bin if found)
        c["angles"] += sum(len(e.angles_rad) for e in entries)
        with tracer.paused():
            expected = real(cube, cfg)
            tracer.decomposition_frames += 1
            if tl != expected:
                tracer.decomposition_mismatches += 1
                tl = expected
        return tl

    process_frame.__wrapped__ = real
    return process_frame


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    from stairdim import cli, dimension, dsp_chain, enhancer, scenario

    counts = tracer.counts

    def count_pairs(args, _result) -> None:
        xs = sorted(t.x_m for t in args[0])
        counts["pair_searches"] += 1
        counts["targets"] += len(xs)
        counts["candidate_pairs"] += sum(
            1 for i, a in enumerate(xs) for b in xs[i + 1 :] if b > a
        )

    def count_cube_bytes(args, _result) -> None:
        counts["cubes_saved"] += 1
        counts["cube_bytes"] += os.path.getsize(args[1])

    # Epochs are not calls, so their spans are cut from the step calls: an
    # epoch runs from its first step to the first step of the next epoch (or
    # the end of training), and a forward pass between two steps marks the
    # boundary.
    epoch = {"start": None, "forward_seen": False}

    def on_train_step(fn):
        def step(*args, **kwargs):
            t = tracer.now()
            if epoch["start"] is None:
                epoch["start"] = t
            elif epoch["forward_seen"]:
                tracer.record("enhancer.epoch", epoch["start"], t)
                epoch["start"] = t
            epoch["forward_seen"] = False
            counts["steps"] += 1
            return fn(*args, **kwargs)

        step.__wrapped__ = fn
        return step

    def on_train_forward(fn):
        def fwd(*args, **kwargs):
            epoch["forward_seen"] = True
            return fn(*args, **kwargs)

        fwd.__wrapped__ = fn
        return fwd

    def on_train(fn):
        def run_train(*args, **kwargs):
            counts["trainings"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if epoch["start"] is not None:
                    tracer.record("enhancer.epoch", epoch["start"], tracer.now())
                epoch.update(start=None, forward_seen=False)

        run_train.__wrapped__ = fn
        return run_train

    def w(name, fn, after=None):
        return _wrap(tracer, name, fn, after)

    replacements = [
        (scenario, "generate_walk", w("scene.generate_walk", scenario.generate_walk)),
        (scenario, "synthesize_frame", w("chirp_sim.synthesize", scenario.synthesize_frame)),
        (scenario, "quantize_to_wire", w("chirp_sim.quantize", scenario.quantize_to_wire)),
        (cli, "save_cube", w("chirp_sim.save_cube", cli.save_cube, count_cube_bytes)),
        (cli, "load_cube", w("chirp_sim.load_cube", cli.load_cube)),
        (scenario, "process_frame", _decomposed_process_frame(tracer, dsp_chain)),
        (cli, "process_frame", _decomposed_process_frame(tracer, dsp_chain)),
        (cli, "write_target_lists", w("dsp_chain.write_target_lists", cli.write_target_lists)),
        (scenario, "estimate_initial", w("dimension.estimate", scenario.estimate_initial)),
        (cli, "estimate_initial", w("dimension.estimate", cli.estimate_initial)),
        (
            dimension,
            "find_consecutive_corners",
            w("dimension.pair_search", dimension.find_consecutive_corners, count_pairs),
        ),
        # enhancer.assemble_dataset imports run_scenario from the scenario
        # module at call time, so patching the module attribute reaches it.
        (scenario, "run_scenario", w("scenario.run_scenario", scenario.run_scenario)),
        (cli, "run_scenario", w("scenario.run_scenario", cli.run_scenario)),
        (cli, "build_sweep", w("scenario.build_sweep", cli.build_sweep)),
        (cli, "scenario_trajectory", w("scenario.trajectory", cli.scenario_trajectory)),
        (
            cli,
            "synthesize_scenario_frame",
            w("scenario.synthesize_scenario_frame", cli.synthesize_scenario_frame),
        ),
        (cli, "load_scenario", w("scenario.load", cli.load_scenario)),
        (cli, "scenario_from_dict", w("scenario.load", cli.scenario_from_dict)),
        (cli, "assemble_dataset", w("enhancer.assemble_dataset", cli.assemble_dataset)),
        (cli, "write_dataset", w("enhancer.write_dataset", cli.write_dataset)),
        (cli, "read_dataset", w("enhancer.read_dataset", cli.read_dataset)),
        (cli, "split_dataset", w("enhancer.split_dataset", cli.split_dataset)),
        (cli, "dataset_fingerprint", w("enhancer.fingerprint", cli.dataset_fingerprint)),
        (cli, "save_model", w("enhancer.model_io", cli.save_model)),
        (cli, "load_model", w("enhancer.model_io", cli.load_model)),
        (cli, "train", on_train(w("enhancer.train", cli.train))),
        (
            enhancer,
            "loss_and_gradients",
            on_train_step(w("enhancer.step", enhancer.loss_and_gradients)),
        ),
        (enhancer, "forward", on_train_forward(w("enhancer.forward", enhancer.forward))),
        (cli, "forward", w("enhancer.forward", cli.forward)),
        (cli, "build_error_report", w("evaluation.report", cli.build_error_report)),
        (cli, "report_to_dict", w("evaluation.report_to_dict", cli.report_to_dict)),
        (cli, "write_histogram_csv", w("evaluation.write_histogram", cli.write_histogram_csv)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, fn in replacements:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def percentile_summary(values) -> dict:
    """Median and the highest tail percentile with enough samples beyond it."""
    v = np.asarray(values, dtype=float)
    n = v.size
    tail_p = 50.0
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            tail_p = p
            break
    return {
        "p50": float(np.percentile(v, 50.0)),
        "tail": float(np.percentile(v, tail_p)),
        "tail_percentile": tail_p,
        "n": int(n),
    }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_shares(spans: list[list], phase: str = "timed") -> dict[str, float]:
    """Share (%) of each layer's self time in the traced time of ``phase``.

    Derived spans (epochs) have no place in the parent/child tree and are
    left out; their time is already covered by the step and forward spans.
    """
    selfs = self_times(spans)
    by_layer = {layer: 0.0 for layer in LAYERS}
    total = 0.0
    for s, self_s in zip(spans, selfs):
        if s[4] != phase or s[0] == "enhancer.epoch":
            continue
        by_layer[s[0].split(".", 1)[0]] += self_s
        if s[3] < 0:
            total += s[2] - s[1]
    return {layer: 100.0 * t / total if total > 0 else 0.0 for layer, t in by_layer.items()}


def cli_self_s(spans: list[list], phase: str = "timed") -> float:
    """Total self time of the ``cli.*`` root spans of ``phase``, seconds."""
    selfs = self_times(spans)
    return sum(
        self_s for s, self_s in zip(spans, selfs) if s[4] == phase and s[0].startswith("cli.")
    )


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, dict]:
    """Timing summaries and per-frame counts from every recorded span.

    Durations are multiplied by ``scale`` (the run's host-speed factor).

    Returns ``{metric: {"value": ..., "unit": ..., "detail": ...}}`` for the
    metrics the run exercised; a layer the run never called is absent.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _, _ in tracer.spans:
        durations[name].append(end - start)
    out: dict[str, dict] = {}
    for metric, span, unit_scale in TIMINGS:
        if not durations.get(span):
            continue
        unit = metric.rsplit("_", 1)[1]
        summary = percentile_summary(np.asarray(durations[span]) * (unit_scale * scale))
        detail = f"n={summary['n']}"
        out[f"{metric}.p50"] = {"value": summary["p50"], "unit": unit, "detail": detail}
        out[f"{metric}.tail"] = {
            "value": summary["tail"],
            "unit": unit,
            "detail": f"p{summary['tail_percentile']:g}, {detail}",
        }
    c = tracer.counts
    if c["frames"]:
        f = c["frames"]
        for metric, key in (
            ("dsp_chain.range_detections_per_frame", "range_detections"),
            ("dsp_chain.aoa_bins_per_frame", "aoa_bins"),
            ("dsp_chain.angles_per_frame", "angles"),
        ):
            out[metric] = {"value": c[key] / f, "unit": "count", "detail": f"frames={f:g}"}
        out["dsp_chain.aoa_yield"] = {
            "value": c["aoa_bins_with_angle"] / c["aoa_bins"] if c["aoa_bins"] else 0.0,
            "unit": "ratio",
            "detail": f"bins={c['aoa_bins']:g}",
        }
    if c["pair_searches"]:
        n = c["pair_searches"]
        out["dimension.targets_per_frame"] = {
            "value": c["targets"] / n, "unit": "count", "detail": f"frames={n:g}"
        }
        out["dimension.candidate_pairs_per_frame"] = {
            "value": c["candidate_pairs"] / n, "unit": "count", "detail": f"frames={n:g}"
        }
    if c["trainings"]:
        out["enhancer.steps"] = {
            "value": c["steps"] / c["trainings"],
            "unit": "count",
            "detail": f"per train command, trainings={c['trainings']:g}",
        }
    if c["cubes_saved"]:
        out["chirp_sim.cube_bytes"] = {
            "value": c["cube_bytes"] / c["cubes_saved"],
            "unit": "bytes",
            "detail": f"cubes={c['cubes_saved']:g}",
        }
    return out
