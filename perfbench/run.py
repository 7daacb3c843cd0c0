#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed.  Inputs come from ``--seed`` only.  The run builds its inputs
at least three times (cheap set-ups repeat for a second) and reports the
median set-up time, then repeats the workload's operation until
``--seconds`` are spent.  ``samples_per_s`` is pooled over the timed
units, jobs for ``generate`` and epochs for the training workloads, and
for ``predict`` is the median rate over its queries.

Both timings are in reference-host seconds: every set-up, job, block of
queries and epoch is scaled by the host probe of ``probe.py`` measured
next to it, because this shared host's own speed drifts by more than the
bounds.  ``train_stream_dp``'s epochs are the exception (see
``workloads.py``).  The raw figures are printed beside them
(``raw_setup_s``, ``raw_samples_per_s``, ``host_probe_ms``).

``--workload all`` runs every workload in turn, each in its own process.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends the first half of the time untraced and the second
half with the per-layer wrappers of ``layers.py`` installed, and reports
the per-layer metrics, the span ledger and the tracing overhead.

Every result carries a host block.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files live under ``.perfbench/`` in the checkout and
the run's own directory there is removed at exit; the full result is kept
in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up runs at least this many times, and until it has taken
#: SETUP_SECONDS in total (cheap set-ups repeat more), at most SETUP_CAP.
SETUPS = 3
SETUP_SECONDS = 1.0
SETUP_CAP = 200
UNTRACED_SHARE_FINDING = 0.10
NOTES = {"nn.parallel.bytes_per_step":
         " (computed from parameter, gradient and payload sizes)"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_block() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except (TypeError, ValueError, AttributeError):
        pass
    methods = multiprocessing.get_all_start_methods()
    block = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "platform": platform.platform(),
        "farm_start_method": "fork" if "fork" in methods else "spawn",
    }
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        block[variable] = os.environ.get(variable, "unset")
    return block


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


def read_benchmark_file(end_to_end, per_layer) -> dict:
    """BENCHMARK.json, refused unless it declares exactly our metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    for key, ours in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if theirs != list(ours):
            raise SystemExit(f"perfbench: BENCHMARK.json {key} does not match the "
                             "metrics this program reports")
    return declared


def run_reps(workload, inputs, scratch, seconds, tracer, first_index, probe=None):
    """Repeat the workload's operation until ``seconds`` would be exceeded."""
    reps = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        began = time.perf_counter()
        reps.append(workload.run_rep(inputs, scratch, first_index + len(reps), tracer,
                                     probe))
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - started + longest > seconds:
            return reps


def run_setups(workload, seed, scratch, probe):
    """Build the inputs at least ``SETUPS`` times; the last build is used.

    Returns the inputs, the raw set-up seconds and the set-up seconds
    scaled by the host probe measured around each build (no probe: 1).
    """
    raw, scaled = [], []
    before = probe.measure() if probe else None
    while len(raw) < SETUP_CAP and (len(raw) < SETUPS or sum(raw) < SETUP_SECONDS):
        path = os.path.join(scratch, f"setup-{len(raw)}")
        started = time.perf_counter()
        inputs = workload.setup(seed, path)
        raw.append(time.perf_counter() - started)
        if probe:
            after = probe.measure()
            scaled.append(raw[-1] * probe.scale((before + after) / 2))
            before = after
        else:
            scaled.append(raw[-1])
    return inputs, raw, scaled


def repeat_failures(reps) -> list:
    """Values that must repeat exactly but differ between repetitions."""
    first = reps[0].repeat
    return [f"'{key}' differs between repetitions of one seed: "
            f"{sorted({str(rep.repeat.get(key)) for rep in reps})}"
            for key in first if any(rep.repeat.get(key) != first[key] for rep in reps)]


def dp_gap(reference, table) -> dict:
    """Split the data-parallel step's gap to serial training by layer.

    ``reference`` holds the serial epoch's per-batch forward+backward
    seconds; ``table`` the traced data-parallel spans.  Per optimiser step
    (one group of 2 batches, one per worker) the ideal is one serial
    batch's compute.  The excess is split into worker compute beyond the
    serial figure, IPC (submit plus the part of the collect wait the
    workers' compute does not explain) and prefetch wait.
    """
    groups = max(table.calls("nn.parallel.submit"), 1)
    forwards = max(table.calls("models.forward"), 1)
    worker = (table.total_seconds("models.forward")
              + table.total_seconds("nn.tensor.backward")) / forwards
    collect = table.total_seconds("nn.parallel.collect") / groups
    parts = {
        "compute (models.forward + nn.tensor.backward in the gradient workers)":
            worker - reference,
        "IPC (nn.parallel submit + collect beyond worker compute)":
            table.total_seconds("nn.parallel.submit") / groups + max(0.0, collect - worker),
        "data path (datasets.prefetch wait)":
            table.self_seconds("datasets.prefetch.wait") / groups,
    }
    return {"serial_batch_compute_s": reference, "worker_batch_compute_s": worker,
            "collect_wait_per_step_s": collect, "excess_per_step_s": parts,
            "layer": max(parts, key=parts.get)}


def run_traced(workload, inputs, scratch, seconds):
    """Half the time untraced, then the other half with the wrappers on.

    ``train_stream_dp`` first runs one traced serial epoch: the per-batch
    compute baseline its gap to serial training is measured against.
    """
    import layers
    import workloads
    from tracing import SpanTable, Tracer

    untraced = run_reps(workload, inputs, scratch, seconds / 2, None, 0)
    tracer = Tracer(os.path.join(scratch, "spool"))
    try:
        layers.install(tracer)
        reference = None
        if isinstance(workload, workloads.TrainStreamDP):
            tracer.run_span("workload.serial_reference", workload.serial_reference, inputs)
            serial = SpanTable(tracer.collect())
            reference = ((serial.total_seconds("models.forward")
                          + serial.total_seconds("nn.tensor.backward"))
                         / max(serial.calls("models.forward"), 1))
            tracer.reset()
        traced = run_reps(workload, inputs, scratch, seconds / 2, tracer, len(untraced))
    finally:
        tracer.uninstall()
    return untraced, traced, tracer, reference


def traced_extras(workload, reps, table, lines, figures) -> dict:
    """Per-layer values the spans alone cannot give, plus printed checks."""
    import workloads

    extra = {}
    count = len(reps)
    if isinstance(workload, workloads.Generate):
        fig = lambda key: sum(rep.figures[key] for rep in reps)
        extra["simulator.events"] = float(reps[0].repeat["simulator.events"])
        wall = fig("run_job_wall_s")
        extra["datasets.factory.worker_idle_share"] = 1.0 - (
            table.total_seconds("datasets.factory.unit") / (workloads.WORKERS * wall))
        extra["datasets.factory.useful_share"] = (
            fig("catalog.done_units") / fig("catalog.executions"))
        extra["datasets.factory.quarantined"] = fig("quarantined") / count
        extra["supervision.respawns"] = (
            fig("catalog.executions") - fig("catalog.done_units")) / count
        span_events = table.work("simulator")
        lines.append("trace check against the catalog (traced repetitions):")
        for label, spans, catalog in (
                ("events_processed", span_events, fig("catalog.events_processed")),
                ("sim_wall_seconds", table.total_seconds("simulator"),
                 fig("catalog.sim_wall_seconds")),
                ("generation_seconds", table.total_seconds("datasets.factory.unit"),
                 fig("catalog.generation_seconds"))):
            lines.append(f"  {label:20s} spans {spans:14.4f}  catalog {catalog:14.4f}  "
                         f"ratio {spans / catalog if catalog else float('nan'):.4f}")
        if span_events != fig("catalog.events_processed"):
            lines.append("FINDING: simulator spans saw a different event count "
                         "than the catalog records")
        geant2 = [s for s in table.named("simulator") if s[8] == "geant2"]
        if geant2:
            extra_figure = sum(s[5] - s[4] for s in geant2) / len(geant2)
            lines.append(f"figure simulator_busy_s_per_geant2_sample = {extra_figure:.6g} s")
            figures["simulator_busy_s_per_geant2_sample"] = extra_figure
    elif isinstance(workload, workloads.Train):
        extra["models.trainer.epochs_to_target"] = float(reps[0].repeat["epochs_to_target"] or 0)
        extra["datasets.prefetch.peak_live_batches"] = max(
            rep.figures["peak_live_batches"] for rep in reps)
    return extra


def run_all(args, names) -> int:
    """Every workload, one process each; non-zero if any run fails."""
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        sys.stdout.flush()
        status = subprocess.run(command, check=False).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # Terminated, the run still stops its workers and removes its scratch
    # directory on the way out.  Forked workers keep the default action.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: no program source at {source}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import layers
    import workloads
    from probe import HostProbe
    from tracing import SpanTable

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    declared = read_benchmark_file(workloads.END_TO_END, layers.PER_LAYER)
    why = {entry["name"]: entry["why"] for entry in declared["workloads"]}
    workload = workloads.WORKLOADS[args.workload]()
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(base, "work"), exist_ok=True)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(base, "work"))
    # Temporary files of the program and of multiprocessing stay inside
    # the checkout too.
    tempfile.tempdir = scratch
    host = host_block()
    lines = [f"perfbench workload={workload.name} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             "host " + json.dumps(host, sort_keys=True),
             f"why: {why[workload.name]}"]
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    # The traced run reports no end-to-end timing and leaves the probe out.
    probe = HostProbe(workload.host_probe) if workload.host_probe and not args.trace else None
    try:
        inputs, setup_times, setup_scaled = run_setups(workload, args.seed, scratch, probe)
        lines.append(f"setup_s over {len(setup_times)} set-ups: min {min(setup_times):.6f} "
                     f"median {statistics.median(setup_times):.6f} "
                     f"max {max(setup_times):.6f} s raw, median "
                     f"{statistics.median(setup_scaled):.6f} s scaled")
        per_query = isinstance(workload, workloads.Predict)
        if not args.trace:
            reps = measured = run_reps(workload, inputs, scratch, args.seconds, None, 0,
                                       probe)
        else:
            untraced, traced, tracer, reference = run_traced(
                workload, inputs, scratch, args.seconds)
            reps, measured = untraced + traced, traced
        failures = [message for rep in reps for message in rep.failures]
        wrong = [message for rep in reps for message in rep.wrong]
        if not per_query:
            mismatches = repeat_failures(reps)
            failures += mismatches
            wrong += mismatches
        attempted = sum(rep.attempted for rep in reps)
        for index, rep in enumerate(measured):
            if not per_query:
                lines.append(f"rep {index}: wall {rep.wall_s:.4f} s, {rep.samples} samples "
                             f"in {rep.busy_s:.4f} s, repeat {json.dumps(rep.repeat)}")
        for message in failures:
            lines.append(f"FAILED: {message}")
        for name, value, unit in workload.figures(reps):
            lines.append(f"figure {name} = {value:.6g} {unit}")
            result.setdefault("figures", {})[name] = value
        lines.append(f"failed_share = {len(failures)}/{attempted} = "
                     f"{len(failures) / max(attempted, 1):.4f} ratio")
        if not per_query:
            for key, value in reps[0].repeat.items():
                lines.append(f"repeat {key} = {value}")
            result["repeat"] = reps[0].repeat
        if not args.trace:
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": peak_rss_mb(),
                "samples_per_s": workloads.rate(reps, workload.rate_median),
            }
            probed = [unit[2][1] for rep in reps for unit in rep.units if unit[2]]
            raw = {} if probe is None else {
                "raw_setup_s": (statistics.median(setup_times), "s"),
                "raw_samples_per_s": (
                    workloads.rate(reps, workload.rate_median, scaled=False), "samples/s")}
            if probed:
                raw["host_probe_ms"] = (statistics.median(probed) * 1e3, "ms")
            for name, (value, unit) in raw.items():
                lines.append(f"figure {name} = {value:.6g} {unit}")
                result.setdefault("figures", {})[name] = value
            units = {name: unit for name, unit, _ in workloads.END_TO_END}
        else:
            table = SpanTable(tracer.collect()).within([f"workload.{workload.name}"])
            extra = traced_extras(workload, traced, table, lines,
                                  result.setdefault("figures", {}))
            walls = [rep.wall_s for rep in untraced], [rep.wall_s for rep in traced]
            extra["trace.overhead_share"] = (statistics.median(walls[1])
                                             / statistics.median(walls[0]) - 1.0)
            reps_counted = len(traced)
            metrics = layers.layer_metrics(table, tracer, reps_counted,
                                           [f"workload.{workload.name}"], extra)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
            lines.append(f"ledger over {reps_counted} traced repetition(s):")
            lines.extend(layers.ledger_lines(table, reps_counted))
            if metrics["trace.untraced_share"] > UNTRACED_SHARE_FINDING:
                lines.append(f"FINDING: trace.untraced_share = "
                             f"{metrics['trace.untraced_share']:.3f} exceeds "
                             f"{UNTRACED_SHARE_FINDING}: that share of the wall time "
                             "is in no traced stage")
            if reference is not None:
                gap = dp_gap(reference, table)
                result["dp_gap"] = gap
                lines.append(
                    f"dp gap per optimiser step: serial batch compute "
                    f"{gap['serial_batch_compute_s'] * 1e3:.1f} ms, worker batch compute "
                    f"{gap['worker_batch_compute_s'] * 1e3:.1f} ms, collect wait "
                    f"{gap['collect_wait_per_step_s'] * 1e3:.1f} ms")
                for part, seconds in gap["excess_per_step_s"].items():
                    lines.append(f"  excess {seconds * 1e3:8.1f} ms  {part}")
                lines.append(f"FINDING: the gap to serial training is {gap['layer']}; "
                             f"{metrics['nn.parallel.worker_threads']:.0f} threads per "
                             "gradient worker")
        for name, value in metrics.items():
            lines.append(f"metric {name} = {value:.6g} {units[name]}{NOTES.get(name, '')}")
    finally:
        stop_children()
        shutil.rmtree(scratch, ignore_errors=True)

    result.update({"host": host, "metrics": metrics,
                   "failures": failures, "attempted": attempted})
    for line in lines:
        print(line)
    if workload.name in ("generate", "predict"):
        for line in derived_speedup(base, result):
            print(line)
    with open(os.path.join(base, "results",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def derived_speedup(base: str, result: dict) -> list:
    """GNN-vs-simulator speed-up from the latest generate and predict results.

    Simulator busy seconds per GEANT2 sample (a traced generate run)
    divided by the GEANT2 predict median latency.  A derived figure, not a
    metric: it falls whenever the simulator gets faster.
    """
    figures = {"generate": ("simulator_busy_s_per_geant2_sample", "trace1"),
               "predict": ("geant2_predict_p50_ms", "trace")}
    found = {}
    for workload, (key, pattern) in figures.items():
        if result["workload"] == workload and key in result.get("figures", {}):
            found[workload] = result["figures"][key]
            continue
        paths = sorted(glob.glob(os.path.join(base, "results", f"{workload}-*-{pattern}*.json")),
                       key=os.path.getmtime)
        for path in reversed(paths):
            with open(path, "r", encoding="utf-8") as handle:
                value = json.load(handle).get("figures", {}).get(key)
            if value is not None:
                found[workload] = value
                break
    if len(found) < 2:
        return []
    speedup = found["generate"] / (found["predict"] / 1e3)
    result.setdefault("figures", {})["gnn_vs_simulator_speedup"] = speedup
    return [f"derived gnn_vs_simulator_speedup = {speedup:.1f}x "
            f"(simulator {found['generate']:.4f} s per GEANT2 sample / "
            f"GEANT2 predict p50 {found['predict']:.2f} ms)"]


if __name__ == "__main__":
    sys.exit(main())
