"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload newton-small --seed 1 \
        --seconds 25 --trace 0

Run from the repository root (any directory holding ``src/saddle_ssn``
next to ``perfbench``).  A run sets up the workload's inputs, then runs
whole passes over them until ``--seconds`` have passed (at least two,
so the determinism check has something to compare), checks every
pass's outputs outside the timed region, and prints two lines: a record
of the numeric environment and sample counts, then the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, scaled to the speed of a reference kernel timed
between the passes and their runs (calibration.py); ``--trace 1``
alternates untraced and traced passes and gives the per-layer metrics.  Exit status: 0 when every
check passed, 1 when a check failed, 2 when the package sources are
missing, 3 when BLAS is not pinned to one thread.
"""

from __future__ import annotations

import os
import sys

# BLAS reads these once, when numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_PASSES = 2
# No pass starts once the run would likely overrun this (the run must
# end well within 180 s).
RUN_LIMIT_S = 140.0
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
WORKLOAD_NAMES = ("newton-small", "newton-large", "first-order",
                  "cli-degenerate")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "certified_frac": "ratio",
                    "certified_per_s": "1/s", "run_p50_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the harness's own smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def _repeat_timed(fn, between):
    """Median duration of fn() over enough repeats, and its last result.

    ``between()`` runs before each repeat, outside the clock.
    """
    times, result = [], None
    while (len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS) \
            and len(times) < SETUP_MAX_REPEATS:
        between()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _keep_going(started: float, walls: list[float], seconds: float) -> bool:
    """Start another pass while it would likely end near --seconds or before.

    A pass is not started once half a typical pass would take the run
    past ``seconds``, so the measured time stays close to ``seconds``
    even when one pass is half of it.
    """
    elapsed = time.perf_counter() - started
    if walls and elapsed + max(walls) > RUN_LIMIT_S:
        return False
    if len(walls) < MIN_PASSES:
        return True
    return elapsed + 0.5 * statistics.fmean(walls) < seconds


def measure(args, work_dir: str) -> tuple[dict, dict]:
    from perfbench import calibration, checks, tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workloads.smoke_version(workload)
    is_cli = isinstance(workload, workloads.CliWorkload)
    tracer = tracing.Tracer()
    reference = calibration.Reference()
    sample_once = functools.partial(reference.sample, calls=1)

    if is_cli:
        inputs = workload.write_inputs(args.seed, work_dir)
        setup_s = (None if args.trace
                   else _repeat_timed(workload.start_up, sample_once)[0])
    elif args.trace:
        setup_s, inputs = None, workload.setup(args.seed)
    else:
        setup_s, inputs = _repeat_timed(lambda: workload.setup(args.seed),
                                        sample_once)
    setup_samples = len(reference.times)

    # The kernel is also sampled between the runs of an untraced pass,
    # so its samples follow the host through the pass: one call before
    # each library run, a full sample before each CLI subprocess.
    if args.trace:
        between = None
    else:
        between = reference.sample if is_cli else sample_once

    def one_pass(traced: bool):
        if not is_cli:
            if not traced:
                return workload.run_pass(inputs, between)
            games = workload.setup(args.seed)   # traced: instances, game
            return workload.run_pass(games)
        pass_dir = tempfile.mkdtemp(dir=work_dir)
        try:
            return workload.run_pass(inputs, pass_dir, in_process=args.trace,
                                     between=between)
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)

    untraced, traced, layer = [], [], []
    started = time.perf_counter()
    if not args.trace:
        while _keep_going(started, [p.wall_s for p in untraced],
                          args.seconds):
            reference.sample()
            untraced.append(one_pass(False))
        reference.sample()
    else:
        while _keep_going(started, [u.wall_s + t.wall_s for u, t
                                    in zip(untraced, traced)], args.seconds):
            untraced.append(one_pass(False))
            tracer.reset()
            with tracer.installed():
                traced.append(one_pass(True))
            layer.append(tracer.layer_metrics(traced[-1].output_bytes))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli
                             else resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness gate, outside every timed region.
    passes = untraced + traced
    oracles: dict[str, tuple[float, float]] = {}
    for run in (r for p in passes for r in p.runs):
        if is_cli:
            run.certified = checks.check_cli_run(run, workload.target)
            continue
        key = run.label.split("/")[0]   # one oracle per game
        if key not in oracles:
            oracles[key] = checks.lp_oracle(run.game.payoff)
        run.certified = checks.check_library_run(run, workload.target,
                                                 oracles[key])
    problems = [f"{r.label}: {msg}" for p in passes for r in p.runs
                for msg in r.problems]
    problems += checks.determinism_problems(passes)
    problems += _count_mismatches(layer, tracing)

    runs = [r for p in passes for r in p.runs]
    failed = sum(1 for r in runs if r.problems)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "samples": {"wall_s": len(untraced),
                    "run_p50_s": len(untraced[0].runs)},
        "uncertified": sorted({r.label for r in runs if not r.certified}),
        "problems": problems[:20],
    }
    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layer)
                   for name, _ in tracing.LAYER_METRICS
                   if name != "bench.tracing_overhead_frac"}
        metrics["bench.tracing_overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced) - 1.0)
        units = dict(tracing.LAYER_METRICS)
        _write_trace(args, tracer)
    else:
        # Times are means over the run's passes, scaled to the reference
        # kernel's speed: the host's speed flips between a fast and a
        # slow state every few seconds, and the slow state's share moves
        # over minutes.  Means over passes and over kernel samples taken
        # between them take in that share alike, so their ratio does not
        # (see calibration.py and README.md, "Bounds and run-to-run
        # spread").  A median would jump between the two states instead.
        total_wall = sum(p.wall_s for p in untraced)
        per_run: dict[str, list[float]] = {}
        for r in (r for p in untraced for r in p.runs):
            per_run.setdefault(r.label, []).append(r.seconds)
        raw = {
            "wall_s": total_wall / len(untraced),
            "setup_s": setup_s,
            "run_p50_s": statistics.median(
                statistics.fmean(times) for times in per_run.values()),
        }
        # Set-up is scaled by the samples taken during set-up, the passes
        # by those taken during the passes.
        setup_scale = reference.scale(stop=setup_samples)
        scale = reference.scale(first=setup_samples)
        info["reference"] = {"kernel_mean_s": statistics.fmean(
                                 reference.times),
                             "samples": len(reference.times),
                             "scale": scale, "setup_scale": setup_scale,
                             "unscaled": raw}
        certified = sum(r.certified for p in untraced for r in p.runs)
        metrics = {
            "wall_s": raw["wall_s"] * scale,
            "setup_s": raw["setup_s"] * setup_scale,
            "certified_frac": sum(r.certified for r in runs) / len(runs),
            "certified_per_s": certified / (total_wall * scale),
            "run_p50_s": raw["run_p50_s"] * scale,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, info


def _count_mismatches(layer: list[dict], tracing) -> list[str]:
    """Counts of the traced passes must repeat exactly."""
    counts = [name for name, unit in tracing.LAYER_METRICS
              if unit in tracing.COUNT_UNITS and name != "cli.output_bytes"]
    return [f"traced count {name} varies across passes: "
            f"{[m[name] for m in layer]}"
            for name in counts if len({m[name] for m in layer}) > 1]


def _write_trace(args, tracer) -> None:
    """Span edges of the last traced pass, for a human to read."""
    path = OUT / f"trace-{args.workload}-s{args.seed}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "edges": tracer.edge_table()}, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "saddle_ssn" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import numeric_env

    try:
        environment = numeric_env.record()
    except RuntimeError as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                                dir=OUT)
    try:
        result, info = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info["environment"] = environment
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
