"""Benchmark harness: run solver methods over seeded instances.

Each (seed, method) pair is one run.  Runs are dispatched to a process
pool, but results are collected and written in the deterministic input
order, so output files depend only on the configuration (timing columns
aside).  Consecutive runs on one instance in one process share one
build of it, so a serial suite parses a file once per seed, not once
per method; pooled workers share a build only when consecutive runs of
a seed reach the same worker.  Per-run timing covers solver compute
only; instance generation and file I/O happen outside the solver clock.

Outputs written to --out-dir:

* ``runs.csv``: every trace checkpoint of every run.
* ``tolerance_table.csv``: per method and tolerance, how many runs
  reached the tolerance and their mean time to reach it (first
  checkpoint crossing); the mean is left empty when no run reached it.
* ``traces/<run-id>.csv``: the per-run trace, the columns of
  ``runs.csv`` after ``method``.
* ``meta.json``: the fully resolved configuration and the numeric
  environment (numpy, BLAS, thread variables, usable CPUs).

Exit status: 0 when all runs complete, 1 when any run fails internally
(a failure row is still recorded), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .baselines import FomConfig, extragradient_run, ogda_run
from .game import MatrixGame
from .hybrid import HybridConfig, run_hybrid
from .instances import SEED_LIMIT, InstanceSpec, generate
from .jacobian import _THREAD_VARS, hold_one_lane, newton_lanes, usable_cpus
from .prm import SCHEME_LAST_ITERATE, SCHEME_QUADRATIC_AVG, run_prm
from .trace import TraceRow

SEED_OFFSET_ENV = "SADDLE_SSN_SEED_OFFSET"

METHODS = ("prm-li", "prm-qa", "eg", "ogda", "pssn-v1", "pssn-v2", "hpssn")
# Hybrids that switch at the threshold; hpssn probes on gap halving.
SWITCH_METHODS = ("pssn-v1", "pssn-v2")

TOLERANCES = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)

RUNS_HEADER = ("instance,seed,method,iteration,phase,duality_gap,"
               "residual_norm,lambda,elapsed_seconds")
TRACE_HEADER = "iteration,phase,duality_gap,residual_norm,lambda,elapsed_seconds"


@dataclass(frozen=True)
class RunSpec:
    """One benchmark run: an instance, a seed, and a method token."""

    spec: InstanceSpec
    method: str
    gamma: float | None
    switch_threshold: float
    target: float
    fo_budget: int
    checkpoint_every: int

    def run_id(self) -> str:
        return f"{self.spec.label()}-s{self.spec.seed}-{self.method}"


@dataclass
class RunOutput:
    """Trace rows of a completed run, or the error that ended it."""

    run_id: str
    instance: str
    seed: int
    method: str
    rows: list[TraceRow]
    status: str
    error: str | None = None


@functools.lru_cache(maxsize=1)
def _build(spec: InstanceSpec) -> MatrixGame:
    """``generate`` behind a one-entry cache, one per process.

    A suite lists its runs seed by seed, every method of a seed in a
    row, so consecutive runs share a spec, and since a ``MatrixGame`` is
    immutable they can share the game.  A build that raises is not kept,
    so each run of a bad spec reports its own failure.
    """
    return generate(spec)


def execute_run(run: RunSpec) -> RunOutput:
    """Build the instance and run one method; never raises."""
    rid = run.run_id()
    label = run.spec.label()
    try:
        game = _build(run.spec)
        if run.method in ("prm-li", "prm-qa"):
            scheme = (SCHEME_LAST_ITERATE if run.method == "prm-li"
                      else SCHEME_QUADRATIC_AVG)
            res = run_prm(game, scheme=scheme, max_iters=run.fo_budget,
                          target_gap=run.target,
                          check_every=run.checkpoint_every)
        elif run.method == "eg" or run.method == "ogda":
            cfg = FomConfig(max_iters=run.fo_budget, target_gap=run.target,
                            check_every=run.checkpoint_every)
            runner = extragradient_run if run.method == "eg" else ogda_run
            res = runner(game, cfg)
        else:
            cfg = HybridConfig(variant=run.method, gamma=run.gamma,
                               switch_gap_threshold=run.switch_threshold,
                               target_gap=run.target,
                               max_fo_iters=run.fo_budget,
                               gap_check_period=run.checkpoint_every)
            res = run_hybrid(game, cfg)
        return RunOutput(rid, label, run.spec.seed, run.method, res.trace,
                         res.status)
    except Exception as exc:  # noqa: BLE001 - failure row + exit code 1
        return RunOutput(rid, label, run.spec.seed, run.method, [], "error",
                         error=f"{type(exc).__name__}: {exc}")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_runs_csv(path: str, outputs: list[RunOutput]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(RUNS_HEADER + "\n")
        for out in outputs:
            if out.error is not None:
                fh.write(f"{out.instance},{out.seed},{out.method},0,ERROR,"
                         f"nan,nan,nan,nan\n")
                continue
            for r in out.rows:
                fh.write(f"{out.instance},{out.seed},{out.method},"
                         f"{r.iteration},{r.phase},{_fmt(r.gap)},"
                         f"{_fmt(r.residual_norm)},{_fmt(r.damping)},"
                         f"{_fmt(r.elapsed)}\n")


def first_crossings(rows: list[TraceRow]) -> dict[float, float]:
    """Elapsed time at the first checkpoint at or under each tolerance."""
    out: dict[float, float] = {}
    for tol in TOLERANCES:
        for r in rows:
            if r.gap <= tol:
                out[tol] = r.elapsed
                break
    return out


def _write_tolerance_table(path: str, outputs: list[RunOutput]) -> None:
    methods = sorted({out.method for out in outputs},
                     key=lambda m: METHODS.index(m))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("method,tolerance,reached_count,run_count,"
                 "mean_elapsed_seconds\n")
        for method in methods:
            runs = [out for out in outputs if out.method == method]
            crossings = [first_crossings(out.rows) for out in runs
                         if out.error is None]
            for tol in TOLERANCES:
                times = [c[tol] for c in crossings if tol in c]
                mean = _fmt(sum(times) / len(times)) if times else ""
                fh.write(f"{method},{_fmt(tol)},{len(times)},{len(runs)},"
                         f"{mean}\n")


def _write_trace_files(traces_dir: str, out: RunOutput) -> None:
    with open(os.path.join(traces_dir, f"{out.run_id}.csv"), "w",
              encoding="ascii") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in out.rows:
            fh.write(f"{r.iteration},{r.phase},{_fmt(r.gap)},"
                     f"{_fmt(r.residual_norm)},{_fmt(r.damping)},"
                     f"{_fmt(r.elapsed)}\n")


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _numeric_env(lanes: int) -> dict:
    """numpy version, its BLAS build, BLAS thread variables, usable CPUs,
    and the lanes the runs' Newton line searches ran on."""
    blas = None
    if np.lib.NumpyVersion(np.__version__) >= "1.26.0":  # has dict mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas, "cpus": usable_cpus(),
            "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
            "newton_lanes": lanes}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="saddle-ssn-bench",
        description="Benchmark equilibrium solvers on matrix games.")
    p.add_argument("--kind", choices=["uniform", "normal", "file"],
                   default="uniform",
                   help="instance family (default: uniform)")
    p.add_argument("--path", default=None,
                   help="payoff matrix file (.csv or .mtx) for --kind file")
    p.add_argument("--n", type=int, default=100,
                   help="rows of random instances (default: 100)")
    p.add_argument("--m", type=int, default=100,
                   help="columns of random instances (default: 100)")
    p.add_argument("--seeds", default="0..9",
                   help="inclusive range a..b or comma list (default: 0..9)")
    p.add_argument("--methods", default="prm-qa,pssn-v1",
                   help=f"comma list from {', '.join(METHODS)}")
    p.add_argument("--gamma", type=float, default=None,
                   help="splitting parameter of the Newton phase "
                        "(default: 3 / the payoff's largest singular "
                        "value)")
    p.add_argument("--switch-threshold", type=float,
                   default=HybridConfig.switch_gap_threshold,
                   help="gap at which pssn-v1/v2 hand over to Newton "
                        "(default: %(default)s)")
    p.add_argument("--target", type=float, default=1e-12,
                   help="duality gap to certify (default: 1e-12)")
    p.add_argument("--fo-budget", type=int, default=500_000,
                   help="first-order iteration budget (default: 500000)")
    p.add_argument("--checkpoint-every", type=int, default=100,
                   help="gap checkpoint cadence in first-order iterations "
                        "(default: 100)")
    p.add_argument("--out-dir", default="bench_out",
                   help="output directory (default: bench_out)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes "
                        "(default: CPUs this process may run on)")
    return p


def run_suite(args: argparse.Namespace) -> int:
    """Execute the configured runs and write all output files."""
    # A file may have changed since an earlier suite in this process.
    _build.cache_clear()
    seeds = [s + args.seed_offset for s in args.seed_list]
    runs = [RunSpec(spec=InstanceSpec(kind=args.kind, n=args.n, m=args.m,
                                      seed=seed, path=args.path),
                    method=method, gamma=args.gamma,
                    switch_threshold=args.switch_threshold,
                    target=args.target, fo_budget=args.fo_budget,
                    checkpoint_every=args.checkpoint_every)
            for seed in seeds for method in args.method_list]

    # A fork pool starts all of its workers at the first submit, so it
    # gets no more of them than there are runs.
    workers = min(args.workers or usable_cpus(), len(runs))
    pooled = workers > 1
    t_start = time.perf_counter()
    if pooled:
        # Imported here: a serial suite should not pay for loading
        # multiprocessing.  The workers already fill the cores, so each
        # runs its line searches on one lane.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=hold_one_lane) as pool:
            outputs = list(pool.map(execute_run, runs))
    else:
        outputs = [execute_run(run) for run in runs]
    wall = time.perf_counter() - t_start

    os.makedirs(args.out_dir, exist_ok=True)
    traces_dir = os.path.join(args.out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)
    _write_runs_csv(os.path.join(args.out_dir, "runs.csv"), outputs)
    _write_tolerance_table(os.path.join(args.out_dir, "tolerance_table.csv"),
                           outputs)
    for out in outputs:
        if out.error is None:
            _write_trace_files(traces_dir, out)

    failures = {out.run_id: out.error for out in outputs
                if out.error is not None}
    meta = {
        "kind": args.kind,
        "path": args.path,
        "n": args.n,
        "m": args.m,
        "seeds": seeds,
        "seed_offset": args.seed_offset,
        "methods": args.method_list,
        "gamma": args.gamma,
        "switch_threshold": args.switch_threshold,
        "target": args.target,
        "fo_budget": args.fo_budget,
        "checkpoint_every": args.checkpoint_every,
        "workers": workers,
        "tolerances": list(TOLERANCES),
        "statuses": {out.run_id: out.status for out in outputs},
        "failures": failures,
        "suite_wall_seconds": wall,
        "numeric_env": _numeric_env(1 if pooled else newton_lanes()),
    }
    with open(os.path.join(args.out_dir, "meta.json"), "w",
              encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for rid, err in failures.items():
        print(f"FAILED {rid}: {err}", file=sys.stderr)
    done = len(outputs) - len(failures)
    print(f"{done}/{len(outputs)} runs completed; outputs in {args.out_dir}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.seed_list = _parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"invalid --seeds: {exc}")
    if not args.seed_list:
        parser.error("no seeds given")
    args.method_list = [tok.strip() for tok in args.methods.split(",")
                        if tok.strip()]
    if not args.method_list:
        parser.error("no methods given")
    for method in args.method_list:
        if method not in METHODS:
            parser.error(f"unknown method {method!r}; "
                         f"choose from {', '.join(METHODS)}")
    # A repeated run would write the same run id twice.
    for name, items in (("seed", args.seed_list),
                        ("method", args.method_list)):
        if len(set(items)) < len(items):
            parser.error(f"a {name} is given twice in {items}")
    if args.kind == "file" and not args.path:
        parser.error("--kind file requires --path")
    if args.kind != "file" and (args.n < 1 or args.m < 1):
        parser.error("--n and --m must be positive")
    if args.gamma is not None and not 0.0 < args.gamma < math.inf:
        parser.error("--gamma must be positive")
    if not 0.0 < args.target < math.inf:
        parser.error(f"--target must be positive and finite, got {args.target}")
    if args.fo_budget < 1 or args.checkpoint_every < 1:
        parser.error("budgets must be positive")
    # Only the switch methods read the threshold, so only they need it
    # above the target.
    switching = any(m in SWITCH_METHODS for m in args.method_list)
    if not (math.isfinite(args.switch_threshold)
            and (args.target < args.switch_threshold or not switching)):
        parser.error("--switch-threshold must be finite and exceed --target, "
                     f"got {args.switch_threshold}")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be positive")
    raw_offset = os.environ.get(SEED_OFFSET_ENV, "0")
    try:
        args.seed_offset = int(raw_offset)
    except ValueError:
        parser.error(f"{SEED_OFFSET_ENV} must be an integer, got {raw_offset!r}")
    lowest = min(args.seed_list) + args.seed_offset
    highest = max(args.seed_list) + args.seed_offset
    source = (f"from --seeds {args.seeds!r} and "
              f"{SEED_OFFSET_ENV}={args.seed_offset}")
    if lowest < 0:
        parser.error(f"seeds must be nonnegative, got {lowest} {source}")
    if highest >= SEED_LIMIT:
        parser.error(f"seeds must be below 2**128, got {highest} {source}")
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
