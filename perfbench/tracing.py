"""Traced runs: timing wrappers around each layer's public functions.

``Tracer.installed()`` replaces every traced function with a wrapper on
every saddle_ssn module that binds it, because the package imports
names with ``from .x import y``; on exit the originals are restored.
Each wrapper pushes a span on an in-memory stack, so a span knows the
span that called it.  To keep memory flat on passes with millions of
calls, spans are folded as they close into one record per (name,
caller) edge: calls, errors, inclusive and self seconds.  Self time is
the span's duration minus the durations of the traced spans it called.
``layer_metrics`` turns the edges of a pass into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field

MODULES = ("game", "splitting", "jacobian", "ssn", "prm", "baselines",
           "hybrid", "instances", "trace", "cli")

# Span name -> function, as "<defining module>.<function>".
TRACED = (
    "game.duality_gap", "game.project_simplex", "game.project_pair",
    "game.estimate_spectral_norm",
    "splitting.build_context", "splitting.resolve", "splitting.residual",
    "jacobian.residual_jacobian", "jacobian.newton_solve",
    "ssn.drive_newton", "ssn.line_search_accept", "ssn.newton_step",
    "ssn.basin_hop",
    "prm.alternating_round", "prm.run_prm",
    "baselines.extragradient_run", "baselines.ogda_run",
    "hybrid.run_hybrid",
    "instances.generate", "instances.load_matrix",
    "cli.main", "cli.execute_run",
)

SOLVER_RUNS = ("hybrid.run_hybrid", "prm.run_prm",
               "baselines.extragradient_run", "baselines.ogda_run")
BASELINE_RUNS = ("baselines.extragradient_run", "baselines.ogda_run")

# (name, unit); the order is the order of BENCHMARK.json's per_layer.
LAYER_METRICS = (
    ("jacobian.newton_solve.calls", "count"),
    ("jacobian.newton_solve_s", "s"),
    ("jacobian.newton_solve_ms_per_call", "ms"),
    ("jacobian.residual_jacobian.calls", "count"),
    ("jacobian.residual_jacobian_self_s", "s"),
    ("jacobian.solve_failures", "count"),
    ("splitting.build_context_s", "s"),
    ("splitting.resolve.calls", "count"),
    ("splitting.resolve_s", "s"),
    ("splitting.residual.calls", "count"),
    ("splitting.residual_self_s", "s"),
    ("ssn.newton_steps", "count"),
    ("ssn.trials", "count"),
    ("ssn.trials_per_step", "ratio"),
    ("ssn.accept_ratio", "ratio"),
    ("ssn.line_search_self_s", "s"),
    ("ssn.stalls", "count"),
    ("ssn.basin_hop.calls", "count"),
    ("ssn.basin_hop.rescued", "count"),
    ("ssn.basin_hop_s", "s"),
    ("ssn.drive_newton_s", "s"),
    ("prm.rounds", "count"),
    ("prm.alternating_round_s", "s"),
    ("prm.us_per_round", "us"),
    ("prm.run_prm_self_s", "s"),
    ("baselines.iterations", "count"),
    ("baselines.run_self_s", "s"),
    ("baselines.project_pair_s", "s"),
    ("game.project_simplex.calls", "count"),
    ("game.project_simplex_s", "s"),
    ("game.duality_gap.calls", "count"),
    ("game.duality_gap_s", "s"),
    ("game.estimate_spectral_norm_s", "s"),
    ("hybrid.fo_phase_s", "s"),
    ("hybrid.newton_phase_s", "s"),
    ("hybrid.newton_share", "ratio"),
    ("hybrid.switch_round", "round"),
    ("hybrid.tune_probes", "count"),
    ("hybrid.tune_probe_s", "s"),
    ("instances.generate_s", "s"),
    ("instances.load_matrix_s", "s"),
    ("trace.rows", "count"),
    ("cli.execute_run_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("bench.tracing_overhead_frac", "ratio"),
)
COUNT_UNITS = ("count", "round", "B")


@dataclass
class Edge:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Span stack, edge table and result observations of one traced pass."""

    edges: dict[tuple[str, str | None], Edge] = field(default_factory=dict)
    stack: list[list] = field(default_factory=list)
    newton_steps: int = 0
    accepted: int = 0
    stalls: int = 0
    rescued: int = 0
    fom_iterations: int = 0
    trace_rows: int = 0
    switch_rounds: list[int] = field(default_factory=list)

    def reset(self) -> None:
        """Forget recorded spans; installed wrappers keep working."""
        self.edges.clear()
        self.stack.clear()
        self.newton_steps = self.accepted = self.stalls = self.rescued = 0
        self.fom_iterations = self.trace_rows = 0
        self.switch_rounds.clear()

    def _observe(self, name: str, result) -> None:
        if name == "ssn.drive_newton":
            self.newton_steps += result[0]
        elif name == "ssn.line_search_accept":
            if result.stalled:
                self.stalls += 1
            elif not result.converged:
                self.accepted += 1
        elif name == "ssn.basin_hop":
            self.rescued += bool(result)
        elif name in SOLVER_RUNS:
            self.trace_rows += len(result.trace)
            if name in BASELINE_RUNS:
                self.fom_iterations += result.iterations
            elif (name == "hybrid.run_hybrid"
                  and result.switch_iteration is not None):
                self.switch_rounds.append(result.switch_iteration)

    def wrap(self, name: str, fn):
        stack, edges = self.stack, self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            failed = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[1] += duration
                key = (name, caller[0] if caller is not None else None)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = Edge()
                edge.calls += 1
                edge.errors += failed
                edge.total_s += duration
                edge.self_s += duration - frame[1]
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding of every traced function for its wrapper."""
        modules = [importlib.import_module(f"saddle_ssn.{m}") for m in MODULES]
        modules.append(importlib.import_module("saddle_ssn"))
        swapped = []
        for span in TRACED:
            home, attr = span.split(".")
            original = getattr(importlib.import_module(f"saddle_ssn.{home}"),
                               attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    swapped.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in swapped:
                setattr(module, attr, original)

    # -- aggregation ------------------------------------------------------

    def _sum(self, name: str, what: str, callers=None) -> float:
        return sum(getattr(e, what) for (n, c), e in self.edges.items()
                   if n == name and (callers is None or c in callers))

    def edge_table(self) -> list[dict]:
        return [{"span": n, "caller": c, "calls": e.calls, "errors": e.errors,
                 "total_s": e.total_s, "self_s": e.self_s}
                for (n, c), e in sorted(self.edges.items(),
                                        key=lambda kv: (kv[0][0],
                                                        str(kv[0][1])))]

    def layer_metrics(self, output_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        calls = lambda n, callers=None: self._sum(n, "calls", callers)
        total = lambda n, callers=None: self._sum(n, "total_s", callers)
        own = lambda n: self._sum(n, "self_s")
        ratio = lambda a, b: a / b if b else 0.0

        solves = calls("jacobian.newton_solve")
        trials = calls("ssn.newton_step", ("ssn.line_search_accept",))
        rounds = calls("prm.alternating_round")
        newton_s = total("ssn.drive_newton")
        hybrid_s = total("hybrid.run_hybrid")
        in_hybrid = ("hybrid.run_hybrid",)
        return {
            "jacobian.newton_solve.calls": solves,
            "jacobian.newton_solve_s": total("jacobian.newton_solve"),
            "jacobian.newton_solve_ms_per_call":
                1e3 * ratio(total("jacobian.newton_solve"), solves),
            "jacobian.residual_jacobian.calls":
                calls("jacobian.residual_jacobian"),
            "jacobian.residual_jacobian_self_s":
                own("jacobian.residual_jacobian"),
            "jacobian.solve_failures":
                self._sum("jacobian.newton_solve", "errors"),
            "splitting.build_context_s": total("splitting.build_context"),
            "splitting.resolve.calls": calls("splitting.resolve"),
            "splitting.resolve_s": total("splitting.resolve"),
            "splitting.residual.calls": calls("splitting.residual"),
            "splitting.residual_self_s": own("splitting.residual"),
            "ssn.newton_steps": self.newton_steps,
            "ssn.trials": trials,
            "ssn.trials_per_step": ratio(trials, self.newton_steps),
            "ssn.accept_ratio": ratio(self.accepted, trials),
            "ssn.line_search_self_s": own("ssn.line_search_accept"),
            "ssn.stalls": self.stalls,
            "ssn.basin_hop.calls": calls("ssn.basin_hop"),
            "ssn.basin_hop.rescued": self.rescued,
            "ssn.basin_hop_s": total("ssn.basin_hop"),
            "ssn.drive_newton_s": newton_s,
            "prm.rounds": rounds,
            "prm.alternating_round_s": total("prm.alternating_round"),
            "prm.us_per_round":
                1e6 * ratio(total("prm.alternating_round"), rounds),
            "prm.run_prm_self_s": own("prm.run_prm"),
            "baselines.iterations": self.fom_iterations,
            "baselines.run_self_s": sum(own(n) for n in BASELINE_RUNS),
            "baselines.project_pair_s": total("game.project_pair",
                                              BASELINE_RUNS),
            "game.project_simplex.calls": calls("game.project_simplex"),
            "game.project_simplex_s": total("game.project_simplex"),
            "game.duality_gap.calls": calls("game.duality_gap"),
            "game.duality_gap_s": total("game.duality_gap"),
            "game.estimate_spectral_norm_s":
                total("game.estimate_spectral_norm"),
            "hybrid.fo_phase_s": (hybrid_s - newton_s
                                  - total("splitting.build_context",
                                          in_hybrid)),
            "hybrid.newton_phase_s": newton_s,
            "hybrid.newton_share": ratio(newton_s, hybrid_s),
            "hybrid.switch_round": (statistics.median(self.switch_rounds)
                                    if self.switch_rounds else 0),
            "hybrid.tune_probes": calls("ssn.newton_step", in_hybrid),
            "hybrid.tune_probe_s": total("ssn.newton_step", in_hybrid),
            "instances.generate_s": total("instances.generate"),
            "instances.load_matrix_s": total("instances.load_matrix"),
            "trace.rows": self.trace_rows,
            "cli.execute_run_s": total("cli.execute_run"),
            "cli.self_s": own("cli.main"),
            "cli.output_bytes": output_bytes,
        }
