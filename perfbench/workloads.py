"""The four workloads: their inputs, and one pass over them.

Each workload is a fixed suite of games.  The benchmark seed relabels
the strategies of every game (a random permutation of rows and one of
columns), so the program never sees the same matrix under two seeds
while the work a pass does stays that of the suite.  Run-to-run spread
then measures the machine and the code, not which random games were
drawn; drawing fresh games per seed moved a 10-game suite's time by
more than the bounds allow.

A pass runs every (game, method) job of the suite once, in order, in
one process.  Library workloads call the package's public solvers;
``cli-degenerate`` runs the ``saddle-ssn-bench`` entry point on payoff
files, as a subprocess per file (or in-process for the traced run).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from saddle_ssn import baselines, cli, hybrid, instances, prm
from saddle_ssn.game import MatrixGame, StrategyProfile

HYBRID_TARGET = 1e-12
FO_TARGET = 1e-4
# A hybrid that exhausts this first-order budget gives up after about
# half a second instead of the default budget's ~13 s.
CLI_FO_BUDGET = 10_000
CLI_METHODS = ("pssn-v1", "pssn-v2", "hpssn")
CLI_TIMEOUT_S = 60.0
STATUS_CONVERGED = "converged"


@dataclass
class Run:
    """One solver run of a pass, as the benchmark observed it.

    ``seconds`` is the time the caller waited for the run: the solve
    call for library runs, and for CLI runs the wall time of the
    saddle-ssn-bench process that ran it (start-up and the file's other
    methods included), since that is the CLI's unit of work.  A run that
    gives up counts at the time it gave up.  ``signature`` holds everything about the run that must
    repeat exactly across passes.  ``problems`` collects correctness
    violations and ``certified`` the verdict of the checks.
    """

    label: str
    seconds: float
    status: str
    gap: float
    signature: tuple
    game: MatrixGame | None = None
    profile: StrategyProfile | None = None
    problems: list[str] = field(default_factory=list)
    certified: bool = False


@dataclass
class Pass:
    wall_s: float
    runs: list[Run]
    output_bytes: int = 0


def relabel_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox([seed, key]))


def relabel(payoff: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute rows and columns: the same game under new strategy names."""
    rows = rng.permutation(payoff.shape[0])
    cols = rng.permutation(payoff.shape[1])
    return payoff[rows][:, cols]


@dataclass(frozen=True)
class LibraryWorkload:
    """Generated games solved through the library's public functions.

    ``jobs`` pairs an index into ``keys`` (the instance seeds of the base
    games) with a method token as the CLI spells it.
    """

    kind: str
    n: int
    m: int
    keys: tuple[int, ...]
    jobs: tuple[tuple[int, str], ...]
    target: float
    switch: float | None = None

    def setup(self, seed: int) -> list[MatrixGame]:
        games = []
        for key in self.keys:
            base = instances.generate(
                instances.InstanceSpec(self.kind, self.n, self.m, key))
            games.append(MatrixGame.from_payoff(
                relabel(base.payoff, relabel_rng(seed, key))))
        return games

    def run_pass(self, games: list[MatrixGame], between=None) -> Pass:
        """Solve every job once.  ``between``, if given, is called before
        each job; its time is left out of the pass's wall time."""
        runs = []
        outside = 0.0
        t_pass = time.perf_counter()
        for index, method in self.jobs:
            if between is not None:
                t0 = time.perf_counter()
                between()
                outside += time.perf_counter() - t0
            game = games[index]
            t0 = time.perf_counter()
            profile, status, gap, counts = self._solve(game, method)
            seconds = time.perf_counter() - t0
            runs.append(Run(f"{self.kind}-{self.n}x{self.m}-k"
                            f"{self.keys[index]}/{method}", seconds, status,
                            gap, (status, gap.hex()) + counts, game, profile))
        return Pass(time.perf_counter() - t_pass - outside, runs)

    def _solve(self, game: MatrixGame, method: str):
        # Module attribute lookups, so the traced run's wrappers apply.
        if method == "prm-qa":
            res = prm.run_prm(game, target_gap=self.target)
            return (res.profile, res.status, res.trace[-1].gap,
                    (res.iterations, len(res.trace)))
        if method in ("eg", "ogda"):
            runner = (baselines.extragradient_run if method == "eg"
                      else baselines.ogda_run)
            res = runner(game, baselines.FomConfig(target_gap=self.target))
            return (res.profile, res.status, res.trace[-1].gap,
                    (res.iterations, len(res.trace)))
        res = hybrid.run_hybrid(game, hybrid.HybridConfig(
            variant=method, switch_gap_threshold=self.switch,
            target_gap=self.target))
        return (res.profile, res.status, res.certificate.gap,
                (res.iterations, res.newton_steps, res.switch_iteration,
                 len(res.trace)))


_RPS = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_RPS_EPSILONS = (("0", 0.0), ("p1e-9", 1e-9), ("m1e-9", -1e-9),
                 ("p1e-6", 1e-6), ("p1e-3", 1e-3), ("m1e-3", -1e-3))
_CASE_CONTENT_KEY = 0


def degenerate_cases() -> list[tuple[str, np.ndarray]]:
    """The degenerate payoffs, before relabelling.

    Their content is fixed so that which cases stall does not depend on
    the benchmark seed.
    """
    rng = np.random.Generator(np.random.Philox(key=_CASE_CONTENT_KEY))
    cases = [(f"rps-{tag}", np.column_stack([_RPS, _RPS[:, 0] + eps]))
             for tag, eps in _RPS_EPSILONS]
    near_dup = rng.uniform(-1.0, 1.0, size=(30, 30))
    near_dup[-1] = near_dup[0] + 1e-9
    cases.append(("near-dup-rows", near_dup))
    cases.append(("rank-1", np.outer(rng.uniform(-1.0, 1.0, 20),
                                     rng.uniform(-1.0, 1.0, 30))))
    cases.append(("integer", rng.integers(-5, 6, size=(15, 15)).astype(float)))
    cases.append(("tall-300x20", rng.uniform(-1.0, 1.0, size=(300, 20))))
    cases.append(("one-by-25", rng.uniform(-1.0, 1.0, size=(1, 25))))
    # Row 3 column 7 is a pure saddle: the row minimizes down column 7,
    # the column maximizes along row 3, both at value 0.
    saddle = rng.uniform(-1.0, 1.0, size=(20, 20))
    saddle[3, :] = rng.uniform(-1.0, 0.0, 20)
    saddle[:, 7] = rng.uniform(0.0, 1.0, 20)
    saddle[3, 7] = 0.0
    cases.append(("pure-saddle", saddle))
    return cases


@dataclass(frozen=True)
class CliWorkload:
    """``saddle-ssn-bench --kind file`` runs on degenerate payoff files.

    Cases alternate between .csv and .mtx, so both loaders run.
    """

    cases: int
    fo_budget: int = CLI_FO_BUDGET
    target: float = HYBRID_TARGET

    def write_inputs(self, seed: int, directory: str) -> list[str]:
        paths = []
        for i, (stem, payoff) in enumerate(degenerate_cases()[:self.cases]):
            ext = ".csv" if i % 2 == 0 else ".mtx"
            path = os.path.join(directory, stem + ext)
            game = MatrixGame.from_payoff(relabel(payoff,
                                                  relabel_rng(seed, i)))
            instances.save_matrix(game, path)
            paths.append(path)
        return paths

    def start_up(self) -> None:
        """One start-up of the CLI: interpreter, import, argument parsing."""
        subprocess.run(cli_command() + ["--help"], env=cli_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=True, timeout=CLI_TIMEOUT_S)

    def argv(self, path: str, out_dir: str) -> list[str]:
        return ["--kind", "file", "--path", path, "--seeds", "0",
                "--methods", ",".join(CLI_METHODS),
                "--fo-budget", str(self.fo_budget),
                "--target", repr(self.target),
                "--workers", "1", "--out-dir", out_dir]

    def run_pass(self, paths: list[str], work_dir: str, in_process: bool,
                 between=None) -> Pass:
        """Run the CLI once per file; parse its outputs outside the clock.

        ``between``, if given, is called before each file, also outside
        the clock.
        """
        wall = 0.0
        runs: list[Run] = []
        output_bytes = 0
        for i, path in enumerate(paths):
            if between is not None:
                between()
            out_dir = os.path.join(work_dir, f"out{i}")
            argv = self.argv(path, out_dir)
            t0 = time.perf_counter()
            if in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                stderr = ""
            else:
                try:
                    proc = subprocess.run(cli_command() + argv, env=cli_env(),
                                          capture_output=True, text=True,
                                          timeout=CLI_TIMEOUT_S, check=False)
                    code, stderr = proc.returncode, proc.stderr
                except subprocess.TimeoutExpired:
                    code, stderr = -1, f"timed out after {CLI_TIMEOUT_S} s"
            seconds = time.perf_counter() - t0
            wall += seconds
            runs.extend(parse_cli_output(path, out_dir, code, stderr,
                                         seconds, self.target))
            output_bytes += _tree_bytes(out_dir)
        return Pass(wall, runs, output_bytes)


def cli_command() -> list[str]:
    """The saddle-ssn-bench entry point, run from the checkout's sources."""
    return [sys.executable, "-m", "saddle_ssn.cli"]


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = src
    return env


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(directory) for f in files)


def parse_cli_output(path: str, out_dir: str, code: int, stderr: str,
                     seconds: float, target: float) -> list[Run]:
    """One Run per method from runs.csv and meta.json of a CLI call.

    A non-zero exit, an ERROR row, a missing file or a status that
    disagrees with the gaps in runs.csv is recorded as a problem.
    """
    stem = os.path.splitext(os.path.basename(path))[0]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
    try:
        with open(os.path.join(out_dir, "meta.json"), encoding="ascii") as fh:
            statuses = json.load(fh)["statuses"]
        with open(os.path.join(out_dir, "runs.csv"), encoding="ascii",
                  newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError, KeyError) as exc:
        return [Run(f"{stem}/{m}", seconds, "missing", float("nan"), (),
                    problems=problems + [f"unreadable output: {exc}"])
                for m in CLI_METHODS]
    runs = []
    for method in CLI_METHODS:
        mine = [r for r in rows if r["method"] == method]
        status = statuses.get(f"file-{stem}-s0-{method}", "missing")
        run_problems = list(problems)
        if not mine or any(r["phase"] == "ERROR" for r in mine):
            run_problems.append("ERROR row or no rows in runs.csv")
            runs.append(Run(f"{stem}/{method}", seconds, status,
                            float("nan"), (), problems=run_problems))
            continue
        gaps = [float(r["duality_gap"]) for r in mine]
        reached = min(gaps) <= target
        if (status == STATUS_CONVERGED) != reached or (
                status == STATUS_CONVERGED and gaps[-1] > target):
            run_problems.append(
                f"status {status} disagrees with final gap {gaps[-1]:.3e} "
                f"(smallest {min(gaps):.3e}, target {target:g})")
        signature = (status,) + tuple(
            (r["iteration"], r["phase"], r["duality_gap"],
             r["residual_norm"], r["lambda"]) for r in mine)
        runs.append(Run(f"{stem}/{method}", seconds, status, gaps[-1],
                        signature, problems=run_problems))
    return runs


WORKLOADS = {
    # Every run switches at round 100: Newton work at d = 200, where
    # per-call overhead and the damped phase dominate.  Relabelling moves
    # a run's Newton step count, so the suite is large enough to average
    # that out.
    "newton-small": LibraryWorkload(
        "uniform", 100, 100, tuple(range(20)),
        tuple((i, v) for i in range(20) for v in ("pssn-v1", "hpssn")),
        HYBRID_TARGET, switch=1e-1),
    # O(d^3) dense Newton linear algebra at d = 1200 dominates.
    "newton-large": LibraryWorkload(
        "uniform", 400, 800, (0,), ((0, "pssn-v2"),),
        HYBRID_TARGET, switch=1e-5),
    # No Newton code at all.  The baselines run on fewer games than
    # regret matching so that prm-qa, ogda and eg each take about a third
    # of the pass (instances 0 and 8 are the cheapest for the baselines).
    "first-order": LibraryWorkload(
        "normal", 100, 100, tuple(range(10)),
        tuple((i, "prm-qa") for i in range(10))
        + ((0, "ogda"), (8, "ogda"), (0, "eg")),
        FO_TARGET),
    # The only workload that runs the CLI, the file loaders and the
    # stall recovery; several cases stall on purpose.
    "cli-degenerate": CliWorkload(cases=len(degenerate_cases())),
}


def smoke_version(workload):
    """A tiny version of a workload, for the harness's own smoke test."""
    if isinstance(workload, CliWorkload):
        return replace(workload, cases=3, fo_budget=2_000)
    jobs = tuple(job for job in workload.jobs if job[0] < 2)
    return replace(workload, n=workload.n // 10, m=workload.m // 10,
                   keys=workload.keys[:2], jobs=jobs)
