"""The package's top-level names are exactly the ones the README documents,
and its settable knobs are exactly the ones callers set."""

import inspect
import os
import re
from dataclasses import fields

import saddle_ssn
from saddle_ssn.game import estimate_spectral_norm

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")

DOCUMENTED = {
    "FomConfig", "HybridConfig", "InstanceSpec", "MatrixGame", "SsnConfig",
    "StrategyProfile", "TraceRow", "build_context", "drive_newton",
    "duality_gap", "extragradient_run", "generate", "lift", "load_matrix",
    "make_state", "ogda_run", "restrict", "run_hybrid", "run_prm",
    "save_matrix", "__version__",
}


def test_all_is_the_documented_set():
    assert set(saddle_ssn.__all__) == DOCUMENTED
    assert len(saddle_ssn.__all__) == len(DOCUMENTED)


def test_every_exported_name_appears_in_the_readme():
    with open(README, encoding="utf-8") as fh:
        quoted = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", fh.read()))
    assert DOCUMENTED - {"__version__"} <= quoted


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from saddle_ssn import *", namespace)
    missing = [name for name in saddle_ssn.__all__ if name not in namespace]
    assert missing == []


def test_settable_knobs_are_pinned():
    # A new knob has to be added here too, so it is a visible decision.
    def names(config):
        return [f.name for f in fields(config)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert names(saddle_ssn.SsnConfig) == ["target_gap"]
    assert saddle_ssn.SsnConfig().max_newton_iters == 200
    assert names(saddle_ssn.HybridConfig) == [
        "switch_gap_threshold", "variant", "gamma", "target_gap",
        "max_fo_iters", "gap_check_period"]
    assert names(saddle_ssn.FomConfig) == [
        "max_iters", "target_gap", "check_every"]
    assert params(saddle_ssn.run_prm) == [
        "game", "scheme", "max_iters", "target_gap", "check_every"]
    assert params(estimate_spectral_norm) == ["payoff"]
