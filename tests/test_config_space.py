"""The whole configuration space: validation, exit codes and slopes of either sign.

Two properties run over generated configurations. validate_config either
accepts a configuration or raises ConfigInvalid, whatever the values. The
command line, run with cost flags well under every cap, exits 0, 1, 2 or 3
and never prints a traceback. Fixed cases pin the slope rules: a negative
slope is valid, d_squared needs a positive one, and grid_oracle's tolerance
follows the slope's scale.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotalab import checks
from rotalab.cli import SUITE_CHOICES, TARGET_CHOICES, RunConfig, main, validate_config
from rotalab.errors import ConfigInvalid

EXTREME_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308, 5e-324, 1e-300]
# the command line reads ints with int(), which refuses more than 4300 digits
EXTREME_INTS = [0, -1, -(2**63), 2**63, 10**4000, -(10**4000)]

any_float = st.one_of(st.floats(), st.sampled_from(EXTREME_FLOATS))
any_int = st.one_of(st.integers(), st.sampled_from(EXTREME_INTS))

FIELD_VALUES = {
    "theta": any_float,
    "b": any_int,
    "lam": any_float,
    "level_cut": any_int,
    "mode_cut": any_int,
    "grid_nodes": any_int,
    "radius": any_float,
    "seed": any_int,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.fixed_dictionaries({}, optional=FIELD_VALUES),
    st.sampled_from(SUITE_CHOICES + (None,)),
    st.sampled_from(TARGET_CHOICES + (None,)),
)
def test_validate_config_accepts_or_raises_config_invalid(overrides, suite, target):
    config = RunConfig(**overrides)
    try:
        validate_config(config, suite=suite)
        validate_config(config, target=target)
    except ConfigInvalid:
        pass




def mostly(ordinary, extreme):
    """Values from ordinary nine times in ten and from extreme otherwise."""
    return st.integers(0, 9).flatmap(lambda i: extreme if i == 0 else ordinary)


# flags with the values they may take: the cost flags stay far below their caps,
# the others take any value, with ordinary ones often enough that runs get past validation
FLAG_VALUES = {
    "--grid": mostly(st.integers(8, 64), st.integers(-4, 7)).map(str),
    "--L": mostly(st.integers(2, 16), st.integers(-2, 1)).map(str),
    "--K": mostly(st.integers(1, 4), st.integers(-2, 0)).map(str),
    "--R": mostly(st.floats(0.5, 12.0), st.floats(-12.0, 0.5) | st.just(math.nan)).map(repr),
    "--b": st.integers(-4, 4).map(str),
    "--theta": mostly(st.floats(0.05, 0.95), any_float).map(repr),
    "--lambda": mostly(st.floats(-4.0, 4.0), any_float).map(repr),
    "--seed": st.integers().map(str),
}
# the oscillator suite costs about 0.4 s a run, the other commands milliseconds
CHEAP_COMMANDS = [["verify", "algebra"], ["verify", "ktheory"]] + [
    ["spectrum", target] for target in TARGET_CHOICES
]
COMMANDS = mostly(st.sampled_from(CHEAP_COMMANDS), st.just(["verify", "oscillator"]))


def run_main(argv):
    """(exit code, stdout, stderr, warnings) of the command line run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the text of a value
                code = exc.code
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=100, deadline=None, derandomize=True)
@given(COMMANDS, st.fixed_dictionaries({}, optional=FLAG_VALUES))
def test_main_exits_with_a_known_code_and_no_traceback(command, flags):
    argv = command + [f"{flag}={value}" for flag, value in flags.items()]
    code, out, err, caught = run_main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    lam = float(flags.get("--lambda", 1.0))
    if code in (0, 1) and 1e-100 <= abs(lam) <= 1e100:
        # a slope of ordinary size keeps the arithmetic finite
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        if command[0] == "verify":
            report = json.loads(out)
            assert all(entry["max_error"] is not None for entry in report["checks"]), argv


@pytest.mark.parametrize("lam", [-1.0, -1e-300])
def test_negative_slope_passes_the_oscillator_suite(lam):
    code, out, err, caught = run_main(["verify", "oscillator", f"--lambda={lam!r}"])
    assert code == 0, out
    assert err == "" and not caught
    entries = {entry["check_id"]: entry for entry in json.loads(out)["checks"]}
    # the grid oracle's tolerance follows the slope's scale and is 1e-5 at |lambda| = 1
    assert entries["oscillator.grid_oracle"]["tolerance"] == 1e-5 * math.sqrt(abs(lam))


@pytest.mark.parametrize(
    "lam", [0.3, 1.5, 2.0, 16.0, 1e6, 1e-300, 1e300, 1e305, 1e306, -0.5, -2.0, -1e306]
)
def test_grid_oracle_passes_at_every_slope(lam):
    # the oracle grid scales with 1/sqrt|lambda|, so the error keeps the tolerance's scale
    _, _, max_error, tolerance = checks._grid_oracle(RunConfig(lam=lam), None)
    assert max_error < tolerance


@pytest.mark.parametrize("theta", ["123456.789", "-98765.4321"])
def test_algebra_suite_passes_at_a_large_rotation_angle(theta):
    # lambda powers depend only on theta mod 1, so a large |theta| costs no phase accuracy
    code, out, err, caught = run_main(["verify", "algebra", f"--theta={theta}"])
    assert code == 0, out
    assert err == "" and not caught


@pytest.mark.parametrize(
    "theta, suite", [(123456.789, "bimodules"), (12.7071, "duality"), (10000000.123, "algebra")]
)
def test_suite_passes_at_a_large_angle_and_reports_it_as_given(theta, suite):
    # the checks see theta mod 1; the config block keeps the angle as given
    report = checks.run_suite(suite, RunConfig(theta=theta))
    assert report["all_pass"], [e["check_id"] for e in report["checks"] if not e["pass"]]
    assert report["config"]["theta"] == theta


def test_squared_spectrum_at_a_negative_slope_exits_two_with_one_line():
    code, out, err, _ = run_main(["spectrum", "d_squared", "--lambda", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "positive slope" in err and "Traceback" not in err


def test_planted_one_percent_defect_fails_the_grid_oracle_at_a_tiny_slope(monkeypatch):
    original = checks.grid_dirac_plus_staggered
    monkeypatch.setattr(checks, "grid_dirac_plus_staggered", lambda *args: 1.01 * original(*args))
    _, _, max_error, tolerance = checks._grid_oracle(RunConfig(lam=1e-300), None)
    assert np.isfinite(max_error) and max_error > tolerance


# (3, 4) lies on the upper band, (3, 0) off both bands
@pytest.mark.parametrize("row, col, value", [(3, 4, math.nan), (3, 0, 1.0)], ids=["nan", "off-band"])
def test_a_nan_or_off_band_grid_block_fails_the_grid_oracle(monkeypatch, row, col, value):
    original = checks.grid_dirac_plus_staggered

    def plant(*args):
        block = original(*args)
        block[row, col] = value
        return block

    monkeypatch.setattr(checks, "grid_dirac_plus_staggered", plant)
    report = checks.run_suite("oscillator", RunConfig())
    (entry,) = [e for e in report["checks"] if e["check_id"] == "oscillator.grid_oracle"]
    assert not entry["pass"] and "error" in entry
