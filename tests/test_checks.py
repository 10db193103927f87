"""Each check fixes its own tolerance, and a NaN residual anywhere inside a check body fails it."""

import inspect
import math
import re

import numpy as np
import pytest

from rotalab import bimodules as bm
from rotalab import checks
from rotalab import duality as du
from rotalab.cli import RunConfig, validate_config
from rotalab.errors import ConfigInvalid
from rotalab.nctorus import basis_dim


def _nan_matrix(a, which, L, K):
    return np.full((basis_dim(L, K),) * 2, math.nan, dtype=complex)


def _nan_on_last_layer(*args, _oracle=bm.descent_inner_oracle, **kwargs):
    oracle = _oracle(*args, **kwargs)
    return lambda x, l: math.nan if l == 1 else oracle(x, l)


# check id, owner of the patched name, name, replacement; each NaN reaches a
# reducer after a finite value, where max() would keep the finite one
NAN_FEEDS = [
    ("algebra.trace_properties", checks, "nct_trace", lambda a: complex(math.nan, 0.0)),
    ("algebra.representation_interior", checks, "nct_represent", _nan_matrix),
    ("bimodules.descent_oracle", bm, "descent_inner_oracle", _nan_on_last_layer),
    (
        "duality.conjugation_residuals",
        du,
        "conjugation_report",
        lambda fn, b, theta: {"multiplier": 0.0, "derivative": math.nan},
    ),
    (
        "duality.resolvent_identity",
        du,
        "resolvent_residual",
        lambda f1, f2, sign: math.nan if sign < 0 else 0.0,
    ),
]


@pytest.mark.parametrize(
    "check_id, owner, name, replacement", NAN_FEEDS, ids=[feed[0] for feed in NAN_FEEDS]
)
def test_nan_residual_fails_the_check(monkeypatch, check_id, owner, name, replacement):
    suite = check_id.split(".")[0]
    only = [item for item in checks._REGISTRY[suite] if item[0] == check_id]
    monkeypatch.setitem(checks._REGISTRY, suite, only)
    monkeypatch.setattr(owner, name, replacement)
    report = checks.run_suite(suite, RunConfig())
    (entry,) = report["checks"]
    assert math.isnan(entry["max_error"])
    assert entry["pass"] is False
    assert report["all_pass"] is False


# every check's tolerance at lambda = 1, where grid_oracle's 1e-5 * sqrt|lambda| reads 1e-5;
# a looser value here is a looser check
PINNED_TOLERANCES = {
    "algebra.adjoint_antihomomorphism": 1e-10,
    "algebra.generator_commutation": 1e-10,
    "algebra.representation_interior": 1e-10,
    "algebra.scalar_ring_laws": 0.0,
    "algebra.torus_translation": 0.0,
    "algebra.trace_properties": 1e-10,
    "bimodules.descended_axioms": 1e-10,
    "bimodules.descent_oracle": 1e-08,
    "bimodules.dirac_conjugation": 1e-06,
    "bimodules.line_axioms": 1e-10,
    "bimodules.line_inner_dual_routes": 1e-08,
    "bimodules.pair_associativity": 1e-10,
    "bimodules.shear_unitarity": 1e-06,
    "duality.composite_roundtrip": 1e-06,
    "duality.conjugation_residuals": 1e-06,
    "duality.diagonal_lower_bound": 1e-06,
    "duality.inner_dual_routes": 1e-08,
    "duality.leibniz_creation": 1e-06,
    "duality.resolvent_identity": 1e-12,
    "duality.transform_unitarity": 1e-06,
    "groupoids.flow_laws": 0.0,
    "groupoids.lattice_laws": 0.0,
    "groupoids.lattice_times_roundtrip": 0.0,
    "groupoids.matrix_functoriality": 0.0,
    "groupoids.rotation_laws": 0.0,
    "groupoids.transversal_roundtrip": 0.0,
    "ktheory.fixed_parts": 0.0,
    "ktheory.twist_group_law": 0.0,
    "ktheory.twist_inverse": 0.0,
    "oscillator.dolbeault_square": 1e-12,
    "oscillator.grid_oracle": 1e-05,
    "oscillator.heat_contrast_decay": 0.0,
    "oscillator.index_signs": 0.0,
    "oscillator.singular_value_law": 1e-10,
}


@pytest.mark.parametrize(
    "overrides", [{}, {"b": 3, "seed": 5}, {"theta": 12.7071}], ids=["default", "b3-seed5", "theta-12"]
)
def test_every_check_reports_its_pinned_tolerance(overrides):
    report = checks.run_suite("all", RunConfig(**overrides))
    assert {entry["check_id"]: entry["tolerance"] for entry in report["checks"]} == PINNED_TOLERANCES


# a check reads the twist degree, or R and the grid directly or through _grid_of
_READS_TWIST = re.compile(r"\bcfg\.(b|radius|grid_nodes)\b|\b_grid_of\(cfg\)")


def test_twist_suites_are_the_suites_whose_checks_read_b_r_or_the_grid():
    readers = {
        suite
        for suite, items in checks._REGISTRY.items()
        for _, fn in items
        if _READS_TWIST.search(inspect.getsource(fn))
    }
    assert readers == set(checks.TWIST_SUITES)


@pytest.mark.parametrize("suite", checks.SUITE_NAMES + ("all",))
def test_only_the_twist_suites_reject_a_zero_twist(suite):
    if suite in checks.TWIST_SUITES + ("all",):
        with pytest.raises(ConfigInvalid):
            validate_config(RunConfig(b=0), suite=suite)
    else:
        validate_config(RunConfig(b=0), suite=suite)
