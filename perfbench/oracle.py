"""Correctness oracle that judges each benchmark op from outside rotalab.

Tolerances are pinned here at the values of the default configuration
and of acceptance criteria 8, 10 and 11. Nothing is read from the
program: a report's own `tolerance` and `pass` fields are ignored,
because a NaN residual can be reported as passing (`max(0.0, nan)` is
`0.0`). A residual passes only when it is a finite number at or below
its pinned tolerance.
"""

from __future__ import annotations

import json
import math

TOL_EXACT = 1e-10  # default --tol-exact
TOL_QUAD = 1e-6  # default --tol-quad

# check id -> tolerance of `rotalab verify all` at the default config
VERIFY_ALL_TOLERANCES = {
    "algebra.scalar_ring_laws": 0.0,
    "algebra.torus_translation": 0.0,
    "algebra.generator_commutation": TOL_EXACT,
    "algebra.adjoint_antihomomorphism": TOL_EXACT,
    "algebra.trace_properties": TOL_EXACT,
    "algebra.representation_interior": TOL_EXACT,
    "oscillator.singular_value_law": TOL_EXACT,
    "oscillator.grid_oracle": 1e-3,
    "oscillator.index_signs": 0.0,
    "oscillator.dolbeault_square": 1e-12,
    "oscillator.heat_contrast_decay": 0.0,
    "groupoids.rotation_laws": 0.0,
    "groupoids.flow_laws": 0.0,
    "groupoids.lattice_laws": 0.0,
    "groupoids.matrix_functoriality": 0.0,
    "groupoids.transversal_roundtrip": 0.0,
    "groupoids.lattice_times_roundtrip": 0.0,
    "bimodules.line_inner_dual_routes": 1e-8,
    "bimodules.line_axioms": TOL_EXACT,
    "bimodules.shear_unitarity": TOL_QUAD,
    "bimodules.dirac_conjugation": TOL_QUAD,
    "bimodules.descended_axioms": TOL_EXACT,
    "bimodules.pair_associativity": 1e-10,
    "bimodules.descent_oracle": 1e-8,
    "duality.composite_roundtrip": TOL_QUAD,
    "duality.conjugation_residuals": TOL_QUAD,
    "duality.transform_unitarity": TOL_QUAD,
    "duality.resolvent_identity": 1e-12,
    "duality.leibniz_creation": TOL_QUAD,
    "duality.diagonal_lower_bound": TOL_QUAD,
    "duality.inner_dual_routes": 1e-8,
    "ktheory.twist_group_law": 0.0,
    "ktheory.twist_inverse": 0.0,
    "ktheory.fixed_parts": 0.0,
}

# acceptance-criterion bounds used by the evaluator workloads
CRITERION_10_EXACT = 1e-12
CRITERION_8_ROUNDTRIP = 1e-6
CRITERION_8_CONJUGATION = 1e-6
CRITERION_11_PRODUCT_RULE = 1e-6


class OracleFailure(Exception):
    """An op's output is wrong; the message says which part."""


def residual_ok(value, tolerance) -> bool:
    """True only for a real finite number at or below the tolerance."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) and value <= tolerance


def check_residuals(residuals: dict, bounds: dict):
    """Raise OracleFailure on the first residual that is not finite and in bound."""
    if set(residuals) != set(bounds):
        raise OracleFailure(f"residuals {sorted(residuals)} != {sorted(bounds)}")
    for name, value in residuals.items():
        if not residual_ok(value, bounds[name]):
            raise OracleFailure(f"{name} = {value!r} exceeds {bounds[name]!r}")


def _reject_constant(token):
    raise OracleFailure(f"non-standard JSON literal {token}")


def strict_json(data: bytes):
    """Parse RFC 8259 JSON: `NaN`, `Infinity` and `-Infinity` are rejected."""
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise OracleFailure(f"report is not JSON: {exc}") from exc


def check_verify_report(exit_code, data: bytes):
    """Judge one `rotalab verify all` run by its exit code and report bytes."""
    if exit_code != 0:
        raise OracleFailure(f"exit code {exit_code}")
    report = strict_json(data)
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list):
        raise OracleFailure("report has no check list")
    seen = {}
    for entry in checks:
        check_id = entry.get("check_id") if isinstance(entry, dict) else None
        if check_id in seen or check_id not in VERIFY_ALL_TOLERANCES:
            raise OracleFailure(f"unexpected or repeated check {check_id!r}")
        seen[check_id] = entry.get("max_error")
    missing = set(VERIFY_ALL_TOLERANCES) - set(seen)
    if missing:
        raise OracleFailure(f"missing checks {sorted(missing)}")
    check_residuals(seen, VERIFY_ALL_TOLERANCES)
