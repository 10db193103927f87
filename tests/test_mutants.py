"""Planted defects: each one must make at least one named check fail.

Every mutant below plants one defect with monkeypatch, runs only the
suites it names at the default configuration, and asserts that one of
the named checks fails. A defect that no check catches stays on the list
until a check is added that catches it.
"""

import inspect
import sys
import textwrap

import pytest

from rotalab import (
    bimodules,
    checks,
    closedform,
    duality,
    groupoids,
    ktheory,
    nctorus,
    oscillator,
    scalars,
)
from rotalab.cli import RunConfig
from rotalab.scalars import IntMatrix2


def replace_everywhere(monkeypatch, original, replacement):
    """Point every rotalab module name bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name == "rotalab" or name.startswith("rotalab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def rewritten(module, function, old, new):
    """function recompiled in module's namespace with old replaced by new."""
    source = textwrap.dedent(inspect.getsource(function))
    mutated = source.replace(old, new)
    assert mutated != source
    namespace = dict(vars(module))
    exec(compile(mutated, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def plant_lambda_power_sign(monkeypatch):
    original = nctorus.lambda_power
    replace_everywhere(monkeypatch, original, lambda theta, exponent: original(theta, -exponent))


def plant_moment_recurrence(monkeypatch):
    """Clenshaw weight (k + 2) / A_jj: M_n = m M_{n-1} + n M_{n-2} / A_jj in place of (n - 1)."""
    mutated = rewritten(
        closedform, closedform._integrate_slot, "((k + 1) / ajj)", "((k + 2) / ajj)"
    )
    monkeypatch.setattr(closedform, "_integrate_slot", mutated)


def plant_compose_stride_swapped(monkeypatch):
    """Each y_k shifted by the stride of the variable at the mirrored position."""
    mutated = rewritten(
        closedform, closedform._poly_compose, "shape[k + 1 :]", "shape[len(shape) - k :]"
    )
    monkeypatch.setattr(closedform, "_poly_compose", mutated)


def plant_compose_shift_dropped(monkeypatch):
    """The constant c_j of each L_j = c_j + sum_k T_jk y_k dropped."""
    mutated = rewritten(closedform, closedform._poly_compose, "(cj, [", "(0, [")
    monkeypatch.setattr(closedform, "_poly_compose", mutated)


def plant_ladder_scale(monkeypatch):
    original = oscillator.ladder_block

    def scaled(lam, L):
        return original(lam, L) * (1 + 1e-6)

    replace_everywhere(monkeypatch, original, scaled)


def plant_right_anchor_sign(monkeypatch):
    """[a v + b r + k theta] in place of - k theta for the right anchor."""
    method = groupoids.TransversalPoint.paired_circle_point
    mutated = rewritten(groupoids, method, "- THETA * self.k", "+ THETA * self.k")
    monkeypatch.setattr(groupoids.TransversalPoint, "paired_circle_point", mutated)


def plant_pair_multiply_phase(monkeypatch):
    """The doubled-algebra product taken at -theta."""
    original = nctorus.pair_multiply
    replace_everywhere(monkeypatch, original, lambda xi, eta, theta: original(xi, eta, -theta))


def plant_pair_multiply_reversed(monkeypatch):
    """The doubled-algebra product taken in the opposite order."""
    original = nctorus.pair_multiply
    replace_everywhere(monkeypatch, original, lambda xi, eta, theta: original(eta, xi, theta))


def plant_staggered_derivative_scale(monkeypatch):
    """The grid derivative's 1/h taken one percent too large."""
    original = oscillator.grid_dirac_plus_staggered
    mutated = rewritten(oscillator, original, "1.0 / h", "1.01 / h")
    replace_everywhere(monkeypatch, original, mutated)


def plant_staggered_derivative_scale_small(monkeypatch):
    """The grid derivative's 1/h taken one part in ten thousand too large."""
    original = oscillator.grid_dirac_plus_staggered
    mutated = rewritten(oscillator, original, "1.0 / h", "1.0001 / h")
    replace_everywhere(monkeypatch, original, mutated)


def plant_staggered_band_short(monkeypatch):
    """The grid block's upper band returned without its last entry."""
    original = oscillator.grid_dirac_plus_staggered

    def planted(lam, nodes):
        main, upper = original(lam, nodes)
        return main, upper[:-1]

    replace_everywhere(monkeypatch, original, planted)


def plant_kernel_dim_rank_sign(monkeypatch):
    """Columns plus rank in place of columns minus rank."""
    original = oscillator._kernel_dims
    mutated = rewritten(oscillator, original, "cols - rank", "cols + rank")
    replace_everywhere(monkeypatch, original, mutated)


def plant_resolvent_denominator_s_dropped(monkeypatch):
    """The resolvent's denominator 1 + r^2 + s^2 taken without its s^2."""
    original = duality.resolvent_residual
    mutated = rewritten(duality, original, "1.0 + r * r + s * s", "1.0 + r * r")
    replace_everywhere(monkeypatch, original, mutated)


def plant_lattice_source_sign(monkeypatch):
    """The source's first coordinate moved forward along the flow, not back."""
    prop = groupoids.LatticeFlowArrow.source
    mutated = rewritten(groupoids, prop.fget, "self.x - t1 * THETA", "self.x + t1 * THETA")
    monkeypatch.setattr(groupoids.LatticeFlowArrow, "source", mutated)


def plant_line_orbit_flow_sign(monkeypatch):
    """The line coordinate moved back by the flow time, not forward."""
    original = groupoids.flow_act_on_line_orbit
    mutated = rewritten(groupoids, original, "p.s + arrow.time", "p.s - arrow.time")
    replace_everywhere(monkeypatch, original, mutated)


def plant_circle_shift_unreduced(monkeypatch):
    """The one-pass circle shift without its mod d, so a shifted point leaves canonical form."""
    mutated = rewritten(scalars, scalars._circle_shift, "a % d", "a")
    monkeypatch.setattr(scalars, "_circle_shift", mutated)


def plant_circle_shift_subtract_adds(monkeypatch):
    """A circle point minus a scalar shifted forward by the scalar, not back."""
    method = scalars.TorusPoint.__sub__
    mutated = rewritten(scalars, method, "-a, -b, -c, d", "a, b, c, d")
    monkeypatch.setattr(scalars.TorusPoint, "__sub__", mutated)


def plant_right_representation_phase_sign(monkeypatch):
    """The right representation's phase e^{-2 pi i theta l m} with its sign flipped."""
    original = nctorus.nct_represent
    mutated = rewritten(nctorus, original, "-l * m", "l * m")
    replace_everywhere(monkeypatch, original, mutated)


def plant_layer_phase_sign(monkeypatch):
    """Each point's circle phase in a layer evaluation taken as e^{-2 pi i m x}."""
    method = bimodules.LayeredProfiles.eval_at
    mutated = rewritten(bimodules, method, "exp(math.tau * 1j * m * points)", "exp(-math.tau * 1j * m * points)")
    monkeypatch.setattr(bimodules.LayeredProfiles, "eval_at", mutated)


def plant_prepared_transformed_factor_unconjugated(monkeypatch):
    """The transform side's prepared first-slot factor built from g1, not from conj(g1)."""
    original = duality.transformed_inner
    mutated = rewritten(duality, original, "g.conjugate().affine(", "g.affine(")
    replace_everywhere(monkeypatch, original, mutated)


def plant_twist_direction(monkeypatch):
    replace_everywhere(monkeypatch, ktheory.twist_matrix, lambda b: IntMatrix2(1, -int(b), 0, 1))


# name, planting function, suites to run, checks of which at least one must fail
MUTANTS = [
    (
        "lambda_power_sign",
        plant_lambda_power_sign,
        ("algebra", "duality"),
        {"algebra.generator_commutation", "duality.transform_unitarity"},
    ),
    (
        "moment_recurrence",
        plant_moment_recurrence,
        ("bimodules",),
        {"bimodules.descent_oracle", "bimodules.line_inner_dual_routes"},
    ),
    (
        "compose_stride_swapped",
        plant_compose_stride_swapped,
        ("duality",),
        {"duality.composite_roundtrip", "duality.conjugation_residuals"},
    ),
    (
        "compose_shift_dropped",
        plant_compose_shift_dropped,
        ("bimodules",),
        {"bimodules.line_axioms"},
    ),
    ("ladder_scale", plant_ladder_scale, ("oscillator",), {"oscillator.singular_value_law"}),
    ("twist_direction", plant_twist_direction, ("ktheory",), {"ktheory.fixed_parts"}),
    (
        "right_anchor_sign",
        plant_right_anchor_sign,
        ("groupoids",),
        {"groupoids.transversal_roundtrip"},
    ),
    (
        "pair_multiply_phase",
        plant_pair_multiply_phase,
        ("bimodules",),
        {"bimodules.pair_associativity"},
    ),
    (
        "pair_multiply_reversed",
        plant_pair_multiply_reversed,
        ("bimodules",),
        {"bimodules.pair_associativity"},
    ),
    (
        "staggered_derivative_scale",
        plant_staggered_derivative_scale,
        ("oscillator",),
        {"oscillator.grid_oracle"},
    ),
    (
        "staggered_derivative_scale_small",
        plant_staggered_derivative_scale_small,
        ("oscillator",),
        {"oscillator.grid_oracle"},
    ),
    ("staggered_band_short", plant_staggered_band_short, ("oscillator",), {"oscillator.grid_oracle"}),
    ("kernel_dim_rank_sign", plant_kernel_dim_rank_sign, ("oscillator",), {"oscillator.index_signs"}),
    (
        "resolvent_denominator_s_dropped",
        plant_resolvent_denominator_s_dropped,
        ("duality",),
        {"duality.resolvent_identity"},
    ),
    ("lattice_source_sign", plant_lattice_source_sign, ("groupoids",), {"groupoids.lattice_laws"}),
    ("line_orbit_flow_sign", plant_line_orbit_flow_sign, ("groupoids",), {"groupoids.flow_laws"}),
    (
        "circle_shift_unreduced",
        plant_circle_shift_unreduced,
        ("algebra", "groupoids"),
        {
            "algebra.torus_translation",
            "groupoids.flow_laws",
            "groupoids.matrix_functoriality",
        },
    ),
    (
        "circle_shift_subtract_adds",
        plant_circle_shift_subtract_adds,
        ("algebra", "groupoids"),
        {"algebra.torus_translation", "groupoids.flow_laws"},
    ),
    (
        "right_representation_phase_sign",
        plant_right_representation_phase_sign,
        ("algebra",),
        {"algebra.representation_interior"},
    ),
    ("layer_phase_sign", plant_layer_phase_sign, ("bimodules",), {"bimodules.descent_oracle"}),
    (
        "prepared_transformed_factor_unconjugated",
        plant_prepared_transformed_factor_unconjugated,
        ("duality",),
        {"duality.transform_unitarity"},
    ),
]


@pytest.mark.parametrize(
    "plant, suites, catchers", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS]
)
def test_planted_defect_fails_a_named_check(monkeypatch, plant, suites, catchers):
    plant(monkeypatch)
    entries = {
        entry["check_id"]: entry
        for suite in suites
        for entry in checks.run_suite(suite, RunConfig())["checks"]
    }
    assert catchers <= set(entries)
    assert any(not entries[check_id]["pass"] for check_id in catchers)
