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

from rotalab import checks, closedform, groupoids, ktheory, nctorus, oscillator
from rotalab.cli import RunConfig
from rotalab.scalars import IntMatrix2


def replace_everywhere(monkeypatch, original, replacement):
    """Point every rotalab module name bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name == "rotalab" or name.startswith("rotalab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def plant_lambda_power_sign(monkeypatch):
    original = nctorus.lambda_power
    replace_everywhere(monkeypatch, original, lambda theta, exponent: original(theta, -exponent))


def plant_moment_recurrence(monkeypatch):
    """M_n = m M_{n-1} + n M_{n-2} / A_jj in place of (n - 1)."""
    source = textwrap.dedent(inspect.getsource(closedform._integrate_slot))
    mutated = source.replace("((n - 1) / ajj)", "(n / ajj)")
    assert mutated != source
    namespace = dict(vars(closedform))
    exec(compile(mutated, closedform.__file__, "exec"), namespace)
    monkeypatch.setattr(closedform, "_integrate_slot", namespace["_integrate_slot"])


def plant_ladder_scale(monkeypatch):
    original = oscillator.ladder_block

    def scaled(lam, L):
        return original(lam, L) * (1 + 1e-6)

    replace_everywhere(monkeypatch, original, scaled)


def plant_right_anchor_sign(monkeypatch):
    """[a v + b r + k theta] in place of - k theta for the right anchor."""
    method = groupoids.TransversalPoint.paired_circle_point
    source = textwrap.dedent(inspect.getsource(method))
    mutated = source.replace("- THETA * self.k", "+ THETA * self.k")
    assert mutated != source
    namespace = dict(vars(groupoids))
    exec(compile(mutated, groupoids.__file__, "exec"), namespace)
    monkeypatch.setattr(groupoids.TransversalPoint, "paired_circle_point", namespace[method.__name__])


def plant_pair_multiply_phase(monkeypatch):
    """The doubled-algebra product taken at -theta."""
    original = nctorus.pair_multiply
    replace_everywhere(monkeypatch, original, lambda xi, eta, theta: original(xi, eta, -theta))


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
