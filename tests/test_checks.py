"""A NaN residual anywhere inside a check body fails the check."""

import math

import numpy as np
import pytest

from rotalab import bimodules as bm
from rotalab import checks
from rotalab import duality as du
from rotalab.cli import RunConfig
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
