"""Command-line harness: configure, verify, and emit spectra.

Two subcommands. `verify <suite>` runs a named batch of checks and
writes a JSON or CSV report; the process exits 0 when every check
passes, 1 when any fails, 2 on a configuration problem and 3 when a
check raised (its entry carries an `error` field). `spectrum
<target>` tabulates eigenvalues or singular values of one of the model
operators with basis labels.

Configuration comes from defaults, then an optional key-value file,
then command-line flags; later sources win. Reports are deterministic
for a fixed configuration and seed.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .checks import COSET_LAYER_WINDOW, SUITE_NAMES, TWIST_SUITES, run_suite
from .errors import ConfigInvalid, IoError
from .nctorus import basis_labels, nct_dolbeault
from .oscillator import dirac_eigenvalues, dirac_squared_spectrum

SUITE_CHOICES = SUITE_NAMES + ("all",)
TARGET_CHOICES = ("d_lambda", "d_dolbeault", "d_squared")

# the largest single array, in bytes, that a configuration may make a run allocate
MAX_ARRAY_BYTES = 32 * 2**20
# peak memory per spectrum row with its JSON rendering, measured at about 0.9 kB
_SPECTRUM_ROW_BYTES = 1024


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs: angle, twist degree, slope, truncations, grid and seed."""

    theta: float = 0.7071067811865476
    b: int = 2
    lam: float = 1.0
    level_cut: int = 64
    mode_cut: int = 8
    grid_nodes: int = 128
    radius: float = 10.0
    seed: int = 0

    def as_dict(self) -> dict:
        """The report's config block, keyed as in SETTINGS."""
        return {key: getattr(self, field) for _, field, _, key, _ in SETTINGS}


# one row per run setting: (flag, RunConfig field, type, report key, help)
SETTINGS = (
    ("--theta", "theta", float, "theta", "rotation angle"),
    ("--b", "b", int, "b", "twist degree"),
    ("--lambda", "lam", float, "lambda", "oscillator slope"),
    ("--L", "level_cut", int, "L", "oscillator level cut"),
    ("--K", "mode_cut", int, "K", "mode window half-width"),
    ("--grid", "grid_nodes", int, "grid_nodes", "quadrature node count"),
    ("--R", "radius", float, "R", "quadrature radius"),
    ("--seed", "seed", int, "seed", "RNG seed for sampled checks"),
)


def nearest_rational_denominator(theta: float):
    """Denominator q <= 64 of a rational within 1e-9 of theta, or None."""
    for q in range(1, 65):
        p = round(theta * q)
        if abs(theta - p / q) < 1e-9:
            return q
    return None


def validate_config(config: RunConfig, suite: str = None, target: str = None):
    """Raise ConfigInvalid on values the suite's checks or the spectrum target cannot run with."""
    if not math.isfinite(config.theta):
        raise ConfigInvalid("theta must be finite")
    q = nearest_rational_denominator(config.theta)
    if q is not None:
        raise ConfigInvalid(
            f"theta {config.theta} is within 1e-9 of a rational with denominator {q}; "
            "the sampled checks need a generic angle"
        )
    twisted = suite in TWIST_SUITES + ("all",)
    if twisted and config.b == 0:
        raise ConfigInvalid(f"suite {suite!r} needs a nonzero twist degree b")
    if config.level_cut < 1 or config.mode_cut < 1:
        raise ConfigInvalid("truncation windows must be positive")
    if target is not None and config.level_cut < 2:
        raise ConfigInvalid("spectrum targets need at least two levels")
    if config.grid_nodes < 8:
        raise ConfigInvalid("the quadrature grid needs at least 8 nodes")
    if not math.isfinite(config.radius):
        raise ConfigInvalid("the grid radius must be finite")
    if config.radius <= 0:
        raise ConfigInvalid("the grid radius must be positive")
    if not math.isfinite(config.lam):
        raise ConfigInvalid("the oscillator slope must be finite")
    if config.lam == 0:
        raise ConfigInvalid("the oscillator slope must be nonzero")
    if target == "d_squared" and config.lam < 0:
        raise ConfigInvalid(f"spectrum d_squared needs a positive slope, got {config.lam}")
    for flags, array, size in _largest_arrays(config):
        if size > MAX_ARRAY_BYTES:
            raise ConfigInvalid(
                f"{flags}: {array} would exceed the {MAX_ARRAY_BYTES >> 20} MiB cap on one array"
            )
    # the square of the largest ladder entry (grid_oracle compares ten levels);
    # tested after the array caps, which bound --L
    if not math.isfinite(2.0 * abs(config.lam) * max(config.level_cut, 10)):
        raise ConfigInvalid(
            f"the oscillator slope {config.lam} makes the ladder entries non-finite at --L {config.level_cut}"
        )
    # the quadrature resolves the check profiles of the suites that read R and the grid:
    # the worst error/tolerance over seeds 0-15 and b in {2, 5} reads 0.41 at --grid 96
    # --R 7.5 and 0.22 at the defaults, against 1.6 at --grid 64 --R 5, 6.9 at --R 10.5
    # and 258 at --R 4
    radius, grid = config.radius, config.grid_nodes
    if twisted and (radius < 5 or grid < 96 or 64 * radius > 5 * grid):
        raise ConfigInvalid(
            f"--R {radius} and --grid {grid}: the quadrature resolves the check profiles "
            "only for R >= 5, grid >= 96 and node spacing 2R/grid <= 5/32"
        )


def _largest_arrays(config: RunConfig):
    """(flags with their values, array, bytes) for the largest array each cost flag drives.

    Sizes use exact integers, so no flag value can overflow the estimate.
    """
    grid, level = config.grid_nodes, config.level_cut
    cut = max(1, abs(config.b)) * math.ceil(config.radius + 2) + COSET_LAYER_WINDOW + 2
    return (
        # resolvent values on the full node mesh (the Legendre rule's companion
        # matrix is grid x grid reals, half of it)
        (f"--grid {grid}", "the complex node mesh", grid * grid * 16),
        # quadrature routes of the pair-valued inner products: offsets x nodes
        (
            f"--b {config.b}, --R {config.radius} and --grid {grid}",
            "the complex coset mesh",
            (2 * cut + 1) * grid * 16,
        ),
        # singular_value_law's (L - 1) x L ladder block; its SVD works on a copy
        (f"--L {level}", "the ladder block", (level - 1) * level * 8),
        # spectrum d_dolbeault's rows
        (
            f"--K {config.mode_cut}",
            "the spectrum rows",
            (2 * config.mode_cut + 1) ** 2 * _SPECTRUM_ROW_BYTES,
        ),
    )


# ---------------------------------------------------------------------------
# configuration sources
# ---------------------------------------------------------------------------

# a config file names a setting by its flag without the leading dashes
_FIELD_BY_KEY = {flag[2:]: (field, cast) for flag, field, cast, _, _ in SETTINGS}


def read_config_file(path: str) -> dict:
    """Parse key = value lines into RunConfig field overrides."""
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_BY_KEY:
            raise ConfigInvalid(f"{path}:{lineno}: unknown config key {key!r}")
        field, cast = _FIELD_BY_KEY[key]
        try:
            overrides[field] = cast(value.strip())
        except ValueError as exc:
            raise ConfigInvalid(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return overrides


def build_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = replace(config, **read_config_file(args.config))
    given = {field: getattr(args, field) for _, field, _, _, _ in SETTINGS}
    return replace(config, **{name: value for name, value in given.items() if value is not None})


def _add_common_flags(parser):
    for flag, field, cast, _, help_text in SETTINGS:
        parser.add_argument(flag, dest=field, type=cast, default=None, help=help_text)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--output", default=None, help="write to this path, not stdout")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotalab",
        description="Run machine checks on the rotation-algebra constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_CHOICES)
    _add_common_flags(verify)
    spectrum = sub.add_parser("spectrum", help="tabulate a model spectrum")
    spectrum.add_argument("target", choices=TARGET_CHOICES)
    _add_common_flags(spectrum)
    return parser


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _finite_or_null(value):
    """The value with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _json_text(payload: dict) -> str:
    """RFC 8259 JSON: a NaN or infinite number is written as null."""
    return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header, rows) -> str:
    """The header and the rows as CSV text with newline line endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report)
    return _csv_text(
        ["check_id", "anchor", "max_error", "tolerance", "pass"],
        (
            [c["check_id"], c["anchor"], repr(c["max_error"]), repr(c["tolerance"]), c["pass"]]
            for c in report["checks"]
        ),
    )


def spectrum_rows(target: str, config: RunConfig):
    """Sorted (label, value) rows for one of the model operators."""
    if target == "d_lambda":
        sv = np.sort(np.abs(dirac_eigenvalues(config.lam, config.level_cut)))
        return [(f"sv[{i}]", float(value)) for i, value in enumerate(sv)]
    if target == "d_squared":
        top, bottom = dirac_squared_spectrum(config.lam, config.level_cut)
        rows = [(f"plus l={l}", float(v)) for l, v in enumerate(top)]
        rows += [(f"minus l={l}", float(v)) for l, v in enumerate(bottom)]
        rows.sort(key=lambda row: (row[1], row[0]))
        return rows
    size = config.mode_cut
    upper, _ = nct_dolbeault(size, size)
    labels = basis_labels(size, size)
    rows = [(f"l={l},k={k}", float(value)) for (l, k), value in zip(labels, np.abs(upper))]
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def render_spectrum(target: str, config: RunConfig, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "target": target,
            "config": config.as_dict(),
            "values": [{"label": label, "value": value} for label, value in rows],
        }
        return _json_text(payload)
    return _csv_text(["label", "value"], ([label, repr(value)] for label, value in rows))


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "verify":
            validate_config(config, suite=args.suite)
            report = run_suite(args.suite, config)
            _write_output(render_report(report, args.format), args.output)
            raised = [check for check in report["checks"] if "error" in check]
            for check in raised:
                print(f"error: {check['check_id']} raised {check['error']}", file=sys.stderr)
            if raised:
                return 3
            return 0 if report["all_pass"] else 1
        validate_config(config, target=args.target)
        rows = spectrum_rows(args.target, config)
        _write_output(render_spectrum(args.target, config, rows, args.format), args.output)
        return 0
    except (ConfigInvalid, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
