"""Workload table, seed pool and the per-operation correctness gate.

Each workload is one ``qkt verify`` command line; an operation runs it
with one Halton seed drawn from a pool of ``POOL`` seeds whose reports
are committed under ``reference/``.  The gate compares a report with the
reference for its seed: the same rows in the same order, the same pass
flags, and every residual within rounding.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Why each workload is here (see README.md for the layers each one moves):
#   conf8_all  -- the README's headline run at real dimension 8; time goes to
#                 first-order bundles (multi-operand contractions) and stencils.
#   hopf4_all  -- the dimension-4 path; time goes to per-point Python
#                 (Expression evaluation, stencil pairs), not to contractions.
#   conf8_curv -- the curvature suite alone pays for filling the stencil-point
#                 bundle cache that the `all` suite fills in its lc group.
WORKLOADS = {
    "conf8_all": ["--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
                  "--suite", "all", "--points", "4"],
    "hopf4_all": ["--manifold", "hopf_local", "--n", "1",
                  "--suite", "all", "--points", "20"],
    "conf8_curv": ["--manifold", "conformal_flat", "--n", "2", "--f", "exp(x1)",
                   "--suite", "curvature", "--points", "2"],
}

# The negative control: a tilted J2 must make `qkt verify` exit 1.
TILT_ARGS = ["--j2-tilt", "5"]

# Halton seeds with a committed reference report, per workload.
POOL = 128

# "Within rounding" for nested central differences: a rounding error eps in a
# field value reaches a second-level difference as about eps / (h * h2), i.e.
# 2e-16 / 1e-7 = 2e-9.  Evaluating the stencil as plus/(2h) - minus/(2h)
# instead of (plus - minus)/(2h) moved residuals by up to 1.3e-9 absolute and
# diagnostics by up to 5e-10 relative; the bounds leave a margin over that.
# The absolute floor also keeps rows at the 1e-16 level from being compared
# digit by digit.
RTOL = 1e-9
ATOL = 1e-8


def verify_argv(workload: str, halton_seed: int, report_path, extra=()) -> list:
    return (["verify", *WORKLOADS[workload], *extra,
             "--seed", str(halton_seed), "--report", str(report_path)])


def seed_stream(workload: str, seed: int):
    """Halton seeds for one run: a seeded shuffle of the pool, without
    repeats until the pool is exhausted, then a fresh shuffle."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        order = list(range(POOL))
        rng.shuffle(order)
        yield from order


def summarize(report: dict, exit_code: int) -> dict:
    """The parts of a report the gate compares."""
    return {
        "exit": exit_code,
        "rows": [row["identity_id"] for row in report["results"]],
        "residuals": [row["max_residual"] for row in report["results"]],
        "pass": [row["pass"] for row in report["results"]],
        "diagnostics": _flatten(report["meta"].get("diagnostics", {})),
    }


def _flatten(tree: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def _close(value, ref) -> bool:
    if isinstance(ref, float) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return math.isfinite(value) and \
            abs(value - ref) <= RTOL * abs(ref) + ATOL
    return value == ref


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["args"] != WORKLOADS[workload]:
        raise ValueError(f"reference for {workload} was made with other arguments")
    return reference


def check(reference: dict, halton_seed: int, report: dict, exit_code: int):
    """None when the report matches the reference, else what differs."""
    expected = reference["seeds"][str(halton_seed)]
    got = summarize(report, exit_code)
    if got["exit"] != expected["exit"]:
        return f"exit code {got['exit']}, expected {expected['exit']}"
    if got["rows"] != reference["rows"]:
        return f"rows {got['rows']} differ from the reference row set"
    if got["pass"] != expected["pass"]:
        return "pass flags differ from the reference"
    for row, value, ref in zip(got["rows"], got["residuals"], expected["residuals"]):
        if not _close(value, ref):
            return f"{row}: max_residual {value!r}, reference {ref!r}"
    if set(got["diagnostics"]) != set(expected["diagnostics"]):
        return "diagnostic keys differ from the reference"
    for key, ref in expected["diagnostics"].items():
        if not _close(got["diagnostics"][key], ref):
            return f"diagnostic {key}: {got['diagnostics'][key]!r}, reference {ref!r}"
    return None
