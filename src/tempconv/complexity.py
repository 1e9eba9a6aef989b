"""Analytic parameter and multiply-accumulate audit over built models.

Counting conventions, chosen to match the tables this module verifies:
one MAC per multiply-accumulate inside convolution and affine layers;
normalization, bias adds, activations, and other elementwise work count
zero. "FLOPs" columns in fixtures are MAC counts (the profiling-tool
convention); a literal 2x multiply-add reading would fail every row.
Parameter counts include weights, biases, and norm affine pairs, and
exclude running statistics.

Everything here is integer arithmetic over layer shapes; no data passes
through the network. A part's MACs are ``ConvSpec.macs`` summed along its
convs, each fed the sizes the one before it produced; the classifier's are
its weight's size.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError, FormatError, located
from .layers import Conv
from .model import Model

GROUPS = ("stem", "extractor", "tcn", "classifier")


@dataclass(frozen=True)
class ComplexityRow:
    group: str
    name: str
    params: int
    macs: int


@dataclass(frozen=True)
class ComplexityReport:
    config_hash: str
    input_shape: tuple
    rows: tuple

    def group_totals(self):
        params = {g: 0 for g in GROUPS}
        macs = {g: 0 for g in GROUPS}
        for row in self.rows:
            params[row.group] += row.params
            macs[row.group] += row.macs
        return params, macs

    @property
    def total_params(self):
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self):
        return sum(r.macs for r in self.rows)

    @property
    def tcn_params(self):
        return sum(r.params for r in self.rows if r.group == "tcn")

    @property
    def tcn_macs(self):
        return sum(r.macs for r in self.rows if r.group == "tcn")


def _conv_macs(module, sizes):
    """MACs of one sample through ``module``'s convs, and the sizes it leaves.

    The walk takes the ``Conv`` leaves in ``modules()`` order and feeds each
    one the spatial/temporal sizes the previous one produced. That is the
    data's path because convs run in definition order and, where a module
    branches (the star blocks' two pointwise branches), every branch keeps
    its spatial sizes.
    """
    macs = 0
    for m in module.modules():
        if isinstance(m, Conv):
            macs += m.spec.macs(sizes)
            sizes = m.spec.out_sizes(sizes)
    return macs, sizes


def audit(model, input_shape=None):
    """Per-part params/MACs for one unbatched ``(C, *S)`` input; exact integers."""
    if not isinstance(model, Model):
        raise ConfigError("audit expects a built model")
    shape = tuple(input_shape) if input_shape is not None else model.input_shape()
    rows = []

    def row(group, name, part, sizes, repeat=1):
        macs, sizes = _conv_macs(part, sizes)
        rows.append(ComplexityRow(group, name, part.param_count(), repeat * macs))
        return sizes

    model.check_input(shape)
    t = shape[1]
    if model.has_frontend:
        t, h, w = row("stem", "stem", model.stem, shape[1:])
        row("extractor", "extractor", model.extractor, (h, w), repeat=t)
    sizes = (t,)
    for stage, block in enumerate(model.tcn.body):
        sizes = row("tcn", f"tcn[{stage}] {block.kind} d={block.dilation}", block, sizes)
    rows.append(ComplexityRow("classifier", "classifier",
                              model.head.param_count(), model.head.fc.weight.size))
    report = ComplexityReport(model.config_hash, shape, tuple(rows))
    assert report.total_params == model.param_count()
    return report


# -- fixture verification --------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    row_id: str
    metric: str  # "params" or "macs"
    computed: int
    expected: float
    tolerance: float
    deviation: float
    passed: bool


def _check(row_id, metric, computed, expected, tolerance):
    deviation = (computed - expected) / expected
    return VerifyResult(row_id, metric, computed, expected, tolerance,
                        deviation, abs(deviation) <= tolerance)


# a fixture row's expectation key: (metric, its tolerance key, report attribute, unit)
EXPECTATIONS = {"tcn_params_m": ("params", "tol_params", "tcn_params", 1e6),
                "tcn_gmacs": ("macs", "tol_macs", "tcn_macs", 1e9)}


def verify_report(report, fixture_row):
    """Check one report against one fixture row; returns per-metric results."""
    return [_check(fixture_row["id"], metric, getattr(report, attr), fixture_row[key] * unit,
                   fixture_row[tol_key])
            for key, (metric, tol_key, attr, unit) in EXPECTATIONS.items() if key in fixture_row]


def _check_number(row, key, name):
    """Refuse a row value that is not a finite non-bool number, negative, or
    a zero expectation (a deviation divides by it)."""
    value = row[key]
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    floor = "> 0" if key in EXPECTATIONS else "≥ 0"
    if not finite or value < 0 or (value == 0 and key in EXPECTATIONS):
        raise FormatError(f"{name} {key} must be a finite number {floor}, got {value!r}")


def load_fixture(path):
    """The fixture document, its ``input_shape`` defaulting to one 29-frame
    88×88 clip, with every value that ``verify_fixture`` reads checked; a
    refusal names the file and the row."""
    with located(path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                fixture = json.load(f)
            except json.JSONDecodeError as exc:
                raise FormatError(f"fixture is not valid JSON: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise FormatError(f"fixture is not UTF-8: {exc.reason} at byte {exc.start}") from None
        if not isinstance(fixture, dict) or not isinstance(fixture.get("rows"), list):
            raise FormatError("fixture must be an object with a 'rows' list")
        shape = fixture.setdefault("input_shape", [1, 29, 88, 88])
        if not (isinstance(shape, list) and len(shape) == 4
                and all(type(d) is int and d > 0 for d in shape)):
            raise FormatError(f"fixture input_shape must be 4 positive ints (C, T, H, W), got {shape!r}")
        seen = set()
        for index, row in enumerate(fixture["rows"]):
            if not isinstance(row, dict):
                raise FormatError(f"fixture row {index} is not an object, got {row!r}")
            if not (isinstance(row.get("id"), str) and isinstance(row.get("config"), str)):
                raise FormatError(f"fixture row {index} needs string 'id' and 'config'")
            name = f"fixture row '{row['id']}'"
            if row["id"] in seen:
                raise FormatError(f"duplicate fixture row id '{row['id']}'")
            seen.add(row["id"])
            keys = [key for key in EXPECTATIONS if key in row]
            if not keys:
                raise FormatError(f"{name} has no expectations")
            for key in keys:
                tol_key = EXPECTATIONS[key][1]
                if tol_key not in row:
                    raise FormatError(f"{name} has {key} but no {tol_key}")
                _check_number(row, key, name)
                _check_number(row, tol_key, name)
        return fixture


def verify_fixture(path, row_ids=None):
    """Audit every config named by the fixture and compare. Returns results.

    Config paths in the fixture are relative to the fixture's directory.
    """
    from .config import parse_config, read_config_text
    from .model import build_model

    fixture = load_fixture(path)
    base = os.path.dirname(os.path.abspath(path))
    input_shape = tuple(fixture["input_shape"])
    results = []
    for row in fixture["rows"]:
        if row_ids is not None and row["id"] not in row_ids:
            continue
        config_path = os.path.normpath(os.path.join(base, row["config"]))
        with located(f"row '{row['id']}' ({config_path})"):
            graph = build_model(parse_config(read_config_text(config_path), source=config_path),
                                init=False)
            shape = input_shape if graph.has_frontend else graph.input_shape(frames=input_shape[1])
            report = audit(graph, shape)
        results.extend(verify_report(report, row))
    if row_ids is not None:
        missing = set(row_ids) - {r["id"] for r in fixture["rows"]}
        if missing:
            raise FormatError(f"fixture has no row(s) {sorted(missing)}")
    return results


# -- rendering -------------------------------------------------------------

def report_to_dict(report):
    params, macs = report.group_totals()
    return {
        "config_hash": report.config_hash,
        "input_shape": list(report.input_shape),
        "rows": [
            {"group": r.group, "name": r.name, "params": r.params, "macs": r.macs}
            for r in report.rows
        ],
        "groups": {g: {"params": params[g], "macs": macs[g]} for g in GROUPS},
        "totals": {"params": report.total_params, "macs": report.total_macs},
        "tcn": {"params": report.tcn_params, "macs": report.tcn_macs},
    }


def emit_report(report, fmt="text"):
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2)
    if fmt == "markdown":
        lines = [
            f"input shape: `{report.input_shape}`",
            "",
            "| module | params | MACs |",
            "| --- | ---: | ---: |",
        ]
        for r in report.rows:
            lines.append(f"| {r.name} | {r.params:,} | {r.macs:,} |")
        lines.append(
            f"| **Total (TCN)** | **{report.total_params:,} ({report.tcn_params:,})** "
            f"| **{report.total_macs:,} ({report.tcn_macs:,})** |"
        )
        lines.append("")
        lines.append(
            f"Params x10^6: {report.total_params / 1e6:.2f} ({report.tcn_params / 1e6:.2f}); "
            f"MACs x10^9: {report.total_macs / 1e9:.2f} ({report.tcn_macs / 1e9:.2f})"
        )
        return "\n".join(lines)
    if fmt == "text":
        lines = [f"input shape: {report.input_shape}"]
        width = max(len(r.name) for r in report.rows) + 2
        for r in report.rows:
            lines.append(f"  {r.name:<{width}} params {r.params:>12,}   macs {r.macs:>14,}")
        lines.append(
            f"  {'Total (TCN)':<{width}} params {report.total_params:>12,} "
            f"({report.tcn_params:,})   macs {report.total_macs:>14,} ({report.tcn_macs:,})"
        )
        return "\n".join(lines)
    raise ConfigError(f"unknown report format '{fmt}'")


def emit_verify(results, fmt="text"):
    overall = all(r.passed for r in results)
    if fmt == "json":
        return json.dumps({
            "passed": overall,
            "rows": [
                {"id": r.row_id, "metric": r.metric, "computed": r.computed,
                 "expected": r.expected, "tolerance": r.tolerance,
                 "deviation": round(r.deviation, 6), "passed": r.passed}
                for r in results
            ],
        }, indent=2)
    lines = []
    for r in results:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(
            f"  {r.row_id:<18} {r.metric:<7} computed {r.computed:>13,} "
            f"expected {r.expected:>13,.0f}  dev {r.deviation:+7.2%}  "
            f"tol ±{r.tolerance:.0%}  {verdict}"
        )
    lines.append(f"overall: {'pass' if overall else 'FAIL'}")
    return "\n".join(lines)
