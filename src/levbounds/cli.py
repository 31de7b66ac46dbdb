"""Command-line surface: reproduce, eval, optimize, selfcheck.

Config files are JSON.  Every value is read through one field table,
SECTION_FIELDS, which gives each key of each section (the top level
included) its kind, and one reader, _get, which converts a value by its
kind or raises a ConfigError naming <section>.<key>; _section_params
builds a params section by its row of optimizer.SEARCH_FIELDS.  Decimals
stay exact into rationals (JSON floats parse as Decimal), while scalars
(theta, r, R, delta) are JSON numbers, never strings, made finite binary64;
a JSON boolean is neither.  Exit codes: 0 success, 1 quantitative failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Any

from . import reference
from .optimizer import (SEARCH_FIELDS, TARGETS, EvaluationFailureError, SearchSpec,
                        optimize, params_fields, search_start, section_parts)
from .oracle import crosscheck_report
from .polyalg import ConstraintViolationError, Poly
from .proportions import SectionFourParams, SectionFiveParams, bounds_table, c1_value, c_value

MACHINE_FMT = "{key}={value:.17g}"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration; maps to exit code 2."""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

class _JSONFloat(Decimal):
    """A JSON float, read exactly, whose repr is its JSON text."""
    __repr__ = Decimal.__str__


def _exactly(json_type: type, value: Any) -> Any:
    """value if its type is exactly json_type (so true is not an integer)."""
    if type(value) is not json_type:
        raise TypeError(value)
    return value


def _number(value: Any) -> float:
    """A finite binary64 from a JSON number, not from a string."""
    if isinstance(value, (bool, str)) or not math.isfinite(x := float(value)):
        raise ValueError(value)
    return x


def _decimal(value: Any) -> Fraction:
    """An exact rational from a number or decimal string in binary64 range."""
    x = Fraction(str(value))
    float(x)  # OverflowError past the binary64 range
    return x


def _pair(value: Any) -> tuple[float, float]:
    lo, hi = _exactly(list, value)
    return _number(lo), _number(hi)


# a kind is (convert, complaint); convert raises TypeError or ValueError on a bad value
NUMBER = (_number, "not a number")
INTEGER = (lambda v: _exactly(int, v), "expected an integer")
DECIMAL = (_decimal, "expected a decimal")
DECIMALS = (lambda v: [_decimal(x) for x in _exactly(list, v)],
            "expected an array of decimals")
OBJECT = (lambda v: _exactly(dict, v), "expected an object")
TARGET = (lambda v: TARGETS[TARGETS.index(v)], "expected 'minimize_nu' or 'maximize_kappa'")
PAIR = (_pair, "expected [lo, hi]")

TOP = "config"
SECTION_FIELDS: dict[str, Any] = {
    TOP: {"theta": NUMBER, "section4": OBJECT, "section5": OBJECT,
          "search": OBJECT, "constants": OBJECT},
    "section4": {"p1_shape": DECIMALS, "p1_poly": DECIMALS, "p2_shape": DECIMALS,
                 "p2_poly": DECIMALS, "r": NUMBER, "R": NUMBER},
    "section5": {"p_shape": DECIMALS, "p_poly": DECIMALS, "q_linear": DECIMAL,
                 "q_sym": DECIMALS, "q_poly": DECIMALS, "R": NUMBER, "delta": NUMBER},
    "search": {"target": TARGET, "bounds": OBJECT, "budget": INTEGER},
    "search.bounds": PAIR,  # any name; SearchSpec checks it against its vector
    "constants": {"c": NUMBER, "c1": NUMBER, "R4": NUMBER, "R5": NUMBER},
}
_REQUIRED = object()


def _get(sec: dict, key: str, where: str, default: Any = _REQUIRED) -> Any:
    """sec[key] converted by its kind in SECTION_FIELDS[where], or default
    when the key is absent; a missing or bad value is a ConfigError."""
    if key not in sec:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing field {key!r}")
        return default
    kind = SECTION_FIELDS[where]
    convert, complaint = kind[key] if isinstance(kind, dict) else kind
    try:
        return convert(sec[key])
    except (TypeError, ValueError, OverflowError):
        name = key if where == TOP else f"{where}.{key}"
        raise ConfigError(f"{name}: {complaint}, got {sec[key]!r}") from None


def _section(cfg: dict, where: str, default: Any = _REQUIRED) -> dict:
    """The object cfg[where] (cfg itself for the top level), rejecting any
    key SECTION_FIELDS does not define for it."""
    sec = cfg if where == TOP else _get(cfg, where, TOP, default)
    unknown = sorted(set(sec) - set(SECTION_FIELDS[where]))
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r} "
                          f"(allowed: {', '.join(SECTION_FIELDS[where])})")
    return sec


def _load_json(path: str) -> dict:
    """The config object; the keys of each object present are checked here,
    read by the command or not, and its values only when read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_JSONFloat)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r}: expected an object")
    for where in _section(cfg, TOP):
        if SECTION_FIELDS[TOP][where] is OBJECT:
            _section(cfg, where)
    return cfg


def _section_params(cfg: dict, where: str, theta: float):
    """The params of section where, built by its SEARCH_FIELDS row: a shape
    from its fields (the first required) or its raw polynomial, not both."""
    row = next(row for row in SEARCH_FIELDS.values() if row[0] == where)
    sec, values = _section(cfg, where), {}
    for name, (from_fields, from_poly, _), poly_key, keys in section_parts(row):
        if poly_key not in sec:
            if poly_key and keys[0] not in sec:
                raise ConfigError(f"{where}: missing field {keys[0]!r} (or {poly_key!r})")
            values[name] = from_fields(_get(sec, keys[0], where),
                                       *(_get(sec, key, where, ()) for key in keys[1:]))
        elif any(key in sec for key in keys):
            raise ConfigError(f"{where}: give {'/'.join(map(repr, keys))} or "
                              f"{poly_key!r}, not both")
        else:
            try:
                values[name] = from_poly(Poly.from_coeffs(_get(sec, poly_key, where)))
            except ConstraintViolationError as exc:
                raise ConfigError(f"{where}.{poly_key}: {exc}") from exc
    try:
        return row[2](theta=theta, **values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _params(config: str | None) -> tuple[SectionFourParams, SectionFiveParams]:
    """Both sections of the config file, or the built-in reference without one."""
    if not config:
        return reference.section_four_reference(), reference.section_five_reference()
    cfg = _load_json(config)
    theta = _get(cfg, "theta", TOP, 1.0)
    return _section_params(cfg, "section4", theta), _section_params(cfg, "section5", theta)


def _search_spec(cfg: dict) -> SearchSpec:
    sec = _section(cfg, "search")
    target = _get(sec, "target", "search")
    theta = _get(cfg, "theta", TOP, 1.0)
    bounds_sec = _get(sec, "bounds", "search", {})
    bounds = {name: _get(bounds_sec, name, "search.bounds") for name in bounds_sec}
    budget = _get(sec, "budget", "search", 2000)
    shape_degrees, initial = search_start(
        _section_params(cfg, SEARCH_FIELDS[target][0], theta))
    try:
        return SearchSpec(target=target, shape_degrees=shape_degrees,
                          scalar_bounds=bounds, theta=theta, initial_point=initial,
                          budget=budget)
    except ValueError as exc:
        raise ConfigError(f"search: {exc}") from exc


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

class Emitter:
    """Writes human or machine lines to stdout, duplicating machine output
    to --out when given."""

    def __init__(self, machine: bool, out_path: str | None):
        self.machine = machine
        self.lines: list[str] = []
        self.out_path = out_path

    def kv(self, key: str, value: float) -> None:
        self.line(MACHINE_FMT.format(key=key, value=value))

    def line(self, line: str) -> None:
        """One machine line, as given."""
        if self.machine:
            print(line)
        self.lines.append(line)

    def text(self, line: str = "") -> None:
        if not self.machine:
            print(line)

    def flush(self) -> None:
        if self.out_path:
            try:
                with open(self.out_path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(self.lines) + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write --out {self.out_path!r}: {exc}") from exc


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_reproduce(args: argparse.Namespace) -> int:
    p4, p5 = _params(args.config)
    comparable = (p4, p5) == (reference.section_four_reference(),
                              reference.section_five_reference())

    values = bounds_table(c_value(p4), p4.R, c1_value(p5), p5.R)
    targets, bands = reference.REFERENCE_CONSTANTS, reference.verdict_bands()
    em = Emitter(args.machine, args.out)
    em.text(f"{'quantity':<10} {'computed':>20} {'reference':>12} "
            f"{'|delta|':>12}  verdict")
    all_pass = True
    for key, computed in values.items():
        em.kv(key, computed)
        if not comparable:
            em.text(f"{key:<10} {computed:>20.12f} {'n/a':>12} {'n/a':>12}  N/A")
            continue
        target, (lo, hi) = targets[key], bands[key]
        ok = lo <= computed <= hi
        all_pass &= ok
        em.text(f"{key:<10} {computed:>20.12f} {target:>12.6f} "
                f"{abs(computed - target):>12.3e}  {'PASS' if ok else 'FAIL'}")
    if comparable:
        nu_self, nu_printed = values["nu"], targets["nu"]
        lo, hi = bands["nu"]
        em.text()
        em.text(f"note: nu recomputed from c is {nu_self:.7f}; the quoted "
                f"reference prints {nu_printed:.6f} (gap {abs(nu_self - nu_printed):.1e}, "
                f"rounding of c in the quoted value; both lie in [{lo}, {hi}]).")
        em.text("note: p2_shape[0] = +0.492; the sign-flipped -0.492 yields "
                "c = 1.5303158 and does not reproduce the reference constant.")
    em.flush()
    return 0 if all_pass or not comparable else 1


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    theta = _get(cfg, "theta", TOP, 1.0)
    consts = _section(cfg, "constants", {}) if args.which == "bounds" else {}
    values = {}
    for key, where, compute in (("c", "section4", c_value), ("c1", "section5", c1_value),
                                ("R4", "section4", None), ("R5", "section5", None)):
        if args.which in (key, "bounds"):  # a given constant, else from its section
            values[key] = (_get(consts, key, "constants") if key in consts
                           else compute(_section_params(cfg, where, theta)) if compute
                           else _get(_section(cfg, where), "R", where))
    if args.which == "bounds":
        values = bounds_table(**values)
    em = Emitter(args.machine, args.out)
    for key, value in values.items():
        em.kv(key, value)
        em.text(f"{key} = {value:.12f}")
    em.flush()
    return 0


def _written(value: float | list[float], kind: tuple) -> Any:
    """A field value as a config holds it: a decimal as its shortest exact
    string, a number as a JSON number."""
    if kind is NUMBER:
        return value
    return [repr(x) for x in value] if kind is DECIMALS else repr(value)


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _load_json(args.config)
    spec = _search_spec(cfg)
    result = optimize(spec)
    section, fields = params_fields(spec.params_from_vector(result.best_point))
    fragment = {section: {name: _written(value, SECTION_FIELDS[section][name])
                          for name, value in fields.items()}}
    em = Emitter(args.machine, args.out)
    em.kv("best_objective", result.best_objective)
    em.kv("evaluations_used", float(result.evaluations_used))
    em.kv("inner_solves", float(result.inner_solves))
    em.kv("fallbacks", float(result.fallbacks))
    em.kv(f"dR.{spec.target}", result.slope)
    for name, count in result.failures:
        em.kv(f"failures.{name}", float(count))
    for name, cond in result.conditions:
        em.kv(f"cond.{name}", cond)
    for name, bound in result.pinned:
        em.kv(f"pinned.{name}", bound)
    for name, price in result.shadow:
        em.kv(f"shadow.{name}", price)
    em.text(f"target           {spec.target}")
    em.text(f"best objective   {result.best_objective:.12f}")
    em.text(f"evaluations      {result.evaluations_used}")
    em.text(f"improvements     {len(result.trace)} "
            f"(last at evaluation {result.trace[-1][0] if result.trace else 0})")
    em.text(f"inner solves     {result.inner_solves}")
    em.text(f"fallbacks        {result.fallbacks}")
    em.text(f"R slope          {result.slope:.3e}")
    em.text("failures         " + (", ".join(f"{name} {count}" for name, count
                                             in result.failures) or "none"))
    em.text("block condition  " + (", ".join(f"{name} {cond:.3g}" for name, cond
                                             in result.conditions) or "no free block"))
    em.text("pinned bounds    " + (", ".join(f"{name} {bound!r}" for name, bound
                                             in result.pinned) or "none"))
    em.text("best point (config fragment):")
    em.text(json.dumps(fragment, indent=2))
    em.line(json.dumps(fragment, separators=(",", ":")))
    em.flush()
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    p4, p5 = _params(args.config)
    report = crosscheck_report(p4, p5)
    em = Emitter(args.machine, args.out)
    for check in report.checks:
        key = check.name.replace(" ", "_")
        em.kv(f"check[{key}].rel_delta", check.rel_delta)
        em.kv(f"check[{key}].margin",
              check.tolerance / check.rel_delta if check.rel_delta else math.inf)
        em.text(f"{'PASS' if check.passed else 'FAIL'}  {check.name:<46} "
                f"rel delta {check.rel_delta:.3e} (tol {check.tolerance:.0e})")
    em.kv("all_passed", 1.0 if report.all_passed else 0.0)
    em.text(f"{sum(ch.passed for ch in report.checks)}/{len(report.checks)} "
            f"checks passed")
    em.flush()
    return 0 if report.all_passed else 1


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levbounds",
        description="Evaluate, verify and search the mollified-moment bound "
                    "constants for distinct/simple zero proportions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--machine", action="store_true",
                        help="line-oriented key=value output, 17 significant digits")
    common.add_argument("--out", default=None,
                        help="duplicate machine output to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[common],
                       help="recompute the built-in reference table")
    p.add_argument("--config", default=None, help="optional parameter overrides")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("eval", parents=[common], help="evaluate c, c1 or bounds")
    p.add_argument("--which", choices=("c", "c1", "bounds"), required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("optimize", parents=[common], help="run a search")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("selfcheck", parents=[common],
                       help="run the exact-vs-numeric crosschecks")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, EvaluationFailureError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
