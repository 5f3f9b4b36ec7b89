"""Command-line front end.

Usage sketch (see README for more):

    diskmean check --class M ex31:n=1
    diskmean check --class M phi:1,0,2
    diskmean mean ex31:n=1 ex31:n=2 --class M
    diskmean table1 --to 14 --format csv
    diskmean table1 --extend 16
    diskmean starlike ex34:n=1
    diskmean radius phi:1,0,2 --class M
    diskmean boundary ex32:order=4096 --format svg -o curve.svg

Function sources: ``identity``, ``koebe``, ``ex31:n=K``, ``ex32``,
``ex33:n=K,b=X,beta=Y``, ``ex34:n=K`` (families take an optional
``order=N`` key), or ``phi:c0,c1,...`` giving the coefficients of the
z/f series from the constant term up; the constant must be 1.  Complex
literals are written ``a+bi``.

Exit codes, all chosen in ``main``: 0 success/member, 1 parse or evaluation
error, 2 numeric membership failure, 3 harmonic-mean denominator zero on or
inside |z| = 0.999.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

import numpy as np

from .classes import (
    DEFAULT_GRID,
    DEFAULT_RADII,
    RADIUS_TOL,
    STARLIKE_GRID,
    check_membership,
    check_radius_tol,
    class_radius,
    starlike_scan,
)
from .errors import DenominatorVanishes, DiskMeanError
from .families import (
    FamilySpec,
    FamilyVariant,
    boundary_image,
    build,
    extend_table1,
    table1,
)
from .functionals import (
    FunctionalKind,
    NormalizedFunction,
    check_scan_inputs,
    identity_function,
    koebe_function,
)
# verify_closure stays bound here: bench/selftest.py checks that the
# benchmark's tracer wraps it at this binding site
from .means import averaging_residual, harmonic_mean, verify_closure  # noqa: F401
from .series import DEFAULT_ORDER, ComplexSeries


#: Default grid of the ``boundary`` command.
BOUNDARY_GRID = 2048

#: Environment variables read as the global flags of the same settings.
_ENV_FLAGS = {"DISKMEAN_ORDER": "--order", "DISKMEAN_GRID": "--grid",
             "DISKMEAN_RADII": "--radii"}

#: The keys of each family source: the FamilySpec fields its variant reads,
#: and the type each value converts to.
_FAMILY_KEYS = {"ex31": {"n", "order"}, "ex32": {"order"},
                "ex33": {"n", "b", "beta", "order"}, "ex34": {"n", "order"}}
_FAMILY_TYPES = {"n": int, "b": float, "beta": float, "order": int}


class SourceError(DiskMeanError):
    """A function-source string does not parse."""


@dataclass(frozen=True)
class RunConfig:
    """Run-wide defaults; flags, and DISKMEAN_* env vars read as flags, override."""

    order: int = DEFAULT_ORDER
    radii: tuple[float, ...] = DEFAULT_RADII
    grid: int = DEFAULT_GRID
    tol: float = RADIUS_TOL
    seed: int = 0

    def validate(self) -> None:
        if self.order < 8:
            raise ValueError("order must be >= 8")
        check_scan_inputs(self.radii, self.grid)
        check_radius_tol(self.tol)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise SourceError(f"bad complex literal {text!r}") from exc


def _parse_kv(body: str, allowed: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for item in body.split(","):
        if "=" not in item:
            raise SourceError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise SourceError(f"unknown key {key!r} (allowed: {sorted(allowed)})")
        if key in out:
            raise SourceError(f"repeated key {key!r}")
        out[key] = val.strip()
    return out


def parse_source(text: str, config: RunConfig,
                 order_explicit: bool = False) -> NormalizedFunction:
    """Resolve a function-source string to a NormalizedFunction.

    Families use their own default truncation unless the source carries an
    ``order=`` key or the user set --order / DISKMEAN_ORDER explicitly.
    """
    text = text.strip()
    head, _, body = text.partition(":")
    head = head.lower()

    if head in ("identity", "koebe"):
        if body:
            raise SourceError(f"{head} takes no parameters, got {body!r}")
        return (identity_function if head == "identity" else koebe_function)(config.order)
    if head == "phi":
        if not body:
            raise SourceError("phi: needs a coefficient list")
        coeffs = [_parse_complex(tok) for tok in body.split(",")]
        return NormalizedFunction(ComplexSeries(coeffs), text)

    if head in _FAMILY_KEYS:
        kv = _parse_kv(body, _FAMILY_KEYS[head])
        try:
            params = {key: _FAMILY_TYPES[key](val) for key, val in kv.items()}
        except ValueError as exc:
            raise SourceError(f"bad family parameter in {text!r}") from exc
        if order_explicit:
            params.setdefault("order", config.order)
        return build(FamilySpec(FamilyVariant(head), **params))

    raise SourceError(f"unrecognized function source {text!r}")


def _parse_kind(name: str) -> FunctionalKind:
    try:
        return FunctionalKind[name.upper()]
    except KeyError as exc:
        raise SourceError(f"unknown class {name!r} (one of U, P, M, N)") from exc


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _plain(o):
    """What json cannot encode itself: an enum member by its value, a
    dataclass instance as its fields in order (json recurses into them)."""
    if isinstance(o, Enum):
        return o.value
    if is_dataclass(o) and not isinstance(o, type):
        return {f.name: getattr(o, f.name) for f in fields(o)}
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, default=_plain) + "\n"


def table_csv(rows) -> str:
    lines = ["n,theta,A_theta"]
    for n, theta, value in rows:
        lines.append(f"{n},{theta:.12g},{value!r}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _angle_column(grid: int) -> tuple[str, ...]:
    # the same for every curve on one grid, so formatted once per grid
    return tuple(map("{:.12g}".format, (2.0 * math.pi * np.arange(grid + 1) / grid).tolist()))


def boundary_csv(points) -> str:
    """One row per point: the angle, then repr of the real and imaginary parts.

    A list's repr is each float's shortest round-trip repr, made in one pass,
    so the rows are those of formatting value by value, byte for byte.
    """
    xs, ys = (repr(col.tolist())[1:-1].split(", ") for col in (points.real, points.imag))
    rows = "\n".join(map(",".join, zip(_angle_column(len(points) - 1), xs, ys)))
    return f"theta,re,im\n{rows}\n"


def boundary_svg(points) -> str:
    """Minimal SVG document: one path tracing the curve, 5% margin."""
    xs = points.real.tolist()
    ys = points.imag.tolist()
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    view = (x0 - pad, y0 - pad, (x1 - x0) + 2 * pad, (y1 - y0) + 2 * pad)
    steps = " ".join(map("L {:.6g} {:.6g}".format, xs[1:], ys[1:]))
    d = f"M {xs[0]:.6g} {ys[0]:.6g} {steps}"
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">\n'
        f'  <path d="{d}" fill="none" stroke="black" '
        'stroke-width="0.5%" vector-effect="non-scaling-stroke"/>\n'
        "</svg>\n"
    )


# ---------------------------------------------------------------------------
# commands: each takes its parsed sources, then its class if it has --class,
# and returns its output text and exit code; main parses, writes and maps errors
# ---------------------------------------------------------------------------

def cmd_check(args, config: RunConfig, fn, kind) -> tuple[str, int]:
    report = check_membership(kind, fn, config.radii, config.grid)
    return _json_dump(report), 0 if report.is_member else 2


def cmd_mean(args, config: RunConfig, f, g, kind) -> tuple[str, int]:
    result = harmonic_mean(f, g)
    residual = averaging_residual(kind, f, g, result.mean, samples=500, seed=config.seed)
    membership = check_membership(kind, result.mean, config.radii, config.grid)
    c = result.mean.phi.coeffs
    return _json_dump({
        "phi_coefficients": np.column_stack([c.real, c.imag]).tolist(),
        "min_denominator_modulus": result.min_denominator_modulus,
        "averaging_residual": residual,
        "membership": membership,
    }), 0 if membership.is_member else 2


def cmd_table1(args, config: RunConfig) -> tuple[str, int]:
    rows = table1(args.n_from, args.n_to)
    if args.extend is not None:
        if args.extend <= args.n_to:
            raise ValueError(f"--extend {args.extend} must exceed --to {args.n_to}")
        rows += extend_table1(args.n_to + 1, args.extend)
    if args.format == "json":
        return _json_dump([{"n": n, "theta": t, "A_theta": v} for n, t, v in rows]), 0
    return table_csv(rows), 0


def cmd_starlike(args, config: RunConfig, fn) -> tuple[str, int]:
    report = starlike_scan(fn, config.radii if args.all_radii else (max(config.radii),),
                           config.grid)
    return _json_dump(report), 0


def cmd_radius(args, config: RunConfig, fn, kind) -> tuple[str, int]:
    value = class_radius(kind, fn, tol=config.tol, grid=config.grid)
    return _json_dump({"kind": kind, "class_radius": value}), 0


def cmd_boundary(args, config: RunConfig, fn) -> tuple[str, int]:
    points = boundary_image(fn, args.radius, config.grid)
    return (boundary_svg if args.format == "svg" else boundary_csv)(points), 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for numeric membership failures, so argument
    # errors must exit 1 instead of argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: it holds no per-call state."""
    # SUPPRESS keeps options given before the subcommand from being
    # clobbered by the subparser's defaults
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--order", type=int,
                        help=f"series truncation order (default {DEFAULT_ORDER})")
    common.add_argument("--grid", type=int,
                        help=f"circle grid size (default {DEFAULT_GRID}; "
                        f"starlike {STARLIKE_GRID}, boundary {BOUNDARY_GRID})")
    common.add_argument("--radii", type=str,
                        help="comma-separated scan radii (default "
                        f"{','.join(map(str, DEFAULT_RADII))})")
    common.add_argument("--tol", type=float,
                        help=f"radius-search tolerance (default {RADIUS_TOL:g})")
    common.add_argument("--seed", type=int,
                        help="seed for randomized checks (default 0)")
    common.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")

    p = _Parser(prog="diskmean", description=__doc__, parents=[common],
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    def add_parser(name, func, *sources, klass=False, **kw):
        # the positional sources main parses, and --class if the command reads one
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.add_argument("-o", "--output", default=None,
                        help="write to this file instead of stdout")
        for source in sources:
            sp.add_argument(source)
        if klass:
            sp.add_argument("--class", dest="klass", required=True, help="U, P, M or N")
        sp.set_defaults(func=func, sources=sources)
        return sp

    add_parser("check", cmd_check, "source", klass=True,
               help="class membership of one function")
    add_parser("mean", cmd_mean, "f_source", "g_source", klass=True,
               help="harmonic mean, averaging residual, membership")

    sp = add_parser("table1", cmd_table1, help="reference A(theta_n) table for ex34")
    sp.add_argument("--from", dest="n_from", type=int, default=1)
    sp.add_argument("--to", dest="n_to", type=int, default=14)
    sp.add_argument("--extend", type=int, default=None,
                    help="append golden-section rows from --to + 1 up to this n")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add_parser("starlike", cmd_starlike, "source", help="min Re(zf'/f) scan")
    sp.add_argument("--all-radii", action="store_true",
                    help="scan the whole radius ladder, not just the largest")

    add_parser("radius", cmd_radius, "source", klass=True,
               help="largest radius of class membership")

    sp = add_parser("boundary", cmd_boundary, "source", help="image of a circle under f")
    sp.add_argument("-r", "--radius", type=float, default=0.999)
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")

    return p


def _config_from(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if hasattr(args, f.name)}
    if "radii" in given:
        try:
            given["radii"] = tuple(float(x) for x in given["radii"].split(","))
        except ValueError:
            raise ValueError("--radii takes comma-separated numbers") from None
    given.setdefault("grid", {"starlike": STARLIKE_GRID, "boundary": BOUNDARY_GRID}.get(
        getattr(args, "command", None), DEFAULT_GRID))
    cfg = RunConfig(**given)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    # environment settings go in front, so a flag on the command line wins
    env = [f"{flag}={os.environ[var]}" for var, flag in _ENV_FLAGS.items()
           if os.environ.get(var)]
    parser = _build_parser()
    args = parser.parse_args(env + list(sys.argv[1:] if argv is None else argv))
    try:
        config = _config_from(args)
        if getattr(args, "show_config", False):
            text, code = _json_dump(config), 0
        elif not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        else:
            explicit = hasattr(args, "order")
            inputs = [parse_source(getattr(args, name), config, explicit)
                      for name in args.sources]
            if hasattr(args, "klass"):
                inputs.append(_parse_kind(args.klass))
            text, code = args.func(args, config, *inputs)
    except DenominatorVanishes as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DiskMeanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
