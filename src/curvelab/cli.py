"""Command-line surface: catalog plumbing, CSV/JSON emission, verification.

Exit codes: 0 success / verdict true, 1 checked-property failure, 2
computational or domain error, 64 usage error.  Floats are serialized
with repr() (shortest round-trip decimals); CSV comment lines start
with "#".
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from array import array

from . import curves, frenet, rectifying, verify
from .errors import (
    CurveLabError,
    DegenerateFrame,
    FrameDriftExceeded,
    PoleEncountered,
    UsageError,
)
from .lorentz import causal_character

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_COMPUTE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70     # a fault in curvelab itself (sysexits EX_SOFTWARE)

FRENET_HEADER = ("s,x0,x1,x2,x3,T0,T1,T2,T3,N0,N1,N2,N3,"
                 "B10,B11,B12,B13,B20,B21,B22,B23,"
                 "kappa1,kappa2,kappa3,eps,ode_residual_max")
SYNTH_HEADER = FRENET_HEADER.replace(",ode_residual_max", ",t_int")
POSITION_HEADER = "s,x0,x1,x2,x3"


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 64."""

    def error(self, message):
        raise UsageError(message)


def _finite(raw: str) -> float:
    """argparse type for float flags: a finite float."""
    try:
        val = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {raw!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{raw!r} is not finite")
    return val


def _sample_count(raw: str) -> int:
    """argparse type for --samples: an int from 2 to frenet.MAX_SAMPLES."""
    try:
        val = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {raw!r}") from None
    if val < 2:
        raise argparse.ArgumentTypeError(f"{raw} is fewer than 2 samples")
    if val > frenet.MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"{raw} is more than {frenet.MAX_SAMPLES} samples")
    return val


def _frame_row(f: frenet.FrenetData, last: float) -> str:
    """One frame CSV data row; ``last`` is ode_residual_max or t_int."""
    vals = [f.s, *f.position, *f.T, *f.N, *f.B1, *f.B2,
            f.kappa1, f.kappa2, f.kappa3, f.eps, last]
    return ",".join(map(repr, vals))


def _write_lines(path: str | None, lines: list[str], out) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        out.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- configuration ------------------------------------------------------------

def load_config(args) -> dict:
    """Merge a JSON config file (if given) with flag overrides."""
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        _check_config_fields(loaded, args.config)
        cfg.update(loaded)
    if args.curve:
        cfg["id"] = args.curve
    if args.param:
        params = dict(cfg.get("params", {}))
        for item in args.param:
            if "=" not in item:
                raise UsageError(f"--param wants NAME=VALUE, got {item!r}")
            name, _, raw = item.partition("=")
            try:
                params[name] = float(raw)
            except ValueError:
                raise UsageError(f"--param {name}: {raw!r} is not a number")
        cfg["params"] = params
    if args.domain:
        cfg["domain"] = list(args.domain)
    return cfg


def _check_config_fields(cfg: dict, path: str) -> None:
    """Reject a config file's id, params, domain or construct.domain of the
    wrong shape, and a construct.a or construct.t0 that is not a number."""
    if "id" in cfg and not isinstance(cfg["id"], str):
        raise UsageError(f'{path}: "id" must be a string')
    params = cfg.get("params", {})
    if not (isinstance(params, dict) and all(map(curves._is_number,
                                                  params.values()))):
        raise UsageError(f'{path}: "params" must map names to finite '
                         f'numbers, got {params!r}')
    block = cfg.get("construct")
    block = block if isinstance(block, dict) else {}
    for name, owner in (("domain", cfg), ("construct.domain", block)):
        dom = owner.get("domain", [0, 0])
        if not (isinstance(dom, list) and len(dom) == 2
                and all(map(curves._is_number, dom))):
            raise UsageError(f'{path}: "{name}" must be two finite numbers, '
                             f'got {dom!r}')
    for key in ("a", "t0"):
        if not curves._is_number(block.get(key, 0)):
            raise UsageError(f'{path}: "construct.{key}" must be a finite '
                             f'number, got {block[key]!r}')


def spec_from_config(cfg: dict) -> curves.CurveSpec:
    cid = cfg.get("id")
    if not cid:
        raise UsageError("no curve id given (use --curve or a config file)")
    domain = tuple(cfg["domain"]) if "domain" in cfg else None
    try:
        spec = curves.make_spec(cid, cfg.get("params"), domain)
    except KeyError:
        raise UsageError(f"unknown curve id {cid!r} "
                         f"(catalog: {', '.join(curves.catalog_ids())})")
    except ValueError as exc:
        raise UsageError(str(exc))
    if "construct" in cfg:
        # optional block {"a": ..., "t0": ..., "domain": [lo, hi]} building
        # the rectifying curve over the configured sphere curve
        block = cfg["construct"]
        if not isinstance(block, dict) or "a" not in block:
            raise UsageError('"construct" config block needs at least "a"')
        try:
            params = rectifying.ConstructionParams(
                a=float(block["a"]), t0=float(block.get("t0", 0.0)),
                domain=tuple(block["domain"]) if "domain" in block else None)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad construct block: {exc}")
        spec = rectifying.construct_rectifying(spec, params)
    return spec


# -- frame sources from CSV (synthesis round trips) ---------------------------

class CsvFrameSource(frenet.SynthesizedCurve):
    """The synthesis table read back from a cmd_synthesize CSV.

    Frames carry the stored curvatures; the torsion integral is the stored
    t_int column.  Rejects, as a UsageError naming the line, a row without
    one finite value per header field, a curvature that is not positive, an
    eps other than 1 or -1, and an s that does not strictly increase.
    """

    __slots__ = ("_stored",)

    def __init__(self, path: str):
        s, rows, stored = array("d"), array("d"), array("d")
        n_fields = SYNTH_HEADER.count(",") + 1
        with open(path) as fh:
            header = fh.readline().strip()
            if header != SYNTH_HEADER:
                raise UsageError(f"{path} is not a synthesis CSV")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                where = f"{path} line {lineno}"
                cells = line.split(",")
                if len(cells) != n_fields:
                    raise UsageError(f"{where}: {len(cells)} fields, "
                                     f"expected {n_fields}")
                try:
                    row = [float(v) for v in cells]
                except ValueError as exc:
                    raise UsageError(f"{where}: {exc}") from None
                if not all(map(math.isfinite, row)):
                    raise UsageError(f"{where}: non-finite value")
                if not min(row[21:24]) > 0.0:
                    raise UsageError(f"{where}: curvatures must be positive, "
                                     f"got {', '.join(cells[21:24])}")
                if row[24] not in (1.0, -1.0):
                    raise UsageError(f"{where}: eps must be 1 or -1, "
                                     f"got {cells[24]}")
                if s and not row[0] > s[-1]:
                    raise UsageError(f"{where}: s does not increase")
                s.append(row[0])
                rows.extend(row[1:21])
                stored.extend(row[21:])
        if len(s) < 2:
            raise UsageError(f"{path} holds fewer than 2 samples")
        super().__init__(None, s, rows, math.nan)     # no profile, no drift
        self._stored = stored       # kappa1, kappa2, kappa3, eps, t_int

    def frame(self, s: float) -> frenet.FrenetData:
        i = self._index(s)
        *kappas, eps, _ = self._stored[5 * i:5 * i + 5]
        return self._row_frame(i, *kappas, int(eps))

    def kappa3_integral(self, s: float) -> float:
        return self._stored[5 * self._index(s) + 4]


# -- command bodies -----------------------------------------------------------

def cmd_classify(args, out) -> int:
    spec = spec_from_config(load_config(args))
    for t in args.at:
        vel = curves.point(spec, t)[1]
        if not all(map(math.isfinite, vel)):
            raise curves._pole(spec, t, OverflowError(f"velocity {vel}"))
        out.write(f"t={t!r}: {causal_character(vel).value}\n")
    return EXIT_OK


def frenet_rows(spec: curves.CurveSpec, amap: frenet.ArclengthMap,
                count: int) -> tuple[list[str], int]:
    """Per-sample CSV data rows; degenerate samples are counted, not emitted.

    ode_residual_max steps ``frenet.ODE_H`` either side of the sample, or
    the grid's padding (the first sample's s) where that is shorter, so a
    curve under 0.01 long keeps its steps inside the covered arclength."""
    rows = []
    degenerate = 0
    samples = amap.grid_samples(count)
    h = min(frenet.ODE_H, samples[0])
    for s in samples:
        try:
            f = frenet.frenet_apparatus(spec, amap, s)
            resid = max(frenet.frenet_ode_residual(spec, amap, f, h))
        except DegenerateFrame:
            degenerate += 1
            continue
        rows.append(_frame_row(f, resid))
    return rows, degenerate


def cmd_frenet(args, out) -> int:
    spec = spec_from_config(load_config(args))
    amap = frenet.arclength_map(spec)
    rows, degenerate = frenet_rows(spec, amap, args.samples)
    lines = [FRENET_HEADER, *rows, f"# degenerate_samples={degenerate}"]
    _write_lines(args.output, lines, out)
    return EXIT_OK


def _source_for_check(args):
    if args.from_synthesis:
        if args.config or args.curve or args.param or args.domain:
            raise UsageError("--from-synthesis takes no --config, --curve, "
                             "--param or --domain")
        src = CsvFrameSource(args.from_synthesis)
        samples = src.grid_samples(args.samples)
        # congruent to a rectifying curve: the battery runs on it recentred
        shifted, fit = rectifying.recentred(src, samples, args.c)
        return shifted, args.from_synthesis, samples, fit.c
    spec = spec_from_config(load_config(args))
    src = frenet.JetFrameSource(spec)
    return src, spec.catalog_id, src.grid_samples(args.samples), args.c


def cmd_rectify_check(args, out) -> int:
    if args.samples < 8:
        raise UsageError("--samples must be at least 8 for the fit battery")
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be positive and finite")
    tols = rectifying.ReportTolerances.default(args.tol)
    src, name, samples, c = _source_for_check(args)
    report = rectifying.theorem33_report(src, samples, tolerances=tols,
                                         curve_name=name, c=c)
    text = json.dumps(report.to_json_dict(), indent=2)
    _write_lines(args.output, [text], out)
    return EXIT_OK if report.verdict else EXIT_PROPERTY


def cmd_construct(args, out) -> int:
    if args.a == 0.0:
        raise UsageError("--a must be nonzero")
    sphere = spec_from_config(load_config(args))
    domain = tuple(args.construct_domain) if args.construct_domain else None
    spec = rectifying.construct_rectifying(
        sphere, rectifying.ConstructionParams(a=args.a, t0=args.t0,
                                              domain=domain))
    lines = [POSITION_HEADER]
    for u in frenet.grid(*spec.domain, args.samples):
        pos = curves.point(spec, u)[0]
        if not all(map(math.isfinite, pos)):
            raise PoleEncountered(f"{spec.catalog_id} overflows floating "
                                  f"point at u={u}")
        lines.append(",".join(map(repr, (u, *pos))))
    _write_lines(args.output, lines, out)
    out.write(f"registered: {spec.catalog_id}\n")
    return EXIT_OK


def cmd_synthesize(args, out) -> int:
    if not args.drift_tol > 0.0:
        raise UsageError("--drift-tol must be positive")
    if args.eps not in (1, -1):
        raise UsageError("--eps must be 1 or -1")
    cfg = load_config(args)
    if "id" in cfg or "construct" in cfg:       # --curve sets "id"
        raise UsageError("synthesize takes a --profile, not a curve")
    s_range = tuple(cfg.get("domain", (0.5, 2.5)))
    curves._check_domain(s_range)

    def emit(curve: frenet.SynthesizedCurve) -> None:
        lines = [SYNTH_HEADER]
        for s in curve.grid_samples(args.samples):
            lines.append(_frame_row(curve.frame(s), curve.kappa3_integral(s)))
        lines.append(f"# max_gram_drift={curve.max_drift!r}")
        _write_lines(args.output, lines, out)
        out.write(f"max_gram_drift={curve.max_drift!r}\n")

    try:
        profile = frenet.profile_from_name(args.profile,
                                           cfg.get("params", {}),
                                           args.eps, s_range)
        curve = frenet.synthesize_curve(profile, ds=args.ds,
                                        synth_tol=args.drift_tol)
    except (KeyError, ValueError) as exc:   # a bad profile, ds or step count
        raise UsageError(str(exc))
    except FrameDriftExceeded as exc:
        emit(exc.partial)
        out.write(f"error: {exc}\n")
        return EXIT_PROPERTY
    emit(curve)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.suite not in verify.SUITES:
        raise UsageError(f"unknown suite {args.suite!r} "
                         f"(choose from {', '.join(verify.SUITES)})")
    results = verify.run_suite(args.suite)
    for res in results:
        out.write(res.line() + "\n")
    n_pass = sum(r.passed for r in results)
    out.write(f"{n_pass}/{len(results)} criteria passed\n")
    return EXIT_OK if n_pass == len(results) else EXIT_PROPERTY


# -- argument wiring ----------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (id, params, domain)")
    p.add_argument("--curve", help="catalog curve id (overrides config)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="curve parameter override (repeatable)")
    p.add_argument("--domain", nargs=2, type=_finite, metavar=("LO", "HI"),
                   help="parameter domain override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="curvelab",
                     description="Spacelike curve toolkit for Minkowski "
                                 "4-space: frames, curvatures, rectifying "
                                 "curve checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="causal character of the velocity "
                       "at given parameter values")
    _add_config_flags(p)
    p.add_argument("--at", action="append", type=_finite, required=True,
                   metavar="T", help="parameter value (repeatable)")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("frenet", help="frame/curvature CSV over arclength")
    _add_config_flags(p)
    p.add_argument("--samples", type=_sample_count, default=100)
    p.add_argument("--output", "-o", help="CSV path (default stdout)")
    p.set_defaults(run=cmd_frenet)

    p = sub.add_parser("rectify-check", help="rectifying characterization "
                       "battery, JSON report")
    _add_config_flags(p)
    p.add_argument("--from-synthesis", metavar="CSV",
                   help="read the curve from a synthesize CSV instead of "
                        "the catalog")
    p.add_argument("--samples", type=_sample_count, default=50)
    p.add_argument("--c", type=_finite, default=None,
                   help="known arclength offset (skips estimating it)")
    p.add_argument("--tol", type=float, default=None,
                   help="override every report tolerance")
    p.add_argument("--output", "-o", help="JSON path (default stdout)")
    p.set_defaults(run=cmd_rectify_check)

    p = sub.add_parser("construct", help="build a rectifying curve over a "
                       "hyperbolic-sphere curve")
    _add_config_flags(p)
    p.add_argument("--a", type=_finite, required=True, help="radius scale")
    p.add_argument("--t0", type=_finite, default=0.0, help="radius-law phase")
    p.add_argument("--construct-domain", nargs=2, type=_finite,
                   metavar=("LO", "HI"),
                   help="arclength window on the sphere curve")
    p.add_argument("--samples", type=_sample_count, default=50)
    p.add_argument("--output", "-o", help="CSV path (default stdout)")
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("synthesize", help="integrate a curvature profile "
                       "into a curve + frame CSV")
    _add_config_flags(p)
    p.add_argument("--profile", default="cosh_over_s",
                   help="profile name: constant or cosh_over_s")
    p.add_argument("--eps", type=int, default=1)
    p.add_argument("--ds", type=_finite, default=1e-3)
    p.add_argument("--drift-tol", type=_finite, default=frenet.SYNTH_TOL,
                   help="abort threshold for the Gram drift monitor")
    p.add_argument("--samples", type=_sample_count, default=101,
                   help="rows written (grid subsample)")
    p.add_argument("--output", "-o", help="CSV path (default stdout)")
    p.set_defaults(run=cmd_synthesize)

    p = sub.add_parser("verify", help="run the numbered self-check suites")
    p.add_argument("suite", nargs="?", default="all",
                   help="all, lorentz, frenet or rectifying")
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CurveLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception:
        # not a verdict: exit 1 would read as "not rectifying"
        import traceback
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
