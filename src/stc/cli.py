"""Command-line surface: critical values, tests on CSV panels, tables, MC.

Subcommands: cv, max-alpha, pvalue, test, ci, rho-frontier, table, simulate.
Output formats: text (default), json, csv via --output; --output-path writes
to a file instead of stdout.

Exit codes are a stable contract: 0 success, 2 usage/parameter error,
3 method infeasibility (no valid critical value / numerical failure),
4 data error (malformed or non-UTF-8 CSV, including a non-finite outcome or
an integer outside 64 bits; design violations; files that cannot be read or
written).  The STC_THREADS environment variable caps ``table --workers``; a
non-integer value is a parameter error.

The panel CSV schema: UTF-8 (a leading byte-order mark is skipped), '.'
decimal, header ``cluster,unit,time,outcome,c`` where ``unit`` and ``c``
(and ``time`` for cross-sections) may be omitted; a line that starts,
after any blanks, with an unquoted '#' is a comment (a quoted "#a" is an
id, and ``write_panel_csv`` quotes every field of a row whose cluster id
starts with '#').  numpy's C parser reads the body; a file it refuses is
read again record by record, so a bad row's error still names its first
physical line, counting the line breaks inside quoted fields.  The treated
cluster is designated by --treated, never by a column, so one schema serves
every design.

Each subcommand computes one record, and every format derives from it.
JSON is the record and round-trips byte-identically: floats are pre-rounded
(6 significant digits for diagnostics, 3 decimals for table cells),
infinities are the string "inf", missing values null.  CSV (a header and
one row) and text (one ``name=value`` line per field) flatten the record:
nested names are joined by '.' and list items by index, e.g.
``worst_case.achieving.kind`` and ``ci.0``.  So the ``worst_case.achieving.*``
columns of ``test`` depend on the worst case: m1, m0 and gamma for
``Boundary``, active_controls for ``ZeroTreated``.  A row list
(``rho-frontier``'s ``frontier``) is the whole CSV, one row each, and one
text line per row after the other fields.  Null is NA, booleans true/false,
floats %g.  ``max-alpha`` and ``table`` print a rho-by-m pivot as CSV and text.
"""
from __future__ import annotations

import argparse
import array
import csv
import io
import json
import math
import operator
import os
import sys
import warnings

import numpy as np

from .critical_values import (
    alpha_underline,
    critical_value,
    generate_table,
    one_sided_critical_value,
    round3,
)
from .designs import DesignKind, PanelData, extract
from .errors import (
    BracketSignError,
    DataFormatError,
    DesignViolationError,
    InvalidParameterError,
    NoValidCriticalValueError,
    NumericalFailureError,
    StcError,
)
from .inference import Sided, confidence_interval, p_value, rho_frontier, run_test, t_statistic
from .simulate import MCConfig, NormalMeansDesign, TwfeDesign
from .simulate import run as mc_run
from .worstcase import Boundary, HeterogeneitySpec, ZeroTreated

__all__ = ["main", "read_panel_csv", "write_panel_csv"]

_CSV_COLUMNS = ("cluster", "unit", "time", "outcome", "c")
# the C parser's type of each column; ids are objects, since a fixed-width
# string dtype would truncate them
_DTYPES = {"time": np.int64, "outcome": np.float64, "c": np.int64}
_DESIGNS = {
    "mean": DesignKind.CLUSTERED_MEAN,
    "did": DesignKind.DID,
    "twfe": DesignKind.TWO_WAY_FE,
    "tripled": DesignKind.TRIPLE_DIFF,
}
_SIDED = {"greater": Sided.ONE_SIDED_GREATER, "less": Sided.ONE_SIDED_LESS}


# ---------------------------------------------------------------------------
# panel CSV schema


def read_panel_csv(path: str) -> dict[str, np.ndarray | None]:
    """Parse the panel schema into column arrays (absent columns -> None).

    numpy's C parser reads the body in one call.  A file it refuses, or one
    whose first column holds an id starting with '#' (which may be a comment
    line), is read again record by record, and only that reader reports errors.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            header = _header(path, next(_records(path, fh), (0, []))[1])
            dtype = [(name, _DTYPES.get(name, object)) for name in header]
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                body = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                                  ndmin=1)
        out: dict[str, np.ndarray | None] = dict.fromkeys(_CSV_COLUMNS)
        out.update((name, _cast(name, body[name])) for name in header)
        # a comment line with the header's field count parses as a row whose
        # first id starts with '#'
        if body.size and (header[0] in _DTYPES
                          or not np.char.startswith(out[header[0]], "#").any()):
            return out
    except (ValueError, OverflowError):
        pass
    return _read_records(path)


def _records(path: str, fh):
    """(first physical line number, fields) of each record that is neither
    blank nor a comment; line numbers count the line breaks in quoted fields."""
    raw: list[str] = []  # the physical lines of the record being read

    def lines():
        for line in fh:
            raw.append(line)
            yield line

    seen = 0
    try:
        for record in csv.reader(lines()):
            first, number = raw[0], seen + 1
            seen += len(raw)
            raw.clear()
            # a comment starts with an unquoted '#'; a quoted "#a" is an id
            if "".join(record).strip() and not first.lstrip().startswith("#"):
                yield number, record
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a stray quote that swallows the file
        raise DataFormatError(f"{path} line {seen + 1}: {exc}") from None


def _read_records(path: str) -> dict[str, np.ndarray | None]:
    """`read_panel_csv` record by record, naming the first error.

    Each column is cast once; only a failed cast is searched for its first
    bad field, whose physical line the error names.
    """
    rows: list[list[str]] = []
    numbers = array.array("q")  # each row's first physical line
    with open(path, encoding="utf-8-sig", newline="") as fh:
        for number, record in _records(path, fh):
            rows.append(record)
            numbers.append(number)
    if not rows:
        raise DataFormatError(f"{path}: no header row found")
    header = _header(path, rows.pop(0))
    del numbers[0]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if set(map(len, rows)) != {len(header)}:
        i = next(i for i, record in enumerate(rows) if len(record) != len(header))
        raise DataFormatError(
            f"{path} line {numbers[i]}: expected {len(header)} fields, got {len(rows[i])}"
        )

    out: dict[str, np.ndarray | None] = dict.fromkeys(_CSV_COLUMNS)
    for j, name in enumerate(header):
        fields = list(map(operator.itemgetter(j), rows))
        try:
            out[name] = _cast(name, fields)
        except (ValueError, OverflowError):
            for number, field in zip(numbers, fields):
                try:
                    _cast(name, [field])
                except (ValueError, OverflowError):
                    raise DataFormatError(
                        f"{path} line {number}: bad value {field.strip()!r} in column {name!r}"
                    ) from None
            raise
    return out


def _header(path: str, record: list[str]) -> list[str]:
    """The header's column names; DataFormatError unless they fit the schema."""
    header = [name.strip() for name in record]
    unknown = [name for name in header if name not in _CSV_COLUMNS]
    if unknown:
        raise DataFormatError(f"{path}: unknown column(s) {unknown}; expected {_CSV_COLUMNS}")
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}: duplicate column names in header")
    for required in ("cluster", "outcome"):
        if required not in header:
            raise DataFormatError(f"{path}: missing required column {required!r}")
    return header


def _cast(name: str, fields: list[str]) -> np.ndarray:
    """One column as an array; ValueError (or OverflowError) if a field is bad."""
    if name in ("cluster", "unit"):
        col = np.char.strip(np.array(fields, dtype=str))
        ok = col != ""
    elif name == "outcome":
        col = np.array(fields, dtype=float)
        ok = np.isfinite(col)
    else:
        col = np.array(fields, dtype=np.int64)
        ok = (col == 0) | (col == 1) if name == "c" else True
    if not np.all(ok):
        raise ValueError(name)
    return col


def write_panel_csv(path: str, cluster, outcome, time=None, unit=None, c=None) -> None:
    """Write columns in the canonical header order, omitting absent ones.

    Ids holding commas, quotes or line breaks are quoted, and so is every
    field of a row whose cluster id starts with '#', which would otherwise
    read as a comment line.  An id that ``read_panel_csv`` would read
    differently (empty or padded with spaces) raises InvalidParameterError
    instead of writing a file that reads back wrong.
    """
    named = [("cluster", cluster), ("unit", unit), ("time", time),
             ("outcome", outcome), ("c", c)]
    present = [(name, np.asarray(col)) for name, col in named if col is not None]
    for name, col in present:
        if name in ("cluster", "unit"):
            ids = col.astype(str)
            bad = (ids == "") | (np.char.strip(ids) != ids)
            if bad.any():
                raise InvalidParameterError(
                    f"{name} id {str(ids[np.argmax(bad)])!r} would not read back from the CSV")
    # str of a Python float is its shortest round-trip repr
    columns = [map(str, col.tolist()) for _, col in present]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        plain.writerow(name for name, _ in present)
        for row in zip(*columns):
            (quoted if row[0].startswith("#") else plain).writerow(row)


# ---------------------------------------------------------------------------
# output: one record per subcommand, every format derived from it


def _f6(x):
    """JSON-safe float at 6 significant digits; inf -> 'inf', None -> None."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):  # pragma: no cover - nothing emits NaN
        return None
    return float(f"{x:.6g}")


def _achieving_json(achieving) -> dict:
    if isinstance(achieving, ZeroTreated):
        return {"kind": "ZeroTreated", "active_controls": achieving.j}
    assert isinstance(achieving, Boundary)
    return {"kind": "Boundary", "m1": achieving.m1, "m0": achieving.m0,
            "gamma": _f6(achieving.gamma)}


def _flatten(value, name: str = "") -> list[tuple[str, object]]:
    """(path, scalar) pairs: dict keys joined by '.', list items by index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [(name, value)]
    return [pair for key, item in items
            for pair in _flatten(item, f"{name}.{key}" if name else str(key))]


def _cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _render(record, fmt: str, grid: str | None) -> str:
    """The record as JSON, or flattened to CSV or text (``grid`` replaces both)."""
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    if grid is not None:
        return grid
    rows_key = next((key for key, value in record.items()
                     if isinstance(value, list) and value and isinstance(value[0], dict)), None)
    head = _flatten({key: value for key, value in record.items() if key != rows_key})
    rows = [_flatten(row) for row in record[rows_key]] if rows_key else [head]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([name for name, _ in rows[0]])
        writer.writerows([_cell(value) for _, value in row] for row in rows)
        return buf.getvalue()
    lines = [f"{name}={_cell(value)}" for name, value in head]
    if rows_key:
        lines += [" ".join(f"{name}={_cell(value)}" for name, value in row) for row in rows]
    return "\n".join(lines) + "\n"


def _pivot(records: list[dict], ms: list[int], blocks: int, field: str, fmt: str) -> str:
    """A grid's CSV and text: a row per rho, a ``field`` column per m (ERROR
    where a failed cell has none), each of several blocks headed by its alpha."""
    rows = [records[i:i + len(ms)] for i in range(0, len(records), len(ms))]
    lines = []
    for i, row in enumerate(rows):
        if i % (len(rows) // blocks) == 0:
            if blocks > 1:
                lines.append(f"# alpha={row[0]['alpha']:g}")
            lines.append("rho," + ",".join(str(m) for m in ms))
        lines.append(",".join([f"{row[0]['rho']:g}"] + [
            format(rec[field], fmt) if field in rec else "ERROR" for rec in row]))
    return "\n".join(lines) + "\n"


def _emit(args, out: str) -> None:
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# flag parsing helpers

# far above any published grid
_MAX_POINTS = 10_000


def _check_numbers(token: str) -> tuple[list[float], int | None]:
    """A comma list's finite numbers, or a:b:step and its point count, unbuilt."""
    is_range = ":" in token
    parts = token.split(":") if is_range else [x for x in token.split(",") if x]
    try:
        values = [float(x) for x in parts]
    except ValueError:
        values = None
    if values is None or (is_range and len(values) != 3):
        expected = "a:b:step" if is_range else "comma-separated numbers"
        raise InvalidParameterError(f"bad number list {token!r}; expected {expected}")
    if not values or not all(math.isfinite(v) for v in values):
        raise InvalidParameterError(f"expected finite numbers, got {token!r}")
    if not is_range:
        return values, None
    a, b, step = values
    if step <= 0 or b < a:
        raise InvalidParameterError(f"bad range {token!r}: need step > 0 and b >= a")
    n = (b - a) / step + 1e-9
    if not n < _MAX_POINTS:  # also an overflow to inf
        raise InvalidParameterError(f"range {token!r} has more than {_MAX_POINTS} points")
    return values, int(n) + 1


def _parse_floats(token: str) -> list[float]:
    """Comma list or inclusive range a:b:step."""
    values, points = _check_numbers(token)
    if points is None:
        return values
    a, _, step = values
    return [round(a + i * step, 10) for i in range(points)]


def _parse_ints(token: str) -> list[int]:
    values = _parse_floats(token)
    out = [int(round(v)) for v in values]
    if any(abs(v - i) > 1e-9 for v, i in zip(values, out)):
        raise InvalidParameterError(f"expected integers, got {token!r}")
    return out


def _arg_type(parse):
    """``parse`` as argparse ``type=``; argparse would hide a ValueError's message."""
    def convert(token: str):
        try:
            return parse(token)
        except InvalidParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _workers(args) -> int:
    workers = getattr(args, "workers", 1)
    cap = os.environ.get("STC_THREADS")
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise InvalidParameterError(f"STC_THREADS must be an integer, got {cap!r}") from None
    return max(1, workers)


def _panel(args):
    """A panel command's record head, estimates, spec (None without --rho) and
    sidedness; the head is design, treated and m, then whichever of alpha, k,
    rho and sided the subcommand takes."""
    cols = read_panel_csv(args.data)
    panel = PanelData(cluster=cols["cluster"], outcome=cols["outcome"],
                      treated_cluster=args.treated, time=cols["time"],
                      post_start=args.post_start, unit=cols["unit"], c_indicator=cols["c"])
    extraction = extract(panel, _DESIGNS[args.design])
    est = extraction.estimates
    head = {"design": args.design, "treated": extraction.treated_cluster, "m": est.m}
    head.update((name, getattr(args, name)) for name in ("alpha", "k", "rho") if name in args)
    sided = _SIDED.get(getattr(args, "one_sided", None), Sided.TWO_SIDED)
    if "one_sided" in args:
        head["sided"] = sided.value
    spec = HeterogeneitySpec(m=est.m, k=args.k, rho=args.rho) if "rho" in args else None
    return head, est, spec, sided


# ---------------------------------------------------------------------------
# subcommands: each returns its record, or (records, pivot CSV) for a grid


def _cmd_cv(args) -> dict:
    spec = HeterogeneitySpec(m=args.m, k=args.k, rho=args.rho)
    invert = one_sided_critical_value if args.one_sided else critical_value
    res = invert(args.m, args.alpha, spec)
    return {
        "m": args.m, "alpha": args.alpha, "k": args.k, "rho": args.rho,
        "one_sided": bool(args.one_sided),
        "cv": _f6(res.cv), "cv_rounded": float(round3(res.cv)), "method": res.method,
        "worst_case_at_cv": _f6(res.worst_case.value), "iterations": res.iterations,
    }


def _cmd_max_alpha(args) -> tuple[list[dict], str]:
    records = []
    for rho in args.rhos:
        for m in args.ms:
            alpha = alpha_underline(m, rho)
            records.append({"m": m, "rho": rho, "alpha_underline": _f6(alpha),
                            "percent": round(100.0 * alpha, 2)})
    return records, _pivot(records, args.ms, 1, "percent", ".2f")


def _cmd_pvalue(args) -> dict:
    head, est, spec, sided = _panel(args)
    p = p_value(est, spec, sided)
    t, effect, s = t_statistic(est)
    return {**head, "delta_hat": _f6(effect), "t_stat": _f6(t), "p_value": _f6(p)}


def _cmd_test(args) -> dict:
    head, est, spec, sided = _panel(args)
    report = run_test(est, spec, args.alpha, sided)
    worst = report.cv.worst_case
    return {
        **head, "delta_hat": _f6(report.effect), "t_stat": _f6(report.t_stat),
        "control_sd": _f6(report.control_sd),
        "cv": _f6(report.cv.cv), "method": report.cv.method,
        "p_value": _f6(report.p_value), "ci": [_f6(report.ci[0]), _f6(report.ci[1])],
        "reject": report.reject, "degenerate": report.degenerate,
        "worst_case": {"value": _f6(worst.value),
                       "achieving": _achieving_json(worst.achieving_config)},
    }


def _cmd_ci(args) -> dict:
    head, est, spec, _ = _panel(args)
    lo, hi = confidence_interval(est, spec, args.alpha)
    _, effect, _ = t_statistic(est)
    return {**head, "delta_hat": _f6(effect), "ci": [_f6(lo), _f6(hi)]}


def _cmd_rho_frontier(args) -> dict:
    head, est, _, _ = _panel(args)
    t, _, _ = t_statistic(est)
    # a bound of 0 means nothing rejects (null); inf means everything does
    frontier = [
        {"alpha": alpha, "k": k, "rho_hat": None if bound == 0.0 else _f6(bound)}
        for alpha in args.alpha_list
        for k, bound in enumerate(rho_frontier(est, alpha).bounds, start=1)
    ]
    return {**head, "t_stat": _f6(t), "frontier": frontier}


def _cmd_table(args) -> tuple[list[dict], str]:
    records = generate_table(args.alphas, args.ms, args.rhos, args.k,
                             workers=_workers(args)).records()
    return records, _pivot(records, args.ms, len(args.alphas), "cv", ".3f")


def _cmd_simulate(args) -> dict:
    if args.design == "normal":
        design = NormalMeansDesign(dgp=args.dgp, m=args.m, delta=args.delta, rho=args.rho)
    else:
        design = TwfeDesign(dgp=args.dgp, m=args.m, sigma=args.sigma, theta=args.theta)
    config = MCConfig(design=design, reps=args.reps, seed=args.seed,
                      alpha=args.alpha, k=args.k, rho=args.test_rho)
    result = mc_run(config, include_stats=args.per_rep is not None)
    if args.per_rep is not None:
        cv = result.critical_value.cv
        with open(args.per_rep, "w", encoding="utf-8") as fh:
            fh.write("rep,t_stat,reject\n")
            for r, t in enumerate(result.t_stats):
                fh.write(f"{r},{float(t)!r},{int(abs(t) > cv)}\n")
    return {
        "design": args.design, "dgp": args.dgp, "m": args.m, "reps": args.reps,
        "seed": args.seed, "alpha": args.alpha, "k": args.k, "rho": _f6(config.test_rho),
        "rejection_rate": _f6(result.rejection_rate), "se": _f6(result.se),
        "rejections": result.rejections,
        "cv": _f6(result.critical_value.cv), "method": result.critical_value.method,
    }


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(sub) -> None:
    sub.add_argument("--output", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output-path", default=None)


def _add_spec_flags(sub, with_alpha: bool = True) -> None:
    if with_alpha:
        sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--k", type=int, default=1)


def _add_data_flags(sub) -> None:
    sub.add_argument("--data", required=True, help="panel CSV path")
    sub.add_argument("--design", choices=tuple(_DESIGNS), required=True)
    sub.add_argument("--treated", required=True, help="treated cluster id")
    sub.add_argument("--post-start", type=int, default=None,
                     help="first post-treatment period (t0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stc",
        description="Worst-case t-test inference with a single treated cluster",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    cv = subs.add_parser("cv", help="critical value for (m, alpha, k, rho)")
    cv.add_argument("--m", type=int, required=True)
    _add_spec_flags(cv)
    cv.add_argument("--one-sided", action="store_true")
    _add_output_flags(cv)
    cv.set_defaults(handler=_cmd_cv)

    ma = subs.add_parser("max-alpha", help="largest level with a valid closed form")
    ma.add_argument("--ms", type=_arg_type(_parse_ints), required=True)
    ma.add_argument("--rhos", type=_arg_type(_parse_floats), required=True)
    _add_output_flags(ma)
    ma.set_defaults(handler=_cmd_max_alpha)

    pv = subs.add_parser("pvalue", help="worst-case p-value from a panel CSV")
    _add_data_flags(pv)
    _add_spec_flags(pv, with_alpha=False)
    pv.add_argument("--one-sided", choices=tuple(_SIDED), default=None)
    _add_output_flags(pv)
    pv.set_defaults(handler=_cmd_pvalue)

    test = subs.add_parser("test", help="full test report from a panel CSV")
    _add_data_flags(test)
    _add_spec_flags(test)
    test.add_argument("--one-sided", choices=tuple(_SIDED), default=None)
    _add_output_flags(test)
    test.set_defaults(handler=_cmd_test)

    ci = subs.add_parser("ci", help="confidence interval for the effect")
    _add_data_flags(ci)
    _add_spec_flags(ci)
    _add_output_flags(ci)
    ci.set_defaults(handler=_cmd_ci)

    rf = subs.add_parser("rho-frontier", help="breakdown heterogeneity by k")
    _add_data_flags(rf)
    rf.add_argument("--alpha-list", type=_arg_type(_parse_floats), default=[0.05])
    _add_output_flags(rf)
    rf.set_defaults(handler=_cmd_rho_frontier)

    table = subs.add_parser("table", help="critical-value grid")
    table.add_argument("--k", type=int, default=1)
    table.add_argument("--alphas", type=_arg_type(_parse_floats), required=True)
    table.add_argument("--ms", type=_arg_type(_parse_ints), required=True)
    table.add_argument("--rhos", type=_arg_type(_parse_floats), required=True)
    table.add_argument("--workers", type=int, default=1)
    _add_output_flags(table)
    table.set_defaults(handler=_cmd_table)

    sim = subs.add_parser("simulate", help="seeded Monte Carlo size/power run")
    sim.add_argument("--design", choices=("normal", "twfe"), required=True)
    sim.add_argument("--dgp", type=int, required=True)
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--delta", type=float, default=0.0, help="normal design: treated mean")
    sim.add_argument("--rho", type=float, default=1.0, help="normal design: treated sd")
    sim.add_argument("--sigma", type=float, default=1.0, help="twfe design: treated scale")
    sim.add_argument("--theta", type=float, default=0.0, help="twfe design: true effect")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--k", type=int, default=1)
    sim.add_argument("--test-rho", type=float, default=None,
                     help="heterogeneity ratio for the test (default: match the DGP)")
    sim.add_argument("--per-rep", default=None, help="write per-replication CSV here")
    _add_output_flags(sim)
    sim.set_defaults(handler=_cmd_simulate)

    return parser


# first match wins; StcError last catches residual library failures
_EXIT_CODES = (
    (InvalidParameterError, 2),
    ((NoValidCriticalValueError, NumericalFailureError, BracketSignError), 3),
    ((DataFormatError, DesignViolationError, OSError), 4),
    (StcError, 3),
)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        result = args.handler(args)
        record, grid = result if isinstance(result, tuple) else (result, None)
        _emit(args, _render(record, args.output, grid))
        return 0
    except (StcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
