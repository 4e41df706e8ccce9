"""Command-line interface.

Subcommands: `compute` runs one (type, marking, levi) case; `table`
sweeps every marking and Levi subset of a type.  Output formats: human
text, TSV, JSON.  Exit codes: 0 success, 1 bad input, 2 degenerate
geometry, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring as _encode_str

from .dynkin import SERIES, DynkinType, parse_type
from .errors import (
    BadInputError,
    CompactFormError,
    DegenerateGeometryError,
    FlagampleError,
    InternalInconsistencyError,
)
from .pipeline import CaseSpec, Report, input_block, run_case, run_table
from .snow import METHODS
from .weyl import DEFAULT_CAP

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the shell's code for a closed pipe

_FORMATS = ("text", "tsv", "json")

_TABLE_COLUMNS = (
    "type",
    "noncompact",
    "levi",
    "status",
    "realform",
    "k_type",
    "center",
    "dim_Z",
    "dim_C",
    "rank_E",
    "E0",
    "lambda_max",
    "max_len",
    "witness",
    "corr",
    "a(E)",
    "kind",
    "degree",
    "cross_check",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._bail(message))

    @staticmethod
    def _bail(message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _weyl_cap(text: str) -> int:
    """--max-weyl: from 1 up to the default cap, which bounds the memory
    and time a brute-force scan may take."""
    value = _positive_int(text)
    if value > DEFAULT_CAP:
        raise argparse.ArgumentTypeError(
            f"must be at most {DEFAULT_CAP}, got {value}"
        )
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="flagample", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, table: bool):
        sp.add_argument("--type", help="Dynkin type, e.g. A2, B3, G2")
        sp.add_argument(
            "--method",
            choices=METHODS,
            default=None,
            help="length-search route (default auto)",
        )
        sp.add_argument(
            "--verify",
            action="store_true",
            default=None,
            help="run both search routes and require agreement",
        )
        sp.add_argument("--format", choices=_FORMATS, default="text")
        sp.add_argument(
            "--max-weyl",
            type=_weyl_cap,
            default=DEFAULT_CAP,
            metavar="N",
            help="Weyl enumeration cap, from 1 to 10^7 (default 10^7)",
        )
        if table:
            sp.add_argument(
                "--dedupe",
                action="store_true",
                help="fold cases equivalent under diagram automorphisms",
            )
            sp.add_argument(
                "--jobs",
                type=_positive_int,
                default=1,
                metavar="N",
                help="evaluate cases in N parallel processes",
            )
        else:
            sp.add_argument(
                "--noncompact",
                metavar="i[,j...]",
                help="marked (noncompact) simple nodes, 1-based",
            )
            sp.add_argument(
                "--levi",
                metavar="i[,j...]",
                help="Levi nodes of the parabolic; omit for the full flag",
            )
            sp.add_argument(
                "--config",
                metavar="FILE",
                help="JSON case file with the input schema; flags win",
            )

    common(sub.add_parser("compute", help="run a single case"), table=False)
    common(sub.add_parser("table", help="sweep all cases of a type"), table=True)
    return p


def _parse_nodes(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError:
        raise BadInputError(f"cannot parse node list {text!r}") from None


# config key -> (JSON type, description); node lists hold integers
_CONFIG_SCHEMA = {
    "series": (str, "a string"),
    "rank": (int, "an integer"),
    "noncompact": (list, "a list of integers"),
    "levi": (list, "a list of integers"),
    "method": (str, "a string"),
    "verify": (bool, "true or false"),
}


def _is(value, kind) -> bool:
    """isinstance, except that a JSON boolean is not an integer."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, refusing a key given twice, which json.load
    would otherwise settle silently by keeping the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise BadInputError(f"config key {key!r} given twice")
        data[key] = value
    return data


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bytes that are not UTF-8 and malformed JSON;
        # RecursionError, JSON nested deeper than the parser can follow
        raise BadInputError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise BadInputError("config must be a JSON object")
    for key, value in data.items():
        if key not in _CONFIG_SCHEMA:
            raise BadInputError(f"unknown config key {key!r}")
        kind, desc = _CONFIG_SCHEMA[key]
        if not _is(value, kind) or (
            kind is list and not all(_is(x, int) for x in value)
        ):
            raise BadInputError(f"config key {key!r} must be {desc}")
    return data


def _case_from_args(args) -> CaseSpec:
    cfg = _load_config(args.config) if args.config else {}

    if args.type is not None:
        dynkin = parse_type(args.type)
    elif "series" in cfg and "rank" in cfg:
        series = cfg["series"].upper()
        if len(series) != 1 or series not in SERIES:
            raise BadInputError(
                f"config key 'series' must be one letter of {SERIES}"
            )
        dynkin = DynkinType(series, cfg["rank"])
    else:
        raise BadInputError("no Dynkin type given (--type or config series/rank)")

    noncompact = _parse_nodes(args.noncompact)
    if noncompact is None:
        noncompact = tuple(sorted(set(cfg.get("noncompact", ()))))
    if not noncompact:
        raise CompactFormError(
            "empty marking selects the compact real form, which has no flag domains"
        )

    levi = _parse_nodes(args.levi)
    if levi is None:
        levi = tuple(sorted(set(cfg.get("levi", ()))))

    method = args.method if args.method is not None else cfg.get("method", "auto")
    if method not in METHODS:
        raise BadInputError(f"unknown method {method!r}")
    verify = args.verify if args.verify is not None else cfg.get("verify", False)

    return CaseSpec(
        dynkin=dynkin,
        noncompact=noncompact,
        levi=levi,
        method=method,
        verify=verify,
        max_weyl=args.max_weyl,
    )


def _fmt_weight(w) -> str:
    return "[" + ",".join(str(x) for x in w) + "]"


def _fmt_weights(ws) -> str:
    return " ".join(_fmt_weight(w) for w in ws) if ws else "-"


def _fmt_nodes(nodes) -> str:
    return ",".join(str(i) for i in nodes) if nodes else "-"


def _fmt_witness(word) -> str:
    return "*".join(f"s{i + 1}" for i in word) if word else "e"


def _json_text(obj, depth: int, int_lists: dict) -> str:
    """`obj` as `json.dumps(obj, indent=2, ensure_ascii=False)` writes it
    `depth` levels deep, byte for byte.  With `indent`, json.dumps falls
    back to its pure-Python encoder; here each container is one
    `str.join` and strings go through the C `encode_basestring`.  Only
    the types `Report.to_json_dict` emits are accepted (dict with str
    keys, list, str, int, bool, None); anything else is a TypeError.

    Integer lists (coordinates, node lists, witness words) make up most
    of a table, and their text depends only on the list and the depth:
    it is cached in `int_lists`, which the caller keeps for one output.
    They repeat: 97.8% of the lookups hit over the five rank-4 sweep
    tables, 99.9% on E7, whose whole table leaves 654 entries.  Without
    the cache, rendering the sweep tables takes 1.17x as long and E6
    1.36x."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is list:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            key = (depth, *obj)
            text = int_lists.get(key)
            if text is None:
                inner = ",\n" + "  " * (depth + 1)
                text = int_lists[key] = (
                    f"[{inner[1:]}{inner.join(map(str, obj))}\n{'  ' * depth}]"
                )
            return text
        inner = ",\n" + "  " * (depth + 1)
        items = inner.join([_json_text(x, depth + 1, int_lists) for x in obj])
        return f"[{inner[1:]}{items}\n{'  ' * depth}]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = ",\n" + "  " * (depth + 1)
        # encode_basestring raises TypeError on a key that is not a str
        items = inner.join(
            [
                f"{_encode_str(k)}: {_json_text(v, depth + 1, int_lists)}"
                for k, v in obj.items()
            ]
        )
        return f"{{{inner[1:]}{items}\n{'  ' * depth}}}"
    raise TypeError(f"cannot write a {kind.__name__} as JSON")


def _fmt_node_set(nodes) -> str:
    return "{" + ",".join(str(i) for i in nodes) + "}"


def _report_text(rep: Report) -> str:
    lines = [
        f"case        : {rep.series}{rep.rank}"
        f"  noncompact={_fmt_node_set(rep.noncompact)}"
        f"  levi={_fmt_node_set(rep.levi)}",
        f"real form   : {rep.realform_name}   k = {rep.k_type}"
        f"   center_dim = {rep.center_dim}"
        f"   hermitian = {'yes' if rep.hermitian else 'no'}",
        f"dims        : dim_Z = {rep.dim_z}   dim_C = {rep.dim_c}"
        f"   rank_E = {rep.rank_e}",
        f"E0 weights  : {_fmt_weights(rep.e0_weights)}",
        f"lambda_max  : {_fmt_weights(rep.max_weights)}",
        f"k simples   : {_fmt_weights(rep.k_simples)}",
        f"length max  : {rep.w0_max_length}   witness = {_fmt_witness(rep.witness_word)}"
        f"   levi_correction = {rep.levi_correction}",
        f"ampleness   : {rep.ampleness}",
        f"verdict     : {rep.kind}   degree = {rep.concavity_degree}"
        f"   cross_check = {rep.cross_check}   ({rep.notes})",
    ]
    return "\n".join(lines)


def _row_cells(row: dict) -> list[str]:
    inp = row["input"]
    rep: Report | None = row["report"]
    cells = [
        f"{inp['series']}{inp['rank']}",
        _fmt_nodes(inp["noncompact"]),
        _fmt_nodes(inp["levi"]),
        row["status"],
    ]
    if rep is None:
        cells += ["-"] * (len(_TABLE_COLUMNS) - 4)
    else:
        cells += [
            rep.realform_name,
            rep.k_type,
            str(rep.center_dim),
            str(rep.dim_z),
            str(rep.dim_c),
            str(rep.rank_e),
            ";".join(_fmt_weight(w) for w in rep.e0_weights),
            ";".join(_fmt_weight(w) for w in rep.max_weights),
            str(rep.w0_max_length),
            _fmt_witness(rep.witness_word),
            str(rep.levi_correction),
            str(rep.ampleness),
            rep.kind,
            str(rep.concavity_degree),
            rep.cross_check,
        ]
    return cells


def _table_text(rows: list[dict], write) -> None:
    """Aligned columns: every row's cells are needed for the widths
    before the first line is written."""
    grid = [list(_TABLE_COLUMNS)] + [_row_cells(r) for r in rows]
    widths = [max(len(r[c]) for r in grid) for c in range(len(_TABLE_COLUMNS))]
    for r in grid:
        write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")


def _table_tsv(rows: list[dict], write) -> None:
    write("\t".join(_TABLE_COLUMNS) + "\n")
    for r in rows:
        write("\t".join(_row_cells(r)) + "\n")


def _table_json(dynkin, rows: list[dict], write) -> None:
    """The table as one JSON object {series, rank, rows}, written row by
    row: each row's dict is built, rendered, written and dropped."""
    int_lists: dict = {}
    series = _json_text(dynkin.series, 1, int_lists)
    write(f'{{\n  "series": {series},\n  "rank": {dynkin.rank},\n  "rows": [')
    sep = "\n    "
    for r in rows:
        row = {
            "input": r["input"],
            "status": r["status"],
            "report": r["report"].to_json_dict() if r["report"] else None,
        }
        write(sep + _json_text(row, 2, int_lists))
        sep = ",\n    "
    write("\n  ]\n}\n")


def _oracle_skipped(rep: Report, verify: bool) -> bool:
    """--verify was given, but the cap kept the brute-force oracle out."""
    return verify and "bruteforce" not in rep.routes


def _cmd_compute(args) -> int:
    spec = _case_from_args(args)
    report = run_case(spec)
    if _oracle_skipped(report, spec.verify):
        print(
            f"note: brute-force oracle skipped (|W(K)|={report.k_order}"
            f" > --max-weyl {spec.max_weyl})",
            file=sys.stderr,
        )
    if args.format == "json":
        print(_json_text(report.to_json_dict(), 0, {}))
    elif args.format == "tsv":
        inp = input_block(report.series, report.rank, report.noncompact, report.levi)
        row = {"input": inp, "status": "ok", "report": report}
        _table_tsv([row], sys.stdout.write)
    else:
        print(_report_text(report))
    return 0


def _cmd_table(args) -> int:
    if args.type is None:
        raise BadInputError("no Dynkin type given (--type)")
    dynkin = parse_type(args.type)
    method = args.method if args.method is not None else "auto"
    verify = bool(args.verify)
    rows = run_table(
        dynkin,
        method=method,
        verify=verify,
        max_weyl=args.max_weyl,
        dedupe=args.dedupe,
        jobs=args.jobs,
    )
    skipped = sum(
        1 for r in rows if r["report"] and _oracle_skipped(r["report"], verify)
    )
    if skipped:
        print(
            f"note: brute-force oracle skipped in {skipped} cases"
            f" (|W(K)| > --max-weyl {args.max_weyl})",
            file=sys.stderr,
        )
    # every row has run before the first byte goes out, so a failure in
    # any case exits 3 with empty stdout
    write = sys.stdout.write
    if args.format == "json":
        _table_json(dynkin, rows, write)
    elif args.format == "tsv":
        _table_tsv(rows, write)
    else:
        _table_text(rows, write)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _cmd_compute(args) if args.command == "compute" else _cmd_table(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): stop quietly, as a process
        # killed by SIGPIPE would, and point stdout at devnull so that the
        # interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateGeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except FlagampleError as exc:  # safety net for future subclasses
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
