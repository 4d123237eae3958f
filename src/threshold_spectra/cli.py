"""Command-line front end with human-readable and JSON output.

Exit codes: 0 success, 1 a verification or internal consistency check
failed, 2 usage or input error.  Errors are reported as a single
machine-parsable line on stderr.

Each command imports the modules it runs inside its handler, so a fresh
process that asks for one energy loads neither the family, hunt, oracle
nor self-test code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from . import __version__, spectra
from .intpoly import format_poly, to_coeff_list
from .sequences import adjacency_matrix, edge_count, format_sequence, parse_sequence
from .util import decimal_lower, decimal_upper, fraction_str, parse_exact_decimal

if TYPE_CHECKING:
    from .hunt import HuntResult

DEFAULT_PRECISION = "1e-10"
DEFAULT_TOL = "1e-9"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="threshold-spectra",
        description="Exact spectral toolkit for threshold graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summary of one connected sequence")
    p_info.add_argument("sequence")
    p_info.add_argument("--precision", default=DEFAULT_PRECISION)
    p_info.add_argument("--json", action="store_true")

    p_char = sub.add_parser("charpoly", help="characteristic polynomial")
    p_char.add_argument("sequence")
    p_char.add_argument("--oracle", action="store_true",
                        help="also compute the determinant-based polynomial")
    p_char.add_argument("--json", action="store_true")

    p_energy = sub.add_parser("energy", help="certified energy interval")
    p_energy.add_argument("sequence")
    p_energy.add_argument("--precision", default=DEFAULT_PRECISION)
    p_energy.add_argument("--json", action="store_true")

    p_family = sub.add_parser("family", help="constructed equienergetic pairs")
    p_family.add_argument("family", choices=["four", "six"])
    p_family.add_argument("--i", type=int, required=True)
    p_family.add_argument("--verify", action="store_true")
    p_family.add_argument("--tol", default=DEFAULT_TOL)
    p_family.add_argument("--json", action="store_true")

    p_hunt = sub.add_parser("hunt", help="search one order exhaustively")
    p_hunt.add_argument("--n", type=int, required=True)
    p_hunt.add_argument("--precision", default=DEFAULT_PRECISION)
    p_hunt.add_argument("--borderenergetic", action="store_true",
                        help="report only borderenergetic candidates")
    p_hunt.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default 1, capped at the CPU "
                             "count)")
    p_hunt.add_argument("--allow-large", action="store_true")
    p_hunt.add_argument("--csv", metavar="PATH",
                        help="write per-sequence rows with class ids")
    p_hunt.add_argument("--json", action="store_true")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--criteria",
                        help="comma-separated criterion numbers (default all)")
    p_self.add_argument("--json", action="store_true")

    return parser


def _emit(record: dict, as_json: bool, out: TextIO) -> None:
    if as_json:
        out.write(json.dumps(record, indent=2, sort_keys=True))
        out.write("\n")
        return
    _emit_human(record["results"], out)


def _emit_human(results: dict, out: TextIO, indent: str = "") -> None:
    for key, value in results.items():
        if isinstance(value, dict):
            out.write(f"{indent}{key}:\n")
            _emit_human(value, out, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            out.write(f"{indent}{key}:\n")
            for item in value:
                _emit_human(item, out, indent + "  ")
                out.write(f"{indent}  --\n")
        else:
            out.write(f"{indent}{key}: {value}\n")


def _parse_positive(text: str, name: str) -> Fraction:
    value = parse_exact_decimal(text)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {text}")
    return value


def _cmd_info(args: argparse.Namespace, out: TextIO) -> tuple[dict, int]:
    bits = parse_sequence(args.sequence)
    precision = _parse_positive(args.precision, "precision")
    summary = spectra.spectral_summary(bits, precision)
    record = summary.to_record()
    record["edges"] = edge_count(bits)
    return record, 0


def _cmd_charpoly(args: argparse.Namespace, out: TextIO) -> tuple[dict, int]:
    bits = parse_sequence(args.sequence)
    formula = spectra.char_poly_of_sequence(bits)
    results = {
        "sequence": format_sequence(bits),
        "char_poly": to_coeff_list(formula),
        "char_poly_text": format_poly(formula),
    }
    if args.oracle:
        from . import linalg
        oracle = linalg.charpoly(adjacency_matrix(bits))
        results["determinant_poly"] = to_coeff_list(oracle)
        results["determinant_poly_text"] = format_poly(oracle)
        results["verdict"] = "equal" if oracle == formula else "different"
        if oracle != formula:
            return results, 1
    return results, 0


def _cmd_energy(args: argparse.Namespace, out: TextIO) -> tuple[dict, int]:
    bits = parse_sequence(args.sequence)
    precision = _parse_positive(args.precision, "precision")
    lo, hi = spectra.energy(bits, precision)
    results = {
        "sequence": format_sequence(bits),
        "precision": args.precision,
        "energy": {
            "lo": decimal_lower(lo),
            "hi": decimal_upper(hi),
            "lo_fraction": fraction_str(lo),
            "hi_fraction": fraction_str(hi),
        },
    }
    return results, 0


def _cmd_family(args: argparse.Namespace, out: TextIO) -> tuple[dict, int]:
    from . import families
    family = families.FamilyId(args.family)
    pair = families.family_pair(family, args.i)
    tol = _parse_positive(args.tol, "tolerance")
    results = pair.to_record()
    code = 0
    if args.verify:
        report = families.verify_family(family, args.i, tol)
        results["verification"] = report.to_record()
        if not report.ok:
            code = 1
        if family is families.FamilyId.FOUR_BLOCK:
            cubic = families.cubic_root_localization(args.i)
            results["cubic_roots"] = cubic.to_record()
            if not cubic.ok:
                code = 1
    return results, code


def _cmd_hunt(args: argparse.Namespace, out: TextIO) -> tuple[dict, int]:
    from . import hunt
    precision = _parse_positive(args.precision, "precision")
    created = False
    if args.csv:
        # fail on an unwritable path before the scan, leaving a file as is;
        # a file made here goes again if the scan fails
        created = not os.path.lexists(args.csv)
        open(args.csv, "a").close()
    try:
        result = hunt.full_scan(args.n, precision, processes=args.jobs,
                                allow_large=args.allow_large)
    except BaseException:
        if created:
            os.remove(args.csv)
        raise
    if args.csv:
        _write_hunt_csv(args.csv, result)
    results = {
        "n": args.n,
        "precision": args.precision,
        "classes": [
            {
                "class_id": k,
                "energy_lo": decimal_lower(cls.energy_lo),
                "energy_hi": decimal_upper(cls.energy_hi),
                "certification": {
                    "distinct_spectrum": "exact",
                    "energy_equal": "within-precision",
                },
                "members": [
                    {
                        "sequence": format_sequence(bits),
                        "char_poly": to_coeff_list(poly),
                    }
                    for bits, poly in cls.members
                ],
            }
            for k, cls in enumerate(result.equienergetic)
        ],
        "borderenergetic": [format_sequence(b)
                            for b in result.borderenergetic],
        "stats": result.stats,
    }
    if args.borderenergetic:
        del results["classes"]
    return results, 0


def _write_hunt_csv(path: str, result: HuntResult) -> None:
    """One row per sequence in enumeration order, each record rebuilt as
    it is written."""
    import csv
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sequence", "energy_lo", "energy_hi", "char_poly",
                         "class_id"])
        for rec, class_id in zip(result.iter_records(), result.class_ids):
            writer.writerow([
                format_sequence(rec.bits),
                decimal_lower(rec.energy_lo),
                decimal_upper(rec.energy_hi),
                str(to_coeff_list(rec.char_poly)),
                class_id,
            ])


def _cmd_selftest(args: argparse.Namespace, out: TextIO) -> tuple[dict, int]:
    from . import acceptance
    if args.criteria is not None:
        try:
            numbers = sorted({int(part) for part in args.criteria.split(",") if part})
        except ValueError as exc:
            raise ValueError(f"bad criterion list {args.criteria!r}") from exc
        if not numbers:
            raise ValueError(f"empty criterion list {args.criteria!r}")
        unknown = [n for n in numbers if n not in acceptance.CRITERIA]
        if unknown:
            raise ValueError(f"no criterion numbered {unknown[0]}")
    else:
        numbers = sorted(acceptance.CRITERIA)
    results = []
    for num in numbers:
        res = acceptance.CRITERIA[num]()
        results.append(res)
        if not args.json:
            out.write(res.line() + "\n")
            out.flush()
    failed = [res.number for res in results if not res.passed]
    record = {
        "criteria": [
            {
                "number": res.number,
                "name": res.name,
                "passed": res.passed,
                "detail": res.detail,
                "elapsed_seconds": round(res.elapsed, 3),
            }
            for res in results
        ],
        "failed": failed,
    }
    return record, 1 if failed else 0


# every handler takes the stream that `selftest` writes its lines to
_COMMANDS = {"info": _cmd_info, "charpoly": _cmd_charpoly,
             "energy": _cmd_energy, "family": _cmd_family,
             "hunt": _cmd_hunt, "selftest": _cmd_selftest}


def run(argv: Sequence[str], out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Execute one command; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        results, code = _COMMANDS[args.command](args, out)
        record = {
            "command": args.command,
            "inputs": {key: value for key, value in vars(args).items()
                       if key not in ("command", "json")},
            "results": results,
            "version": __version__,
            "timing_seconds": round(time.perf_counter() - started, 6),
        }
        if args.command != "selftest" or args.json:
            _emit(record, args.json, out)
        # a stream closed early fails here, not at the interpreter's exit
        out.flush()
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    except MemoryError:
        err.write("error: out of memory\n")
        return 2
    except ArithmeticError as exc:
        err.write(f"error: {exc}\n")
        return 1
    return code


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported it; the exit-time flush would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
