"""Command-line front end: convertibility checks, catalyst ranges, gain sweeps,
the near-maximal-gain family, and the bundled end-to-end examples.

Vectors are given as comma-separated decimals or p/q rationals.  Sweep
outputs (gain-sweep without --c, and examples) are written next to a manifest
of the command, inputs, comparison policy and sweep settings, so reruns are
byte-identical; any other --out file holds exactly the JSON printed on stdout.

Exit codes: 0 on success, 1 on malformed input or an unwritable output path,
2 on precondition violations (oracle disagreement under --verify included)
and on usage errors, which argparse reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .catalysis import CatalyticPair, rank2_catalyst_interval
from .errors import (CatalysisError, DomainError, EmptyCatalystSet, IndexOutOfRange,
                     NegativeEntry, NotNormalized)
from .examples import EXAMPLE_PAIRS, example_pair
from .oracle import grid_catalyst_interval, grid_gmax_rank2
from .schmidt import (EXACT_POLICY, FLOAT_POLICY, ComparisonPolicy, SchmidtVector,
                      _pad_to_match, entropy, make_schmidt, prefix_sums)
from .supercatalysis import (GRID_METHOD, _solve_loan, epsilon_family, tilde_gmax_sweep,
                             verify_epsilon_family)

ORACLE_GAIN_TOL = 1e-5
ORACLE_INTERVAL_TOL = 1e-6


class MalformedInput(ValueError):
    """Input text that cannot be parsed into vectors or numbers."""


def parse_vector(text: str, policy: ComparisonPolicy) -> SchmidtVector:
    try:
        parts = [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"cannot parse vector {text!r}: {exc}") from None
    if not parts:
        raise MalformedInput(f"empty vector {text!r}")
    return make_schmidt(parts, policy)


def _read_number(tok: str):
    """A token as parse_vector reads it, a rational, so that "1/100" and "0.01"
    mean the same number.  Other tokens are left to float(): NaN, the
    infinities and values beyond the float range become non-finite floats,
    which schmidt._coerce rejects by name, and for malformed text float()
    raises ValueError."""
    try:
        value = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return float(tok)
    return value if abs(value) <= sys.float_info.max else float(tok)


def _policy_json(policy: ComparisonPolicy) -> dict:
    return {"mode": policy.mode, "tol_eq": policy.tol_eq, "tol_strict": policy.tol_strict}


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(args, payload: dict):
    text = _dump_json(payload)
    if args.out:
        _write(Path(args.out), text)
    sys.stdout.write(text)


def _policy_of(args) -> ComparisonPolicy:
    return EXACT_POLICY if args.exact else FLOAT_POLICY


def cmd_convert_check(args) -> int:
    policy = _policy_of(args)
    a = parse_vector(args.a, policy)
    b = parse_vector(args.b, policy)
    fa, fb = map(prefix_sums, _pad_to_match(a, b))
    rows = [{"k": k, "partial_sum_a": float(sa), "partial_sum_b": float(sb),
             "ok": policy.leq(sa, sb)} for k, (sa, sb) in enumerate(zip(fa, fb), start=1)]
    violated = [row["k"] for row in rows if not row["ok"]]
    for row in rows:
        mark = "ok" if row["ok"] else "violated"
        print(f"k={row['k']}: f_k(a)={row['partial_sum_a']:.12g} "
              f"f_k(b)={row['partial_sum_b']:.12g}  {mark}", file=sys.stderr)
    _emit(args, {"convertible": not violated, "violated_at": violated, "table": rows})
    return 0


def cmd_catalyst_range(args) -> int:
    policy = _policy_of(args)
    pair = CatalyticPair(parse_vector(args.a, policy), parse_vector(args.b, policy), policy)
    interval = rank2_catalyst_interval(pair)
    payload = interval.to_json_value()
    agree = True
    if args.verify:
        try:
            grid = grid_catalyst_interval(pair).to_json_value()
        except EmptyCatalystSet:
            if interval.nonempty:  # a set the grid cannot see, such as a single point
                raise
            grid = None  # both sides find the set empty
        agree = grid is None or (interval.nonempty and all(
            abs(payload[k] - grid[k]) <= ORACLE_INTERVAL_TOL for k in ("x_min", "x_max")))
        payload["oracle"], payload["oracle_agrees"] = grid, agree
    _emit(args, payload)
    if not agree:
        print("closed-form interval disagrees with grid oracle", file=sys.stderr)
        return 2
    return 0


def _sweep_summary(pair: CatalyticPair, sweep) -> dict:
    return {
        "x_min": float(sweep.interval.x_min),
        "x_max": float(sweep.interval.x_max),
        "n_points": len(sweep.points),
        "tilde_gmax": sweep.tilde_gmax,
        "argmax_x": sweep.argmax_x,
        "argmax_kind": sweep.argmax_kind,
        "envelope_bound": sweep.envelope_bound,
        "gmax_at_x_min": sweep.gmax_at_x_min,
        "gmax_at_x_max": sweep.gmax_at_x_max,
        "interior_optimum": sweep.interior_optimum(),
        "entropy_a": entropy(pair.a),
        "entropy_b": entropy(pair.b),
        "bound_violations": sum(p.gmax > p.bound + ComparisonPolicy.tol_eq for p in sweep.points),
    }


def _sweep_rows(sweep) -> list:
    """Each point's x, entropy_c_bits, gmax and bound as repr text, which for a
    finite float is also json's text, so the CSV and the summary's points share
    it.  A non-finite value would read nan in one and NaN in the other."""
    rows = []
    for p in sweep.points:
        row = (p.x, p.entropy_c, p.gmax, p.bound)
        if not all(map(math.isfinite, row)):
            raise DomainError(f"non-finite sweep value at x={p.x!r}: {row}")
        rows.append(tuple(map(repr, row)))
    return rows


def _sweep_csv(rows) -> str:
    return "x,entropy_c_bits,gmax,bound\n" + "".join(f"{x},{e},{g},{b}\n" for x, e, g, b in rows)


def _summary_text(summary: dict, rows) -> str:
    """_dump_json of the summary with its points, the rows of the CSV: the C
    encoder cannot indent, so the points are written here in the same layout
    rather than by the pure-Python one."""
    points = ",\n".join(f'    {{\n      "bound": {b},\n      "entropy_c_bits": {e},\n'
                        f'      "gmax": {g},\n      "x": {x}\n    }}' for x, e, g, b in rows)
    return _dump_json({**summary, "points": None}).replace(
        '\n  "points": null', f'\n  "points": [\n{points}\n  ]', 1)


def _verify_sweep(pair: CatalyticPair, sweep) -> list:
    mismatches = []
    for p in sweep.points:
        g = grid_gmax_rank2(pair, p.c).gain
        if abs(g - p.gmax) > ORACLE_GAIN_TOL:
            mismatches.append({"x": p.x, "gmax": p.gmax, "oracle_gmax": g})
    return mismatches


def _run_sweep_files(pair: CatalyticPair, points: int, out_csv: Path, command: str,
                     inputs: dict, verify: bool) -> tuple[dict, str, int]:
    """Sweep, write the CSV, summary and manifest files, and return the
    summary without its points, its encoded text and the exit status."""
    sweep = tilde_gmax_sweep(pair, n_points=points)
    rows = _sweep_rows(sweep)
    summary = _sweep_summary(pair, sweep)
    status = 0
    if verify:
        mismatches = _verify_sweep(pair, sweep)
        summary["oracle_mismatches"] = mismatches
        if mismatches:
            status = 2
    stem = out_csv.with_suffix("")
    manifest = {"command": command, "inputs": inputs, "policy": _policy_json(pair.policy),
                "sweep": {"n_points": points},
                "outputs": [str(out_csv), str(stem) + ".summary.json"]}
    text = _summary_text(summary, rows)
    _write(out_csv, _sweep_csv(rows))
    _write(Path(str(stem) + ".summary.json"), text)
    _write(Path(str(stem) + ".manifest.json"), _dump_json(manifest))
    return summary, text, status


def cmd_gain_sweep(args) -> int:
    policy = _policy_of(args)
    a = parse_vector(args.a, policy)
    b = parse_vector(args.b, policy)
    pair = CatalyticPair(a, b, policy)

    if args.c:
        c = parse_vector(args.c, policy)
        result, bound = _solve_loan(pair, c)
        payload = {
            "c": c.to_json_value(),
            "gain": result.gain,
            "bound": bound,
            "returned_state": result.returned_state.to_json_value(),
            "method": result.method,
        }
        agree = True
        if args.verify:
            if result.method == GRID_METHOD:
                oracle_gain = agree = None
                print("no oracle applies: the returned-rank cap is 3 or more, and the oracle "
                      "scans two-level returned states only", file=sys.stderr)
            else:
                oracle_gain = grid_gmax_rank2(pair, c).gain
                agree = abs(oracle_gain - result.gain) <= ORACLE_GAIN_TOL
            payload["oracle_gain"] = oracle_gain
            payload["oracle_agrees"] = agree
        _emit(args, payload)
        return 2 if agree is False else 0

    out_csv = Path(args.out) if args.out else Path("gain_sweep.csv")
    inputs = {"a": a.to_json_value(), "b": b.to_json_value()}
    _, text, status = _run_sweep_files(pair, args.points, out_csv, "gain-sweep", inputs,
                                       args.verify)
    sys.stdout.write(text)
    return status


def cmd_epsilon_family(args) -> int:
    policy = _policy_of(args)
    try:
        eps_values = [_read_number(tok.strip()) for tok in args.eps.split(",") if tok.strip()]
    except ValueError as exc:
        raise MalformedInput(f"cannot parse epsilon list {args.eps!r}: {exc}") from None
    if not eps_values:
        raise MalformedInput("empty epsilon list")
    reports = []
    for eps in eps_values:
        family = epsilon_family(eps, policy)
        reports.append(verify_epsilon_family(family, policy).to_json_value())
    _emit(args, {"reports": reports})
    return 0


def cmd_examples(args) -> int:
    out_dir = Path(args.out_dir)
    status = 0
    texts = {}
    for name in EXAMPLE_PAIRS:
        pair = example_pair(name)
        a, b = pair.a, pair.b
        inputs = {"a": a.to_json_value(), "b": b.to_json_value()}
        out_csv = out_dir / f"example{name}.csv"
        summary, texts[name], st = _run_sweep_files(pair, args.points, out_csv, "examples",
                                                    inputs, args.verify)
        status = max(status, st)
        print(f"example {name}: tilde_gmax={summary['tilde_gmax']:.6f} "
              f"argmax_x={summary['argmax_x']:.6f} argmax_kind={summary['argmax_kind']} "
              f"interior_optimum={summary['interior_optimum']}", file=sys.stderr)
    _write(out_dir / "examples.summary.json",
           _dump_json({name: json.loads(text) for name, text in texts.items()}))
    sys.stdout.write(_dump_json({"out_dir": str(out_dir), "examples": sorted(texts)}))
    return status


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="supercat",
                                     description="supercatalytic entanglement gain toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--a", required=True, help="input Schmidt vector (decimals or p/q)")
        p.add_argument("--b", required=True, help="output Schmidt vector")
        p.add_argument("--exact", action="store_true", help="use exact rational comparisons")

    p = sub.add_parser("convert-check", help="LOCC convertibility verdict with partial sums")
    add_common(p)
    p.add_argument("--out", help="write the JSON result to this file")
    p.set_defaults(fn=cmd_convert_check)

    p = sub.add_parser("catalyst-range", help="closed-form two-level catalyst interval")
    add_common(p)
    p.add_argument("--out", help="write the JSON result to this file")
    p.add_argument("--verify", action="store_true", help="cross-check with the grid oracle")
    p.set_defaults(fn=cmd_catalyst_range)

    p = sub.add_parser("gain-sweep", help="gain and bound across the whole catalyst range")
    add_common(p)
    p.add_argument("--out", help="sweep: CSV path (default gain_sweep.csv), with the summary "
                   "and manifest JSON next to it; with --c: write the JSON result here")
    p.add_argument("--c", help="evaluate a single borrowed state instead of sweeping")
    p.add_argument("--points", type=int, default=200,
                   help="number of sweep points (ignored with --c)")
    p.add_argument("--verify", action="store_true", help="cross-check with the grid oracle")
    p.set_defaults(fn=cmd_gain_sweep)

    p = sub.add_parser("epsilon-family", help="verify the near-maximal-gain family")
    p.add_argument("--eps", required=True, help="comma-separated epsilon values")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out", help="write the JSON verdicts to this file")
    p.set_defaults(fn=cmd_epsilon_family)

    p = sub.add_parser("examples", help="run the bundled pairs end to end")
    p.add_argument("--out-dir", default="artifacts", help="directory for CSV/JSON outputs")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MalformedInput, NegativeEntry, NotNormalized, IndexOutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CatalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
