"""Command-line front end.

Runs the decomposition and fairness algorithms on model files or on
generated benchmark families, optionally comparing the basic and the
improved variant, checking against the explicit oracles, and emitting CSV
step-count reports.  Exit codes: 0 ok, 1 validation or usage error, or
out of memory, 2 oracle mismatch, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import re
import sys
from pathlib import Path

from .errors import FairchkError, ModelError, UsageError
from .generate import FAMILIES, generate_objects
from .model import StreettPairs, parse_model, parse_pairs
from .runner import COMMANDS, PAIRS_COMMANDS, oracle_matches, run_command
from .thresholds import parse_threshold

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern knows only plain decimals such as -1 and
        # -0.5: it took -inf or -1e5 for an option and left the flag before
        # it without a value, where the value's own check should speak.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="fairchk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--model", help="model file")
        p.add_argument("--pairs", help="pairs file")
        p.add_argument("--algorithm", default="improved",
                       choices=["basic", "improved"])
        p.add_argument("--threshold", default="auto", type=parse_threshold,
                       help="auto, practical, or a positive integer")
        p.add_argument("--backend", default="bitset",
                       choices=["bitset", "obdd"])
        p.add_argument("--compare", action="store_true",
                       help="run basic and improved on identical inputs")
        p.add_argument("--check-oracle", action="store_true",
                       help="validate results against the explicit oracle")
        p.add_argument("--debug-invariants", action="store_true",
                       help="enable internal invariant assertions")
        p.add_argument("--csv", help="write per-instance rows to this file")
        p.add_argument("--family", choices=list(FAMILIES),
                       help="generate instances instead of reading files")
        p.add_argument("--sizes", default="64",
                       help="comma-separated vertex counts for sweeps")
        p.add_argument("--seeds", type=int, default=1,
                       help="seeds 0..N-1 per size")
        p.add_argument("--k", type=int, default=1,
                       help="number of generated objective pairs")
        p.add_argument("--edge-factor", type=float, default=2.0,
                       help="edges per vertex for random families")
        p.add_argument("--random-fraction", type=float, default=0.2,
                       help="fraction of random vertices (mdp-random)")
        p.add_argument("--cycle-size", type=int, default=4,
                       help="cycle size for chain-of-cycles")
    return parser


def _parse_size(text):
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"bad size {text.strip()!r}") from None
    if value < 1:
        raise UsageError("sizes must be positive")
    return value


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_instances(args):
    """Yield (instance_id, model, pairs) for files or generated sweeps."""
    if args.family:
        if args.model or args.pairs:
            raise UsageError("--family generates its instances; it reads no --model or --pairs")
        sizes = [_parse_size(item) for item in args.sizes.split(",") if item.strip()]
        if not sizes or args.seeds < 1:
            raise UsageError("sweeps need at least one size and one seed")
        # Only the random families read the edge factor.  A vertex has at
        # most n successors, so it is bounded by the smallest size; this
        # also rejects nan and inf.
        random_family = args.family in ("random", "mdp-random")
        if random_family and not 0 <= args.edge_factor <= min(sizes):
            raise UsageError(f"edge factor must lie in [0, {min(sizes)}]")
        # Only the fairness commands read pairs.  They are drawn after the
        # model, so asking for none leaves the model as it was.
        k = args.k if args.command in PAIRS_COMMANDS else 0
        for n in sizes:
            for seed in range(args.seeds):
                model, pairs = generate_objects(
                    args.family,
                    n=n,
                    m=max(n, int(args.edge_factor * n)) if random_family else None,
                    k=k,
                    cycle_size=args.cycle_size,
                    random_fraction=args.random_fraction,
                    seed=seed,
                )
                yield f"{args.family}-n{n}-s{seed}", model, pairs
        return
    if not args.model:
        raise UsageError("either --model or --family is required")
    model = parse_model(_read_text(args.model))
    if args.command not in PAIRS_COMMANDS:
        pairs = StreettPairs(0, ())  # a --pairs file is not opened
    elif args.pairs:
        pairs = parse_pairs(_read_text(args.pairs), model.n)
    else:
        pairs = None  # run_command rejects the missing pairs file
    yield Path(args.model).stem, model, pairs


class _OracleMismatch(FairchkError):
    pass


def _print_report(command, instance, report):
    print(f"instance: {instance}")
    print(f"algorithm: {report.algorithm}")
    label = {"scc": "sccs", "mec": "mecs"}.get(command, "winning-set")
    print(f"{label}: {report.result_text()}")
    c = report.counters
    main = report.main_counters
    print(
        f"steps: {main.headline} after preprocessing "
        f"(total pre={c.pre_ops} post={c.post_ops} cpre={c.cpre_ops} "
        f"set={c.set_ops} card={c.cardinality_ops} pick={c.pick_ops}; "
        f"preprocessing={report.preprocessing.headline})"
    )
    print(f"time: {report.wall_time:.6f}s")


def _row(instance, model, pairs, reports):
    """The CSV row and the sweep line of one instance.  With one variant
    the columns carry no prefix and the row names the algorithm."""
    row = {"instance": instance, "n": model.n, "m": model.m, "k": pairs.k}
    compare = len(reports) > 1
    named = {(f"{variant}_" if compare else ""): r for variant, r in reports.items()}
    if not compare:
        row["algorithm"] = named[""].algorithm
    for column, value in (("steps", lambda r: r.main_steps),
                          ("time", lambda r: f"{r.wall_time:.6f}"),
                          ("prep_steps", lambda r: r.preprocessing.headline)):
        row.update((prefix + column, value(r)) for prefix, r in named.items())
    steps = " ".join(f"{prefix}steps={r.main_steps}" for prefix, r in named.items())
    return row, f"{instance}: {steps}"


def _solve(args, instance, model, pairs, variant):
    """One run of `variant`, printed for a single model and checked
    against the oracle if asked."""
    report = run_command(
        args.command, model, pairs,
        algorithm=variant,
        backend=args.backend,
        threshold=args.threshold,
        debug=args.debug_invariants,
    )
    if not args.family:
        _print_report(args.command, instance, report)
    if args.check_oracle:
        matched = oracle_matches(args.command, model, pairs, report)
        if not args.family:
            print(f"oracle-match: {'true' if matched else 'false'}")
        if not matched:
            raise _OracleMismatch(
                f"oracle mismatch: instance={instance} "
                f"algorithm={report.algorithm} n={model.n} "
                f"m={model.m} k={pairs.k}"
            )
    return report


def _run(args):
    variants = ["basic", "improved"] if args.compare else [args.algorithm]
    rows = []
    # Opened before the first instance runs, so a bad path fails at once.
    with (open(args.csv, "w", newline="") if args.csv
          else contextlib.nullcontext()) as handle:
        for instance, model, pairs in _load_instances(args):
            reports = {variant: _solve(args, instance, model, pairs, variant)
                       for variant in variants}
            row, line = _row(instance, model, pairs, reports)
            rows.append(row)
            if args.family:
                print(line)
        if handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    if args.csv:
        print(f"csv: {args.csv} ({len(rows)} rows)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _OracleMismatch as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ORACLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ModelError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        print("error: out of memory; try smaller sizes", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
