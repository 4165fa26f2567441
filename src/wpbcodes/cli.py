"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 hard failure or computation
error, 2 usage or instance-file error, 141 (128 + SIGPIPE, as a shell
reports a writer its reader left) when stdout is a pipe closed before all
output was written, e.g. by `| head`; that case prints nothing on stderr.
`verify` writes line-delimited JSON records to stdout (or --out) and a
human summary table to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .blockspace import DEFAULT_MAX_SPACE, enumeration_cap, format_vector, parse_vector
from .checks import (
    REGISTRY,
    hard_failures,
    summarize,
    verify_suite,
)
from .constructions import (
    direct_sum_code,
    extended_code,
    plotkin_code,
    punctured_code,
    tensor_code,
)
from .errors import (
    FieldMismatch,
    LengthMismatch,
    NotAChain,
    NotLinear,
    TooFewWords,
    WeightMismatch,
)
from .instances import Instance, dumps_instance, load_instance

# the computation errors that subclass ValueError, exit 1; every other
# ValueError (a malformed vector, an instance file's ParseError or
# ConsistencyError) is a usage error, exit 2
_DOMAIN_ERRORS = (
    FieldMismatch,
    LengthMismatch,
    NotAChain,
    NotLinear,
    TooFewWords,
    WeightMismatch,
)


def _parse_max_space(text: str) -> int:
    """An enumeration cap in 1..2^63, written as an integer or as base^exp
    (e.g. 2^24) with base >= 1 and exp >= 0; the exponent is bounded before
    the power is computed."""
    wanted = f"a cap in 1..2^63, as an integer or base^exp, got {text!r}"
    base_text, caret, exp_text = text.partition("^")
    try:
        base, exp = int(base_text), int(exp_text) if caret else 1
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {wanted}") from None
    # base^exp >= 2^(exp * (bits - 1)), so past 63 the power exceeds 2^63
    if base < 1 or exp < 0 or exp * (base.bit_length() - 1) > 63 or base**exp > 1 << 63:
        raise argparse.ArgumentTypeError(f"expected {wanted}")
    return base**exp


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_max_space(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-space",
        type=_parse_max_space,
        default=DEFAULT_MAX_SPACE,
        help="enumeration cap (accepts forms like 2^24): the most vectors, "
        "codewords, pairs, words or weight-spectrum DP states one "
        "computation may enumerate",
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wpbcodes",
        description="Weighted poset block metrics: exact code parameters, "
        "constructions, and the verification suite.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_instance_cmd(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file (JSON)")
        _add_max_space(p)
        return p

    p = add_instance_cmd("weight", "weighted poset block weight of a vector")
    p.add_argument("--vector", "-v", required=True, help="comma-separated coordinates")

    p = add_instance_cmd("distance", "distance between two vectors")
    p.add_argument("-u", required=True, help="comma-separated coordinates")
    p.add_argument("-v", required=True, help="comma-separated coordinates")

    add_instance_cmd("mindist", "minimum distance of the code")
    add_instance_cmd("covering-radius", "covering radius of the code")
    add_instance_cmd("packing-radius", "packing radius of the code")
    add_instance_cmd("cosets", "coset leader table of a linear code")

    p = add_instance_cmd("ball", "metric ball around a center")
    p.add_argument("--center", required=True, help="comma-separated coordinates")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument(
        "--count-only",
        action="store_true",
        help="print only the size, counted from the weight spectrum without "
        "enumerating F_q^n (--max-space then caps the DP's states)",
    )

    p = sub.add_parser("construct", help="build a new code from instance files")
    _add_max_space(p)
    p.add_argument(
        "construction",
        choices=["direct-sum", "plotkin", "extend", "puncture", "tensor"],
    )
    p.add_argument("inputs", nargs="+", help="one or two instance files")
    p.add_argument(
        "--order",
        choices=["disjoint", "linear", "cartesian", "lex"],
        help="poset combinator for two-input constructions",
    )
    p.add_argument("--block", type=int, help="block index for puncture")
    p.add_argument("--out", "-o", help="write the resulting instance here (default stdout)")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name, tag, or check id; repeatable (default: all)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=None, help="units per suite (>= 1)")
    p.add_argument(
        "--q",
        type=int,
        choices=[2, 3, 5, 7],
        default=None,
        help="restrict instance generation to one field size",
    )
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (at most the CPU count)"
    )
    p.add_argument("--out", help="write JSONL reports here instead of stdout")
    p.add_argument("--list", action="store_true", help="list suites and exit")
    return ap


def _cmd_instance(args) -> int:
    space, code = load_instance(args.instance).build()
    if args.command == "weight":
        print(space.wpb_weight(parse_vector(args.vector)))
    elif args.command == "distance":
        print(space.wpb_distance(parse_vector(args.u), parse_vector(args.v)))
    elif args.command == "mindist":
        print(code.min_distance())
    elif args.command == "covering-radius":
        print(code.covering_radius())
    elif args.command == "packing-radius":
        print(code.packing_radius())
    elif args.command == "cosets":
        table = code.coset_table()
        print(f"cosets: {len(table.weights)}")
        print(f"max leader weight (covering radius): {table.max_weight}")
        hist = np.bincount(table.weights).tolist()
        print("weight  cosets")
        for w, count in enumerate(hist):
            if count:
                print(f"{w:>6}  {count}")
        if len(table.weights) <= 64:
            print("leaders:")
            for leader, w in zip(table.leaders.tolist(), table.weights.tolist()):
                print(f"  {format_vector(leader)}  (weight {w})")
    elif args.command == "ball":
        center = parse_vector(args.center)
        if args.count_only:
            print(space.ball_size(center, args.radius))
        else:
            for v in space.ball(center, args.radius):
                print(format_vector(v))
    return 0


def _cmd_construct(args) -> int:
    kind = args.construction
    two_input = kind in ("direct-sum", "plotkin", "tensor")
    if two_input and len(args.inputs) != 2:
        print(f"error: {kind} needs two instance files", file=sys.stderr)
        return 2
    if not two_input and len(args.inputs) != 1:
        print(f"error: {kind} needs one instance file", file=sys.stderr)
        return 2

    built = [load_instance(path).build() for path in args.inputs]
    codes = [code for _, code in built]

    if kind in ("direct-sum", "plotkin"):
        result = (direct_sum_code if kind == "direct-sum" else plotkin_code)(
            codes[0], codes[1], args.order or "disjoint"
        )
    elif kind == "tensor":
        result = tensor_code(codes[0], codes[1], args.order or "cartesian")
    elif kind == "extend":
        result = extended_code(codes[0])
    else:  # puncture
        if args.block is None:
            print("error: puncture needs --block", file=sys.stderr)
            return 2
        result = punctured_code(codes[0], args.block)

    text = dumps_instance(Instance.from_parts(result.space, result.code))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for name, suite in REGISTRY.items():
            tags = ",".join(sorted(suite.tags))
            print(f"{name}  (tags: {tags}; {suite.default_trials} units)")
            for check in suite.checks:
                print(f"    {check}")
        return 0
    filters = args.suite if args.suite else ["all"]
    reports = verify_suite(
        filters,
        seed=args.seed,
        trials=args.trials,
        jobs=args.jobs,
        q=args.q,
    )
    lines = (r.line() + "\n" for r in reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    print(summarize(reports), file=sys.stderr)
    return 1 if hard_failures(reports) else 0


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "verify":
            status = _cmd_verify(args)
        else:
            with enumeration_cap(args.max_space):
                status = (_cmd_construct if args.command == "construct" else _cmd_instance)(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader left; not an error of the computation.  Point stdout
        # at /dev/null so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _DOMAIN_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # OutOfRange, SpaceTooLarge, ZeroDivisionError and the rest
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
