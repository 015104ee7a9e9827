"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage, parse or I/O error, 3 internal error: a bug, printed with its
traceback, or a system that theory says is solvable failed to solve.
"""

import argparse
import contextlib
import os
import sys

from .errors import DocumentError, InconsistentSystem, PreconditionFailed
from .kv import _extend_from, _gr_rank_and_dim, check_kv, check_krv, check_sol_kv, krv_dim
from .lie import LieElt, bch_xy
from .tangential import TAutElt
from .words import lyndon_words

DEGREE_GUARD = 12

_CHECKERS = {"SolKV": check_sol_kv, "KV": check_kv, "KRV": check_krv}


def emit_report(report):
    """Stable line-oriented rendering of a check report."""
    lines = []
    for word, c in report.eq1_defect.sorted_terms():
        lines.append(f"defect {word} {c}")
    if report.duflo_residual is not None:
        for word, c in report.duflo_residual.sorted_terms():
            lines.append(f"residual {word} {c}")
    else:
        for k, c in report.duflo.sorted_terms():
            lines.append(f"r_{k} {c}")
    lines.append("PASS" if report.passed else "FAIL")
    return "\n".join(lines) + "\n"


def _guard_degree(n, allow_large, what="degree"):
    if n < 1:
        raise DocumentError(f"{what} must be >= 1")
    if n > DEGREE_GUARD and not allow_large:
        raise DocumentError(
            f"{what} {n} exceeds the guard ({DEGREE_GUARD}); pass --allow-large "
            "to override"
        )


def _load(path):
    # Imported here, so that dims and bch never load the document layer.
    from .documents import parse_document

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from None
    return parse_document(text)


def _write_output(text, path):
    """Print ``text``, or put it at ``path`` atomically: it is written to a
    new file beside ``path`` first and then renamed over it."""
    if path is None:
        sys.stdout.write(text)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise DocumentError(f"cannot write {path}: {exc}") from None


def _cmd_bch(args):
    _guard_degree(args.degree, args.allow_large)
    series = bch_xy(args.degree)
    for word, c in series.sorted_terms():
        print(f"{word} {c}")
    return 0


def _cmd_dims(args):
    _guard_degree(args.max_degree, args.allow_large)
    print("n lie krv")
    for n in range(1, args.max_degree + 1):
        d, _ = krv_dim(n)
        print(f"{n} {len(lyndon_words(n))} {d}")
    return 0


def _cmd_verify(args):
    _guard_degree(args.degree, args.allow_large)
    doc = _load(args.infile)
    # Only exponent terms of degree <= --degree reach the check, so the
    # exponents are normalised at that cap, not at the document's.
    cap = min(args.degree, doc.cap)
    F = TAutElt(LieElt(cap, doc.f1), LieElt(cap, doc.f2))
    if args.degree > cap:
        # The exponents define an automorphism at any cap; check the
        # zero extension when asked beyond the stored degree.
        F = F.with_cap(args.degree)
    report = _CHECKERS[args.variant](F, args.degree)
    sys.stdout.write(emit_report(report))
    return 0 if report.passed else 1


def _cmd_extend(args):
    _guard_degree(args.to_degree, args.allow_large)
    doc = _load(args.infile)
    if doc.variant != "SolKV":
        raise DocumentError("extend requires a SolKV document", "variant")
    if args.to_degree < doc.cap:
        raise DocumentError("target degree is below the document cap")
    F = doc.to_taut()
    report = check_sol_kv(F, doc.cap)
    if not report.passed:
        sys.stdout.write(emit_report(report))
        return 1
    # With no step the output is the input, whose check has just passed.
    if args.to_degree > doc.cap:
        F = _extend_from(F, args.to_degree)
        report = check_sol_kv(F, args.to_degree)
        if not report.passed:
            raise InconsistentSystem(f"extension fails its degree-{args.to_degree} check")
    # Imported here, so that dims and bch never load the document layer.
    from .documents import SolutionDocument, emit_document

    out = SolutionDocument.from_taut(F, "SolKV", report.duflo)
    _write_output(emit_document(out), args.out)
    return 0


def _cmd_seed(args):
    # Imported here, so that dims and bch never load the document layer.
    from .documents import emit_document, identity_document

    _write_output(emit_document(identity_document()), args.out)
    return 0


def _cmd_gr_test(args):
    _guard_degree(args.degree, args.allow_large)
    doc = _load(args.infile)
    # The transport is checked at the document's own cap, so guard it too.
    _guard_degree(doc.cap, args.allow_large, "document cap")
    F = doc.to_taut()
    r, d = _gr_rank_and_dim(F, args.degree)
    print(f"gr_rank {args.degree} = {r}")
    print(f"krv_dim {args.degree} = {d}")
    print("EQUAL" if r == d else "UNEQUAL")
    return 0 if r == d else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kvtower",
        description="Exact degree-by-degree computation with the "
        "Kashiwara-Vergne equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bch", help="print the BCH series in the Lyndon basis")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_bch)

    p = sub.add_parser("dims", help="table of graded dimensions")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("verify", help="run an equation-system check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--variant", choices=sorted(_CHECKERS), required=True)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extend", help="extend a solution degree by degree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to-degree", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("seed", help="write the identity degree-1 solution")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_seed)

    p = sub.add_parser("gr-test", help="compare transported leading ranks "
                       "with the graded dimension")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_gr_test)

    return parser


def run_command(argv):
    """Dispatch one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # The interpreter flushes stdout again at exit; that write goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (DocumentError, PreconditionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistentSystem as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # Imported here: it would add about 5 ms to every start-up.
        import traceback
        traceback.print_exc()
        return 3


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
