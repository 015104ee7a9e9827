"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage, parse or I/O error, 3 internal error: a bug, printed with its
traceback, or a system that theory says is solvable failed to solve.

``main()`` with no argument is the program: after the command it flushes
stdout and stderr and ends the process with ``os._exit``, so the
interpreter does not tear down the modules and tables that the process is
about to drop, and no ``atexit`` handler runs.  ``main(argv)`` and
``run_command(argv)`` return the exit code and leave the process alone.
"""

import argparse
import contextlib
import errno
import os
import sys

from .errors import DocumentError, InconsistentSystem, PreconditionFailed
from .kv import _extend_from, _gr_rank_and_dim, check_kv, check_krv, check_sol_kv, krv_dim
from .lie import bch_xy
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
    """Print ``text``, or put it at ``path``.  A link is resolved first, so
    its target is written and the link kept.  A regular file, or a new
    one, is written atomically: to a new file beside it first, then renamed
    over it.  Any other node that exists, such as a FIFO, is written in
    place, since a rename would replace the node itself."""
    if path is None:
        sys.stdout.write(text)
        return
    real = os.path.realpath(path)
    in_place = os.path.exists(real) and not os.path.isfile(real)
    tmp = real if in_place else f"{real}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not in_place:
            os.replace(tmp, real)
    except OSError as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise DocumentError(f"cannot write {path}: {exc}") from None


class _ClosedStdout:
    """Stands in for ``sys.stdout`` when it is ``None``, as it is when file
    descriptor 1 was closed at start: a write fails as on a closed
    descriptor, and there is never anything to flush."""

    def write(self, text):
        raise OSError(errno.EBADF, "stdout is closed")

    def flush(self):
        pass


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
    # Only exponent terms of degree <= --degree reach the check.
    F = _load(args.infile).to_taut(args.degree)
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
    # The extension checks its input through the log that it carries up.
    F, report = _extend_from(doc.to_taut(), args.to_degree)
    if not report.passed:
        sys.stdout.write(emit_report(report))
        return 1
    # With no step the output is the input, whose check has just passed;
    # otherwise the output is checked again, through a log of its own.
    if args.to_degree > doc.cap:
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
    # A stream is None when its file descriptor was closed at start: output
    # to a closed stdout is an I/O error, and messages to a closed stderr
    # are lost.
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # The commands turn their own file errors into DocumentError, so
        # an OSError that reaches here is a write to stdout.
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # stdout is flushed again before the process ends (by main, or by
        # the interpreter at exit); what it still holds goes nowhere.
        if not isinstance(sys.stdout, _ClosedStdout):
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
    """Run ``argv`` in-process and return the exit code; with no argument,
    run ``sys.argv[1:]`` as the program and end the process (see above)."""
    if argv is not None:
        return run_command(argv)
    code = run_command(sys.argv[1:])
    # A stream is None when its file descriptor was closed at start.
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
