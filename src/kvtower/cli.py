"""Command-line interface.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage, parse or I/O error, 3 internal error: a bug, printed with its
traceback, or a system that theory says is solvable failed to solve.
Every error line and traceback goes through one writer, ``_error``, which
drops what cannot be written, so a full or closed stderr never changes
the exit code.

A plain command line, ``COMMAND (--option VALUE | --flag)...`` with
every option spelled in full and given at most once, is read by
``_read_args`` from the table ``_COMMANDS``, without importing argparse.
Any other argv falls back to ``build_parser()``, an argparse parser built
from the same table, which reads it as before and writes every help
text and usage error; the two readings of an argv that both accept are
the same.

Every ``int`` option in ``_COMMANDS`` is a degree, so ``run_command``
guards each one, once, before it calls the command: it must be at least
1, and at most ``DEGREE_GUARD`` unless ``--allow-large`` is given.
``gr-test`` also guards the cap of the document it reads.

``run_command(argv)`` runs one command in-process and returns its exit
code.  It flushes stdout after every outcome, so a failed write to stdout
is reported by its one handler: one ``error: cannot write stdout`` line
and exit code 2.  ``main()`` is the program: it runs ``sys.argv[1:]``,
flushes stderr and ends the process with ``os._exit``, so the interpreter
does not tear down the modules and tables that the process is about to
drop, and no ``atexit`` handler runs.
"""

import contextlib
import errno
import os
import sys
from types import SimpleNamespace

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
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None
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
        # The path given, not the temporary file, and the system's reason.
        raise DocumentError(f"cannot write {path}: {exc.strerror or exc}") from None


def _error(text):
    """Write ``text`` to stderr at once.  A message that cannot be written
    is dropped, so that a full or closed stderr never changes the exit
    code that the message explains."""
    with contextlib.suppress(OSError):
        sys.stderr.write(text)
        sys.stderr.flush()


class _ClosedStdout:
    """Stands in for ``sys.stdout`` when it is ``None``, as it is when file
    descriptor 1 was closed at start: a write fails as on a closed
    descriptor, and there is never anything to flush."""

    def write(self, text):
        raise OSError(errno.EBADF, "stdout is closed")

    def flush(self):
        pass


def _cmd_bch(args):
    series = bch_xy(args.degree)
    for word, c in series.sorted_terms():
        print(f"{word} {c}")
    return 0


def _cmd_dims(args):
    print("n lie krv")
    for n in range(1, args.max_degree + 1):
        d, _ = krv_dim(n)
        print(f"{n} {len(lyndon_words(n))} {d}")
    return 0


def _cmd_verify(args):
    # Only exponent terms of degree <= --degree reach the check.
    F = _load(args.infile).to_taut(args.degree)
    report = _CHECKERS[args.variant](F, args.degree)
    sys.stdout.write(emit_report(report))
    return 0 if report.passed else 1


def _cmd_extend(args):
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
    doc = _load(args.infile)
    # The transport is checked at the document's own cap, so guard it too.
    _guard_degree(doc.cap, args.allow_large, "document cap")
    F = doc.to_taut()
    r, d = _gr_rank_and_dim(F, args.degree)
    print(f"gr_rank {args.degree} = {r}")
    print(f"krv_dim {args.degree} = {d}")
    print("EQUAL" if r == d else "UNEQUAL")
    return 0 if r == d else 1


# Each command once: its handler, its help line and its options in order.
# An option is (flag, dest, kind, required), where kind is int, str, a
# tuple of the values allowed, or None for a store-true flag.
_ALLOW_LARGE = ("--allow-large", "allow_large", None, False)
_COMMANDS = {
    "bch": (_cmd_bch, "print the BCH series in the Lyndon basis", (
        ("--degree", "degree", int, True),
        _ALLOW_LARGE,
    )),
    "dims": (_cmd_dims, "table of graded dimensions", (
        ("--max-degree", "max_degree", int, True),
        _ALLOW_LARGE,
    )),
    "verify": (_cmd_verify, "run an equation-system check", (
        ("--in", "infile", str, True),
        ("--degree", "degree", int, True),
        ("--variant", "variant", tuple(sorted(_CHECKERS)), True),
        _ALLOW_LARGE,
    )),
    "extend": (_cmd_extend, "extend a solution degree by degree", (
        ("--in", "infile", str, True),
        ("--to-degree", "to_degree", int, True),
        ("--out", "out", str, False),
        _ALLOW_LARGE,
    )),
    "seed": (_cmd_seed, "write the identity degree-1 solution", (
        ("--out", "out", str, False),
    )),
    "gr-test": (_cmd_gr_test, "compare transported leading ranks with the graded dimension", (
        ("--in", "infile", str, True),
        ("--degree", "degree", int, True),
        _ALLOW_LARGE,
    )),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``: the reference reading of every
    argv, and the source of every help text and usage error."""
    # Imported here: a plain command line never needs it (see _read_args).
    import argparse

    parser = argparse.ArgumentParser(
        prog="kvtower",
        description="Exact degree-by-degree computation with the "
        "Kashiwara-Vergne equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, dest, kind, required in options:
            if kind is None:
                p.add_argument(flag, dest=dest, action="store_true")
            else:
                p.add_argument(flag, dest=dest, required=required,
                               type=int if kind is int else None,
                               choices=kind if isinstance(kind, tuple) else None)
        p.set_defaults(func=func)
    return parser


def _read_args(argv):
    """The attributes that ``build_parser().parse_args(argv)`` sets, when
    ``argv`` has the plain form ``COMMAND (--option VALUE | --flag)...``:
    every option spelled in full and given at most once, no value that
    starts with ``-``, every ``int`` value read by ``int()`` as argparse
    reads it, every choice allowed and every required option present.
    ``None`` for any other argv: help, usage errors, abbreviations,
    ``--opt=value``, repeats, negative numbers and ``--`` are argparse's."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    values = {dest: False if kind is None else None for _, dest, kind, _ in options}
    unread = {option[0]: option for option in options}
    words = iter(argv[1:])
    for word in words:
        option = unread.pop(word, None)  # so a repeated option is None
        if option is None:
            return None
        _, dest, kind, _ = option
        if kind is None:
            values[dest] = True
            continue
        value = next(words, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if any(required for *_, required in unread.values()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def _dispatch(argv):
    """Read ``argv`` and run its command; returns the exit code.  Every
    error is reported here, except an ``OSError``, a failed write to
    stdout, which :func:`run_command` reports."""
    args = _read_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        # Every int option is a degree, guarded before the command runs.
        for _, dest, kind, _ in _COMMANDS[args.command][2]:
            if kind is int:
                _guard_degree(getattr(args, dest), args.allow_large)
        return args.func(args)
    except OSError:
        raise
    except (DocumentError, PreconditionFailed) as exc:
        _error(f"error: {exc}\n")
        return 2
    except InconsistentSystem as exc:
        _error(f"internal inconsistency: {exc}\n")
        return 3
    except Exception:
        # Imported here: it would add about 5 ms to every start-up.
        import traceback
        _error(traceback.format_exc())
        return 3


def run_command(argv):
    """Dispatch one invocation and flush stdout; returns the process exit
    code."""
    # A stream is None when its file descriptor was closed at start: output
    # to a closed stdout is an I/O error, and messages to a closed stderr
    # are lost.
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # The commands turn their own file errors into DocumentError, so
        # an OSError that reaches here is a write to stdout: a command's,
        # or the flush after any outcome, which also writes help text.
        _error(f"error: cannot write stdout: {exc}\n")
        # What stdout still holds goes nowhere when the interpreter flushes
        # it at exit.
        if not isinstance(sys.stdout, _ClosedStdout):
            fd = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(fd, sys.stdout.fileno())
            finally:
                os.close(fd)
        return 2


def main():
    """The program: run ``sys.argv[1:]``, then end the process (see above)."""
    code = run_command(sys.argv[1:])
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
