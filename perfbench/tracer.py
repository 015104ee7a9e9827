"""Traced run of one kvtower CLI job, and the span arithmetic behind it.

As a script this is a drop-in for the ``kvtower`` console script:

    python3 perfbench/tracer.py SPANS_OUT <kvtower arguments...>

It wraps the public functions listed in ``TRACED`` from outside the
library, runs ``kvtower.cli.run_command`` as the root span, and writes
the spans plus a few read-only counters to ``SPANS_OUT`` as JSON when the
job ends.  The exit code is the CLI's.

Nothing in ``src/`` knows about the tracer.  Because the library imports
names with ``from .x import y``, one function object can be bound in
several module namespaces (and in module-level dispatch dicts such as the
CLI's checker table); every such binding is replaced with the wrapper.
Class methods are wrapped on their class.
"""

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (module, attribute path) of every wrapped callable; the metric name is
# "<module>.<path with dunders stripped>", e.g. "assoc.AssocElt.init".
TRACED = (
    ("tangential", "jacobian"),
    ("tangential", "cyc_tder_act"),
    ("tangential", "taut_log"),
    ("tangential", "taut_exp"),
    ("tangential", "taut_apply"),
    ("tangential", "divergence"),
    ("assoc", "AssocElt.__init__"),
    ("assoc", "AssocElt.__add__"),
    ("assoc", "AssocElt.__mul__"),
    ("assoc", "assoc_exp"),
    ("assoc", "assoc_log"),
    ("lie", "LieElt.__init__"),
    ("lie", "LieElt.__add__"),
    ("lie", "lie_bracket"),
    ("lie", "lie_to_assoc"),
    ("lie", "lie_from_assoc"),
    ("lie", "bch"),
    ("cyclic", "trace"),
    ("cyclic", "duflo_pattern"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_linear"),
    ("kv", "krv_dim"),
    ("kv", "extend_solkv_step"),
    ("kv", "check_sol_kv"),
    ("kv", "solve_duflo"),
    ("documents", "parse_document"),
    ("documents", "emit_document"),
    ("words", "lyndon_words"),
    ("words", "necklaces"),
)
ROOT_SPAN = "cli.run_command"
MODULES = ("cli", "documents", "kv", "tangential", "linalg", "lie", "cyclic", "assoc", "words")
LINALG_SYSTEMS = ("linalg.kernel_basis", "linalg.solve_linear")

# Module globals whose entry count is reported as cache.<key>.
CACHES = {
    "expansion": "_EXPANSION",
    "bracket": "_BRACKET",
    "bch_xy": "_BCH_XY",
    "ad_solvers": "_AD_SOLVERS",
}


def metric_name(module, path):
    return module + "." + ".".join(part.strip("_") for part in path.split("."))


class Recorder:
    """Spans as ``[name, start_ns, end_ns, parent_index]`` lists, kept in
    memory until the job ends, plus the shapes of the linear systems."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.systems = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if name in LINALG_SYSTEMS:
                self.systems.append(_system_shape(args[0], result))
            return result

        return traced


def _system_shape(matrix, result):
    """(rows, cols, nonzeros, kernel dimension) read off the argument and
    the result without touching library state; -1 where unreadable."""
    kernel = getattr(result, "kernel_basis", result)
    entries = getattr(matrix, "entries", None)
    return (
        getattr(matrix, "rows", -1),
        getattr(matrix, "cols", -1),
        len(entries) if entries is not None else -1,
        len(kernel) if isinstance(kernel, list) else -1,
    )


def _kvtower_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kvtower" or name.startswith("kvtower."))]


def install(recorder):
    """Replace every binding of each traced callable with its wrapper."""
    modules = _kvtower_modules()
    for module, path in TRACED:
        owner = importlib.import_module("kvtower." + module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapped = recorder.wrap(metric_name(module, path), original)
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped


def cache_sizes():
    """Entry count of each cache global found in any kvtower module;
    ``None`` when no module defines it."""
    out = {}
    modules = _kvtower_modules()
    for key, attr in CACHES.items():
        found = [vars(m)[attr] for m in modules if attr in vars(m)]
        out[key] = len(found[0]) if found else None
    return out


def span_times(spans):
    """Per span name: ``[calls, self_ns, total_ns]``.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it.  Total time is inclusive and counts
    only spans with no ancestor of the same name, so recursion is not
    counted twice.  Spans are in entry order, so every parent precedes
    its children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    stack, open_names = [], {}
    for i, (name, start, end, parent) in enumerate(spans):
        while stack and stack[-1] != parent:
            closed = spans[stack.pop()][0]
            open_names[closed] -= 1
        entry = out.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[i]
        if not open_names.get(name):
            entry[2] += end - start
        open_names[name] = open_names.get(name, 0) + 1
        stack.append(i)
    return out


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    import kvtower.cli as cli

    recorder = Recorder()
    install(recorder)
    run = recorder.wrap(ROOT_SPAN, cli.run_command)
    code = run(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans, "systems": recorder.systems,
                   "caches": cache_sizes()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
