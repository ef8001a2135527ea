"""Outside-in tracing of one nhlc process for the benchmark's traced runs.

    python3 perfbench/tracer.py TRACE_OUT cli ARGS...   # an nhlc command
    python3 perfbench/tracer.py TRACE_OUT solve         # solve_pass.py

Wrappers are installed from here, around the public functions of each nhlc
module; no file of the program changes.  A wrapped function is rebound in
every nhlc module that holds it, and methods are patched on their class.
Three kinds of wrapper exist:

- span: records (id, name, start, end, parent, self time, attrs); self time
  is the duration minus the time covered by child spans and timed kernels;
- timed kernel: too frequent for a span; adds its call count and duration
  to aggregates, and its duration to the enclosing span's child time;
- counted kernel: millions of calls per run, so counted and never timed.

Spans and aggregates stay in memory and are written to TRACE_OUT as JSON
when the process ends.  The command's stdout is not touched.
"""

import json
import os
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from nhlc import (algebra, cli, delta, grading, io_json, linalg,  # noqa: E402
                  oracle, spaces, triple)

_clock = time.perf_counter
SPANS = []
COUNTS = defaultdict(int)
TIMES = defaultdict(float)
_stack = []     # frames [span id, child time]
_next_id = [0]


def _cache_size(args):
    return len(args[0]._space_cache)


def _cache_miss(args, before):
    return {"miss": len(args[0]._space_cache) > before}


def _map_source(args):
    return args[1]


def _source_attr(args, source):
    return {"source": source}


def span(name, fn, pre=None, post=None):
    def wrapper(*args, **kwargs):
        sid = _next_id[0]
        _next_id[0] += 1
        parent = _stack[-1][0] if _stack else None
        state = pre(args) if pre else None
        frame = [sid, 0.0]
        _stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            _stack.pop()
            if _stack:
                _stack[-1][1] += t1 - t0
            attrs = post(args, state) if post else None
            SPANS.append((sid, name, t0, t1, parent, t1 - t0 - frame[1], attrs))
    return wrapper


def timed(name, fn, kept_counter=None):
    def wrapper(*args, **kwargs):
        t0 = _clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            if _stack:
                _stack[-1][1] += dt
            COUNTS[name + ".calls"] += 1
            TIMES[name] += dt
        if kept_counter and out:
            COUNTS[kept_counter] += 1
        return out
    return wrapper


def counted(name, fn):
    def wrapper(*args, **kwargs):
        COUNTS[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def counted_memo(name, fn):
    """bracket_basis: also counts the calls that fill the memo."""
    distinct = name + ".distinct"
    calls = name + ".calls"

    def wrapper(self, indices):
        COUNTS[calls] += 1
        if indices not in self._bracket_memo:
            COUNTS[distinct] += 1
        return fn(self, indices)
    return wrapper


# (module, attribute, factory) for module functions, rebound everywhere
FUNCTIONS = [
    (io_json, "load", lambda f: span("io_json.load", f)),
    (algebra, "validate_algebra", lambda f: span("algebra.validate", f)),
    (grading, "validate_bicharacter", lambda f: span("grading.validate_bicharacter", f)),
    (spaces, "derivation_space",
     lambda f: span("spaces.der", f, _cache_size, _cache_miss)),
    (spaces, "double_derivation_space",
     lambda f: span("spaces.dder", f, _cache_size, _cache_miss)),
    (spaces, "inner_space", lambda f: span("spaces.inner", f, _cache_size, _cache_miss)),
    (spaces, "center", lambda f: span("spaces.center", f)),
    (spaces, "is_perfect", lambda f: span("spaces.is_perfect", f)),
    (spaces, "verify_double_derivation_closure", lambda f: span("spaces.closure", f)),
    (spaces, "verify_inner_ideal", lambda f: span("spaces.inner_ideal", f)),
    (spaces, "maps_as_color_algebra", lambda f: span("spaces.map_algebra", f)),
    (linalg, "nullspace", lambda f: span("linalg.nullspace", f)),
    (linalg, "nullspace_of_rows", lambda f: span("linalg.nullspace", f)),
    (linalg, "subspace_contains", lambda f: timed("linalg.membership", f)),
    (linalg, "coords_in_basis", lambda f: timed("linalg.membership", f)),
    (linalg, "solve_particular", lambda f: timed("linalg.solve_particular", f)),
    (oracle, "is_derivation", lambda f: span("oracle.der", f)),
    (oracle, "is_double_derivation", lambda f: span("oracle.dder", f)),
    (delta, "delta_of", lambda f: span("delta.delta_of", f)),
    (delta, "verify_delta_well_defined", lambda f: span("delta.well_defined", f)),
    (delta, "verify_delta_residual_laws", lambda f: span("delta.residual_laws", f)),
    (delta, "verify_delta_derivation_criterion",
     lambda f: span("delta.derivation_criterion", f)),
    (delta, "verify_delta_homomorphism", lambda f: span("delta.homomorphism", f)),
    (delta, "inner_centralizer_in_double_derivations",
     lambda f: span("delta.inner_centralizer", f)),
    (triple, "triple_derivation_space",
     lambda f: span("triple.tder", f, _cache_size, _cache_miss)),
    (triple, "verify_triple_invariance", lambda f: span("triple.invariance", f)),
    (triple, "verify_triple_equals_derivations",
     lambda f: span("triple.equals_derivations", f)),
    (cli, "_build_map_algebra",
     lambda f: span("cli.map_algebra", f, _map_source, _source_attr)),
]

# (class, method, factory) patched on the class
METHODS = [
    (linalg.RowReducer, "add",
     lambda f: timed("linalg.rowreducer.add", f, "linalg.rowreducer.kept")),
    (linalg.RowReducer, "nullspace", lambda f: span("linalg.nullspace", f)),
    (algebra.ColorAlgebra, "bracket", lambda f: counted("algebra.bracket.calls", f)),
    (algebra.ColorAlgebra, "bracket_basis",
     lambda f: counted_memo("algebra.bracket_basis", f)),
    (grading.Bicharacter, "value", lambda f: counted("grading.eps_value.calls", f)),
]


def install():
    """Wrap every listed function and rebind it in each nhlc module that
    holds it; raise if any module still holds an original afterwards."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "nhlc" or name.startswith("nhlc."))]
    originals = []
    for module, attr, factory in FUNCTIONS:
        orig = getattr(module, attr)
        wrapped = factory(orig)
        originals.append(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    for cls, attr, factory in METHODS:
        setattr(cls, attr, factory(vars(cls)[attr]))
    left = [f"{m.__name__}.{key}" for m in modules
            for key, value in vars(m).items()
            if any(value is orig for orig in originals)]
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left}")


def _run(kind, argv):
    if kind == "cli":
        return cli.main(argv)
    import solve_pass
    solve_pass.main()
    return 0


def main():
    out_path, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    install()
    root = span("cli.main" if kind == "cli" else "lib.solve", _run)
    try:
        return root(kind, argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"kind": kind, "argv": argv, "spans": SPANS,
                       "counts": COUNTS, "times": TIMES}, fh)


if __name__ == "__main__":
    sys.exit(main())
