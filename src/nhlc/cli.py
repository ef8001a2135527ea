"""Command-line interface: validation, spaces, checks, and theorem verification.

Every subcommand but `example` returns its report, and main alone prints
it (machine JSON with --json, readable text otherwise) and picks the exit
status: 0 on success, 1 when the report has violations or an input is
unusable, 2 on usage errors.  `verify` skips a verifier that raises
HypothesisError (the algebra is outside the hypotheses of its law) with the
error's message as a notice that does not fail the run.  The NHLC_THREADS
variable is validated (an integer >= 1) and has no other effect: execution
is sequential.
"""

import argparse
import json
import os
import sys

from . import delta as delta_mod
from . import io_json, oracle, triple
from . import spaces as spaces_mod
from .algebra import HomMap, distinct_twists
from .builders import BUILTIN_BUILDERS, build_simple_nlie
from .errors import (AlgebraValidationError, ArityError, FormatError,
                     HypothesisError, InvertibilityError, NhlcError,
                     TruncationError)


def _threads():
    raw = os.environ.get("NHLC_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise FormatError(f"NHLC_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise FormatError("NHLC_THREADS must be at least 1")
    return n


def _report(command, algebra, parameters, results, violations, notices):
    return {
        "command": command,
        "algebra": algebra,
        "parameters": parameters,
        "results": results,
        "violations": violations,
        "notices": notices,
    }


def _emit(doc, as_json):
    out = sys.stdout
    if as_json:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    if doc["command"] == "verify" and "checks" in doc["results"]:
        _emit_verify_text(doc, out)
        return
    out.write(f"command: {doc['command']}\n")
    if doc.get("algebra"):
        out.write(f"algebra: {doc['algebra']}\n")
    params = doc.get("parameters") or {}
    if params:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        out.write(f"parameters: {rendered}\n")
    _render_results(doc.get("results"), out)
    for notice in doc.get("notices", []):
        out.write(f"notice: {notice}\n")
    violations = doc.get("violations", [])
    if violations:
        out.write(f"violations ({len(violations)}):\n")
        for v in violations:
            out.write(f"  - {json.dumps(v, sort_keys=True)}\n")
    else:
        out.write("violations: none\n")


def _emit_verify_text(doc, out):
    """One line per check; an error doc of verify keeps the generic form."""
    out.write(f"command: verify\nalgebra: {doc['algebra']}\n"
              f"k_max: {doc['parameters']['k_max']}\n")
    for entry in doc["results"]["checks"]:
        status = entry["status"]
        name = entry["check"]
        if status == "skipped":
            out.write(f"  SKIP {name}: {entry['reason']}\n")
        elif status == "passed":
            out.write(f"  PASS {name}\n")
        else:
            out.write(f"  FAIL {name} ({len(entry['violations'])} violations)\n")
    out.write(f"violations: {len(doc['violations']) or 'none'}\n")


def _render_results(results, out, indent="  "):
    if results is None:
        return
    if isinstance(results, dict):
        for k in results:
            v = results[k]
            if _is_flat_list(v):
                out.write(f"{indent}{k}: {json.dumps(v)}\n")
            elif isinstance(v, (dict, list)):
                out.write(f"{indent}{k}:\n")
                _render_results(v, out, indent + "  ")
            else:
                out.write(f"{indent}{k}: {v}\n")
    elif isinstance(results, list):
        for v in results:
            if _is_flat_list(v):
                out.write(f"{indent}- {json.dumps(v)}\n")
            elif isinstance(v, (dict, list)):
                _render_results(v, out, indent)
                out.write(f"{indent}--\n")
            else:
                out.write(f"{indent}- {v}\n")
    else:
        out.write(f"{indent}{results}\n")


def _is_flat_list(v):
    return isinstance(v, list) and all(
        x is None or isinstance(x, (bool, int, str)) for x in v)


def _space_blocks_json(space, k):
    """The blocks of a space solved at twist power k, labelled k (a solved
    space labels them with the twist class of k)."""
    return [{"kind": space.kind,
             "k": k,
             "degree": list(b.degree.free + b.degree.torsion),
             "dim": len(b.basis),
             "basis": [io_json.matrix_to_grid(m.matrix) for m in b.basis]}
            for b in space.blocks]


def _read_input(path, what, parse):
    """parse(doc) for the JSON document of a map or span file; a missing
    field or a malformed value becomes a FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}")
    except KeyError as exc:
        raise FormatError(f"{what} file has no {exc} field")
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed {what} file: {exc}")


def _load_map(A, path):
    """The map of a map file.  Its degree is inferred from the support of
    the matrix when the file gives none, and the support must agree with it.
    A stated degree must be one a nonzero map can have (candidate_degrees)."""
    def parse(doc):
        degree = doc.get("degree")
        return (io_json.parse_matrix(doc["matrix"]),
                None if degree is None else A.group.from_vector(degree))

    matrix, degree = _read_input(path, "map", parse)
    if matrix.rows != A.dim or matrix.cols != A.dim:
        raise FormatError(f"map matrix must be {A.dim} x {A.dim}")
    if degree is None:
        support = [A.group.sub(A.degrees[j], A.degrees[i])
                   for j in range(A.dim) for i in range(A.dim) if matrix[j][i] != 0]
        degree = support[0] if support else A.group.zero()
    D = HomMap(degree, matrix)
    if not D.respects_blocks(A):
        raise FormatError(f"map support is not homogeneous of degree {degree!r}")
    if degree not in spaces_mod.candidate_degrees(A):   # a zero matrix
        raise FormatError(f"map degree {degree!r} is not a difference of "
                          f"two basis degrees")
    return D


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_example(args):
    name = args.name
    if name == "simple-n":
        A = build_simple_nlie(args.n)
    else:
        A = BUILTIN_BUILDERS[name]()
    text = io_json.dumps(A)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    violations = []
    notices = []
    results = {"valid": False}
    algebra_name = None
    try:
        A = io_json.load(args.file, validate=False)
        algebra_name = A.name
        try:
            report = io_json.check_axioms(A)
        except AlgebraValidationError as exc:
            report = exc.report
        violations = [v.to_json() for v in report.violations]
        notices = list(report.notices)
        results = {"valid": report.ok, "dimension": A.dim, "arity": A.arity}
    except NhlcError as exc:
        violations = [{"check": "load", "witness": None,
                       "expected": "loadable algebra file", "actual": str(exc)}]
    return _report("validate", algebra_name, {"file": args.file},
                   results, violations, notices)


def _cmd_spaces(args):
    A = io_json.load(args.file)
    kind = args.kind
    solve = {"der": spaces_mod.derivation_space,
             "dder": spaces_mod.double_derivation_space,
             "inner": spaces_mod.inner_space}[kind]
    space = solve(A, args.k)
    results = {"blocks": _space_blocks_json(space, args.k),
               "dimension": space.dimension()}
    return _report("spaces", A.name, {"kind": kind, "k": args.k},
                   results, [], [])


def _cmd_center(args):
    A = io_json.load(args.file)
    basis = spaces_mod.center(A)
    results = {"dimension": len(basis),
               "basis": [io_json.vector_to_list(v) for v in basis],
               "perfect": spaces_mod.is_perfect(A)}
    return _report("center", A.name, {}, results, [], [])


def _cmd_centralizer(args):
    A = io_json.load(args.file)
    if args.span:
        vectors = _read_input(args.span, "span", lambda doc: [
            io_json.parse_vector(v) for v in doc["vectors"]])
    else:
        vectors = [A.basis_vector(i) for i in range(A.dim)]
    basis = spaces_mod.centralizer(A, vectors)
    results = {"dimension": len(basis),
               "basis": [io_json.vector_to_list(v) for v in basis]}
    return _report("centralizer", A.name,
                   {"span": args.span or "(whole algebra)"}, results, [], [])


def _cmd_check(args):
    A = io_json.load(args.file)
    D = _load_map(A, args.map)
    check = {"der": oracle.is_derivation,
             "dder": oracle.is_double_derivation,
             "tder": oracle.is_triple_derivation}[args.kind]
    ok, wit = check(A, D, args.k)
    violations = []
    if not ok:
        violations.append({"check": f"oracle-{args.kind}",
                           "witness": repr(wit),
                           "expected": "identity holds pointwise",
                           "actual": "counterexample found"})
    results = {"kind": args.kind, "k": args.k, "ok": ok,
               "witness": repr(wit) if wit else None}
    return _report("check", A.name, {"kind": args.kind, "k": args.k,
                                     "map": args.map},
                   results, violations, [])


def _cmd_delta(args):
    A = io_json.load(args.file)
    D = _load_map(A, args.map)
    dmap = delta_mod.delta_of(A, D, args.k)
    wd = delta_mod.verify_delta_well_defined(A, D, args.k)
    violations = [v.to_json() for v in wd.violations]
    results = {
        "delta_matrix": io_json.matrix_to_grid(dmap.matrix),
        "degree": list(dmap.degree.free + dmap.degree.torsion),
        "well_defined": wd.ok,
        "equal_to_input": dmap.matrix == D.matrix,
    }
    return _report("delta", A.name, {"k": args.k, "map": args.map},
                   results, violations, list(wd.notices))


def _build_map_algebra(A, source, k_max):
    """Binary algebra of a computed map space (inn/der/dder union)."""
    kind = {"inn": "inner", "der": "der", "dder": "dder"}[source]
    return spaces_mod.maps_as_color_algebra(
        spaces_mod.union_space(A, kind, k_max))


def _cmd_tder(args):
    A = io_json.load(args.file)
    source = args.source
    if source == "self" or (source is None and A.arity == 2):
        A2 = A
        if A2.arity != 2:
            raise ArityError("tder on the algebra itself needs arity 2")
    else:
        A2 = _build_map_algebra(A, source or "der", args.k_max)
    blocks = []
    for k in distinct_twists(A2, args.k_max):
        space = triple.triple_derivation_space(A2, k)
        blocks.extend(_space_blocks_json(space, k))
    results = {"algebra2": A2.name, "blocks": blocks}
    return _report("tder", A.name,
                   {"source": source or ("self" if A2 is A else "der"),
                    "k_max": args.k_max},
                   results, [], [])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _run_verify(A, k_max, triple_only):
    """Run every applicable verifier; returns (results, violations, notices).

    The axioms are checked first, once: an algebra that fails them raises
    AlgebraValidationError, as loading it with validation would."""
    results = []
    violations = []
    notices = []

    def record(name, verifier):
        entry = {"check": name}
        results.append(entry)
        try:
            report = verifier(A, k_max)
        except (TruncationError, AlgebraValidationError, HypothesisError,
                InvertibilityError) as exc:
            entry["status"] = "skipped"
            entry["reason"] = str(exc)
            notices.append(f"{name}: skipped ({exc})")
            return
        entry["status"] = "passed" if report.ok else "violated"
        entry["violations"] = [v.to_json() for v in report.violations]
        entry["notices"] = list(report.notices)
        if report.details:
            entry["details"] = json.loads(json.dumps(
                report.details, default=str, sort_keys=True))
        for v in report.violations:
            doc = v.to_json()
            doc["check"] = f"{name}:{doc['check']}"
            violations.append(doc)
        notices.extend(f"{name}: {n}" for n in report.notices)

    axioms = io_json.check_axioms(A)
    if not triple_only:
        record("axioms", lambda A, k_max: axioms)

    def triple_equals(source, *hypotheses):
        def verifier(A, k_max):
            spaces_mod.require(A, k_max, *hypotheses)
            return triple.verify_triple_equals_derivations(
                _build_map_algebra(A, source, k_max), k_max)
        return verifier

    # (name, verifier(A, k_max), runs under --triple); a verifier that
    # raises HypothesisError is skipped with the error's message
    table = [
        ("double-derivation-closure",
         spaces_mod.verify_double_derivation_closure, False),
        ("inner-ideal", spaces_mod.verify_inner_ideal, False),
        ("delta-well-defined", delta_mod.verify_delta_well_defined_all, False),
        ("delta-residual-laws", delta_mod.verify_delta_residual_laws, False),
        ("delta-derivation-criterion",
         delta_mod.verify_delta_derivation_criterion, False),
        ("delta-commutator-homomorphism", delta_mod.verify_delta_homomorphism,
         False),
        ("inner-centralizer-trivial",
         delta_mod.verify_inner_centralizer_trivial, False),
        ("triple-invariance", triple.verify_triple_invariance, True),
        ("triple-equals-derivations[Inn]",
         triple_equals("inn", "perfect", "centerless", "inner"), True),
        ("triple-equals-derivations[Der]",
         triple_equals("der", "perfect", "centerless"), True),
    ]
    for name, verifier, in_triple in table:
        if in_triple or not triple_only:
            record(name, verifier)
    return results, violations, notices


def _cmd_verify(args):
    A = io_json.load(args.file, validate=False)
    triple_only = args.triple and not args.all
    results, violations, notices = _run_verify(A, args.k_max, triple_only)
    return _report("verify", A.name,
                   {"k_max": args.k_max,
                    "mode": "triple" if triple_only else "all"},
                   {"checks": results}, violations, notices)


# ---------------------------------------------------------------------------

def nonnegative_int(text):
    """argparse type of --k-max: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="nhlc",
        description="exact computations with n-ary Hom-Lie color algebras")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("example", help="emit a builtin algebra file")
    sp.add_argument("name", choices=sorted(BUILTIN_BUILDERS))
    sp.add_argument("--n", type=int, default=2,
                    help="arity for simple-n (default 2)")
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=_cmd_example)

    sp = sub.add_parser("validate", help="validate an algebra file")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("spaces", help="derivation-type spaces")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=["der", "dder", "inner"], required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_spaces)

    sp = sub.add_parser("center", help="center of the algebra")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_center)

    sp = sub.add_parser("centralizer", help="centralizer of a subspace")
    sp.add_argument("file")
    sp.add_argument("--span", help="JSON file {\"vectors\": [[...]]}")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_centralizer)

    sp = sub.add_parser("check", help="pointwise oracle check of a map")
    sp.add_argument("file")
    sp.add_argument("--kind", choices=["der", "dder", "tder"], required=True)
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--map", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("delta", help="induced double derivation of a map")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, default=0)
    sp.add_argument("--map", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_delta)

    sp = sub.add_parser("tder", help="triple derivations of a map algebra")
    sp.add_argument("file")
    sp.add_argument("--source", choices=["self", "inn", "der", "dder"])
    sp.add_argument("--k-max", type=nonnegative_int, default=2, dest="k_max")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_tder)

    sp = sub.add_parser("verify", help="run the applicable theorem verifiers")
    sp.add_argument("file")
    sp.add_argument("--all", action="store_true", default=False)
    sp.add_argument("--triple", action="store_true", default=False)
    sp.add_argument("--k-max", type=nonnegative_int, default=2, dest="k_max")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv=None):
    """Run one subcommand; print its report (or the error report of an
    NhlcError) and return 1 exactly when the report has violations."""
    args = build_parser().parse_args(argv)
    try:
        _threads()
        doc = args.fn(args)
    except NhlcError as exc:
        violations = ([v.to_json() for v in exc.report.violations]
                      if isinstance(exc, AlgebraValidationError) else
                      [{"check": "error", "witness": None,
                        "expected": None, "actual": str(exc)}])
        doc = _report(args.command, None, {}, {"error": str(exc)},
                      violations, [])
    if doc is None:
        return 0
    _emit(doc, getattr(args, "json", False))
    return 1 if doc["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
