"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every expected value below was either computed with the independent
brute-force route in helpers.py (naive assembly + rightmost-pivot
elimination) before the solvers were written, or is forced trivially by the
definitions.  Tolerances are zero everywhere: all comparisons are exact
rational equality.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import random
import subprocess
import sys

import pytest

from helpers import (a4_injection_mutants, in_map_span, naive_space_dimension,
                     project_onto_maps, random_hom_map, src_env, subspace_eq)
from nhlc import oracle
from nhlc.algebra import HomMap, validate_algebra
from nhlc.builders import build_abelian
from nhlc.delta import (delta_of, inner_centralizer_in_double_derivations,
                        verify_delta_derivation_criterion,
                        verify_delta_homomorphism, verify_delta_residual_laws,
                        verify_delta_well_defined)
from nhlc.errors import HypothesisError
from nhlc.spaces import (candidate_degrees, center, derivation_space,
                         double_derivation_space, inner_space, is_perfect,
                         maps_as_color_algebra,
                         verify_double_derivation_closure, verify_inner_ideal)
from nhlc.triple import (triple_derivation_space,
                         verify_triple_equals_derivations)


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def _flat(space):
    return [m.matrix.flatten() for m in space.maps()]


def _builtins(a4, abelian3, twisted_a4, super_heis, cross3):
    return [abelian3, a4, twisted_a4, super_heis, cross3]


def test_criterion_01_axiom_suite(a4, abelian3, twisted_a4, super_heis,
                                  regraded_a4):
    for A in (abelian3, a4, twisted_a4, super_heis, regraded_a4):
        report = validate_algebra(A)
        assert report.ok, (A.name, report.violations[:2])

    # twenty single-coefficient mutations of the simple algebra: one rational
    # injected off the natural target (pure rescalings stay valid, see
    # test_algebra.test_single_scaling_mutation_is_still_valid)
    mutants = a4_injection_mutants(a4)
    assert len(mutants) == 20
    for mutation, mutant in mutants:
        report = validate_algebra(mutant)
        assert not report.ok, mutation
        assert all(v.witness is not None for v in report.violations)
    _ok("1 axiom suite (5 valid algebras, 20 failing mutations)")


def test_criterion_02_solver_oracle_equivalence(a4, abelian3, twisted_a4,
                                                super_heis, cross3, color_a4,
                                                color_simple4):
    rng = random.Random(20240817)
    # the two colour-signed simple algebras come last, so the maps drawn
    # for the others are unchanged
    builtins = _builtins(a4, abelian3, twisted_a4, super_heis, cross3) + [
        color_a4, color_simple4]
    passing_projections = 0
    outside_failures = 0
    for A in builtins:
        spaces = {"der": derivation_space}
        if A.arity >= 3:
            spaces["dder"] = double_derivation_space
        else:
            spaces["tder"] = triple_derivation_space
        checkers = {"der": oracle.is_derivation,
                    "dder": oracle.is_double_derivation,
                    "tder": oracle.is_triple_derivation}
        for k in (0, 1):
            for I in inner_space(A, k).maps():
                assert oracle.is_derivation(A, I, k + 1)[0], (A.name, "inner", k)
            for kind, build in spaces.items():
                space = build(A, k)
                checker = checkers[kind]
                for D in space.maps():
                    assert checker(A, D, k)[0], (A.name, kind, k)
                span = space.maps()
                for d in candidate_degrees(A):
                    for _ in range(5):
                        raw = random_hom_map(A, d, rng)
                        proj = project_onto_maps(
                            [m for m in span if m.degree == d], raw)
                        assert checker(A, proj, k)[0], (A.name, kind, k, d)
                        passing_projections += 1
                        if not in_map_span(span, raw):
                            assert not checker(A, raw, k)[0], (A.name, kind, k)
                            outside_failures += 1
    assert passing_projections >= 100
    assert outside_failures >= 20
    _ok(f"2 solver/oracle equivalence ({passing_projections} in-span maps "
        f"pass, {outside_failures} outside maps fail)")


def test_criterion_03_pinned_dimensions(a4, abelian3):
    assert derivation_space(a4, 0).dimension() == 6
    assert naive_space_dimension(a4, "der", 0) == 6
    assert subspace_eq(_flat(inner_space(a4, 0)), _flat(derivation_space(a4, 0)))
    assert center(a4) == []
    assert is_perfect(a4)
    assert derivation_space(abelian3, 0).dimension() == 9
    assert naive_space_dimension(abelian3, "der", 0) == 9
    _ok("3 pinned dimensions (Der(A4)=6=Inn, center 0, perfect, Der(abelian)=9)")


def test_criterion_04_closure_theorem(a4, twisted_a4):
    for A in (a4, twisted_a4):
        report = verify_double_derivation_closure(A, 2)
        assert report.ok, (A.name, report.violations[:2])
    _ok("4 double-derivation closure (A4, TWISTED_A4, k_max=2)")


def test_criterion_05_inner_ideal(a4, abelian3):
    assert verify_inner_ideal(a4, 2).ok
    with pytest.raises(HypothesisError):
        verify_inner_ideal(abelian3, 2)
    _ok("5 inner ideal (A4 passes; non-perfect input raises, not passes)")


def test_criterion_06_well_defined_and_residual_laws(a4, twisted_a4):
    for A in (a4, twisted_a4):
        for k in (0, 1):
            for D in double_derivation_space(A, k).maps():
                assert verify_delta_well_defined(A, D, k).ok, (A.name, k)
        assert verify_delta_residual_laws(A, 1).ok, A.name
    # the residual scaling law with explicit arity factor n = 3
    D = double_derivation_space(a4, 0).maps()[0]
    E = HomMap(D.degree, D.matrix - delta_of(a4, D, 0).matrix)
    assert delta_of(a4, E, 0).matrix == E.matrix.scale(-3)
    _ok("6 delta well-defined + residual laws (A4, TWISTED_A4, k_max=1; "
        "scaling factor -3 exact)")


def test_criterion_07_derivation_criterion(a4):
    der = derivation_space(a4, 0)
    dd = double_derivation_space(a4, 0)
    for D in der.maps():
        assert delta_of(a4, D, 0).matrix == D.matrix
    # on this instance the two spaces coincide, so the non-derivation branch
    # is vacuous; assert the equality so the conditional is explicit
    assert subspace_eq(_flat(der), _flat(dd))
    for D in dd.maps():
        if not oracle.is_derivation(a4, D, 0)[0]:
            assert not oracle.is_derivation(a4, delta_of(a4, D, 0), 0)[0]
    assert verify_delta_derivation_criterion(a4, 1).ok
    _ok("7 delta fixes derivations; inner-commutator expansion exact (A4)")


def test_criterion_08_delta_homomorphism(a4):
    report = verify_delta_homomorphism(a4, 1)
    assert report.ok
    _ok("8 delta commutes with color commutators (A4, k+s<=1)")


def test_criterion_09_inner_centralizer_trivial(a4):
    space = inner_centralizer_in_double_derivations(a4, 1)
    assert space.dimension() == 0
    _ok("9 centralizer of inner maps inside double derivations is zero (A4)")


def test_criterion_10_triple_equals_derivations(a4, super_heis):
    for source in (inner_space, derivation_space):
        A2 = maps_as_color_algebra(source(a4, 0))
        report = verify_triple_equals_derivations(A2, 0)
        assert report.ok and report.details["hypothesis_met"]
        assert all(row["equal"] for row in report.details["table"])
    # controls outside the hypotheses: strictness is flagged, not failed
    control = verify_triple_equals_derivations(super_heis, 0)
    assert control.ok and not control.details["hypothesis_met"]
    assert any("strict containment" in n for n in control.notices)
    abelian2 = build_abelian(3, arity=2)
    flat = verify_triple_equals_derivations(abelian2, 0)
    assert flat.ok and not flat.details["hypothesis_met"]
    _ok("10 triple derivations equal derivations on Inn(A4) and Der(A4); "
        "out-of-hypothesis control flagged")


def test_criterion_11_determinism(tmp_path):
    """Byte-identical machine reports across consecutive runs and across
    NHLC_THREADS settings, for every builtin example."""
    names = ["abelian", "a4", "simple-n", "twisted-a4", "super-heis"]
    for name in names:
        path = tmp_path / f"{name}.json"
        emit = subprocess.run([sys.executable, "-m", "nhlc.cli", "example",
                               name, "-o", str(path)], capture_output=True,
                              env=src_env(), timeout=120)
        assert emit.returncode == 0
        outputs = []
        for threads in ("1", "7"):
            proc = subprocess.run(
                [sys.executable, "-m", "nhlc.cli", "verify", "--all",
                 "--k-max", "1", "--json", str(path)],
                capture_output=True, text=True,
                env=src_env(NHLC_THREADS=threads), timeout=120)
            assert proc.returncode == 0, (name, proc.stdout[-500:])
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], name
        json.loads(outputs[0])  # and it is well-formed JSON
    _ok("11 determinism (byte-identical verify reports, thread-independent)")
