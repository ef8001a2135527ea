"""The hypotheses of the verified laws are checked in one place,
spaces.require: a verifier run on an algebra outside its hypotheses raises
HypothesisError, and `nhlc verify` prints the error's message as the
check's skip reason."""

import pytest

from nhlc.algebra import validate_algebra
from nhlc.cli import _run_verify
from nhlc.delta import (verify_delta_derivation_criterion,
                        verify_delta_homomorphism, verify_delta_residual_laws,
                        verify_delta_well_defined_all,
                        verify_inner_centralizer_trivial)
from nhlc.errors import HypothesisError
from nhlc.spaces import (center, is_perfect, require,
                         verify_double_derivation_closure, verify_inner_ideal)
from nhlc.triple import verify_triple_invariance

ARITY = "arity < 3"
PERFECT = "algebra is not perfect"
CENTER = "algebra has nonzero center"
INNER = "no nonzero inner maps (no twist-fixed points)"

# (check as `nhlc verify` names it, library verifier, fixture, skip reason);
# the triple-equals checks have no library verifier of their own: the CLI
# checks the hypotheses on A before it builds the map algebra
CASES = [
    ("double-derivation-closure", verify_double_derivation_closure,
     "super_heis", ARITY),
    ("inner-ideal", verify_inner_ideal, "abelian3", PERFECT),
    ("delta-well-defined", verify_delta_well_defined_all, "super_heis", ARITY),
    ("delta-residual-laws", verify_delta_residual_laws, "abelian3", PERFECT),
    ("delta-derivation-criterion", verify_delta_derivation_criterion,
     "abelian3", PERFECT),
    ("delta-commutator-homomorphism", verify_delta_homomorphism, "cross3",
     ARITY),
    ("inner-centralizer-trivial", verify_inner_centralizer_trivial,
     "twisted_a4", INNER),
    ("triple-invariance", verify_triple_invariance, "twisted_a4", INNER),
    ("triple-equals-derivations[Inn]", None, "sl2_heis3", CENTER),
    ("triple-equals-derivations[Der]", None, "super_heis", PERFECT),
]

_verify_results = {}


def _cli_entry(A, check):
    if A.name not in _verify_results:
        _verify_results[A.name] = _run_verify(A, 1, False)[0]
    return next(e for e in _verify_results[A.name] if e["check"] == check)


@pytest.mark.parametrize("check, verifier, fixture, reason", CASES,
                         ids=[c[0] for c in CASES])
def test_verifier_raises_the_skip_reason(check, verifier, fixture, reason,
                                         request):
    A = request.getfixturevalue(fixture)
    if verifier is not None:
        with pytest.raises(HypothesisError) as exc:
            verifier(A, 1)
        assert str(exc.value) == reason
    assert _cli_entry(A, check) == {"check": check, "status": "skipped",
                                    "reason": reason}


def test_require_reports_the_first_failure_in_order(super_heis, sl2_heis3, a4):
    with pytest.raises(HypothesisError, match=f"^{ARITY}$"):
        require(super_heis, 1, "arity", "perfect")
    with pytest.raises(HypothesisError, match=f"^{PERFECT}$"):
        require(super_heis, 1, "perfect", "arity")
    with pytest.raises(HypothesisError, match=f"^{CENTER}$"):
        require(sl2_heis3, 1, "perfect", "centerless", "inner")
    require(a4, 1, "arity", "perfect", "centerless", "inner")
    require(super_heis, 1)


def test_sl2_heis3_is_perfect_with_center_z(sl2_heis3):
    A = sl2_heis3
    assert validate_algebra(A).ok
    assert is_perfect(A)
    assert center(A) == [list(A.basis_vector(5))]
