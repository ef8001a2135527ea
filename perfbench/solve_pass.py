"""One library pass of the solve workload, printed as canonical JSON.

Builds the simple 4-Lie and 5-Lie algebras (no validation) and solves their
center, Der^0 and Inn^0, plus DDer^0 of the 4-Lie algebra.  Only assembly
and elimination run: neither the oracle nor the Jacobi sweep is reached.

    python3 perfbench/solve_pass.py           # print the solved bases
    python3 perfbench/solve_pass.py --setup   # import and build only
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from nhlc import spaces  # noqa: E402
from nhlc.builders import build_simple_nlie  # noqa: E402

ARITIES = (4, 5)
DDER_ARITIES = (4,)


def _vector(v):
    return [str(x) for x in v]


def _space(space):
    return [{"k": b.k, "degree": list(b.degree.free + b.degree.torsion),
             "basis": [[_vector(row) for row in m.matrix.data] for m in b.basis]}
            for b in space.blocks]


def main(setup_only=False):
    algebras = [build_simple_nlie(n) for n in ARITIES]
    if setup_only:
        return
    out = {}
    for A in algebras:
        entry = {"center": [_vector(v) for v in spaces.center(A)],
                 "der": _space(spaces.derivation_space(A, 0)),
                 "inner": _space(spaces.inner_space(A, 0))}
        if A.arity in DDER_ARITIES:
            entry["dder"] = _space(spaces.double_derivation_space(A, 0))
        out[A.name] = entry
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(setup_only="--setup" in sys.argv[1:])
