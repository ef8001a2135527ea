"""Input files of the benchmark, written as nhlc algebra JSON.

Only the file format is used here, not the nhlc library, so a change in the
program cannot change the inputs it is measured on.  Every rational is an
exact Fraction and is written as "p/q" (bare "p" for integers).
"""

import json
from fractions import Fraction


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _grid(m):
    return [[fmt(x) for x in row] for row in m]


def _identity(n, scale=1):
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def _untwisted_doc(name, n, brackets):
    dim = n + 1
    return {
        "name": name, "arity": n,
        "group": {"free_rank": 0, "torsion": []},
        "bicharacter": [],
        "basis": [{"name": f"e{i + 1}", "degree": []} for i in range(dim)],
        "alpha": _grid(_identity(dim)),
        "brackets": brackets,
    }


def simple_nlie(n):
    """The (n+1)-dimensional simple n-Lie algebra: dropping e_i from
    (e_1, ..., e_{n+1}) brackets to (-1)^(n+1+i) e_i."""
    dim = n + 1
    brackets = []
    for i in range(dim, 0, -1):
        args = [j for j in range(dim) if j != i - 1]
        brackets.append({"args": args, "value": {str(i - 1): fmt((-1) ** (n + 1 + i))}})
    name = "A4" if n == 3 else f"SIMPLE_{dim}D_{n}LIE"
    return _untwisted_doc(name, n, brackets)


def twisted_a4():
    """A4 twisted by -id: every bracket negated, alpha = -id."""
    doc = simple_nlie(3)
    doc["name"] = "TWISTED_A4"
    doc["alpha"] = _grid(_identity(4, -1))
    for entry in doc["brackets"]:
        entry["value"] = {j: fmt(-Fraction(c)) for j, c in entry["value"].items()}
    return doc


def color_heis3():
    """Ternary colour Heisenberg algebra: odd x1, x2 with [x1,x1,y] =
    [x2,x2,y] = z over Z/2 with eps = -1."""
    return {
        "name": "COLOR_HEIS3", "arity": 3,
        "group": {"free_rank": 0, "torsion": [2]},
        "bicharacter": [["-1"]],
        "basis": [{"name": "x1", "degree": [1]}, {"name": "x2", "degree": [1]},
                  {"name": "y", "degree": [0]}, {"name": "z", "degree": [0]}],
        "alpha": _grid(_identity(4)),
        "brackets": [{"args": [0, 0, 2], "value": {"3": "1"}},
                     {"args": [1, 1, 2], "value": {"3": "1"}}],
    }


def dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
