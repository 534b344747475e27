"""Tour of the LP kernel: float and rational solves, duals, dualization.

The program below is deliberately tiny so every number can be checked by
hand:   maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6.
"""

try:
    import poacert  # noqa: F401
except ImportError:  # running from a source checkout without installing
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fractions import Fraction as F

import numpy as np

from poacert import linprog as lp

# one row of coefficients per constraint, then the objective, one column
# per variable
rows = [lp.Row(lp.LE, 4, "capacity"), lp.Row(lp.LE, 6, "budget")]
table = [[1, 1], [1, 3], [3, 2]]

program = lp.LinearProgram(lp.MAXIMIZE, ["x", "y"], rows,
                           np.array(table, dtype=np.float64), name="tiny")


def by_name(program, point):
    """A solve's point is keyed by position, j for program.variables[j]
    (absent means 0); the names are put on at the edge, for printing."""
    return {program.variables[j]: x for j, x in point.items()}


rep = lp.solve(program)
print(f"float solve:    value {rep.value}, point {by_name(program, rep.primal)}")
# one dual per row, in row order; each row's label is put beside its own
duals = ", ".join(f"{row.label} {y}" for row, y in zip(program.rows, rep.duals))
print(f"row duals:      {duals}")

exact = lp.LinearProgram(
    lp.MAXIMIZE,
    ["x", "y"],
    [lp.Row(lp.LE, F(4), "capacity"), lp.Row(lp.LE, F(6), "budget")],
    np.array([[F(c) for c in row] for row in table], dtype=object),
    name="tiny",
)
rex = lp.solve(exact, exact=True)
print(f"rational solve: value {rex.value}, point {by_name(exact, rex.primal)}")

dual = lp.dualize(program)
red = lp.solve(dual)
print(f"\ndual program:   {len(dual.rows)} rows over {len(dual.variables)} variables")
print(f"dual optimum:   {red.value}  (strong duality: equals the primal optimum)")

print("\nfixed-format text export:")
print(lp.to_fixed_format(program))
