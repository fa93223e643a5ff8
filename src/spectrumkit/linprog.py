"""Linear programs with row duals: HiGHS through scipy for the cover LPs, and
an in-package simplex for the small LPs whose slack basis is feasible.

``solve_lp`` runs HiGHS (Huangfu & Hall, "Parallelizing the dual revised
simplex method", 2018), which is deterministic for a fixed input; the
fractional cover LPs of ``hypergraphs`` use it.  scipy is imported on the
first solve, not with this module, because ``scipy.optimize`` takes about
half a second to import and adds about 50 MB to the process.
``slack_simplex`` solves max c.x subject to g x <= h, x >= 0 with h >= 0 in
numpy: the inf-norm and l1 support programs and the Kelley master LPs of
the slice rank and the asymptotic cover (``optim.kelley_master``) go
through it, so the commands that need no cover LP never import scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LEQ = "<="
EQ = "="
GEQ = ">="


class LpError(RuntimeError):
    pass


class LpInfeasible(LpError):
    """The constraint system has no feasible point."""


class LpUnbounded(LpError):
    """The objective is unbounded below on the feasible region."""


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  A x (sense_i) b  and  x >= 0.

    ``senses`` holds one of ``"<=", "=", ">="`` per row.  Nonnegativity is
    the only variable bound; callers model other bounds with extra rows.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.atleast_2d(np.asarray(self.lhs, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        if a.shape != (b.size, c.size):
            raise ValueError(f"inconsistent LP shapes: A {a.shape}, b {b.size}, c {c.size}")
        if len(self.senses) != b.size:
            raise ValueError("one sense per row required")
        if any(s not in (LEQ, EQ, GEQ) for s in self.senses):
            raise ValueError(f"unknown row sense in {self.senses}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "senses", tuple(self.senses))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective.tolist(),
            "lhs": self.lhs.tolist(),
            "senses": list(self.senses),
            "rhs": self.rhs.tolist(),
        }


@dataclass(frozen=True)
class LpSolution:
    value: float
    x: np.ndarray
    y: np.ndarray  # row duals: value == b.y, sign convention y_i >= 0 for ">=" rows
    iterations: int


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve with HiGHS.  Returns optimal value, primal x, and row duals y.

    The duals satisfy strong duality ``b.y == value`` and the usual sign
    convention for a minimization: ``y_i >= 0`` on ``>=`` rows, ``y_i <= 0``
    on ``<=`` rows, free on equalities.
    """
    from scipy.optimize import linprog

    senses = np.array(lp.senses)
    leq, geq, eq = (np.flatnonzero(senses == s) for s in (LEQ, GEQ, EQ))
    # ">=" rows enter as "<=" rows with both sides negated
    ub = np.concatenate([leq, geq])
    flip = np.concatenate([np.ones(leq.size), -np.ones(geq.size)])
    problem = dict(
        c=lp.objective,
        A_ub=flip[:, None] * lp.lhs[ub] if ub.size else None,
        b_ub=flip * lp.rhs[ub] if ub.size else None,
        A_eq=lp.lhs[eq] if eq.size else None,
        b_eq=lp.rhs[eq] if eq.size else None,
        bounds=(0, None),
        method="highs",
    )
    res = linprog(**problem)
    if res.status == 4:
        # "unbounded or infeasible" from presolve: the simplex tells which
        res = linprog(**problem, options={"presolve": False})
    if res.status == 2:
        raise LpInfeasible(res.message)
    if res.status == 3:
        raise LpUnbounded(res.message)
    if res.status != 0:
        raise LpError(res.message)

    # scipy's marginals are d value / d b of the rows as passed, so a
    # negated ">=" row carries the negated dual
    y = np.zeros(lp.n_rows)
    if ub.size:
        y[ub] = flip * res.ineqlin.marginals
    if eq.size:
        y[eq] = res.eqlin.marginals
    x = np.asarray(res.x, dtype=float)
    return LpSolution(value=float(lp.objective @ x), x=x, y=y, iterations=int(res.nit))


def slack_simplex(
    c: np.ndarray, g: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """max c.x subject to g x <= h and x >= 0, for h >= 0 and a bounded optimum.

    Dantzig's tableau simplex from the slack basis, which h >= 0 makes
    feasible, with Bland's rule (the least improving column enters, the least
    basic index leaves among tied ratios), which cannot cycle.  Returns x,
    the row duals y >= 0 (optimal for min h.y subject to g^T y >= c) and the
    number of pivots.
    """
    rows, cols = g.shape
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[:rows, :cols], tab[:rows, cols:-1], tab[:rows, -1] = g, np.eye(rows), h
    tab[-1, :cols] = -c
    basis = np.arange(cols, cols + rows)
    pivots = 0
    while (tab[-1, :-1] < -1e-12).any():
        if pivots > 50 * (rows + cols):
            raise LpError("simplex pivot limit reached")
        j = int(np.argmax(tab[-1, :-1] < -1e-12))
        up = np.flatnonzero(tab[:-1, j] > 1e-12)
        if up.size == 0:
            raise LpUnbounded("the objective is unbounded on the feasible region")
        ratios = np.maximum(tab[up, -1], 0.0) / tab[up, j]
        tied = up[ratios <= ratios.min() + 1e-12]
        i = tied[np.argmin(basis[tied])]
        row = tab[i] / tab[i, j]
        tab -= np.outer(tab[:, j], row)
        tab[i] = row
        basis[i] = j
        pivots += 1
    x = np.zeros(cols + rows)
    x[basis] = tab[:-1, -1]
    return x[:cols], tab[-1, cols:-1].copy(), pivots
