"""The revised simplex against the dense tableau it replaced.

Tableau below is the two-phase tableau simplex that linprog ran before
its revised kernel, kept as the reference: it makes the same choices
(Dantzig's rule, the DEGENERATE_STREAK switch to Bland's, the ratio
test's tie-breaks, phase 1's retirement of dust columns and its drive-out
or drop of zero-level artificials) on a dense tableau.  Both kernels stop
at a basis that linprog._read reads, so their answers (status, value,
fallback) are compared in both arithmetics.  The same file pins the
revised kernel's memory: it builds nothing the size of the coefficient
array.
"""

import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from test_array_programs import designees
from test_formulations import float_class, seeded_float_configurations
from test_linprog import VALUE_RTOL, _random_feasible_lp, beale, pricing_cases
from poacert import linprog
from poacert.formulations import build_pp_pne
from poacert.games import SUM
from poacert.representative import build_representative


class Tableau:
    """The dense two-phase tableau simplex: the whole m x (N + m) tableau
    is rewritten on every pivot, and the z - c row is kept beside it."""

    def __init__(self, system):
        std = system.std
        self.exact, self.zero = std.exact, std.zero
        self.tol = Fraction(0) if std.exact else linprog.PIVOT_TOL
        self.m, n_struct = system.A.shape
        signs = system.slack.tolist()
        self.ncols = n_struct + sum(s != 0 for s in signs) + sum(s <= 0 for s in signs)
        self.max_iters = 2000 + 100 * (self.m + self.ncols)
        M = np.full((self.m, self.ncols + 1), std.zero, dtype=std.dtype)
        M[:, :n_struct] = system.A
        M[:, -1] = system.b
        # the standard number of each column: structural j is j, the slack of
        # row i is n_struct + i and its artificial n_struct + m + i
        self.standard = list(range(n_struct))
        self.basis, self.artificials = [], set()
        for i, sign in enumerate(signs):
            if sign:  # a slack: +1 on a <= row, -1 on a >= row
                M[i, len(self.standard)] = std.one if sign > 0 else -std.one
                self.standard.append(n_struct + i)
            if sign <= 0:  # an artificial, on a >= or = row
                M[i, len(self.standard)] = std.one
                self.artificials.add(len(self.standard))
                self.standard.append(n_struct + self.m + i)
            self.basis.append(len(self.standard) - 1)
        self.M = M
        self.row_alive = [True] * self.m
        self.iterations = 0
        self.entering = None  # the column of an UNBOUNDED stop

    # ---- pivoting ----

    def _pivot(self, r, j, B):
        M = self.M
        M[r] /= M[r, j]
        col = M[:, j].copy()
        col[r] = self.zero
        # rank-1 elimination of column j everywhere but the pivot row
        M -= col[:, None] * M[r]
        if B[j] != 0:
            B -= B[j] * M[r]
        if not self.exact:
            M[:, j] = 0.0
            M[r, j] = 1.0
            B[j] = 0.0
        self.basis[r] = j
        self.iterations += 1

    def _reduced_row(self, costs):
        """Build the z - c row (plus objective value cell) for given costs
        of the leading columns; the rest cost 0."""
        B = np.full(self.M.shape[1], self.zero, dtype=self.M.dtype)
        costs = np.asarray(costs, dtype=self.M.dtype)
        nz = np.flatnonzero(costs)
        B[nz] = -costs[nz]
        for r in range(self.m):
            if not self.row_alive[r]:
                continue
            jb = self.basis[r]
            if B[jb] != 0:
                B -= B[jb] * self.M[r]
        return B

    def _ratio_row(self, j, bland=False):
        """Leaving row for entering column j, or None if unbounded.

        Ties on the minimum ratio are rampant in degenerate programs; among
        tied rows the largest pivot entry wins (tiny pivots shred float
        tableaus), except under Bland's rule in exact mode, where the
        lowest basis index keeps the termination guarantee."""
        best_ratio = None
        M = self.M
        rows = []
        for i in range(self.m):
            if not self.row_alive[i]:
                continue
            a = M[i, j]
            if a <= self.tol:
                continue
            ratio = M[i, -1] / a
            rows.append((i, ratio, a))
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
        if best_ratio is None:
            return None
        if self.exact:
            tied = [t for t in rows if t[1] == best_ratio]
            if bland:
                return min(tied, key=lambda t: self.basis[t[0]])[0]
        else:
            slack = self.tol * (1 + abs(best_ratio))
            tied = [t for t in rows if t[1] <= best_ratio + slack]
        return max(tied, key=lambda t: (t[2], -self.basis[t[0]]))[0]

    def run(self, costs, banned, ray_free=False):
        """Maximize costs'x from the current basis.  Returns status string.

        Dantzig's rule enters the first column of most negative reduced
        cost; after DEGENERATE_STREAK degenerate pivots in a row, Bland's
        rule enters the first column below -tol.  ray_free callers
        guarantee the objective is bounded, so a column with no admissible
        pivot row is float dust, not a ray; it gets retired instead of
        triggering an UNBOUNDED verdict.
        """
        B = self._reduced_row(costs)
        bland = False
        streak = 0
        # columns that may enter, ascending; shrinks only when one retires
        allowed = np.ones(self.ncols, dtype=bool)
        allowed[list(banned)] = False
        allowed = np.flatnonzero(allowed)
        while True:
            if self.iterations > self.max_iters:
                raise linprog.SolverError(f"iteration cap {self.max_iters} exceeded")
            reduced = B[allowed]
            if bland:
                below = np.flatnonzero(reduced < -self.tol)
                pick = below[0] if len(below) else None
            else:
                pick = int(reduced.argmin()) if len(reduced) else None
                if pick is not None and not reduced[pick] < -self.tol:
                    pick = None
            if pick is None:
                self._B = B
                return linprog.OPTIMAL
            enter = int(allowed[pick])
            leave = self._ratio_row(enter, bland)
            if leave is None:
                if ray_free:
                    allowed = np.delete(allowed, pick)
                    continue
                self._B = B
                self.entering = enter
                return linprog.UNBOUNDED
            degenerate = self.M[leave, -1] <= self.tol
            self._pivot(leave, enter, B)
            if degenerate:
                streak += 1
                if streak >= linprog.DEGENERATE_STREAK:
                    bland = True
            else:
                streak = 0

    def phase1(self):
        if not self.artificials:
            return True
        costs = [self.zero] * self.ncols
        for c in self.artificials:
            costs[c] = -(Fraction(1) if self.exact else 1.0)
        status = self.run(costs, banned=frozenset(), ray_free=True)
        if status != linprog.OPTIMAL:  # phase-1 objective is bounded by 0
            raise linprog.SolverError("phase 1 reported unbounded")
        if self._B[-1] < -self.tol:
            return False
        # drive zero-level artificials out of the basis; drop dependent rows
        structural = np.ones(self.ncols, dtype=bool)
        structural[list(self.artificials)] = False
        for r in range(self.m):
            if not self.row_alive[r] or self.basis[r] not in self.artificials:
                continue
            row = self.M[r, :self.ncols]
            hits = np.flatnonzero(((row > self.tol) | (row < -self.tol)) & structural)
            if len(hits):
                self._pivot(r, int(hits[0]), self._B)
            else:
                self.row_alive[r] = False
        return True


def tableau_run(lp, exact, objective=None):
    """linprog._run on the dense tableau, which counts only its pivots,
    of lp's own objective: solve and _simplex, the only callers here, run
    no other."""
    assert objective is None
    system = linprog._system(lp, exact)
    # what _read takes from a _Region: its program, its system and the rational system
    region = SimpleNamespace(lp=lp, system=system, exact_system=lambda: linprog._system(lp, True))
    tab = Tableau(system)
    feasible = tab.phase1()
    phase1 = tab.iterations
    if not feasible:
        stats = linprog.KernelStats(phase1_pivots=phase1)
        return linprog._Stop(linprog.INFEASIBLE, None, None, stats, region)
    status = tab.run(system.costs, banned=frozenset(tab.artificials))
    entering = None if status == linprog.OPTIMAL else tab.standard[tab.entering]
    stats = linprog.KernelStats(phase1_pivots=phase1, phase2_pivots=tab.iterations - phase1)
    return linprog._Stop(status, [tab.standard[j] for j in tab.basis], entering, stats, region)


def reference_programs():
    """pricing_cases(), Beale's program, 25 random feasible programs and
    every designee program of the 30 seeded float configurations."""
    rng = random.Random(2026)
    programs = pricing_cases() + [beale()] + [_random_feasible_lp(rng) for _ in range(25)]
    for cfg in seeded_float_configurations():
        rep = build_representative(cfg.weights)
        programs += [build_pp_pne(cfg, rep, d) for d in designees(cfg)]
    return programs


# reference_programs()[55], pp_max_d1 (7 x 33), stops at a near tie: the
# revised kernel's float run ends at a basis where the exact dual row of
# v[P:{2}|Q:{}][1] is violated by 1.4e-18 (its float reduced cost reads
# +3.6e-16), so its exact reading falls back; the tableau's run, whose
# sums round otherwise, ends at another optimal basis
NEAR_TIE = (55, "dual row v[P:{2}|Q:{}][1] is violated")


@pytest.mark.parametrize("exact", [False, True])
def test_revised_kernel_answers_as_the_tableau(monkeypatch, exact):
    """lp.solve on either kernel: equal statuses, equal exact values,
    float values within VALUE_RTOL, and no fallback where the tableau
    needed none, but at NEAR_TIE in rationals; over all the programs the
    revised kernel falls back no more often than the tableau."""
    programs = reference_programs()
    revised = [linprog.solve(p, exact) for p in programs]
    monkeypatch.setattr(linprog, "_run", tableau_run)
    dense = [linprog.solve(p, exact) for p in programs]
    for k, (program, new, old) in enumerate(zip(programs, revised, dense)):
        assert new.status == old.status, program.name
        if exact or old.value is None:
            assert new.value == old.value, program.name
        else:
            assert new.value == pytest.approx(old.value, rel=VALUE_RTOL), program.name
        if exact and k == NEAR_TIE[0]:
            assert (new.fallback, old.fallback) == (NEAR_TIE[1], None)
        else:
            assert new.fallback is None or old.fallback is not None, program.name
    assert len(programs) == 99  # 25 + 1 + 25, and 48 designee programs
    fallbacks = [sum(r.fallback is not None for r in reports) for reports in (revised, dense)]
    assert fallbacks[0] <= fallbacks[1]


def test_rational_runs_of_both_kernels_agree(monkeypatch):
    """The rational simplex on either kernel, with no float run before it,
    gives equal statuses and values on the small programs (a degenerate
    program may end at another optimal basis, with other duals)."""
    rng = random.Random(2026)
    programs = pricing_cases() + [beale()] + [_random_feasible_lp(rng) for _ in range(25)]
    revised = [linprog._simplex(p, True) for p in programs]
    monkeypatch.setattr(linprog, "_run", tableau_run)
    dense = [linprog._simplex(p, True) for p in programs]
    assert [(r.status, r.value) for r in revised] == [(r.status, r.value) for r in dense]


def test_the_revised_kernel_holds_no_copy_of_the_program():
    """n = 7, r = 1, sum (weights 1, 3, 3, 1, 2, 3, 2; basis x): 16,384
    columns.  The tableau's peak in linprog._run was 3.8 times the
    coefficient array; with the revised kernel it is about 1.4: _system's
    one standardized float copy of the array, its slack and artificial
    unit columns beside it, for the kernel adds only m x (m + 1) arrays and
    a few vectors of length N."""
    cfg = float_class((1, 3, 3, 1, 2, 3, 2), SUM, (1,))
    program = build_pp_pne(cfg, build_representative(cfg.weights), None)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stop = linprog._run(program, False)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert stop.status == linprog.OPTIMAL
    assert peak <= 2.5 * program.coefficients.nbytes
