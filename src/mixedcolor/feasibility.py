"""Bounded-integer linear feasibility via interval propagation and branching.

Programs are pure feasibility problems: integer variables with finite bounds
and linear constraints of the form ``sum(a_j * v_j) <= b`` or ``== b``. The
solver is complete within the variable domains; there is no objective.

The search runs on ``Rows``, the solver's integer form of ``<=`` rows over
indexed variables, which ``Rows.compile`` builds from a named program and a
caller that knows its rows can build directly. Propagation is driven by a
queue of rows whose variables moved, and the search keeps its nodes on an
explicit stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Optional

from .errors import DEFAULT_NODE_BUDGET, BudgetExceeded

VarName = Hashable

LE = "<="
EQ = "=="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[VarName, int], ...]
    op: str  # LE or EQ
    rhs: int

    def __post_init__(self) -> None:
        if self.op not in (LE, EQ):
            raise ValueError(f"unknown relation {self.op!r}")


@dataclass(frozen=True)
class FeasibilityProgram:
    variables: tuple[tuple[VarName, int, int], ...]  # (name, lower, upper)
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        names = set()
        for name, lo, hi in self.variables:
            if name in names:
                raise ValueError(f"duplicate variable {name!r}")
            names.add(name)
        for con in self.constraints:
            for name, coef in con.coeffs:
                if name not in names:
                    raise ValueError(f"constraint uses unknown variable {name!r}")
                if coef != int(coef):
                    raise ValueError("coefficients must be integral")

    @cached_property
    def rows(self) -> "Rows":
        """``Rows.compile(self)``, built on first use; its bounds must not be tightened in place."""
        return Rows.compile(self)

    def check(self, assignment: dict[VarName, int]) -> bool:
        """Evaluate every bound and constraint on a full assignment."""
        if any(name not in assignment or not lo <= assignment[name] <= hi for name, lo, hi in self.variables):
            return False
        return self.rows.satisfied([assignment[name] for name, _, _ in self.variables])


class Rows:
    """A program in the solver's integer form.

    Variable i is named ``names[i]`` and ranges over ``lo[i]..hi[i]``; row r
    reads ``sum(c * v[i] for i, c in rows[r]) <= rhs[r]``, and ``watch[i]``
    lists the rows variable i appears in, ascending. Names only break
    branching ties and label a solution.
    """

    def __init__(self, names: list, lo: list[int], hi: list[int], rows: list, rhs: list[int]) -> None:
        self.names, self.lo, self.hi, self.rows, self.rhs = names, lo, hi, rows, rhs
        self.watch: list[list[int]] = [[] for _ in names]
        for r, terms in enumerate(rows):
            for i, _ in terms:
                if not self.watch[i] or self.watch[i][-1] != r:
                    self.watch[i].append(r)

    @classmethod
    def compile(cls, program: FeasibilityProgram) -> "Rows":
        """One row per LE constraint and two per EQ, zero coefficients dropped."""
        names = [name for name, _, _ in program.variables]
        index = {name: i for i, name in enumerate(names)}
        rows: list[tuple[tuple[int, int], ...]] = []
        rhs: list[int] = []
        for con in program.constraints:
            terms = tuple((index[name], int(coef)) for name, coef in con.coeffs if coef)
            rows.append(terms)
            rhs.append(con.rhs)
            if con.op == EQ:
                rows.append(tuple((i, -c) for i, c in terms))
                rhs.append(-con.rhs)
        lo = [lo for _, lo, _ in program.variables]
        return cls(names, lo, [hi for _, _, hi in program.variables], rows, rhs)

    def satisfied(self, values: list[int]) -> bool:
        """Whether a full assignment, in variable order, meets every row."""
        return all(sum(c * values[i] for i, c in terms) <= b for terms, b in zip(self.rows, self.rhs))

    @cached_property
    def by_rank(self) -> list[int]:
        """Branching order among equal domain sizes: by str(name), then position.

        Built on first use, so a program decided at the root never sorts.
        """
        keys = [str(name) for name in self.names]
        return sorted(range(len(self.names)), key=keys.__getitem__)

    def propagate(self, lo: list[int], hi: list[int], seeds) -> bool:
        """Tighten lo/hi in place to interval consistency; False if infeasible.

        Only the rows in ``seeds`` are queued at first; a row is queued again
        when a bound of one of its variables moves, at the back of the queue.
        """
        rows, rhs, watch = self.rows, self.rhs, self.watch
        queue = deque(seeds)
        queued = bytearray(len(rows))
        for r in queue:
            queued[r] = 1
        while queue:
            r = queue.popleft()
            queued[r] = 0
            terms = rows[r]
            lo_sum = 0
            span = 0
            for i, c in terms:
                if c > 0:
                    lo_sum += c * lo[i]
                    s = c * (hi[i] - lo[i])
                else:
                    lo_sum += c * hi[i]
                    s = -c * (hi[i] - lo[i])
                if s > span:
                    span = s
            slack = rhs[r] - lo_sum
            if slack < 0:
                return False
            if slack >= span:
                continue  # no term's span exceeds the slack, so none can tighten
            for i, c in terms:
                if c > 0:
                    new = lo[i] + slack // c
                    if new >= hi[i]:
                        continue
                    hi[i] = new
                else:
                    new = hi[i] - slack // -c
                    if new <= lo[i]:
                        continue
                    lo[i] = new
                for w in watch[i]:
                    if not queued[w]:
                        queued[w] = 1
                        queue.append(w)
        return True

    def pick(self, lo: list[int], hi: list[int]) -> Optional[int]:
        """The unfixed variable with the smallest domain (ties by rank), or None."""
        best, best_width = None, 0
        for i in self.by_rank:
            width = hi[i] - lo[i]
            if width and (best is None or width < best_width):
                best, best_width = i, width
                if width == 1:
                    break
        return best


def propagate_bounds(program: FeasibilityProgram) -> Optional[FeasibilityProgram]:
    """Interval (bounds) consistency; returns the tightened program or None if infeasible."""
    comp = program.rows
    lo, hi = comp.lo[:], comp.hi[:]
    if any(a > b for a, b in zip(lo, hi)) or not comp.propagate(lo, hi, range(len(comp.rows))):
        return None
    variables = tuple(zip(comp.names, lo, hi))
    return FeasibilityProgram(variables, program.constraints)


def search(prog: Rows, budget: int = DEFAULT_NODE_BUDGET, stats: Optional[dict] = None) -> Optional[list[int]]:
    """A satisfying assignment of ``prog``, as values in variable order, or None.

    Depth-first search branching on the smallest current domain, values
    ascending, with interval propagation at every node; each leaf is checked
    against every row. Complete within the domain bounds; raises
    BudgetExceeded past the node budget. If ``stats`` is given, its ``nodes``
    key is set to the number of search nodes.
    """
    nodes = 0
    try:
        if any(a > b for a, b in zip(prog.lo, prog.hi)):
            return None
        lo, hi, seeds = prog.lo[:], prog.hi[:], range(len(prog.rows))
        # each frame: a propagated node's bounds, its branch variable, the values left
        stack: list[tuple] = []
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"feasibility search exceeded {budget} nodes")
            if prog.propagate(lo, hi, seeds):
                pick = prog.pick(lo, hi)
                if pick is None:
                    if prog.satisfied(lo):
                        return lo
                else:
                    stack.append((lo, hi, pick, iter(range(lo[pick], hi[pick] + 1))))
            while stack:
                plo, phi, pick, values = stack[-1]
                value = next(values, None)
                if value is not None:
                    break
                stack.pop()
            else:
                return None
            lo, hi, seeds = plo[:], phi[:], prog.watch[pick]
            lo[pick] = hi[pick] = value
    finally:
        if stats is not None:
            stats["nodes"] = nodes


def solve_feasibility(
    program: FeasibilityProgram, budget: int = DEFAULT_NODE_BUDGET, stats: Optional[dict] = None
) -> Optional[dict[VarName, int]]:
    """Find a satisfying integral assignment, or None: ``search`` on the compiled program."""
    prog = program.rows
    values = search(prog, budget, stats)
    return None if values is None else dict(zip(prog.names, values))
