"""A tiny exact-arithmetic linear-program container.

:class:`LinearProgram` is the interchange format between the formulation
layer (:mod:`repro.lp.formulation`) and the solvers
(:mod:`repro.lp.simplex`, :mod:`repro.lp.branch_bound`): variables with
rational bounds and an integrality flag, linear constraint rows, and a
minimization objective.

Everything is exact, so the solvers never face round-off — a verdict of
"infeasible" from the branch-and-bound is a proof, not a tolerance call.
Constraint rows are int numerators over a row denominator, the simplex
tableau's own form; the rest is :class:`fractions.Fraction`.  Floats
entering through :func:`as_fraction` are converted via their shortest
``repr`` (so the float written as ``0.1`` becomes exactly ``1/10``, not
the nearest binary fraction), matching how the rest of the code base
treats task powers and budgets as decimal literals.

This module imports nothing outside the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

#: Constraint senses accepted by :meth:`LinearProgram.add_constraint`.
LESS = "<="
GREATER = ">="
EQUAL = "=="

_SENSES = (LESS, GREATER, EQUAL)

Number = Union[int, float, Fraction]


class LPError(ValueError):
    """A malformed linear program (bad bounds, senses or coefficients)."""


def as_fraction(value: Number) -> Fraction:
    """Exact rational form of a number; floats via their shortest repr.

    ``as_fraction(0.1) == Fraction(1, 10)`` — the decimal the programmer
    wrote, not the 55-bit binary neighbour ``Fraction(0.1)`` would give.
    Infinities and NaNs are rejected (bounds use ``None`` for infinity).
    """
    if isinstance(value, bool):
        raise LPError("booleans are not LP numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise LPError(f"non-finite coefficient {value!r}")
        return Fraction(repr(value))
    if isinstance(value, Rational):
        return Fraction(value)
    raise LPError(f"cannot use {type(value).__name__!r} as an LP number")


@dataclass(frozen=True)
class Variable:
    """One decision variable: name, rational bounds, integrality flag.

    ``upper is None`` means :math:`+\\infty`.  Lower bounds must be
    finite — every model this package builds is naturally bounded below,
    and a finite lower bound is what lets the simplex start from the
    all-at-lower-bound point without a shift.
    """

    name: str
    lower: Fraction
    upper: Optional[Fraction]
    integer: bool = False


def integer_row(terms: Iterable[Tuple[int, Rational]]) -> Tuple[Dict[int, int], int]:
    """Nonzero ``(index, value)`` terms as int numerators over their least
    common denominator: the row form the simplex tableau works in."""
    terms = [(index, value.numerator, value.denominator) for index, value in terms]
    den = math.lcm(*(d for _, _, d in terms))
    return {index: n * (den // d) for index, n, d in terms}, den


@dataclass(frozen=True)
class Constraint:
    """One linear row ``sum(row[var] / den * var) sense rhs``: nonzero
    coefficients as int numerators over their least common denominator."""

    row: Dict[int, int]
    den: int
    sense: str
    rhs: Fraction
    name: str = ""


class LinearProgram:
    """A minimization LP/MILP over exact rationals.

    Build with :meth:`add_variable` / :meth:`add_constraint` /
    :meth:`set_objective`, then hand to
    :func:`repro.lp.simplex.solve_lp` (continuous relaxation) or
    :func:`repro.lp.branch_bound.solve_milp` (respecting integrality).
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        #: Minimization objective: variable index -> coefficient.
        self.objective: Dict[int, Fraction] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_variable(
        self,
        name: Optional[str] = None,
        *,
        lower: Number = 0,
        upper: Optional[Number] = None,
        integer: bool = False,
    ) -> int:
        """Add a variable; returns its index (the coefficient key)."""
        low = as_fraction(lower)
        up = as_fraction(upper) if upper is not None else None
        if up is not None and up < low:
            raise LPError(
                f"variable {name or len(self.variables)}: empty bound range "
                f"[{low}, {up}]"
            )
        index = len(self.variables)
        self.variables.append(
            Variable(name if name is not None else f"x{index}", low, up, integer)
        )
        return index

    def add_binary(self, name: Optional[str] = None) -> int:
        """Add a 0/1 integer variable; returns its index."""
        return self.add_variable(name, lower=0, upper=1, integer=True)

    def add_constraint(
        self,
        coefficients: Mapping[int, Number],
        sense: str,
        rhs: Number,
        name: str = "",
    ) -> Optional[int]:
        """Add a row ``sum(coef * var) sense rhs``; returns its index.

        The row is stored once, as a :class:`Constraint` in the tableau's
        int form.  Zero coefficients are dropped.  A row left with no
        variables is checked as a constant: a satisfied one is silently
        skipped (returns ``None``), a violated one raises — the model is
        structurally infeasible and the caller should know at build time.
        """
        if sense not in _SENSES:
            raise LPError(f"unknown constraint sense {sense!r}; use one of {_SENSES}")
        rhs_value = as_fraction(rhs)
        terms: List[Tuple[int, Rational]] = []
        for index, coefficient in coefficients.items():
            if not 0 <= index < len(self.variables):
                raise LPError(f"constraint references unknown variable {index}")
            # An int already carries .numerator and .denominator.
            value = coefficient if type(coefficient) is int else as_fraction(coefficient)
            if value:
                terms.append((index, value))
        if not terms:
            satisfied = {
                LESS: Fraction(0) <= rhs_value,
                GREATER: Fraction(0) >= rhs_value,
                EQUAL: rhs_value == 0,
            }[sense]
            if not satisfied:
                raise LPError(
                    f"constant constraint {name or len(self.constraints)} is "
                    f"unsatisfiable: 0 {sense} {rhs_value}"
                )
            return None
        self.constraints.append(Constraint(*integer_row(terms), sense, rhs_value, name))
        return len(self.constraints) - 1

    def set_objective(self, coefficients: Mapping[int, Number]) -> None:
        """Set the minimization objective (replacing any previous one)."""
        objective: Dict[int, Fraction] = {}
        for index, coefficient in coefficients.items():
            if not 0 <= index < len(self.variables):
                raise LPError(f"objective references unknown variable {index}")
            value = as_fraction(coefficient)
            if value:
                objective[index] = value
        self.objective = objective

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def integer_variables(self) -> List[int]:
        """Indices of the variables flagged integral."""
        return [i for i, var in enumerate(self.variables) if var.integer]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def evaluate_objective(self, values: List[Fraction]) -> Fraction:
        """The objective value of a full assignment."""
        return sum(
            (coefficient * values[index] for index, coefficient in self.objective.items()),
            Fraction(0),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinearProgram({self.name!r}, {self.num_variables} vars, "
            f"{self.num_constraints} rows)"
        )
