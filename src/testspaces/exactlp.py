"""Exact simplex for small linear programs, over integer rows.

min c.x  subject to  A x = b, x >= 0, with int, Fraction or finite float
entries (a float is read as the rational it is), from a feasible basis the
caller names.  Bland's rule throughout, so the iteration cannot cycle.  Each
tableau row is a list of Python-int numerators over one positive row
denominator, and the reduced costs are one more integer row kept up to a
positive scale, since only their signs are read.  A pivot is an integer
multiply-subtract and one gcd per row, and the ratio test cross-multiplies;
the answer becomes Fractions only on return.  Intended for desk-scale
problems (tens of variables); everything is O(m*n) per pivot.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError

Rational = int | Fraction


class Unbounded(ValidationError):
    pass


def _rational(x) -> Rational:
    if type(x) is int or type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"LP entry {x!r} is not a finite rational") from exc


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of `values` over their least common denominator."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    values = [_rational(v) for v in values]
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def solve_lp(
    A: Sequence[Sequence[Rational | float]],
    b: Sequence[Rational | float],
    c: Sequence[Rational | float],
    basis: Sequence[int],
) -> tuple[Fraction, list[Fraction]]:
    """Simplex from a feasible starting basis; returns (optimal value, an
    optimal x).

    Column basis[i] is pivoted in for row i, row by row, and Bland's loop
    runs from there.  A basis that is singular in that row order, or whose
    basic solution has a negative entry, is a ValidationError."""
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValidationError("inconsistent LP dimensions")
    cost_nums, _ = _over_lcm(c)
    basis = list(basis)
    if len(basis) != m or any(not 0 <= k < n for k in basis):
        raise ValidationError("a starting basis names one column per row")
    # row i is T[i] / dens[i]; T[m] holds the reduced costs
    T: list[list[int]] = []
    dens: list[int] = []
    for i in range(m):
        nums, d = _integer_row(A[i], b[i])
        T.append(nums)
        dens.append(d)
    for i, k in enumerate(basis):
        if T[i][k] == 0:
            raise ValidationError("starting basis is singular")
        _pivot(T, dens, i, k)
    if any(row[-1] < 0 for row in T):
        raise ValidationError("starting basis is infeasible")
    T.append(_reduced_costs(T, dens, basis, cost_nums))
    dens.append(1)
    _simplex(T, dens, basis)
    x = [Fraction(0)] * n
    for i, k in enumerate(basis):
        x[k] = Fraction(T[i][-1], dens[i])
    value = sum((_rational(c[j]) * x[j] for j in range(n) if x[j]), Fraction(0))
    return value, x


def _integer_row(a, rhs) -> tuple[list[int], int]:
    """Constraint row a.x = rhs as integer numerators (rhs last) over one
    positive denominator."""
    nums, d = _over_lcm(a)
    rhs = _rational(rhs)
    if rhs.denominator != 1:
        k = rhs.denominator // math.gcd(d, rhs.denominator)
        nums, d = [x * k for x in nums], d * k
    nums.append(rhs.numerator * (d // rhs.denominator))
    return nums, d


def _reduced_costs(rows, dens, basis, cost: list[int]) -> list[int]:
    """cost - sum_i cost[basis[i]] * row_i, times a positive integer, as a
    row of the tableau's width."""
    active = [i for i in range(len(basis)) if cost[basis[i]]]
    scale = math.lcm(*(dens[i] for i in active))
    z = [cj * scale for cj in cost] + [0]
    for i in active:
        w = cost[basis[i]] * (scale // dens[i])
        z = [a - w * r for a, r in zip(z, rows[i])]
    return z


def _simplex(T, dens, basis) -> None:
    m = len(basis)
    while True:
        # Bland: smallest improving index (basic columns have reduced cost 0)
        z = T[m]
        enter = next((j for j in range(len(z) - 1) if z[j] < 0), None)
        if enter is None:
            return
        leave = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # T[i][-1] / a against the best ratio, cross-multiplied
                lhs, rhs = T[i][-1] * T[leave][enter], T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise Unbounded("LP objective is unbounded below")
        _pivot(T, dens, leave, enter)
        basis[leave] = enter


def _pivot(T, dens, row: int, col: int) -> None:
    """Divide T[row] by its col entry and clear column col from every other
    row: row i becomes (T_i p - T_i[col] R) / (dens_i p), R / p the new
    pivot row."""
    R, p = T[row], T[row][col]
    if p < 0:
        R, p = [-x for x in R], -p
    g = math.gcd(*R)
    T[row], dens[row] = [x // g for x in R], p // g
    R, p = T[row], dens[row]
    for i, Ti in enumerate(T):
        f = Ti[col]
        if f and i != row:
            new = [a * p - f * r for a, r in zip(Ti, R)]
            d = dens[i] * p
            g = math.gcd(d, *new)
            T[i], dens[i] = [x // g for x in new], d // g
