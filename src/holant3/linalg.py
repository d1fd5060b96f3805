"""Exact Vandermonde solving over the rationals or a quadratic extension."""

from __future__ import annotations

from .errors import SingularSystem
from .exact import ONE, ZERO


def vandermonde_solve(nodes, values) -> list:
    """Coefficients c with sum_i c_i * nodes_i^s = values_s for s = 0..n-1.

    The transposed Vandermonde system is solved directly in O(n^2) over
    the Lagrange basis of the master polynomial P = prod_i (x - nodes_i):
    with Q_i = P / (x - nodes_i) = sum_s q_s x^s, c_i = sum_s q_s
    values_s / Q_i(nodes_i). Nodes may be Fractions or QuadExt values
    over one radicand. Raises SingularSystem on a repeated node or when
    the lengths differ.
    """
    n = len(nodes)
    if len(values) != n:
        raise SingularSystem("need as many equations as nodes")
    master = [ONE]                   # coefficients of P, lowest degree first
    for t in nodes:
        master = [a - t * b for a, b in zip([ZERO] + master, master + [ZERO])]
    solution = []
    for t in nodes:
        q = num = den = ZERO
        for s in range(n - 1, -1, -1):
            q = master[s + 1] + t * q    # coefficient of x^s in Q_i, by synthetic division
            num += q * values[s]
            den = den * t + q            # Horner: Q_i(t)
        if not den:
            raise SingularSystem(f"repeated node {t}")
        solution.append(num / den)
    return solution
