#!/usr/bin/env python3
"""Print the nodes and scaled weights of the N-point Gauss-Hermite rule.

    python3 scripts/gauss_hermite.py 60

The rule integrates exp(-u^2) p(u) over the real line exactly for every
polynomial p of degree below 2N.  Its nodes u_j are the roots of the
Hermite polynomial H_N: the eigenvalues of the rule's Jacobi matrix (zero
diagonal, off-diagonal sqrt(k/2)) start Newton's method on H_N, whose
derivative is 2N H_{N-1}.  The weights are W_j = 2^(N-1) N! sqrt(pi) /
(N^2 H_{N-1}(u_j)^2).  Everything runs at 40 significant digits in mpmath
and is printed as the nearest doubles: the positive half of the nodes,
ascending, and the scaled weights W_j exp(u_j^2) of those nodes, which
multiply an integrand that carries its own exp(-u^2).  For even N the
rule is symmetric about 0 and has no node there.
"""

import argparse

import mpmath

DIGITS = 40


def hermite(n, u):
    """(H_n(u), H_{n-1}(u)) by the three-term recurrence."""
    h_prev, h = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(n):
        h_prev, h = h, 2 * u * h - 2 * k * h_prev
    return h, h_prev


@mpmath.workdps(DIGITS)
def gauss_hermite(n):
    """(nodes, scaled weights) of the positive half of the n-point rule, ascending."""
    jacobi = mpmath.zeros(n)
    for k in range(1, n):
        jacobi[k, k - 1] = jacobi[k - 1, k] = mpmath.sqrt(mpmath.mpf(k) / 2)
    tol = mpmath.mpf(10) ** (-mpmath.mp.dps + 2)
    nodes, weights = [], []
    for u in sorted(mpmath.eigsy(jacobi, eigvals_only=True)):
        if u <= 0:
            continue
        while True:
            h, h_prev = hermite(n, u)
            step = h / (2 * n * h_prev)
            u -= step
            if abs(step) < tol * u:
                break
        _, h_prev = hermite(n, u)
        weight = 2 ** (n - 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) / (n * h_prev) ** 2
        nodes.append(u)
        weights.append(weight * mpmath.exp(u * u))
    return [float(u) for u in nodes], [float(w) for w in weights]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="nodes N of the rule (even)")
    args = parser.parse_args()
    if args.n < 2 or args.n % 2:
        parser.error(f"N must be even and at least 2, got {args.n}")

    nodes, weights = gauss_hermite(args.n)
    print(f"# Gauss-Hermite({args.n}), positive half, ascending; weights times exp(u^2)")
    for name, values in (("NODES", nodes), ("WEIGHTS", weights)):
        print(f"{name} = (")
        for value in values:
            print(f"    {value!r},")
        print(")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
