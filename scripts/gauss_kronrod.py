#!/usr/bin/env python3
"""Print the constants of the (2N+1)-point Gauss-Kronrod rule on [-1, 1].

    python3 scripts/gauss_kronrod.py 30

The N Gauss nodes are the roots of the Legendre polynomial P_N, found by
Newton's method.  The N + 1 added Kronrod nodes are the roots of the
Stieltjes polynomial E_{N+1}, the monic-in-P_{N+1} polynomial orthogonal to
every polynomial of degree <= N under the weight P_N; its Legendre
coefficients come from one linear solve, its roots interlace the Gauss
nodes.  The Kronrod weights make the rule exact on P_0 .. P_2N (a moment
solve).  Everything runs at 40 significant digits in mpmath and is printed
as the nearest doubles: the nonnegative half of the nodes, descending (the
Gauss nodes are XGK[1], XGK[3], ...), the Kronrod weights of those nodes,
and the Gauss weights WG of XGK[1], XGK[3], ....  For N = 7 and N = 10 this
reproduces QUADPACK's qk15 and qk21 constants.
"""

import argparse

import mpmath

DIGITS = 40


def legendre(n, x):
    """[P_0(x), ..., P_n(x)] by the three-term recurrence."""
    p = [mpmath.mpf(1), mpmath.mpf(x)]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[: n + 1]


def gauss_legendre(n):
    """Nodes (descending) and weights of the n-point Gauss-Legendre rule."""
    nodes, weights = [], []
    tol = mpmath.mpf(10) ** (-mpmath.mp.dps + 2)
    for i in range(1, n + 1):
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
        while True:
            p = legendre(n, x)
            dp = n * (x * p[n] - p[n - 1]) / (x * x - 1)
            step = p[n] / dp
            x -= step
            if abs(step) < tol:
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def stieltjes(n):
    """Legendre coefficients a_0 .. a_{n+1} of E_{n+1}, with a_{n+1} = 1."""
    # P_n * P_j * E_{n+1} has degree <= 3n + 1, which this rule integrates
    nodes, weights = gauss_legendre((3 * n + 3) // 2)
    table = [legendre(n + 1, x) for x in nodes]
    # E_{n+1} has the parity of n + 1; the conditions with odd j are the
    # ones that do not vanish by parity alone
    ks = list(range((n + 1) % 2, n + 1, 2))
    js = list(range(1, n + 1, 2))

    def moment(j, k):
        return mpmath.fsum(w * row[n] * row[j] * row[k] for w, row in zip(weights, table))

    lhs = mpmath.matrix([[moment(j, k) for k in ks] for j in js])
    rhs = mpmath.matrix([-moment(j, n + 1) for j in js])
    solution = mpmath.lu_solve(lhs, rhs)
    coefficients = [mpmath.mpf(0)] * (n + 2)
    coefficients[n + 1] = mpmath.mpf(1)
    for k, a in zip(ks, solution):
        coefficients[k] = a
    return coefficients


@mpmath.workdps(DIGITS)
def gauss_kronrod(n):
    """(XGK, WGK, WG) of the (2n+1)-point rule, nonnegative half, descending."""
    gauss, gauss_weights = gauss_legendre(n)
    coefficients = stieltjes(n)

    def e(x):
        return mpmath.fsum(a * p for a, p in zip(coefficients, legendre(n + 1, x)))

    # one root of E_{n+1} below, between and above the Gauss nodes
    ends = [mpmath.mpf(1)] + gauss + [mpmath.mpf(-1)]
    kronrod = [mpmath.findroot(e, (lo, hi), solver="anderson") for hi, lo in zip(ends, ends[1:])]
    nodes = sorted(gauss + kronrod, reverse=True)
    # the rule must integrate P_0 .. P_2n exactly: its weights solve
    # sum_i w_i P_k(x_i) = 2 delta_k0
    lhs = mpmath.matrix(list(zip(*(legendre(2 * n, x) for x in nodes))))
    rhs = mpmath.matrix([2] + [0] * (2 * n))
    weights = mpmath.lu_solve(lhs, rhs)
    # the rule is symmetric: average each pair, which makes the middle
    # node exactly zero
    half = n + 1
    xgk = [(nodes[i] - nodes[2 * n - i]) / 2 for i in range(half)]
    wgk = [(weights[i] + weights[2 * n - i]) / 2 for i in range(half)]
    wg = gauss_weights[: (n + 1) // 2]
    return [[float(v) for v in values] for values in (xgk, wgk, wg)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="Gauss points N (the rule has 2N+1 points)")
    args = parser.parse_args()
    if args.n < 1:
        parser.error(f"N must be at least 1, got {args.n}")

    xgk, wgk, wg = gauss_kronrod(args.n)
    print(f"# Gauss({args.n})/Kronrod({2 * args.n + 1}) on [-1, 1], nonnegative half, descending")
    for name, values in (("XGK", xgk), ("WGK", wgk), ("WG", wg)):
        print(f"{name} = (")
        for value in values:
            print(f"    {value!r},")
        print(")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
