"""Independent cross-checks used by the test suite.

Everything here recomputes its answer from first principles with machinery
deliberately different from the package: an integer symmetrized bilinear
form with closure under reflection at every root (instead of root-string
arithmetic), the classical degree product formula (instead of group
enumeration), long division of length polynomials, a raw coset-marking
scan on bare permutations, and the classical subword criterion for Bruhat
order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

Matrix = tuple[tuple[int, ...], ...]


def symmetrizer(cartan: Matrix) -> tuple[int, ...]:
    """Positive integers d with d[j] * cartan[i][j] symmetric.

    Found over the rationals with d = 1 on one vertex per component, then
    scaled by the lcm of the denominators.
    """
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                    stack.append(j)
    for i in range(n):
        for j in range(n):
            if d[j] * cartan[i][j] != d[i] * cartan[j][i]:
                raise ValueError("cartan matrix is not symmetrizable")
    scale = lcm(*(x.denominator for x in d))
    return tuple(int(x * scale) for x in d)


@lru_cache(maxsize=None)
def root_closure(cartan: Matrix, bound: int = 300) -> frozenset[tuple[int, ...]]:
    """All roots, by closing the simples under reflection at every root.

    The form is (x, y) = sum of x[i] * y[j] * d[j] * cartan[i][j], integer
    valued with the integer symmetrizer d; each round computes, for every
    root beta, its pairing row (the vector y -> (y, beta)) once.  Raises
    ValueError when a pairing is not an integer or the closure grows past
    ``bound`` roots.  Memoized on ``(cartan, bound)``, so tests that ask
    for the same closure share one frozenset; a raise is not cached.
    """
    n = len(cartan)
    d = symmetrizer(cartan)
    form = [[d[j] * cartan[i][j] for j in range(n)] for i in range(n)]

    roots: set[tuple[int, ...]] = set()
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        roots.add(e)
        roots.add(tuple(-c for c in e))
    changed = True
    while changed:
        changed = False
        snapshot = sorted(roots)
        for beta in snapshot:
            row = [sum(f * b for f, b in zip(form[i], beta)) for i in range(n)]
            bb = sum(b * r for b, r in zip(beta, row))
            for gamma in snapshot:
                twice = 2 * sum(g * r for g, r in zip(gamma, row))
                c, rem = divmod(twice, bb)
                if rem:
                    raise ValueError(f"pairing {Fraction(twice, bb)} is not an integer")
                new = tuple(gamma[k] - c * beta[k] for k in range(n))
                if new not in roots:
                    roots.add(new)
                    changed = True
        if len(roots) > bound:
            raise ValueError(f"closure exceeded {bound} roots")
    return frozenset(roots)


_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def degrees(letter: str, rank: int) -> tuple[int, ...]:
    if letter == "A":
        return tuple(range(2, rank + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if letter == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _EXCEPTIONAL_DEGREES[(letter, rank)]


def weyl_order(letter: str, rank: int) -> int:
    out = 1
    for deg in degrees(letter, rank):
        out *= deg
    return out


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def poly_div_exact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient of exact polynomial division; raises on any remainder."""
    num_l = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(num_l[k + len(den) - 1], den[-1])
        if r:
            raise ValueError("division is not exact")
        q[k] = c
        for j, dj in enumerate(den):
            num_l[k + j] -= c * dj
    if any(num_l):
        raise ValueError("division is not exact")
    return tuple(q)


def poincare_product(letter: str, rank: int) -> tuple[int, ...]:
    """Length generating polynomial from the classical degrees."""
    out = (1,)
    for deg in degrees(letter, rank):
        out = poly_mul(out, (1,) * deg)
    return out


def count_left_cosets(
    elements: list[tuple[int, ...]], subgroup: list[tuple[int, ...]]
) -> int:
    """Marking scan over bare permutations, no library calls."""
    remaining = {bytes(p): p for p in elements}
    count = 0
    while remaining:
        w = next(iter(remaining.values()))
        for u in subgroup:
            remaining.pop(bytes(tuple(w[i] for i in u)), None)
        count += 1
    return count


def bruhat_lower_set(W, w) -> frozenset[bytes]:
    """Keys of {u : u <= w}, by the classical subword scan of w's reduced word."""
    gens = [g.perm for g in W.generators]
    out = {W.identity.key: W.identity.perm}
    for j in w.word:
        g = gens[j]
        for p in list(out.values()):
            q = tuple(p[i] for i in g)
            out.setdefault(bytes(q), q)
    return frozenset(out)
