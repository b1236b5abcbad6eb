"""Reference values the benchmark checks outputs against.

The degree tables are the classical ones (Bourbaki, Plate I-IX). They are
kept here, apart from the package under test, so that a change to
``minrank`` cannot change the numbers it is judged by. Type labels may be
sums of factors, as ``A2+A2`` for a diagonal pair's ambient diagram.
"""

from __future__ import annotations

import re

_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}

_FACTOR_RE = re.compile(r"^([A-G])([0-9]+)$")


def degrees(letter: str, rank: int) -> tuple[int, ...]:
    if letter == "A":
        return tuple(range(2, rank + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if letter == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _EXCEPTIONAL_DEGREES[(letter, rank)]


def _factor_degrees(type_label: str) -> list[tuple[int, ...]]:
    out = []
    for factor in type_label.split("+"):
        m = _FACTOR_RE.match(factor)
        if m is None:
            raise ValueError(f"unknown type label {type_label!r}")
        out.append(degrees(m.group(1), int(m.group(2))))
    return out


def poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


def weyl_order(type_label: str) -> int:
    """|W| as the product of the degrees of every factor."""
    out = 1
    for degs in _factor_degrees(type_label):
        for d in degs:
            out *= d
    return out


def poincare(type_label: str) -> tuple[int, ...]:
    """Length generating polynomial, prod_i (1 + q + ... + q^(d_i - 1))."""
    out: tuple[int, ...] = (1,)
    for degs in _factor_degrees(type_label):
        for d in degs:
            out = poly_mul(out, (1,) * d)
    return out


def orbit_count(g_label: str, h_label: str) -> int:
    """|W(g)| / |W(h)|, the number of cosets of the embedded folded group."""
    q, r = divmod(weyl_order(g_label), weyl_order(h_label))
    if r:
        raise ValueError(f"|W({h_label})| does not divide |W({g_label})|")
    return q
