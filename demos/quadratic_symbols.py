#!/usr/bin/env python3
"""Tour of the exact symbol arithmetic: Kronecker and Hilbert symbols.

Shows the closed forms, the brute-force solvability oracle that arbitrates
them, and the product formula over all places.
"""

import random

from cmintersect import INFINITY, factorize, hilbert_symbol, kronecker
from cmintersect.oracles import hilbert_symbol_oracle

print("Kronecker symbols (a | n):")
for a, n in [(2, 7), (3, 5), (-1, 3), (5, 12), (12, 35)]:
    print(f"  ({a} | {n}) = {kronecker(a, n)}")

print("\nHilbert symbols (a, b)_v; -1 means z^2 = a x^2 + b y^2 has no")
print("nontrivial solution over the completion at v:")
for a, b, v in [(-1, -1, INFINITY), (-1, -1, 2), (-3, -2, 2), (-3, -1, 3),
                (2, 5, 5), (-3, -200, 5)]:
    place = "oo" if v == INFINITY else v
    print(f"  ({a}, {b})_{place} = {hilbert_symbol(a, b, v)}")

print("\nThe brute-force oracle enumerates primitive solutions mod p^k and")
print("agrees with the closed form:")
for a, b, p in [(-1, -1, 2), (-3, -2, 2), (-3, -1, 3), (5, -7, 7)]:
    closed = hilbert_symbol(a, b, p)
    brute = hilbert_symbol_oracle(a, b, p)
    marker = "ok" if closed == brute else "MISMATCH"
    print(f"  ({a}, {b})_{p}: closed {closed}, oracle {brute}  [{marker}]")

print("\nProduct formula: the symbols over all places multiply to 1.")
rng = random.Random(7)
for _ in range(5):
    a, b = rng.randint(-500, 500) or 3, rng.randint(-500, 500) or 5
    places = sorted({2} | {p for p, _ in factorize(a)} | {p for p, _ in factorize(b)})
    symbols = [hilbert_symbol(a, b, INFINITY)]
    symbols += [hilbert_symbol(a, b, p) for p in places]
    prod = 1
    for s in symbols:
        prod *= s
    shown = " * ".join(f"{s:+d}" for s in symbols)
    print(f"  a={a:5d} b={b:5d}: {shown} = {prod}  (places oo, {places})")
