#!/usr/bin/env python3
"""Roots of monic quadratics modulo prime powers.

The count drives the local weight attached to every branch of the
intersection sum.  Nonsingular roots lift uniquely (Hensel); singular
roots fan out or die, and the recursive count tracks exactly that.
"""

from cmintersect import count_roots_by_enumeration, count_roots_mod_pk

print("t^2 - t mod 2^C: two nonsingular roots, stable under lifting:")
for C in range(0, 6):
    print(f"  C={C}: {count_roots_mod_pk(2, C, 1, 0)}")

print("\nt^2 mod 3^C: the double root at 0 thins out at odd levels:")
for C in range(0, 6):
    print(f"  C={C}: {count_roots_mod_pk(3, C, 0, 0)}")

print("\nt^2 - 3t + 9 mod 3^C: singular root that eventually dies:")
for C in range(0, 6):
    print(f"  C={C}: {count_roots_mod_pk(3, C, 3, 9)}")

print("\nNegative levels count nothing and level zero counts the single")
print("residue class mod 1 (this convention collapses the branch weight")
print("to 1 whenever f_u = 1):")
for C in (-3, -1, 0):
    print(f"  C={C}: {count_roots_mod_pk(5, C, 2, 1)}")

print("\nClosed form vs literal enumeration on a grid:")
for p in (2, 3, 5, 7):
    agree = all(
        count_roots_mod_pk(p, C, a1, a0) == count_roots_by_enumeration(p, C, a1, a0)
        for C in range(0, 5) for a1 in range(-6, 7) for a0 in range(-6, 7))
    print(f"  p={p}: all levels C<=4, coefficients in [-6,6]^2 -> "
          f"{'agree' if agree else 'MISMATCH'}")
