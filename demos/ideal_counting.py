#!/usr/bin/env python3
"""Counting ideals of a fixed norm in imaginary quadratic orders.

The closed form is multiplicative over prime powers; an exhaustive
Hermite-normal-form sublattice enumeration arbitrates every value.  The
classical non-invertible ideal (2, 1 + sqrt(-3)) of Z[sqrt(-3)] shows why
the invertibility filter matters.
"""

from cmintersect import count_all_ideals, count_invertible_ideals, discriminant_of
from cmintersect.oracles import count_ideals_bruteforce

print("Discriminant decomposition d = f^2 * d0:")
for d in (-4, -12, -32, -75, -400):
    disc = discriminant_of(d)
    print(f"  {d:5d} = {disc.f}^2 * ({disc.d0})   conductor {disc.f}")

print("\nInvertible-ideal counts by norm for d = -4 (the Gaussian order):")
disc = discriminant_of(-4)
row = [count_invertible_ideals(disc, M) for M in range(1, 16)]
print("  norms 1..15:", row)
print("  5 splits (two ideals), 3 is inert (none), 2 ramifies (one).")

print("\nZ[sqrt(-3)] has discriminant -12, conductor 2.  Its index-2")
print("sublattice closed under multiplication is the classical ideal")
print("(2, 1 + sqrt(-3)), whose multiplier ring is the full Eisenstein")
print("order, so it is NOT invertible:")
disc12 = discriminant_of(-12)
print(f"  closed sublattices of index 2:     "
      f"{count_ideals_bruteforce(disc12, 2, invertible_only=False)}")
print(f"  invertible ideals of norm 2:       "
      f"{count_ideals_bruteforce(disc12, 2)}")

print("\nClosed form vs exhaustive oracle on a conductor-heavy sample:")
for d in (-48, -144, -100, -243):
    disc = discriminant_of(d)
    for M in (2, 4, 6, 12, 18):
        closed = count_invertible_ideals(disc, M)
        brute = count_ideals_bruteforce(disc, M)
        marker = "ok" if closed == brute else "MISMATCH"
        print(f"  d={d:5d} (f={disc.f})  M={M:3d}: closed {closed}, "
              f"oracle {brute}  [{marker}]")

print("\nAll ideals vs invertible ideals at a conductor prime (d = -48):")
disc48 = discriminant_of(-48)
for M in range(1, 9):
    print(f"  M={M}: all {count_all_ideals(disc48, M)}, "
          f"invertible {count_invertible_ideals(disc48, M)}")
