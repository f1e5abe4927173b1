#!/usr/bin/env python3
"""End-to-end run on the worked field: D = 5, Tr(eta) = omega, Norm = 1 + omega.

Walks the full pipeline: validation, branch enumeration, the per-branch
weights, the intersection value, the candidate-prime screen, and the
simplified cross-check formula.
"""

from cmintersect import (CMFieldParams, build_query, enumerate_candidate_primes,
                         enumerate_delta, enumerate_fu, enumerate_n, frakI,
                         intersection_number, mu_ell, scrJ, special_case_value,
                         t_pair, validate)

field = validate(CMFieldParams(D=5, alpha0=0, alpha1=1, beta0=1, beta1=1))
print(f"validated field: D = 5, Dtilde = {field.Dtilde}, cK = {field.cK}")

print("\ndelta branches (D - 4 delta a perfect square):")
for dctx in enumerate_delta(field):
    print(f"  delta={dctx.delta}: square part {dctx.sq}, a={dctx.a}, "
          f"C_delta={dctx.C_delta}, (t_u, t_x, t_w) = "
          f"({dctx.t_u}, {dctx.t_x}, {dctx.t_w})")

ell = 2
print(f"\nbranches for ell = {ell}:")
for dctx in enumerate_delta(field):
    for nctx in enumerate_n(field, dctx, ell):
        n_u, n_x = (dctx.t_u**2 - nctx.d_u) // 4, (dctx.t_x**2 - nctx.d_x) // 4
        print(f"  n={nctx.n}: N={nctx.N}, (n_u, n_x, n_w)=({n_u}, "
              f"{n_x}, {nctx.n_w}), (d_u, d_x)=({nctx.d_u}, {nctx.d_x})")
        print(f"    mu = {mu_ell(nctx, ell)}")
        for f_u in enumerate_fu(nctx, ell):
            query = build_query(nctx, f_u, ell)
            result = scrJ(query)
            print(f"    f_u={f_u}: t = {t_pair(nctx, f_u)}, local weight "
                  f"{frakI(nctx, f_u, ell)}, pair count {result.value} "
                  f"({result.exactness})")

report = intersection_number(field, ell)
print(f"\nintersection coefficient of log({ell}): {report.value} "
      f"({report.exactness}, {report.mode})")

print("\nprimes passing the candidate screen, with witnesses (delta, n):")
for cand_ell, witnesses in enumerate_candidate_primes(field):
    print(f"  ell = {cand_ell}: {list(witnesses)}")

simple = special_case_value(field, ell)
print(f"\nsimplified-formula cross-check at ell = {ell}: {simple}")
print("matches the full sum:", simple == report.value)

print("\nthe same data through the command line:")
print('  cmintersect intersect --field \'{"D":5,"alpha":[0,1],"beta":[1,1]}\''
      ' --ell 2 --trace')
