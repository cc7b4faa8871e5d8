"""Four independent ways to count the free parameters of an equivariant map.

The closed-form rules are:
  * one set of n:            2   (diagonal, off-diagonal)
  * one cycle of n:          n   (circulant offsets)
  * prod(A,B):               count(A) * count(B)
  * wr(inner,outer):         m1(outer) * count(inner)
                             + (count(outer) - m1(outer)) * m1(inner)**2
    where m1 counts point orbits (1 for S and C, n for trivial(n), multiplied
    by prod and wr); with transitive factors this is
    count(inner) + count(outer) - 1

Each count below is recomputed three more ways that share no code with the
rules: union-find orbits under the generated group, the average number of
fixed index pairs over all group elements, and the nullspace dimension of the
exact integer commutation system.
"""

from wreathlin.basis import (burnside_count, commutant_basis, constant_on_orbits, orbit_pattern,
                             pattern_of_structure)
from wreathlin.perm import enumerate_group
from wreathlin.structure import group_of, param_count, parse_structure

STRUCTURES = [
    "S(4)",
    "C(6)",
    "trivial(2)",
    "prod(S(3),S(4))",
    "prod(C(4),S(3))",
    "wr(S(4),S(3))",
    "wr(S(3),C(4))",
    "wr(wr(S(2),C(2)),C(2))",
    "wr(prod(C(2),C(2)),prod(S(2),S(2)))",
]

print(f"{'structure':40s} {'closed':>6s} {'orbits':>6s} {'avg fix':>7s} {'null dim':>8s}")
for text in STRUCTURES:
    expr = parse_structure(text)
    group = group_of(expr)
    closed = param_count(expr)
    orbits = orbit_pattern(group).num_orbits
    fixed = burnside_count(enumerate_group(group, limit=200_000))
    null_dim = len(commutant_basis(group))
    tick = "ok" if closed == orbits == fixed == null_dim else "MISMATCH"
    print(f"{text:40s} {closed:6d} {orbits:6d} {fixed:7d} {null_dim:8d}  {tick}")

# The nullspace route also hands back an explicit basis of the commutant; every
# element is constant on the closed-form pattern, which is the maximality half
# of the count argument (no tying is missed, none is spurious).
oracle = commutant_basis(group_of(parse_structure("wr(S(4),S(3))")))
print(f"\nwr(S(4),S(3)) commutant basis: {len(oracle)} exact integer matrices")
pattern = pattern_of_structure(parse_structure("wr(S(4),S(3))"))
print(f"every one constant on the closed-form pattern: {all(constant_on_orbits(b, pattern) for b in oracle)}")
first = oracle[0]
print("first basis element restricted to rows 0..3 (exact integers):")
for row in first[:4]:
    print("  " + " ".join(str(v) for v in row[:4]) + " | " + " ".join(str(v) for v in row[4:8]))
