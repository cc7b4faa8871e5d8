"""Weight-sharing patterns of structured permutation actions.

A linear map commutes with every symmetry of a structure exactly when its
matrix entries are constant on the orbits of the simultaneous row/column
action.  The pattern of those orbits is the whole story: one free weight per
orbit.  This script builds the patterns for a few structures and renders them.
"""

from wreathlin.basis import pattern_of_structure, pattern_pgm, pattern_summary
from wreathlin.structure import format_structure, parse_structure

HEADLINERS = [
    "S(4)",                  # one set of 4: diagonal + off-diagonal
    "C(4)",                  # a 4-cycle: circulant, one weight per offset
    "wr(S(4),S(3))",         # 3 interchangeable sets of 4 interchangeable points
    "prod(S(3),S(4))",       # a 3 x 4 grid, rows and columns permuted independently
    "wr(C(3),S(4))",         # 4 interchangeable cycles of length 3
]

for text in HEADLINERS:
    expr = parse_structure(text)
    pattern = pattern_of_structure(expr)
    print(pattern_summary(format_structure(expr), pattern))

# The matrix itself, as orbit ids.  Same digit = same shared weight.
print()
print("wr(S(4),S(3)) pattern, row i / column j:")
pattern = pattern_of_structure(parse_structure("wr(S(4),S(3))"))
for row in pattern.orbit_id:
    print("  " + " ".join(str(v) for v in row))

# Three ids: within-fiber diagonal, within-fiber off-diagonal, and everything
# that crosses fibers.  Swapping whole fibers or shuffling inside one never
# moves an entry out of its class.

# A PGM rendering makes larger patterns easier to eyeball; any image viewer
# that reads plain greyscale PGM will show the block structure.
out = "pattern_wr_s4_s3.pgm"
with open(out, "w") as fh:
    fh.write(pattern_pgm(pattern))
print(f"\nwrote {out}")
