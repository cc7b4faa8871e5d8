import math
import time

import numpy as np
import pytest

from wreathlin.basis import orbit_pattern, structure_orbit_count
from wreathlin.perm import InvalidDegreeError, enumerate_group, orbit_minima
from wreathlin.structure import (
    LEAF_KINDS,
    MAX_NESTING,
    Cycle,
    Prod,
    Set,
    StructureParseError,
    Trivial,
    Wreath,
    degree,
    format_structure,
    group_of,
    group_order,
    orbit_counts,
    param_count,
    parse_structure,
    reassociate_wreaths,
)


def test_parse_primitives():
    assert parse_structure("S(4)") == Set(4)
    assert parse_structure("C(3)") == Cycle(3)
    assert parse_structure("trivial(2)") == Trivial(2)


def test_parse_composites_and_argument_order():
    assert parse_structure("prod(C(4),C(3))") == Prod(outer=Cycle(4), inner=Cycle(3))
    assert parse_structure("wr(S(4),S(3))") == Wreath(inner=Set(4), outer=Set(3))
    nested = parse_structure("wr(wr(S(2),C(2)),C(2))")
    assert nested == Wreath(inner=Wreath(inner=Set(2), outer=Cycle(2)), outer=Cycle(2))


def test_parse_is_whitespace_insensitive():
    assert parse_structure(" wr( S(4) , S(3) ) ") == parse_structure("wr(S(4),S(3))")


@pytest.mark.parametrize(
    "text",
    ["", "garbage(3)", "S()", "S(2", "S(2))", "prod(S(2))", "wr(S(2),S(2),S(2))", "S(x)"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(StructureParseError):
        parse_structure(text)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_parse_rejects_deep_nesting(depth):
    with pytest.raises(StructureParseError, match="nests deeper"):
        parse_structure("prod(" * depth + "C(2)" + ",S(1))" * depth)


def test_long_trailing_input_fails_fast_with_a_short_message():
    text = "S(1)" + ")" * (1_000_000 - 4)
    start = time.perf_counter()
    with pytest.raises(StructureParseError, match="trailing input") as info:
        parse_structure(text)
    assert len(str(info.value)) < 200
    assert time.perf_counter() - start < 10


def test_sizes_must_be_positive():
    with pytest.raises(InvalidDegreeError):
        parse_structure("S(0)")
    with pytest.raises(InvalidDegreeError):
        Cycle(0)


def test_format_round_trips():
    for text in [
        "S(4)",
        "C(6)",
        "trivial(2)",
        "prod(C(4),S(3))",
        "wr(S(4),S(3))",
        "wr(prod(C(2),C(2)),prod(S(2),S(2)))",
        "wr(wr(S(2),C(2)),C(2))",
    ]:
        expr = parse_structure(text)
        assert format_structure(expr) == text
        assert parse_structure(format_structure(expr)) == expr


def test_degree_is_product_of_leaf_sizes():
    assert degree(parse_structure("wr(S(4),S(3))")) == 12
    assert degree(parse_structure("prod(S(3),S(4))")) == 12
    assert degree(parse_structure("wr(wr(S(2),C(2)),C(2))")) == 8
    assert degree(Trivial(5)) == 5


def test_param_count_closed_forms():
    assert param_count(Set(4)) == 2
    assert param_count(Set(1)) == 1
    assert param_count(Cycle(5)) == 5
    assert param_count(Trivial(3)) == 9
    assert param_count(Wreath(inner=Set(4), outer=Set(3))) == 3
    assert param_count(Prod(outer=Set(3), inner=Set(4))) == 4
    assert param_count(Wreath(inner=Wreath(inner=Set(2), outer=Cycle(2)), outer=Cycle(2))) == 4
    assert param_count(parse_structure("wr(prod(C(2),C(2)),prod(S(2),S(2)))")) == 7


def test_param_count_with_intransitive_factors():
    # (m1, m2) recursion: wr(B, A) has m1(A) * m2(B) + (m2(A) - m1(A)) * m1(B)**2 pair orbits
    assert orbit_counts(Trivial(3)) == (3, 9)
    assert orbit_counts(parse_structure("prod(trivial(2),S(3))")) == (2, 8)
    assert param_count(parse_structure("wr(trivial(2),C(3))")) == 1 * 4 + (3 - 1) * 4
    assert param_count(parse_structure("wr(S(3),trivial(2))")) == 2 * 2 + (4 - 2) * 1
    assert orbit_counts(parse_structure("wr(S(3),trivial(2))")) == (2, 6)
    assert param_count(parse_structure("wr(trivial(3),trivial(2))")) == 36
    assert param_count(parse_structure("wr(wr(trivial(2),S(2)),trivial(2))")) == 24


def test_group_order_closed_forms():
    assert group_order(Set(4)) == 24
    assert group_order(Set(1)) == 1
    assert group_order(Cycle(5)) == 5
    assert group_order(Trivial(3)) == 1
    assert group_order(parse_structure("prod(S(3),C(4))")) == 24
    assert group_order(parse_structure("wr(S(4),S(3))")) == 24 ** 3 * 6
    assert group_order(parse_structure("wr(S(3),trivial(2))")) == 36
    assert group_order(parse_structure("wr(trivial(2),C(3))")) == 3
    assert group_order(parse_structure("wr(S(8),S(8))")) == math.factorial(8) ** 9


def test_group_of_primitives_and_composites():
    assert len(enumerate_group(group_of(Set(3)), limit=100)) == 6
    assert len(enumerate_group(group_of(Wreath(inner=Set(2), outer=Set(3))), limit=100)) == 48
    assert len(enumerate_group(group_of(Prod(outer=Cycle(2), inner=Cycle(2))), limit=100)) == 4


def test_group_of_cache_is_bounded():
    bound = group_of.cache_info().maxsize
    assert bound is not None
    for n in range(1, bound + 10):
        group_of(Cycle(n))
    assert group_of.cache_info().currsize <= bound


LEAVES = [("S", Set, 2), ("C", Cycle, 3), ("trivial", Trivial, 9)]


@pytest.mark.parametrize("head, cls, orbits", LEAVES, ids=[h for h, _, _ in LEAVES])
def test_leaf_kinds_share_a_base_but_stay_distinct(head, cls, orbits):
    others = [other for _, other, _ in LEAVES if other is not cls]
    assert repr(cls(3)) == f"{cls.__name__}(n=3)"
    assert all(cls(3) != other(3) for other in others)
    # Leaves of equal size hash alike; a cached count must not leak across kinds.
    for other in others:
        structure_orbit_count(other(3))
    assert structure_orbit_count(cls(3)) == orbits
    with pytest.raises(InvalidDegreeError, match=rf"^{head}\(n\) needs n >= 1, got 0$"):
        parse_structure(f"{head}(0)")


@pytest.mark.parametrize("cls", list(LEAF_KINDS), ids=[kind.head for kind in LEAF_KINDS.values()])
@pytest.mark.parametrize("n", range(1, 7))
def test_leaf_kind_record_matches_its_group(cls, n):
    """Each record's closed forms against its group's generators and its
    enumeration, so a new leaf kind is checked by its table entry alone."""
    kind = LEAF_KINDS[cls]
    group = kind.group(n)
    pattern = orbit_pattern(group)
    m1, m2 = kind.counts(n)
    assert (m1, m2) == (len(orbit_minima(group)), pattern.num_orbits)
    assert kind.order(n) == len(enumerate_group(group, limit=720))
    i, j = np.divmod(np.arange(n * n), n)
    assert np.array_equal(kind.orbit_of(n, i, j), pattern.orbit_id.ravel())
    # the first m2 row-major entries are the orbits' first appearances, in id order
    assert np.array_equal(kind.orbit_of(n, i[:m2], j[:m2]), np.arange(m2))
    assert parse_structure(f"{kind.head}({n})") == cls(n)
    assert format_structure(cls(n)) == f"{kind.head}({n})"


def test_reassociate_wreaths_right_normalizes():
    left = parse_structure("wr(wr(S(2),C(2)),C(3))")
    assert reassociate_wreaths(left) == parse_structure("wr(S(2),wr(C(2),C(3)))")
    # already right-associated input is a fixed point
    right = parse_structure("wr(S(2),wr(C(2),C(3)))")
    assert reassociate_wreaths(right) == right
    # rewrites apply inside other constructors too
    mixed = parse_structure("prod(wr(wr(S(2),S(2)),S(2)),C(2))")
    assert reassociate_wreaths(mixed) == parse_structure("prod(wr(S(2),wr(S(2),S(2))),C(2))")


def test_reassociate_preserves_degree_and_count():
    for text in ["wr(wr(S(2),C(2)),C(2))", "wr(wr(C(2),S(3)),S(2))"]:
        expr = parse_structure(text)
        flat = reassociate_wreaths(expr)
        assert degree(flat) == degree(expr)
        assert param_count(flat) == param_count(expr)
