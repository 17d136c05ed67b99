from __future__ import annotations

from itertools import combinations
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimdecomp import subsets
from dimdecomp.subsets import (
    DEFAULT_SUBSET_CAP,
    VariableSubset,
    all_subsets_up_to,
    count_up_to,
    strict_subsets,
    subsets_of_cardinality,
)


class TestVariableSubset:
    def test_from_indices_roundtrip(self):
        u = VariableSubset.from_indices([0, 2], 4)
        assert u.mask == 0b101
        assert u.indices() == (0, 2)
        assert u.cardinality == 2

    def test_label_is_one_based(self):
        assert VariableSubset.from_indices([0, 2], 4).label() == "[1,3]"
        assert VariableSubset.empty(3).label() == "[]"

    def test_mask_outside_dim_rejected(self):
        with pytest.raises(ValueError):
            VariableSubset(0b1000, 3)
        with pytest.raises(ValueError):
            VariableSubset(-1, 3)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            VariableSubset.from_indices([3], 3)


class TestEnumeration:
    def test_small_counts(self):
        assert len(list(all_subsets_up_to(3, 3))) == 8
        got = [u.indices() for u in all_subsets_up_to(3, 1)]
        assert got == [(), (0,), (1,), (2,)]
        # 1 + 20 + C(20, 2)
        assert len(list(all_subsets_up_to(20, 2))) == 1 + 20 + 190
        assert count_up_to(20, 2) == 211

    def test_ordering_and_uniqueness(self):
        subs = list(all_subsets_up_to(6, 6))
        keys = [(u.cardinality, u.mask) for u in subs]
        assert keys == sorted(keys)
        assert len(set(u.mask for u in subs)) == len(subs)

    def test_mask_order_within_cardinality(self):
        # combinations() order is not mask order; the contract is mask order
        masks = [u.mask for u in subsets_of_cardinality(4, 2)]
        assert masks == sorted(masks) == [3, 5, 6, 9, 10, 12]

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_counts_match_binomials(self, dim, max_order):
        if max_order > dim:
            with pytest.raises(ValueError):
                list(all_subsets_up_to(dim, max_order))
            return
        subs = list(all_subsets_up_to(dim, max_order))
        assert len(subs) == sum(comb(dim, s) for s in range(max_order + 1))
        assert len(subs) == count_up_to(dim, max_order)

    def test_cap_enforced(self, monkeypatch):
        # the cap bounds the number of subsets yielded, not the dimension
        with pytest.raises(ValueError, match="cap"):
            next(all_subsets_up_to(DEFAULT_SUBSET_CAP + 1, DEFAULT_SUBSET_CAP + 1))
        with pytest.raises(ValueError, match="cap"):
            next(subsets_of_cardinality(30, 15))
        assert len(list(subsets_of_cardinality(30, 1))) == 30
        assert len(list(all_subsets_up_to(100, 1))) == 101
        # the cap is read at call time, so moving it moves the bound either way
        monkeypatch.setattr(subsets, "DEFAULT_SUBSET_CAP", 4)
        with pytest.raises(ValueError, match="cap"):
            next(subsets_of_cardinality(30, 1))
        with pytest.raises(ValueError, match="cap"):
            next(all_subsets_up_to(30, 1))
        monkeypatch.setattr(subsets, "DEFAULT_SUBSET_CAP", 5)
        assert len(list(subsets_of_cardinality(30, 1))) == 30
        assert len(list(all_subsets_up_to(30, 1))) == 31

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            list(all_subsets_up_to(4, 5))
        with pytest.raises(ValueError):
            list(all_subsets_up_to(4, -1))


class TestStrictSubsets:
    def test_examples(self):
        u = VariableSubset.from_indices([1], 3)
        assert [v.mask for v in strict_subsets(u)] == [0]
        u = VariableSubset.from_indices([0, 1], 3)
        assert [v.indices() for v in strict_subsets(u)] == [(), (0,), (1,)]
        assert list(strict_subsets(VariableSubset.empty(3))) == []

    def test_count_is_2k_minus_1(self):
        u = VariableSubset.from_indices([0, 2, 3, 5, 6], 8)
        subs = list(strict_subsets(u))
        assert len(subs) == 2**5 - 1
        assert all(v.mask & ~u.mask == 0 and v != u for v in subs)

    @given(st.integers(0, 10).flatmap(lambda dim: st.builds(
        VariableSubset, st.integers(0, (1 << dim) - 1), st.just(dim)
    )))
    def test_ordering(self, u):
        # the (cardinality, mask) order, against a submask walk sorted by
        # (popcount, mask) as the reference
        masks = []
        if u.mask:
            sub = u.mask
            while True:
                sub = (sub - 1) & u.mask  # standard submask walk
                masks.append(sub)
                if sub == 0:
                    break
        masks.sort(key=lambda m: (m.bit_count(), m))
        got = list(strict_subsets(u))
        assert [v.mask for v in got] == masks
        assert all(v.dim == u.dim for v in got)


def test_enumeration_matches_itertools_reference():
    # independent oracle: build the same lattice from itertools and sort
    dim, cap = 7, 4
    expected = set()
    for size in range(cap + 1):
        for c in combinations(range(dim), size):
            expected.add(sum(1 << i for i in c))
    got = set(u.mask for u in all_subsets_up_to(dim, cap))
    assert got == expected
