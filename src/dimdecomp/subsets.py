"""Subset algebra over variable index sets, backed by bitmasks.

Bit ``i`` of a mask stands for variable ``i + 1``, so reports print subsets
as 1-based index lists like ``[1, 3]``.  Enumerations are capped on the
number of subsets they yield (``2**DEFAULT_SUBSET_CAP``, read at call
time), not on the dimension:
the full lattice stops being desk-scale beyond 24 variables, while the
``C(N, s)`` subsets of a low cardinality stay cheap at any ``N``.
Cardinality-only arithmetic elsewhere in the package carries no cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from dimdecomp.measures import _check_integer

DEFAULT_SUBSET_CAP = 24


@dataclass(frozen=True)
class VariableSubset:
    """A subset of ``{1, ..., dim}`` stored as a bitmask."""

    mask: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if self.mask < 0 or self.mask >> self.dim:
            raise ValueError(
                f"mask {self.mask:#x} has bits outside dimension {self.dim}"
            )

    @classmethod
    def from_indices(cls, indices: Iterable[int], dim: int) -> "VariableSubset":
        """Build from 0-based coordinate indices."""
        mask = 0
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"index {i} outside [0, {dim})")
            mask |= 1 << i
        return cls(mask, dim)

    @classmethod
    def empty(cls, dim: int) -> "VariableSubset":
        return cls(0, dim)

    @classmethod
    def full(cls, dim: int) -> "VariableSubset":
        return cls((1 << dim) - 1, dim)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def indices(self) -> tuple[int, ...]:
        """0-based coordinate indices, ascending."""
        return tuple(i for i in range(self.dim) if self.mask >> i & 1)

    def label(self) -> str:
        """1-based display form, e.g. ``[1,3]``; the empty set prints ``[]``."""
        return "[" + ",".join(str(i + 1) for i in self.indices()) + "]"


def subsets_of_cardinality(dim: int, size: int) -> Iterator[VariableSubset]:
    """All subsets of a given cardinality, in increasing mask order.

    Raises before yielding anything when there are more than
    ``2**DEFAULT_SUBSET_CAP``.
    """
    if not 0 <= size <= dim:
        raise ValueError(f"cardinality {size} outside [0, {dim}]")
    _check_count(comb(dim, size))
    for m in _masks_of_size(range(dim), size):
        yield VariableSubset(m, dim)


def all_subsets_up_to(dim: int, max_order: int) -> Iterator[VariableSubset]:
    """Every subset with ``|u| <= max_order``, ordered by (cardinality, mask).

    Parameters
    ----------
    dim : int
        Number of variables.
    max_order : int
        Largest cardinality to emit; ``0 <= max_order <= dim``.  Raises
        before yielding anything when more than ``2**DEFAULT_SUBSET_CAP``
        subsets would be emitted.

    Yields
    ------
    VariableSubset
        Starting with the empty set, ending with the lexicographically
        largest subset of cardinality `max_order`.
    """
    _check_count(count_up_to(dim, max_order))
    for size in range(max_order + 1):
        yield from subsets_of_cardinality(dim, size)


def count_up_to(dim: int, max_order: int) -> int:
    """Number of subsets with ``|u| <= max_order`` (no enumeration cap)."""
    if not 0 <= max_order <= dim:
        raise ValueError(f"max order {max_order} outside [0, {dim}]")
    return sum(comb(dim, s) for s in range(max_order + 1))


def _check_orders(orders: Iterable[int], dim: int) -> tuple[int, ...]:
    """Truncation orders as ints, each an integer in ``[0, dim]``.

    Rejects an empty sequence, a non-integer order (numpy integers pass,
    ``bool`` does not) and an order out of range, so callers can check
    before any work.  Callers that need ``S < N`` pass ``dim = N - 1``.
    """
    try:
        orders = tuple(orders)
    except TypeError:
        raise ValueError(f"orders must be a sequence of integers, got {orders!r}") from None
    if not orders:
        raise ValueError("need at least one truncation order")
    for s in orders:
        if not 0 <= _check_integer(s, "truncation order") <= dim:
            raise ValueError(f"truncation order {s} outside [0, {dim}]")
    return tuple(int(s) for s in orders)


def _check_count(count: int) -> None:
    if count > 1 << DEFAULT_SUBSET_CAP:
        raise ValueError(
            f"{count} subsets exceed the enumeration cap 2**{DEFAULT_SUBSET_CAP}"
        )


def strict_subsets(u: VariableSubset) -> Iterator[VariableSubset]:
    """All proper subsets of `u` (the empty set included), ordered by
    (cardinality, mask)."""
    own = u.indices()
    for size in range(len(own)):
        for m in _masks_of_size(own, size):
            yield VariableSubset(m, u.dim)


def _masks_of_size(indices: Iterable[int], size: int) -> list[int]:
    """The masks of the `size`-subsets of `indices`, ascending: the one
    (cardinality, mask) order of the enumerators, a cardinality at a time."""
    return sorted(sum(1 << i for i in c) for c in combinations(indices, size))
