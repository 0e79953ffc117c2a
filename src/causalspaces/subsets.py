"""Subsets of component indices as int bitmasks.

A subset S of {0, ..., n-1} is the int with bit t set iff t is in S. The
empty set is 0 and the power set of an n-component space is range(1 << n).
Set algebra is plain int bit algebra; only the handful of helpers that are
not a single operator live here.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int) -> Iterator[int]:
    """Yield the component indices in mask in ascending order."""
    if mask < 0:
        raise DomainError(f"negative mask {mask}")
    t = 0
    while mask:
        if mask & 1:
            yield t
        mask >>= 1
        t += 1


def size(mask: int) -> int:
    return mask.bit_count()


def is_subset(sub: int, sup: int) -> bool:
    return sub & ~sup == 0


def all_masks(n: int) -> range:
    return range(1 << n)


def mask_of(indices) -> int:
    m = 0
    for t in indices:
        if t < 0:
            raise DomainError(f"negative component index {t}")
        b = 1 << t
        if m & b:
            raise DomainError(f"duplicate component index {t}")
        m |= b
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def local_mask(sub: int, sup: int) -> int:
    """Positions of sub's bits within the ascending enumeration of sup's bits.

    Example: sub={2}, sup={0,2} -> 0b10 (second component of the sup-list).
    """
    if not is_subset(sub, sup):
        raise DomainError("sub must be contained in sup")
    out = 0
    for pos, t in enumerate(bits(sup)):
        if sub & (1 << t):
            out |= 1 << pos
    return out
