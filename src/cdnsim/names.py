"""Hierarchical content names and component-wise longest prefix matching.

A name is a tuple of opaque string components: `Name` subclasses `tuple`,
so hashing, equality and slicing run in C, a Name equals and hashes as
its plain component tuple, and a slice of a Name is a plain tuple.  A
trailing `segment=<k>` component carries a segment number.  In the text
form, `/` and `%` inside a component are percent-escaped.
"""

from __future__ import annotations

_SEGMENT_PREFIX = "segment="


def _escape(component: str) -> str:
    return component.replace("%", "%25").replace("/", "%2F")


class Name(tuple):
    """An immutable hierarchical name: a tuple of components."""

    __slots__ = ()

    def __str__(self) -> str:
        if not self:
            return "/"
        return "/" + "/".join(_escape(c) for c in self)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def with_segment(self, k: int) -> "Name":
        if k < 0:
            raise ValueError("segment number must be non-negative")
        return Name(self + (f"{_SEGMENT_PREFIX}{k}",))

    def segment(self):
        """Segment number carried by the last component, or None."""
        if not self:
            return None
        last = self[-1]
        if last.startswith(_SEGMENT_PREFIX):
            digits = last[len(_SEGMENT_PREFIX) :]
            if digits.isdigit():
                return int(digits)
        return None


def longest_prefix_match(table, query: Name):
    """Return the value whose prefix has the most components among all
    prefixes of `query`, or None.

    `table` maps Names (as `NdnNode.fib` does) or component tuples to
    values; it is probed with slices of `query`, which are plain tuples
    and match Name keys too.  Matching is component-wise: a prefix never
    matches inside a component.
    """
    for length in range(len(query), -1, -1):
        hit = table.get(query[:length])
        if hit is not None:
            return hit
    return None
