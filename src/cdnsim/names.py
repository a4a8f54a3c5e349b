"""Hierarchical content names and component-wise longest prefix matching.

A name is a tuple of opaque string components: `Name` subclasses `tuple`,
so hashing, equality and slicing run in C, a Name equals and hashes as
its plain component tuple, and a slice of a Name is a plain tuple.  A
trailing `segment=<k>` component carries a segment number.  In the text
form, `/` and `%` inside a component are percent-escaped so every name
round-trips through it.
"""

from __future__ import annotations

_SEGMENT_PREFIX = "segment="


def _escape(component: str) -> str:
    return component.replace("%", "%25").replace("/", "%2F")


def _unescape(component: str) -> str:
    out = []
    i = 0
    n = len(component)
    while i < n:
        ch = component[i]
        if ch == "%" and i + 2 < n + 1 and i + 3 <= n:
            try:
                out.append(chr(int(component[i + 1 : i + 3], 16)))
                i += 3
                continue
            except ValueError:
                pass
        out.append(ch)
        i += 1
    return "".join(out)


class Name(tuple):
    """An immutable hierarchical name: a tuple of components."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "Name":
        if not text.startswith("/"):
            raise ValueError(f"name must start with '/': {text!r}")
        body = text[1:]
        if body == "":
            return cls(())
        parts = body.split("/")
        if any(p == "" for p in parts):
            raise ValueError(f"empty component in name: {text!r}")
        return cls(_unescape(p) for p in parts)

    @property
    def components(self) -> tuple:
        """The components as a plain tuple."""
        return tuple(self)

    def __str__(self) -> str:
        if not self:
            return "/"
        return "/" + "/".join(_escape(c) for c in self)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def append(self, component: str) -> "Name":
        return Name(self + (component,))

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

    def prefix(self) -> "Name":
        """The name without its segment component (identity if none)."""
        if self.segment() is None:
            return self
        return Name(self[:-1])

    def is_prefix_of(self, other: "Name") -> bool:
        return other[:len(self)] == self


def longest_prefix_match(table, query: Name):
    """Return the value whose prefix has the most components among all
    prefixes of `query`, or None.

    `table` maps component tuples (as `NdnNode.fib` does) or Names to
    values; it is probed with slices of `query`, which are plain tuples
    and match Name keys too.  Matching is component-wise: a prefix never
    matches inside a component.
    """
    for length in range(len(query), -1, -1):
        hit = table.get(query[:length])
        if hit is not None:
            return hit
    return None
