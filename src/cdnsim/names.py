"""Hierarchical content names and component-wise longest prefix matching.

Names are `/`-separated lists of opaque string components.  A trailing
`segment=<k>` component carries a segment number.  `/` and `%` inside a
component are percent-escaped so every name round-trips through its text
form.
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


class Name:
    """An immutable hierarchical name."""

    __slots__ = ("components",)

    def __init__(self, components=()):
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, *a):
        raise AttributeError("Name is immutable")

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

    def __str__(self) -> str:
        if not self.components:
            return "/"
        return "/" + "/".join(_escape(c) for c in self.components)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other) -> bool:
        # A Name equals its component tuple, and the hashes agree, so a
        # table keyed by either answers a lookup by either.
        if isinstance(other, Name):
            return self.components == other.components
        return self.components == other

    def __hash__(self) -> int:
        return hash(self.components)

    def append(self, component: str) -> "Name":
        return Name(self.components + (component,))

    def with_segment(self, k: int) -> "Name":
        if k < 0:
            raise ValueError("segment number must be non-negative")
        return Name(self.components + (f"{_SEGMENT_PREFIX}{k}",))

    def segment(self):
        """Segment number carried by the last component, or None."""
        if not self.components:
            return None
        last = self.components[-1]
        if last.startswith(_SEGMENT_PREFIX):
            digits = last[len(_SEGMENT_PREFIX) :]
            if digits.isdigit():
                return int(digits)
        return None

    def prefix(self) -> "Name":
        """The name without its segment component (identity if none)."""
        if self.segment() is None:
            return self
        return Name(self.components[:-1])

    def is_prefix_of(self, other: "Name") -> bool:
        n = len(self.components)
        return other.components[:n] == self.components


def longest_prefix_match(table, query: Name):
    """Return the value whose prefix has the most components among all
    prefixes of `query`, or None.

    `table` maps component tuples (as `NdnNode.fib` does) or Names to
    values; it is probed with tuples, which match Name keys too.
    Matching is component-wise: a prefix never matches inside a component.
    """
    q = query.components
    for length in range(len(q), -1, -1):
        hit = table.get(q[:length])
        if hit is not None:
            return hit
    return None
