"""Interest/Data packets, content objects and chunking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .names import Name

DEFAULT_CHUNK_SIZE = 8800
DEFAULT_SIGNATURE_SIZE = 32
DEFAULT_INTEREST_LIFETIME_MS = 4000.0


class InvalidContentError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Interest:
    name: Name
    nonce: int
    lifetime: float = DEFAULT_INTEREST_LIFETIME_MS

    def __post_init__(self):
        if self.lifetime <= 0:
            raise ValueError("Interest lifetime must be positive")


@dataclass(frozen=True, slots=True)
class Data:
    name: Name
    payload_size: int
    signature_size: int = DEFAULT_SIGNATURE_SIZE
    # Last segment number of the content this packet belongs to, so a
    # consumer learns the extent of the content from any Data packet.
    final_block: Optional[int] = None

    @property
    def wire_size(self) -> int:
        return self.payload_size + self.signature_size


@dataclass(frozen=True, slots=True)
class ContentObject:
    prefix: Name
    total_size: int
    chunk_size: int = DEFAULT_CHUNK_SIZE
    signature_size: int = DEFAULT_SIGNATURE_SIZE
    segment_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.total_size <= 0:
            raise InvalidContentError("total_size must be positive")
        if self.chunk_size <= 0:
            raise InvalidContentError("chunk_size must be positive")
        object.__setattr__(self, "segment_count",
                           -(-self.total_size // self.chunk_size))

    def payload_of(self, k: int) -> int:
        """Payload size of segment k (1-based)."""
        n = self.segment_count
        if not 1 <= k <= n:
            raise IndexError(f"segment {k} out of range 1..{n}")
        if k < n:
            return self.chunk_size
        return self.total_size - (n - 1) * self.chunk_size

    def segment_name(self, k: int) -> Name:
        return self.prefix.with_segment(k)

    def segment_data(self, k: int) -> Data:
        return Data(
            name=self.segment_name(k),
            payload_size=self.payload_of(k),
            signature_size=self.signature_size,
            final_block=self.segment_count,
        )
