"""Memory-access counting for emulated kernels.

The cost model *declares* how many global bytes each kernel moves; the
emulator *performs* the accesses.  :class:`CountingArray` records every
element read/write so the test suite can check the declaration against
reality for every kernel — the cost model must never undercount actual
traffic, and may overcount only by the documented transaction-granularity
factor (scalar byte loads are charged as 4-byte transactions,
``repro.kernels.base.U8_SCATTERED``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class AccessCounts:
    """Element-level access totals per buffer name."""

    reads: dict[str, int] = field(default_factory=dict)
    writes: dict[str, int] = field(default_factory=dict)

    def read_elements(self, name: str | None = None) -> int:
        if name is not None:
            return self.reads.get(name, 0)
        return sum(self.reads.values())

    def read_bytes(self, itemsizes: dict[str, int]) -> float:
        """Total read bytes given each buffer's transfer element size."""
        return float(sum(n * itemsizes.get(name, 4)
                         for name, n in self.reads.items()))

    def write_bytes(self, itemsizes: dict[str, int]) -> float:
        return float(sum(n * itemsizes.get(name, 4)
                         for name, n in self.writes.items()))


class CountingArray:
    """Proxy over anything indexable that counts element accesses."""

    __slots__ = ("_inner", "_name", "_counts")

    def __init__(self, inner, name: str, counts: AccessCounts) -> None:
        self._inner = inner
        self._name = name
        self._counts = counts

    def __getitem__(self, idx):
        value = self._inner[idx]
        self._counts.reads[self._name] = (
            self._counts.reads.get(self._name, 0) + 1
        )
        return value

    def __setitem__(self, idx, value) -> None:
        self._inner[idx] = value
        self._counts.writes[self._name] = (
            self._counts.writes.get(self._name, 0) + 1
        )

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def shape(self):
        return self._inner.shape
