"""Retired: the dictionary-encoded columnar tier.

Relations keep one data plane — their row set plus lazy hash indexes
(:mod:`repro.datalog.database`).  Only the name below remains.
"""

from __future__ import annotations

__all__ = ["global_dictionary"]


# perfbench compatibility — drop with the next benchmark PR
class _EmptyDictionary:
    """Stands in for the retired process-wide constant dictionary."""

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


_DICTIONARY = _EmptyDictionary()


def global_dictionary() -> _EmptyDictionary:
    return _DICTIONARY
