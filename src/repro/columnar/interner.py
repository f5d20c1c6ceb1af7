"""String interning for the columnar kernels.

Algorithm 1 joins on string attributes (``lfn``, ``dataset``,
``proddblock``, ``scope``) and filters on site names.  Comparing Python
strings per candidate would dominate a per-record join after the loop
itself; the kernels therefore dictionary-encode every string through a
:class:`StringInterner` shared across collections, so equality checks
lower to ``int64`` comparisons and NumPy can vectorize them.

One interner is shared per store
(:class:`repro.metastore.packsource.PackSource` lowers every ingested
record through it, and the stream's
:class:`~repro.stream.IncrementalMatcher` keeps its own): codes are
assigned once at ingest, so overlapping windows cut identical codes
and a later lowering only looks strings up.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np


class StringInterner:
    """Bijective ``str <-> int64`` dictionary encoding.

    Codes are dense (``0..len-1``) and append-only: a string keeps its
    code for the interner's lifetime, so arrays encoded at different
    times stay comparable.
    """

    __slots__ = ("_codes", "_strings")

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self._strings: List[str] = []

    def intern(self, value: str) -> int:
        """Code for ``value``, assigning the next free code if unseen."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._strings)
            self._codes[value] = code
            self._strings.append(value)
        return code

    def encode(self, values: Sequence[str]) -> np.ndarray:
        """Vector of codes for a column of strings (interning unseen ones)."""
        codes = self._codes
        strings = self._strings
        out = []
        for value in values:
            code = codes.get(value)
            if code is None:
                code = len(strings)
                codes[value] = code
                strings.append(value)
            out.append(code)
        return np.array(out, dtype=np.int64)

    def decode(self, code: int) -> str:
        return self._strings[code]

    def code_of(self, value: str) -> int:
        """Code for ``value`` or -1 when it was never interned."""
        return self._codes.get(value, -1)

    @property
    def strings(self) -> List[str]:
        """The vocabulary, indexable by code (do not mutate)."""
        return self._strings

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    def __iter__(self) -> Iterator[str]:
        return iter(self._strings)
