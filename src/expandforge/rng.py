"""Counter-based random streams.

Every random draw in the package comes from a stream keyed by a tuple of
identifiers (global seed, seed index, variant index, purpose tag, ...).
The key is hashed into a Philox counter key, so draws depend only on the
identifiers, never on scheduling order or on how many draws other streams
made. Equal identifiers give bit-identical draws.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count


def derive_key(parts: tuple) -> int:
    """Hash a tuple of ints/strings into a 128-bit Philox key."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            if isinstance(part, bool) or not isinstance(part, numbers.Integral):
                raise ParameterError(f"stream id parts must be int or str, got {part!r}")
            part = int(part)  # a numpy integer hashes as the int of equal value
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:16], "little")


@dataclass(frozen=True)
class RngStream:
    """Immutable handle for one random substream.

    `child(...)` derives an independent substream by extending the id tuple;
    `generator()` returns a fresh numpy Generator seeded only by the id.
    """

    parts: tuple

    @classmethod
    def root(cls, global_seed: int) -> "RngStream":
        check_count("global_seed", global_seed, None)
        return cls((global_seed,))

    def child(self, *more) -> "RngStream":
        return RngStream(self.parts + tuple(more))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=derive_key(self.parts)))

    @property
    def id(self) -> str:
        return "/".join(str(p) for p in self.parts)
