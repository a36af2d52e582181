"""Counter-based random streams.

Every random draw in the package comes from a stream keyed by a tuple of
identifiers (global seed, seed index, variant index, purpose tag, ...).
The key is hashed into a Philox counter key, so draws depend only on the
identifiers, never on scheduling order or on how many draws other streams
made. Equal identifiers give bit-identical draws.

`rekeyed(streams)`, used by the baselines and the guided noise draws, draws
many streams through one bit generator. For each stream it sets the Philox
key to the stream's key and resets the counter, the output buffer and the
buffered 32-bit half to a fresh Philox's, so the Generator it yields draws
exactly what `stream.generator()` would, whatever the previous stream left
behind, at about a tenth of a fresh generator's cost. The Generator is one
shared object: draw from it before the next stream, and keep no reference.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count


def _hashed(parts: tuple, h):
    """h updated with each id part in turn, h returned."""
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            if isinstance(part, bool) or not isinstance(part, numbers.Integral):
                raise ParameterError(f"stream id parts must be int or str, got {part!r}")
            part = int(part)  # a numpy integer hashes as the int of equal value
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return h


def derive_key(parts: tuple) -> int:
    """Hash a tuple of ints/strings into a 128-bit Philox key."""
    return int.from_bytes(_hashed(parts, hashlib.sha256()).digest()[:16], "little")


def rekeyed(streams):
    """Yield, for each stream in turn, a Generator that draws what
    stream.generator() draws: one Philox re-keyed for every stream, see the
    module docstring. Consecutive streams whose parts before the last are
    the same objects share those parts' hash."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # a fresh Philox's: zero counter, empty buffers
    prefix, prefix_hash = (), hashlib.sha256()  # the empty prefix's hash
    for stream in streams:
        parts = stream.parts[:-1]
        # the same objects, not equal ones: True == 1 == 1.0 but only 1 is valid
        if len(parts) != len(prefix) or not all(map(operator.is_, parts, prefix)):
            prefix = parts
            prefix_hash = _hashed(prefix, hashlib.sha256())
        digest = _hashed(stream.parts[-1:], prefix_hash.copy()).digest()
        state["state"]["key"] = list(struct.unpack_from("<2Q", digest))  # derive_key's two words
        bitgen.state = state
        yield gen


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
