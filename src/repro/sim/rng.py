"""Named, independently seeded random streams.

Experiments need reproducibility that is robust to refactoring: adding a new
consumer of randomness must not perturb the draws seen by existing
consumers.  ``RngRegistry`` derives one ``random.Random`` per *named* stream
from a root seed, so the link-loss stream, the bandwidth-change stream, and
the workload-size stream are all independent.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngRegistry:
    """Factory of deterministic per-purpose random streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("loss").random()
    >>> b = RngRegistry(seed=7).stream("loss").random()
    >>> a == b
    True
    >>> rngs.stream("loss") is rngs.stream("loss")
    True
    """

    __slots__ = ("seed", "_streams")

    #: Snapshot contract for checkpoint/fork (snapshot.capture refuses the
    #: rest): the streams dict is captured via ``Random.getstate``/``setstate``.
    STATE_FIELDS = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(self._derive(name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose streams are independent of the parent's."""
        return RngRegistry(self._derive(name))

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
