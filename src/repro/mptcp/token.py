"""Key and token handling (RFC 6824 §3.1/§3.2).

Each end of an MPTCP connection picks a random 64-bit key during the
MP_CAPABLE handshake.  The 32-bit *token* that identifies the connection in
MP_JOIN handshakes is the most significant 32 bits of the SHA-1 digest of
the key.  The reproduction follows the same derivation so that token
collisions and demultiplexing behave like the real protocol.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache

from repro.sim.randomness import RandomSource


def generate_key(rng: RandomSource) -> int:
    """Draw a random 64-bit MPTCP key."""
    return (rng.randint(0, 0xFFFFFFFF) << 32) | rng.randint(0, 0xFFFFFFFF)


@lru_cache(maxsize=256)
def derive_token(key: int) -> int:
    """Derive the 32-bit connection token from a 64-bit key (RFC 6824).

    Memoised: every key's token is derived at both ends of its connection
    (and again by capture analysis), a SHA-1 each time otherwise.
    """
    if not 0 <= key < (1 << 64):
        raise ValueError(f"MPTCP key must fit in 64 bits, got {key!r}")
    digest = hashlib.sha1(struct.pack("!Q", key)).digest()
    return struct.unpack("!I", digest[:4])[0]


def derive_initial_data_seq(key: int) -> int:
    """Derive the initial data sequence number from a key.

    RFC 6824 uses the low 64 bits of the SHA-1 digest; the reproduction
    keeps the derivation but folds it into 32 bits and the connection then
    works with *relative* data sequence numbers starting at zero, which is
    what every plot in the paper shows anyway.
    """
    if not 0 <= key < (1 << 64):
        raise ValueError(f"MPTCP key must fit in 64 bits, got {key!r}")
    digest = hashlib.sha1(struct.pack("!Q", key)).digest()
    return struct.unpack("!I", digest[-4:])[0]
