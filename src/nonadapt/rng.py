"""Named random streams derived from a single 64-bit seed.

Every source of randomness in the harness (vandam's hidden strings,
extract-set's trials) draws from stream(seed, name, ...): each subcomponent
owns its stream, so adding or removing draws in one never changes another's,
and streams with different names are independent by construction.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError

MAX_SEED = 1 << 64


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    return seed


def _name_entropy(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def stream(seed: int, *names: str) -> np.random.Generator:
    """Generator for the subcomponent addressed by the given name path."""
    entropy = [check_seed(seed)] + [_name_entropy(n) for n in names]
    return np.random.default_rng(entropy)
