"""Deterministic seed derivation for independent random streams.

Child seeds are derived from a label tuple via SHA-256 so that parallel
evaluation of rollout i equals serial evaluation, and so that training,
snapshot evaluation, and simulation never share a stream by accident.
``spawn_rngs`` gives the streams of rollouts 0, 1, ... under one label:
it hashes the label once and reseeds a single generator per rollout, and
each stream equals the one ``spawn_rng`` gives for the same label and
index.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def _seed(digest) -> int:
    """The 63-bit seed a SHA-256 hash object stands for."""
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def _label(parts: tuple) -> bytes:
    """The bytes a label is hashed as: each part as ``str`` writes it, joined by ':'."""
    return ":".join(map(str, parts)).encode("utf-8")


def derive_seed(*parts: int | str) -> int:
    """Stable 63-bit seed from a sequence of ints/strings."""
    return _seed(hashlib.sha256(_label(parts)))


def spawn_rng(*parts: int | str) -> random.Random:
    return random.Random(derive_seed(*parts))


def spawn_rngs(*parts: int | str, count: int) -> Iterator[random.Random]:
    """``spawn_rng(*parts, i)`` for i in ``range(count)``, hashing ``parts`` once.

    Every item is the same generator, reseeded: an rng is valid only until
    the next one is drawn, so use each before taking the next.
    """
    prefix = hashlib.sha256(_label((*parts, "")))  # the label of (*parts, i) up to str(i)
    rng = random.Random(0)
    for i in range(count):
        digest = prefix.copy()
        digest.update(str(i).encode("ascii"))
        rng.seed(_seed(digest))
        yield rng
