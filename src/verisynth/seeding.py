"""Deterministic, order-independent random stream derivation.

Every random draw in an experiment comes from a stream keyed by
(master_seed, replication, round, direction), so results are byte-identical
no matter how replications are scheduled across workers.

Keying convention (this module is its one home: a runner builds no key)
-----------------------------------------------------------------------
- replication 0 is reserved for experiment-level draws shared by all
  replications: (0, 0, 0) seeds the real design matrix, (0, 0, 1) the bias
  direction used to place a verifier center at distance delta from truth.
- replications are 1-based; (rep, 0, 0) seeds replication ``rep``'s real data.
- retraining round k >= 1, direction j >= 1 draws from (rep, k, j); the 1-D
  process uses direction 1.

:func:`derive_stream` is the definition of a stream. :class:`KeyedStreams`
serves the same streams for many keys at once: it derives their Philox keys
in bulk and repositions one reused generator at the start of each, and
:meth:`KeyedStreams.rounds` lays out a block of replications' rows, round by
round.
"""
from __future__ import annotations

import numpy as np

from .config import MAX_INDEX
from .errors import SeedSpaceError

#: reserved experiment-level keys (replication 0)
DESIGN_KEY = (0, 0, 0)
BIAS_DIRECTION_KEY = (0, 0, 1)

#: most stream keys derived in one call
KEY_CHUNK = 2 ** 14

# SeedSequence's hashing constants (numpy.random.bit_generator)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_SPAWN_WORDS = 3


def _check_index(name: str, value: int, minimum: int = 0) -> int:
    value = int(value)
    if not minimum <= value <= MAX_INDEX:
        raise SeedSpaceError(
            f"{name} must lie in [{minimum}, {MAX_INDEX}], got {value}"
        )
    return value


def derive_stream(
    master_seed: int, replication: int, round_index: int, direction: int
) -> np.random.Generator:
    """Independent counter-based RNG stream for one (replication, round, direction).

    Pure function of its arguments: the same key always yields a generator with
    the same output, and distinct keys yield statistically independent streams.
    """
    master_seed = _check_index("master_seed", master_seed)
    key = (
        _check_index("replication", replication),
        _check_index("round_index", round_index),
        _check_index("direction", direction),
    )
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def _hash_constants(start: int, multiplier: int, count: int) -> np.ndarray:
    """The first ``count`` values of SeedSequence's 32-bit hash constant."""
    values = [start]
    for _ in range(count - 1):
        values.append((values[-1] * multiplier) & _MASK32)
    return np.array(values, dtype=np.uint32)


def _keys(block: range, rounds: range, directions: range) -> np.ndarray:
    """(replication, round, direction) keys, one row per round, replication-major
    within it; a function, so that its grids are freed before the keys are derived."""
    k, rep, j = np.meshgrid(rounds, block, directions, indexing="ij")
    return np.stack([rep, k, j], axis=-1).reshape(len(rounds), -1, 3)


class KeyedStreams:
    """The streams of many (replication, round, direction) keys of one master seed.

    ``derive(spawn)`` computes, as uint32 array operations, the Philox key that
    ``SeedSequence(master_seed, spawn_key=key).generate_state(2, np.uint64)``
    gives for each key in ``spawn``; a key with an index of 2^32 or more takes
    ``SeedSequence`` itself. The returned :class:`StreamRows` serve each key's
    stream from one reused Philox generator, set to counter 0 under the key:
    exactly the state of ``derive_stream(master_seed, *key)``. Each instance
    owns its generator, so concurrent workers each create their own.
    """

    def __init__(self, master_seed: int):
        self.master_seed = _check_index("master_seed", master_seed)
        # Mixing the seed's words zero-padded to the pool size, as a spawn key
        # requires, leaves the pool that the seed alone leaves. That mixing
        # hashes each pool word once and each ordered pair of pool words once;
        # the spawn words take the hash constants that follow.
        self._pool = np.random.SeedSequence(self.master_seed).pool[:, None]
        seed_steps = _POOL_SIZE * _POOL_SIZE
        mix = _hash_constants(_INIT_A, _MULT_A, seed_steps + _SPAWN_WORDS * _POOL_SIZE + 1)
        mix = mix[seed_steps:]
        self._xor = mix[:-1].reshape(_SPAWN_WORDS, _POOL_SIZE, 1)
        self._mul = mix[1:].reshape(_SPAWN_WORDS, _POOL_SIZE, 1)
        out = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE + 1)
        self._out_xor = out[:-1, None]
        self._out_mul = out[1:, None]
        self._bit_generator = np.random.Philox(0)
        self._generator = np.random.Generator(self._bit_generator)
        # the state at counter 0 under a key; _at sets the key and loads it
        self._start = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": None},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def derive(self, spawn: np.ndarray) -> "StreamRows":
        """The streams of the keys in ``spawn``, an integer array of shape (..., 3)."""
        spawn = np.asarray(spawn)
        if spawn.shape[-1:] != (_SPAWN_WORDS,):
            raise SeedSpaceError(f"spawn keys must have shape (..., 3), got {spawn.shape}")
        if spawn.size and (spawn.min() < 0 or spawn.max() > MAX_INDEX):
            bad = spawn[(spawn < 0) | (spawn > MAX_INDEX)][0]
            raise SeedSpaceError(f"stream indices must lie in [0, {MAX_INDEX}], got {bad}")
        flat = spawn.reshape(-1, _SPAWN_WORDS).astype(np.uint64)
        words = flat.T.astype(np.uint32)  # exact for every key that is not wide
        pool = np.repeat(self._pool, flat.shape[0], axis=1)
        shift = np.uint32(16)
        for s in range(_SPAWN_WORDS):
            value = (words[s] ^ self._xor[s]) * self._mul[s]
            value ^= value >> shift
            pool = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * value
            pool ^= pool >> shift
        state = (pool ^ self._out_xor) * self._out_mul
        state ^= state >> shift
        keys = np.ascontiguousarray(state.T).view(np.uint64)
        for i in np.flatnonzero(np.any(flat > _MASK32, axis=1)):
            seq = np.random.SeedSequence(self.master_seed,
                                         spawn_key=tuple(int(w) for w in flat[i]))
            keys[i] = seq.generate_state(2, np.uint64)
        return StreamRows(self, spawn, keys.reshape(spawn.shape[:-1] + (2,)))

    def rounds(self, block: range, rounds: int, p: int):
        """Yield the :class:`StreamRows` of replications ``block``, one set per
        round: round 0's rows are the real-data keys (rep, 0, 0), and round
        k's, for k = 1..``rounds``, the keys (rep, k, 1..p), replication-major.
        Keys are derived for up to KEY_CHUNK rows at once, spanning many rounds
        when the block is small."""
        yield self.derive(_keys(block, range(1), range(1)))[0]
        per_call = max(1, KEY_CHUNK // (len(block) * p))
        for first in range(1, rounds + 1, per_call):
            chunk = range(first, min(first + per_call, rounds + 1))
            rows = self.derive(_keys(block, chunk, range(1, p + 1)))
            for i in range(len(chunk)):
                yield rows[i]

    def _at(self, key: list[int]) -> np.random.Generator:
        self._start["state"]["key"] = key
        self._bit_generator.state = self._start
        return self._generator


class StreamRows:
    """Derived streams, indexed like the key array they came from.

    Indexing a leading axis gives the rows below it; on a 1-D set of keys,
    ``stream(row)`` repositions the owner's generator at the start of that
    row's stream and ``label(row)`` names the row's key.
    """

    def __init__(self, owner: KeyedStreams, spawn: np.ndarray, keys: np.ndarray):
        self._owner = owner
        self.spawn = spawn
        self.keys = keys
        self._key_list = None  # keys as Python ints, built on the first stream() call

    def __getitem__(self, index) -> "StreamRows":
        return StreamRows(self._owner, self.spawn[index], self.keys[index])

    def stream(self, row: int) -> np.random.Generator:
        """The generator, positioned at the start of row ``row``'s stream."""
        if self._key_list is None:
            self._key_list = self.keys.tolist()
        return self._owner._at(self._key_list[row])

    def label(self, row: int) -> str:
        """Row ``row``'s key, as named in error messages."""
        rep, k, j = (int(w) for w in self.spawn[row])
        return f"replication {rep}, round {k}, direction {j}"
