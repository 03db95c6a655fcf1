"""Bit-sliced words over GF(2^s), the layout of M4RIE (Albrecht, Bard and
Pernet, arXiv:1111.6900).

A word of n symbols is s bit-planes of W = ceil(n/64) little-endian uint64
values, an (s, W) array: bit i of plane t is bit t of symbol i, and the bits
past n are zero.  Addition is XOR of the planes, the Hamming weight is the
popcount of the OR of the planes, and a scalar a acts on the planes as the
s x s GF(2) matrix of x -> a*x.  A stack of words keeps its stack axes last,
(s, W, ...), so every operation runs along contiguous lanes of words.
"""

from __future__ import annotations

import math

import numpy as np

WORD = np.dtype("<u8")
_PACK_BYTES = 1 << 18  # symbols in a block of pack's input, which bounds its temporaries


def pack(symbols, s: int) -> np.ndarray:
    """(..., n) symbols in 0..2^s - 1 -> (s, W, ...) planes.  The leading
    axes are packed as one axis of words, a block of about _PACK_BYTES
    symbols at a time, into the output."""
    a = np.asarray(symbols, dtype=np.uint8)
    lead, n = a.shape[:-1], a.shape[-1]
    nwords = (n + 63) // 64
    a = a.reshape(math.prod(lead), n)
    out = np.empty((s, nwords, a.shape[0]), dtype=WORD)
    step = max(1, min(a.shape[0], _PACK_BYTES // max(1, n)))
    # one plane of one block at a time through one temporary each, the
    # octets' tail past (n + 7) // 8 left zero
    bits = np.empty((step, n), dtype=np.uint8)
    octets = np.zeros((s, step, 8 * nwords), dtype=np.uint8)
    for r0 in range(0, a.shape[0], step):
        block = a[r0:r0 + step]
        plane, words = bits[:len(block)], octets[:, :len(block)]
        for t in range(s):
            np.right_shift(block, t, out=plane)
            plane &= 1
            words[t, :, :(n + 7) // 8] = np.packbits(plane, axis=-1, bitorder="little")
        out[:, :, r0:r0 + len(block)] = words.view(WORD).transpose(0, 2, 1)
    return out.reshape((s, nwords) + lead)


def unpack(planes: np.ndarray, n: int) -> np.ndarray:
    """(s, W, ...) planes -> (..., n) uint8 symbols."""
    lanes = tuple(range(2, planes.ndim))
    octets = np.ascontiguousarray(planes.transpose((0,) + lanes + (1,))).view(np.uint8)
    out = np.unpackbits(octets[0], axis=-1, count=n, bitorder="little")
    for t in range(1, planes.shape[0]):
        bits = np.unpackbits(octets[t], axis=-1, count=n, bitorder="little")
        bits <<= t
        out |= bits
        del bits  # freed before the next plane is unpacked
    return out


def weights(planes: np.ndarray) -> np.ndarray:
    """Hamming weight of each word of an (s, W, ...) stack."""
    support = np.bitwise_or.reduce(planes, axis=0)
    return np.add.reduce(np.bitwise_count(support), axis=0, dtype=np.intp)


def scalar_masks(field) -> np.ndarray:
    """(s, s, q) masks: entry [u, t, a] is all ones iff bit u of a * 2^t is
    set, so plane u of a * x is the XOR of the planes t of x it selects."""
    s = field.s
    images = field.np_mul_table[:, 1 << np.arange(s)]            # a * 2^t
    bits = (images.T[None] >> np.arange(s, dtype=np.uint8)[:, None, None]) & 1
    return (bits * ~np.uint64(0)).astype(WORD)


def multiples(masks: np.ndarray, words: np.ndarray) -> np.ndarray:
    """All q multiples of each word of an (s, W, ..., B) stack, by lane:
    (s, W, ..., q, B), a * word b at [..., a, b], so the lanes stay the
    innermost axis of the products."""
    s, q = masks.shape[0], masks.shape[-1]
    return _apply(masks.reshape((s, s) + (1,) * (words.ndim - 3) + (q, 1)), words[..., None, :])


def times(masks: np.ndarray, a: int, words: np.ndarray) -> np.ndarray:
    """a * words for an (s, W, ...) stack."""
    s = masks.shape[0]
    return _apply(masks[..., a].reshape((s, s) + (1,) * (words.ndim - 2)), words)


def _apply(masks: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Plane u of the result is the XOR over t of masks[u, t] & planes[t],
    with the lane axes of masks and planes broadcast against each other."""
    return np.bitwise_xor.reduce(masks[:, :, None] & planes[None], axis=1)
