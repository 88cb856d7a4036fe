"""RIPEMD-160, needed only for hash160 (address derivation from pubkeys).

hashlib provides it when OpenSSL does; OpenSSL 3 builds without the legacy
provider do not, and there the pure-Python reference construction below
is used. The choice is made once, at import.
"""

import hashlib

# Message schedule indexes for the left path.
ML = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
    7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8,
    3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12,
    1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2,
    4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13,
]

# Message schedule indexes for the right path.
MR = [
    5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12,
    6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2,
    15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13,
    8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14,
    12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11,
]

# Rotation counts for the left path.
RL = [
    11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
    7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
    11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
    11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
    9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6,
]

# Rotation counts for the right path.
RR = [
    8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
    9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
    9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
    15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
    8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11,
]

# K constants for the left and right paths.
KL = [0, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E]
KR = [0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0]


def _fi(x, y, z, i):
    if i == 0:
        return x ^ y ^ z
    if i == 1:
        return (x & y) | (~x & z)
    if i == 2:
        return (x | ~y) ^ z
    if i == 3:
        return (x & z) | (y & ~z)
    return x ^ (y | ~z)


def _rol(x, i):
    return ((x << i) | ((x & 0xFFFFFFFF) >> (32 - i))) & 0xFFFFFFFF


def _compress(h0, h1, h2, h3, h4, block):
    """One 512-bit block compression."""
    x = [int.from_bytes(block[4 * i:4 * (i + 1)], "little") for i in range(16)]
    al, bl, cl, dl, el = h0, h1, h2, h3, h4
    ar, br, cr, dr, er = h0, h1, h2, h3, h4
    for j in range(80):
        rnd = j >> 4
        # Left path.
        al = _rol(al + _fi(bl, cl, dl, rnd) + x[ML[j]] + KL[rnd], RL[j]) + el
        al, bl, cl, dl, el = el, al & 0xFFFFFFFF, bl, _rol(cl, 10), dl
        # Right path.
        ar = _rol(ar + _fi(br, cr, dr, 4 - rnd) + x[MR[j]] + KR[rnd], RR[j]) + er
        ar, br, cr, dr, er = er, ar & 0xFFFFFFFF, br, _rol(cr, 10), dr
    return (
        (h1 + cl + dr) & 0xFFFFFFFF,
        (h2 + dl + er) & 0xFFFFFFFF,
        (h3 + el + ar) & 0xFFFFFFFF,
        (h4 + al + br) & 0xFFFFFFFF,
        (h0 + bl + cr) & 0xFFFFFFFF,
    )


def ripemd160_pure(data: bytes) -> bytes:
    """RIPEMD-160 digest of data, computed in Python."""
    state = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
    padded = data + b"\x80"
    padded += b"\x00" * ((119 - len(data)) & 63)
    padded += (8 * len(data)).to_bytes(8, "little")
    for offset in range(0, len(padded), 64):
        state = _compress(*state, padded[offset:offset + 64])
    return b"".join(w.to_bytes(4, "little") for w in state)


try:
    hashlib.new("ripemd160")
    _HASHLIB_RIPEMD160 = True
except ValueError:
    _HASHLIB_RIPEMD160 = False


def ripemd160(data: bytes) -> bytes:
    """RIPEMD-160 digest of data."""
    if _HASHLIB_RIPEMD160:
        return hashlib.new("ripemd160", data).digest()
    return ripemd160_pure(data)
