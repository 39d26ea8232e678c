"""The whole family h_{.,k,m} of `bm_sequences.h_poly` as one packed
polynomial: h_{i,k,m} is the i-th 2^k-multisection of
Q_k(x) = prod_{j<k} (1 + x^(2^j))^((j+1)m).  `build` packs Q_k one
coefficient per nb-byte digit (the layout of `core_arith.kron_pack`) and
`child` reads h_{i,k,m} from its digits i, i + 2^k, ....  `h_poly` imports
this module only from a family's second request on, so a process that asks
for one h per family never loads it.
"""

from __future__ import annotations

from .core_arith import IntPoly, _offsets


def _flipped_product(q: int, mask: int, shift: int, e: int) -> int:
    """flip_s(q) (1 - X^s)^e, where q has nonnegative digits, flip_s negates
    those under `mask` and X^s is a shift by `shift` bits."""
    b = q - 2 * (q & mask)
    for _ in range(e):
        b -= b << shift
    return b


def width(k: int, m: int) -> int:
    """The digit width nb of `build`: h = 2^(8 nb - 1) > 2 Q_k(1), where
    Q_k(1) = 2^(m k(k+1)/2)."""
    return (m * k * (k + 1) // 2 + 2) // 8 + 1


def build(k: int, m: int) -> tuple[bytes, int]:
    """The bytes of Q_k and their digit width nb.

    Level l multiplies Q_{l-1} by (1 + X^s)^(lm), s = 2^(l-1), by lm shifted
    adds, and builds the flipped product B = flip_s(Q_{l-1}) (1 - X^s)^(lm)
    on its own, flip_s negating the digits whose index has bit l-1 set.  The
    multisection of Q_{l-1} at c < s is the parent of the children c and
    c + s, so the recurrence's parity conditions read on the digits of
    B - flip_s(A), A = Q_l: its flipped digits vanish (every lower child),
    and so do the others (every upper child).  A failed condition raises,
    naming the failing child of least index.  Q_k has nonnegative
    coefficients, so each is at most Q_k(1) = 2^(m k(k+1)/2), and every
    digit of A, B and B - flip_s(A) at every level is below 2 Q_k(1), which
    sets the width.

    The difference is formed in place on B, and each of its digits plus h
    lies in [0, 2h); flipping every top bit then leaves a digit that is 0
    exactly where the difference is 0.  A level holds only Q, B, the mask
    and the offsets, and drops the last three before the next level."""
    nb = width(k, m)
    q, n = 1, 1
    for level in range(1, k + 1):
        s, e, shift = 1 << (level - 1), level * m, (8 * nb) << (level - 1)
        n += e * s
        # no digit index below n has bit s set when s >= n (m = 0, Q_k = 1)
        mask = 0 if s >= n else int.from_bytes(
            ((bytes(s * nb) + b"\xff" * (s * nb)) * (n // (2 * s) + 1))[: n * nb], "little")
        b = _flipped_product(q, mask, shift, e)
        for _ in range(e):
            q += q << shift
        off = _offsets(n, nb)
        b -= q
        b += 2 * (q & mask)
        b += off
        b ^= off
        lower, upper = not b & mask, not b & ~mask
        if not (lower and upper):
            raw = b.to_bytes(n * nb, "little")
            bad = min(j % s for j in range(n)
                      if bool(j & s) != lower and any(raw[j * nb : (j + 1) * nb]))
            raise ArithmeticError(f"h recurrence parity violation at {(bad + s * lower, level, m)}")
        del b, off, mask
    return q.to_bytes(n * nb, "little"), nb


def child(family: tuple[bytes, int], i: int, k: int) -> IntPoly:
    """h_{i,k,m}: the digits i, i + 2^k, ... of a family from `build`."""
    raw, nb = family
    return IntPoly([int.from_bytes(raw[j : j + nb], "little")
                    for j in range(i * nb, len(raw), nb << k)])
