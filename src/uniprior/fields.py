"""Small dense linear algebra over the prime fields F_2 and F_3.

Vectors are tuples of ints in [0, q).  The helpers favour clarity over
asymptotics.  The two bases pack vectors into int bitmasks, since they sit
inside the decoding-plan hot loops: an F_2 vector is one bitmask, and
ColumnBasis holds an F_3 vector as a pair of bitmasks.  It solves in any
columns, dependent ones included, for the solution with the fewest columns.
"""

from __future__ import annotations

from typing import Iterable, Sequence

SUPPORTED_FIELD_ORDERS = (2, 3)


def unit_vector(n: int, index: int) -> tuple[int, ...]:
    """Standard basis vector with a 1 at 1-based position `index`."""
    if not 1 <= index <= n:
        raise ValueError(f"unit vector index {index} out of range 1..{n}")
    vec = [0] * n
    vec[index - 1] = 1
    return tuple(vec)


def pack_bits(vec: Sequence[int]) -> int:
    """F_2 vector -> bitmask with bit i holding coordinate i."""
    mask = 0
    for i, x in enumerate(vec):
        if x & 1:
            mask |= 1 << i
    return mask


# Unused in src/; kept for perfbench/tracing.py, which subclasses it, and the tests.
class SpanBasis:
    """Incrementally built row basis of a subspace of F_q^n.

    add() reduces the vector against the current basis and, if a nonzero
    residual remains, normalizes its pivot to 1 and stores it.  contains()
    is membership in the current span.
    """

    def __init__(self, n: int, q: int, vectors: Iterable[Sequence[int]] = ()):
        if q not in (2, 3):
            raise ValueError(f"unsupported field order {q}")
        self.n = n
        self.q = q
        # pivot coordinate -> reduced row; F_2 rows are bitmasks, F_3 rows lists
        self._rows: dict[int, object] = {}
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce2(self, mask: int) -> int:
        for pivot, row in self._rows.items():
            if (mask >> pivot) & 1:
                mask ^= row
        return mask

    def _reduce3(self, vec: Sequence[int]) -> list[int]:
        out = [x % 3 for x in vec]
        for pivot, row in self._rows.items():
            coeff = out[pivot]
            if coeff:
                for i in range(self.n):
                    out[i] = (out[i] - coeff * row[i]) % 3
        return out

    def add(self, vec: Sequence[int]) -> bool:
        """Add `vec` to the span; returns True iff the rank grew."""
        if self.q == 2:
            mask = self._reduce2(pack_bits(vec))
            if mask == 0:
                return False
            pivot = (mask & -mask).bit_length() - 1
            self._rows[pivot] = mask
            return True
        out = self._reduce3(vec)
        pivot = next((i for i, x in enumerate(out) if x), None)
        if pivot is None:
            return False
        if out[pivot] == 2:  # 2 is its own inverse in F_3, so scaling by 2 normalizes the pivot

            out = [(2 * x) % 3 for x in out]
        self._rows[pivot] = out
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        if self.q == 2:
            return self._reduce2(pack_bits(vec)) == 0
        return all(x == 0 for x in self._reduce3(vec))


_ZERO = {2: 0, 3: (0, 0)}


def _pack(vec: Sequence[int], q: int):
    """F_q vector -> F_2 bitmask, or F_3 pair (mask of 1s, mask of 2s)."""
    if q == 2:
        return pack_bits(vec)
    return pack_bits([x == 1 for x in vec]), pack_bits([x == 2 for x in vec])


def _bit(i: int, q: int):
    """Packed unit vector with a 1 at 0-based position i."""
    return 1 << i if q == 2 else (1 << i, 0)


def _add(x, y, q: int):
    if q == 2:
        return x ^ y
    (x1, x2), (y1, y2) = x, y
    x0, y0 = ~(x1 | x2), ~(y1 | y2)
    return (x1 & y0) | (y1 & x0) | (x2 & y2), (x2 & y0) | (y2 & x0) | (x1 & y1)


def _scale(x, s: int, q: int):
    s %= q
    if s == 0:
        return _ZERO[q]
    if s == 1:
        return x
    return x[1], x[0]  # F_3 doubling swaps the 1s and the 2s


def _support(x, q: int) -> int:
    return x if q == 2 else x[0] | x[1]


def _coeff(x, i: int, q: int) -> int:
    if q == 2:
        return (x >> i) & 1
    return (x[0] >> i) & 1 or 2 * ((x[1] >> i) & 1)


def _positions(mask: int):
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ColumnBasis:
    """Row reduction of columns c_1..c_N of F_q^n, dependent ones included.

    Reducing the columns once fixes, for every unit vector e_i, a residue
    rho_i that is zero at every pivot and coordinates beta_i in the pivot
    columns with e_i = sum_j beta_i[j] * c_j + rho_i.  Both are linear in the
    vector, so a combination of unit vectors lies in the span iff the same
    combination of residues vanishes, and the same combination of the beta_i
    is one solution.  A column that reduces to zero leaves a kernel vector
    instead (the column minus the combination of pivot columns equal to
    it), so every solution is that one plus a member of the kernel's span:
    q^len(kernel) of them, with len(kernel) = N - rank.  Build it with
    ColumnBasis.of().
    """

    def __init__(self, n: int, q: int, rows: dict[int, tuple], kernel: list):
        self.q = q
        self.kernel = tuple(kernel)
        self._units = []  # message i + 1 -> (rho, beta) of its unit vector
        for i in range(n):
            if i in rows:
                vec, tag = rows[i]
                self._units.append((_add(_bit(i, q), _scale(vec, -1, q), q), tag))
            else:
                self._units.append((_bit(i, q), _ZERO[q]))

    @classmethod
    def of(cls, n: int, q: int, columns: Sequence[Sequence[int]]) -> "ColumnBasis":
        if q not in (2, 3):
            raise ValueError(f"unsupported field order {q}")
        # pivot -> (reduced vector, the combination of columns it equals);
        # every row has a 1 at its pivot and 0 at the other pivots
        rows: dict[int, tuple] = {}
        kernel = []
        pivots = 0
        for j, col in enumerate(columns):
            vec, tag = _pack(col, q), _bit(j, q)
            for p in _positions(_support(vec, q) & pivots):
                c = -_coeff(vec, p, q)
                vec = _add(vec, _scale(rows[p][0], c, q), q)
                tag = _add(tag, _scale(rows[p][1], c, q), q)
            pivot = next(_positions(_support(vec, q)), None)
            if pivot is None:
                kernel.append(tag)  # the columns of tag combine to zero
                continue
            if _coeff(vec, pivot, q) == 2:
                vec, tag = _scale(vec, 2, q), _scale(tag, 2, q)
            for p, (rvec, rtag) in rows.items():
                c = -_coeff(rvec, pivot, q)
                if c:
                    rows[p] = (_add(rvec, _scale(vec, c, q), q), _add(rtag, _scale(tag, c, q), q))
            rows[pivot] = (vec, tag)
            pivots |= 1 << pivot
        return cls(n, q, rows, kernel)

    def coordinates(self, terms) -> tuple[tuple[int, int], ...] | None:
        """Lightest coordinates of the sum of coeff * e_message over (message, coeff) terms.

        Messages and the returned columns are 1-based.  Among all solutions,
        the result is the one with the fewest nonzero coefficients, then the
        lexicographically earliest sorted column list; it is unique, since two
        such solutions would differ by a kernel vector inside their common
        support, and subtracting a multiple of it would use fewer columns.  It
        lists the (column, coeff) pairs with nonzero coeff in ascending column
        order, and is None when the vector lies outside the span.
        """
        q = self.q
        residue = beta = _ZERO[q]
        for msg, coeff in terms:
            rho, b = self._units[msg - 1]
            residue = _add(residue, _scale(rho, coeff, q), q)
            beta = _add(beta, _scale(b, coeff, q), q)
        if _support(residue, q):
            return None
        if self.kernel:
            beta = self._lightest(beta)
        return tuple((j + 1, _coeff(beta, j, q)) for j in _positions(_support(beta, q)))

    def _lightest(self, beta):
        """The member of beta + span(kernel) that coordinates() returns.

        Walks all q^len(kernel) members in modular Gray code order: step i
        adds kernel[j], where q^j is the largest power of q dividing i.
        """
        q = self.q
        x = best = beta
        least = _support(beta, q)
        for step in range(1, q ** len(self.kernel)):
            j, rest = 0, step
            while rest % q == 0:
                j, rest = j + 1, rest // q
            x = _add(x, self.kernel[j], q)
            # fewer columns, or as many with the earlier sorted column list:
            # the lowest bit where the two supports differ is in x's
            support = _support(x, q)
            fewer, differ = support.bit_count() - least.bit_count(), support ^ least
            if fewer < 0 or fewer == 0 and differ & -differ & support:
                best, least = x, support
        return best
