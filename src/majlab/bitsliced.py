"""Bit-sliced batch simulation: many trajectories in lock step.

The batch is stored transposed: one Python integer per VERTEX, where bit j
carries trajectory j's opinion of that vertex (1 <=> +1).  One majority
update then costs a handful of bignum boolean operations per vertex,
independent of the number of trajectories:

  * degree 1 copies the neighbour's column,
  * degree 3 uses the identity maj(a, b, c) = (a AND b) OR (c AND (a OR b)),
  * larger odd degrees tally neighbour bits in a ripple-carry counter and
    compare it against (d + 1) / 2 bit-slice by bit-slice.

This is what makes 2^20-scale exhaustive enumerations (brute-force tau,
extension quantifiers, exact probabilities) cheap: a full sweep is a few
hundred bignum operations.
"""

from __future__ import annotations

import numpy as np

from .dynamics import step_budget
from .errors import InvariantViolationError


def tt_column(i: int, m: int) -> int:
    """Truth-table column of variable i among m: bit j of the result is
    bit i of j, for j in [0, 2^m)."""
    if not (0 <= i < m):
        raise ValueError(f"variable index {i} out of range for m={m}")
    block = ((1 << (1 << i)) - 1) << (1 << i)
    width = 1 << (i + 1)
    total = 1 << m
    while width < total:
        block |= block << width
        width <<= 1
    return block


def bit_majority(words: list[int], mask: int) -> int:
    """Positions where more than half of the (odd count of) words are 1."""
    cnt: list[int] = []
    for w in words:
        carry = w
        i = 0
        while carry:
            if i == len(cnt):
                cnt.append(carry)
                break
            cnt[i], carry = cnt[i] ^ carry, cnt[i] & carry
            i += 1
    thr = (len(words) + 1) // 2
    nbits = max(len(cnt), thr.bit_length())
    gt, eq = 0, mask
    for i in range(nbits - 1, -1, -1):
        b = cnt[i] if i < len(cnt) else 0
        if (thr >> i) & 1:
            eq &= b
        else:
            gt |= eq & b
    return gt | eq


def adjacency_lists(host) -> list[list[int]]:
    flat = host.adj_flat.tolist()
    offsets = host.adj_offsets.tolist()
    return [flat[offsets[v] : offsets[v + 1]] for v in range(host.n)]


def batch_step(adj: list[list[int]], cols: list[int], mask: int) -> list[int]:
    new = [0] * len(adj)
    for v, nb in enumerate(adj):
        if len(nb) == 1:
            new[v] = cols[nb[0]]
        elif len(nb) == 3:
            a, b, c = cols[nb[0]], cols[nb[1]], cols[nb[2]]
            new[v] = (a & b) | (c & (a | b))
        else:
            new[v] = bit_majority([cols[u] for u in nb], mask)
    return new


def pack_bit_rows(rows: np.ndarray) -> list[int]:
    """Rows of 0/1 values to per-row column integers (bit j = column j)."""
    return [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in rows
    ]


def lowest_bit_index(x: int) -> int:
    if x <= 0:
        raise ValueError("no set bit")
    return (x & -x).bit_length() - 1


class BatchRun:
    """Lock-step batch with the same stabilisation window as Trajectory.

    ``undecided`` holds the trajectories that have not yet produced a step
    t with xi_{t+2} = xi_t; it can only shrink.  The run aborts if any
    trajectory survives past the period-two budget, which would mean the
    engine is wrong.
    """

    def __init__(self, host, cols0: list[int], mask: int):
        if len(cols0) != host.n:
            raise ValueError("one column per vertex required")
        self.adj = adjacency_lists(host)
        self.mask = mask
        self.n = host.n
        self.t = 0
        self.window: list[list[int]] = [list(cols0)]
        self.undecided = mask
        self.limit = step_budget(host) + 2

    @property
    def cols(self) -> list[int]:
        return self.window[-1]

    def flip_col(self, v: int) -> int:
        """Trajectories where v changed between steps t-2 and t."""
        if self.t < 2:
            return 0
        return self.window[-1][v] ^ self.window[0][v]

    def advance(self) -> None:
        if self.undecided and self.t >= self.limit:
            raise InvariantViolationError(
                f"batch not 2-periodic within {self.limit} steps"
            )
        new = batch_step(self.adj, self.window[-1], self.mask)
        self.t += 1
        self.window.append(new)
        if len(self.window) > 3:
            self.window.pop(0)
        if self.t >= 2 and self.undecided:
            old = self.window[0]
            changed = 0
            for v in range(self.n):
                changed |= new[v] ^ old[v]
            self.undecided &= changed


def batch_max_tau(host, cols0: list[int], mask: int) -> tuple[int, int]:
    """Largest tau over the batch plus the lowest bit index attaining it."""
    run = BatchRun(host, cols0, mask)
    survivors = run.undecided
    while run.undecided:
        survivors = run.undecided
        run.advance()
    if run.t < 2:
        # Width-0 masks are rejected upstream; undecided empties at t >= 2.
        raise InvariantViolationError("batch ended before the first check")
    return run.t - 2, lowest_bit_index(survivors)
