"""Bit-sliced batch simulation: many trajectories in lock step.

The batch is stored transposed: one integer per VERTEX, where bit j
carries trajectory j's opinion of that vertex (1 <=> +1).  One majority
update then costs a handful of boolean operations per vertex,
independent of the number of trajectories:

  * degree 1 copies the neighbour's column,
  * degree 3 uses the identity maj(a, b, c) = (a AND b) OR (c AND (a OR b)),
  * larger odd degrees tally neighbour bits in a ripple-carry counter and
    compare it against (d + 1) / 2 bit-slice by bit-slice.

Two engines apply this.  ``BatchRun`` holds one Python integer per vertex,
so a batch has any width: this is what makes 2^20-scale exhaustive
enumerations (brute-force tau, extension quantifiers, exact probabilities)
cheap, a full sweep being a few hundred bignum operations.  Its one
constructor takes neighbour lists, a start column per vertex, the lane
mask and the graph's step budget.  Runs are built in two layouts:
``_Extensions``, whose lanes are every assignment of the vertices that a
pattern leaves free (brute-force tau, the extension quantifiers, the
claims sweeps), and ``stability._PinnedSubtree``, a pinned light cone.

``PackedHost`` holds one word per vertex of a perfect host in a numpy
array, laid out by the host's levels: leaves copy their parent's word,
and every other vertex runs the counter on a slice of whole levels at
once, so up to 64 trajectories on a host of millions of vertices step
together (E. Biham, "A fast new DES implementation in software", FSE 1997).
A word of m trajectories is W bits wide, the narrowest of 8, 16, 32 and 64
with W >= m, so a run holds two states of n W / 8 bytes each.

Both engines update a PASSIVE vertex on the first step only.  Its leaves
copy it, so it repeats with period two from time 0 whatever the other
opinions are (Goles & Olivos, 1980).  ``BatchRun`` finds these vertices
in its neighbour lists and, from the second step on, keeps their columns
of state t - 1 as they are.  In ``PackedHost`` with k even they are level
h - 1, and the leaves repeat from time 1: the later steps update levels 0
to h - 2, with level h - 1 a fixed boundary, and a flag per lane says
whether the leaves delay tau to 1.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import or_, xor

import numpy as np

from .dynamics import OpinionVector, step_budget
from .errors import BudgetExceededError, InvariantViolationError
from .trees import RootedTree, _indexable_level_starts


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


def batch_step(
    adj: list[list[int]],
    cols: list[int],
    mask: int,
    prev: list[int] | None = None,
    moving: list[int] | None = None,
) -> list[int]:
    """The majority update of state ``cols`` on the graph of neighbour
    lists ``adj``.  Given ``prev``, the state before ``cols``, only the
    vertices ``moving`` are updated: every other one keeps its entry of
    ``prev``, the same int object."""
    if prev is None:
        new, moving = [0] * len(adj), range(len(adj))
    else:
        new = list(prev)
    for v in moving:
        nb = adj[v]
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
    """Lock-step batch from ``cols0`` on the graph of neighbour lists
    ``adj``, with the same three-state stabilisation window as ``stabilise``.

    ``undecided`` holds the trajectories that have not yet produced a step
    s with xi_{s+2} = xi_s; it can only shrink.  Stepping is deterministic,
    so a trajectory with xi_s = xi_{s-2} repeats ever after, and these are
    exactly the trajectories changed between t - 2 and t: the bits are
    built only when read.  ``changing`` says whether the whole state t
    differs from state t - 2 (true before step 2), which compares columns
    without building any; with no column bits outside ``mask`` it is
    ``undecided != 0``.  The run aborts if the state still changes after
    the graph's step budget + 2 steps, which would mean the engine is wrong.

    A vertex u whose neighbour list is [v] copies v.  If more than half
    of v's neighbours copy v, they hold x_{t-1}(v) at time t, so
    x_{t+1}(v) = x_{t-1}(v) for t >= 1 (on a host: v is PASSIVE; a pinned
    vertex, whose list is itself, is constant).  Only the first step
    updates such a vertex; the later ones update the vertices ``moving``
    and hold the others' columns of state t - 1, the same int objects,
    which the comparisons then skip.
    """

    def __init__(self, adj: list[list[int]], cols0: list[int], mask: int, budget: int):
        if len(cols0) != len(adj):
            raise ValueError("one column per vertex required")
        self.adj = adj
        self.mask = mask
        self.n = len(adj)
        self.t = 0
        self.window: list[list[int]] = [list(cols0)]
        self.changing = True
        self.limit = budget + 2
        copies = [0] * self.n
        for nb in adj:
            if len(nb) == 1:
                copies[nb[0]] += 1
        self.moving = [v for v, nb in enumerate(adj) if 2 * copies[v] <= len(nb)]

    @property
    def cols(self) -> list[int]:
        return self.window[-1]

    @property
    def undecided(self) -> int:
        if self.t < 2:
            return self.mask
        pairs = zip(self.window[-1], self.window[0])
        return self.mask & reduce(or_, [a ^ b for a, b in pairs if a is not b], 0)

    def flip_col(self, v: int) -> int:
        """Trajectories where v changed between steps t-2 and t."""
        if self.t < 2:
            return 0
        return self.window[-1][v] ^ self.window[0][v]

    def advance(self) -> None:
        if self.changing and self.t >= self.limit:
            raise InvariantViolationError(
                f"batch not 2-periodic within {self.limit} steps"
            )
        prev = self.window[-2] if self.t else None  # the first step updates all
        new = batch_step(self.adj, self.window[-1], self.mask, prev, self.moving)
        self.t += 1
        self.window.append(new)
        if len(self.window) > 3:
            self.window.pop(0)
        if self.t >= 2:
            self.changing = new != self.window[0]  # compares, builds no int


def batch_max_tau(run: BatchRun) -> tuple[int, int]:
    """Largest tau over the lanes of ``run``, from its start, plus the
    lowest lane attaining it."""
    survivors = undecided = run.undecided
    while undecided:
        survivors = undecided
        run.advance()
        undecided = run.undecided
    if run.t < 2:
        # Width-0 masks are rejected upstream; undecided empties at t >= 2.
        raise InvariantViolationError("batch ended before the first check")
    return run.t - 2, lowest_bit_index(survivors)


def _bits(x: int, k: int) -> np.ndarray:
    """Bits 0 to k - 1 of ``x``, as a uint8 array."""
    raw = np.frombuffer(x.to_bytes(-(-k // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=k, bitorder="little")


# the default cap on the lanes of one extension enumeration
EXTENSION_BUDGET = 1 << 20


class _Extensions:
    """Every extension of a pattern on the vertices ``ids`` to the rest of
    the host, as the lanes of one run: lane i sets the outside vertex
    ``free[i]`` (ascending) from its bit i.  A pattern is an int whose bit
    i is the opinion of ``ids[i]``.  The outside's columns, the host's
    neighbour lists and its step budget are built once, for every
    pattern, and ``budget`` caps the lanes of a run."""

    def __init__(self, tree: RootedTree, ids: list[int], budget: int):
        m = tree.n - len(ids)
        if 1 << m > budget:
            raise BudgetExceededError(
                f"2^{m} extensions exceed the enumeration budget {budget}"
            )
        inside = set(ids)
        self.ids, self.free = ids, [u for u in range(tree.n) if u not in inside]
        self.width = 1 << m
        self.mask = (1 << self.width) - 1
        self.cols = [0] * tree.n
        for i, u in enumerate(self.free):
            self.cols[u] = tt_column(i, m)
        self.adj, self.steps = adjacency_lists(tree), step_budget(tree)

    def run(self, pattern: int) -> BatchRun:
        """Every extension of ``pattern``; the run copies its start."""
        for u, bit in zip(self.ids, _bits(pattern, len(self.ids)).tolist()):
            self.cols[u] = self.mask if bit else 0
        return BatchRun(self.adj, self.cols, self.mask, self.steps)

    def vector(self, pattern: int, lane: int) -> OpinionVector:
        """The opinion vector of ``lane`` in the run of ``pattern``."""
        bits = np.empty(len(self.cols), dtype=np.int8)
        bits[self.ids] = _bits(pattern, len(self.ids))
        bits[self.free] = _bits(lane, len(self.free))
        return OpinionVector(2 * bits - 1)


# -- the word engine ----------------------------------------------------------

LANES = 64  # trajectories per word at the widest, uint64

# A word of m lanes runs on the first of these that holds m bits.
_WORD_DTYPES = tuple(np.dtype(f"uint{w}") for w in (8, 16, 32, 64))

# Bytes per slice of an internal level: the slice's scratch rows stay in
# cache however large the host is.
_SLICE = 1 << 17

# Bytes per slice of the lane transposition (64 x 1024 uint64 words).
_TRANSPOSE_SLICE = 1 << 19

# Masks of the 64 x 64 bit-matrix transposition: rows k and k + s swap the
# s-bit blocks that the mask leaves out of row k and keeps in row k + s.  A
# W-bit word runs the rounds with s < W, its masks cut to W bits, each shift
# and mask a scalar of the word's own dtype.
_TRANSPOSE_ROUNDS = {
    dt: tuple(
        (s, dt.type(s), dt.type(m & np.iinfo(dt).max))
        for s, m in (
            (32, 0x00000000FFFFFFFF),
            (16, 0x0000FFFF0000FFFF),
            (8, 0x00FF00FF00FF00FF),
            (4, 0x0F0F0F0F0F0F0F0F),
            (2, 0x3333333333333333),
            (1, 0x5555555555555555),
        )
        if s < 8 * dt.itemsize
    )
    for dt in _WORD_DTYPES
}


def _word_dtype(lanes: int) -> np.dtype:
    """The narrowest word dtype of at least ``lanes`` bits."""
    return next(dt for dt in _WORD_DTYPES if 8 * dt.itemsize >= lanes)


def _transpose_lanes(lanes: np.ndarray, out: np.ndarray) -> None:
    """Bit v of lane row j, read little-endian, to bit j of ``out[v]``.

    ``out`` is an array of W w words of W bits and ``lanes`` a
    (W, W w / 8) uint8 matrix.  Each W x W bit block is transposed in
    place by log2 W rounds of masked block swaps (Hacker's Delight,
    section 7-3), all blocks of a slice at once, with one spare half
    block for the swaps.
    """
    dt = out.dtype
    bits = 8 * dt.itemsize
    words = lanes.view(dt.newbyteorder("<"))
    blocks = out.reshape(-1, bits)
    step = min(max(1, _TRANSPOSE_SLICE // (bits * dt.itemsize)), words.shape[1])
    spare = np.empty(bits // 2 * step, dtype=dt)
    for w0 in range(0, words.shape[1], step):
        block = np.array(words[:, w0 : w0 + step], dtype=dt)
        width = block.shape[1]
        for s, shift, mask in _TRANSPOSE_ROUNDS[dt]:
            pairs = block.reshape(bits // (2 * s), 2, s, width)
            low, high = pairs[:, 0], pairs[:, 1]
            swap = spare[: low.size].reshape(low.shape)
            np.right_shift(low, shift, out=swap)
            swap ^= high
            swap &= mask
            high ^= swap
            swap <<= shift
            low ^= swap
        blocks[w0 : w0 + width] = block.T


def _majority(inputs, out, scratch) -> None:
    """``bit_majority`` on word arrays: a ripple-carry counter of the odd
    number of ``inputs``, each broadcastable to ``out``, compared against
    (d + 1) / 2 from the top bit down and written to ``out``."""
    free = [row[: out.size].reshape(out.shape) for row in scratch]
    counter: list[np.ndarray] = []
    for i, word in enumerate(inputs):
        carry = free.pop()
        np.copyto(carry, word)
        for level in counter:
            spare = free.pop()
            np.bitwise_and(level, carry, out=spare)
            level ^= carry
            free.append(carry)
            carry = spare
        if i & (i + 1) == 0:  # the count may now reach i + 1, a power of two
            counter.append(carry)
        else:  # the count fits the counter, so the last carry is zero
            free.append(carry)
    threshold = (len(inputs) + 1) // 2
    above = equal = None
    for i in reversed(range(len(counter))):
        bit = counter[i]
        if threshold >> i & 1:
            equal = bit if equal is None else np.bitwise_and(equal, bit, out=equal)
            continue
        if equal is not None:
            np.bitwise_and(equal, bit, out=bit)
        above = bit if above is None else np.bitwise_or(above, bit, out=above)
    # d >= 3 counts to d.bit_length() bits, at least one of them above the
    # top bit of the threshold or zero in it, so ``above`` is set
    np.bitwise_or(above, equal, out=out)


class PackedHost:
    """The perfect host of branching factor k and height h, laid out for the
    word engine: a word of W lanes per vertex, W = 8, 16, 32 or 64.

    A state is one W-bit word per vertex, bit j carrying lane j's opinion
    (1 <=> +1), in the ids of ``build_perfect_tree(k, h)``: level by level,
    each vertex's children contiguous.  Level d, reshaped to (parents, row),
    reads level d - 1 as a broadcast column, and level d + 1, reshaped to
    (parents, row, children), as its children.  No tree is built.

    ``step`` updates the whole host.  ``taus`` uses it for the first step
    only and then updates the core, levels 0 to h - 2, alone.
    """

    def __init__(self, k: int, h: int):
        self._starts = _indexable_level_starts(k, h)
        self.n = self._starts[-1]
        self.budget = (self.n - 2) // 2  # step_budget: |E| = n - 1
        self.limit = self.budget + 2
        # a slice is whole rows of one parent's children, at least one row
        rows = {dt: max(1, _SLICE // (k * dt.itemsize)) for dt in _WORD_DTYPES}
        size = max(max(r * k, k + 1) * dt.itemsize for dt, r in rows.items())
        # a counter of k + 1 inputs: (k + 1).bit_length() rows, a carry, a spare
        scratch = np.empty(((k + 1).bit_length() + 2, -(-size // 8)), dtype=np.uint64)
        # per word dtype: parents per slice, and the scratch rows in that dtype
        self._slices = {dt: (r, scratch.view(dt)) for dt, r in rows.items()}

    def _step_levels(self, state, below, out, levels: int) -> None:
        """The majority update of levels 0 to ``levels`` - 1, into ``out``.
        Each level reads its parents and children in ``state``, but the last
        one reads its children in ``below``."""
        s = self._starts
        chunk, scratch = self._slices[out.dtype]
        for d in range(levels):  # the root, then each lower level
            parents = s[d] - s[d - 1] if d else 1
            rows = out[s[d] : s[d + 1]].reshape(parents, -1)
            kids = state[s[d + 1] : s[d + 2]] if d + 1 < levels else below
            kids = kids.reshape(*rows.shape, -1)
            inputs = [kids[..., i] for i in range(kids.shape[2])]
            if d:  # and the parent, as a broadcast column
                inputs.append(state[s[d - 1] : s[d]].reshape(parents, 1))
            for a in range(0, parents, chunk):
                part = slice(a, a + chunk)
                _majority([x[part] for x in inputs], rows[part], scratch)

    def step(self, state: np.ndarray, out: np.ndarray) -> None:
        """One synchronous majority update of every lane, into ``out``, a
        word array of ``state``'s dtype."""
        s = self._starts
        h = len(s) - 2
        self._step_levels(state, state[s[h] :], out, h)
        # leaves copy their parent
        parents = s[h] - s[h - 1]
        out[s[h] :].reshape(parents, -1)[:] = state[s[h - 1] : s[h]].reshape(parents, 1)

    def taus(self, rows, count: int | None = None) -> list[int]:
        """Stabilisation time of each of the ``count`` rows' opinions, by
        default ``len(rows)``.

        Each row holds ceil(n / 8) bytes whose bit v, read little-endian,
        is set iff vertex v holds +1 at time 0: the layout that
        ``OpinionVector.random`` draws.  Rows run 64 to a word, and a word
        of m rows runs on the narrowest W-bit words with W >= m.  Rows are
        consumed as they come, so at most one is held beside the word's
        lanes.  The run holds two states of the whole host, 2n words of
        the first word's width, which a narrower last word views, and
        nothing else of size n.
        """
        if count is None:
            count = len(rows)
        rows = iter(rows)
        size = -(-self.n // LANES) * LANES * _word_dtype(min(count, LANES)).itemsize
        x0, x1 = np.empty((2, size), dtype=np.uint8)
        taus: list[int] = []
        for a in range(0, count, LANES):
            width = min(count - a, LANES)
            dt = _word_dtype(width)
            bits = 8 * dt.itemsize
            words = -(-self.n // bits) * bits
            # x1 is free until the first step: it holds the lanes meanwhile
            lanes = x1[: words * dt.itemsize].reshape(bits, -1)
            got = 0
            for got, row in enumerate(islice(rows, width), 1):
                lanes[got - 1, : (self.n + 7) // 8] = row
            if got < width:
                raise ValueError(f"{count} rows announced, {a + got} given")
            lanes[width:] = 0
            state = x0[: words * dt.itemsize].view(dt)
            _transpose_lanes(lanes, state)
            taus += self._run(state[: self.n], x1.view(dt)[: self.n], width)
        return taus

    def _run(self, x0: np.ndarray, x1: np.ndarray, width: int) -> list[int]:
        """The tau of each of the first ``width`` lanes of state ``x0``, the
        first t with state t + 2 equal to state t; ``x1`` is scratch.

        With k even, a vertex v on level h - 1 has k leaves, which all hold
        x_t(v) at time t + 1, so x_{t+2}(v) = x_t(v) from t = 0, and the
        leaves repeat from t = 1.  Only the first step updates the whole
        host.  The later ones update only the core, levels 0 to h - 2, with
        level h - 1 a fixed boundary read as x_0 or x_1 by the parity of t,
        and the core's tau is raised to 1 where a leaf's x_0 differs from
        its parent's x_1, which is the leaf's x_2.
        """
        s = self._starts
        h = len(s) - 2
        self.step(x0, x1)
        flags = self._leaf_flags(x0, x1)
        boundary = (x0[s[h - 1] : s[h]], x1[s[h - 1] : s[h]])
        core = s[h - 1]
        # the core's third state goes where x1's leaves, never read, lie
        ring = (x0[:core], x1[:core], x1[s[h] : s[h] + core])
        taus = [0] * width
        undecided = (1 << width) - 1
        t = 1
        while undecided:
            if t >= self.limit:
                raise InvariantViolationError(
                    f"{undecided.bit_count()} lanes not 2-periodic within "
                    f"{self.limit} steps; the word engine is broken"
                )
            self._step_levels(ring[t % 3], boundary[t % 2], ring[(t + 1) % 3], h - 1)
            t += 1
            # state t - 2 is dead once compared: step t + 1 overwrites it
            old = ring[(t + 1) % 3]
            np.bitwise_xor(old, ring[t % 3], out=old)
            changing = int(np.bitwise_or.reduce(old))
            settled = undecided & ~changing
            for j in range(width):
                if settled >> j & 1:
                    taus[j] = t - 2
            undecided &= changing
        return [max(tau, flags >> j & 1) for j, tau in enumerate(taus)]

    def _leaf_flags(self, x0: np.ndarray, x1: np.ndarray) -> int:
        """Lanes where some leaf's x_0 differs from its parent's x_1, a
        slice of parents at a time."""
        s = self._starts
        h = len(s) - 2
        parents = s[h] - s[h - 1]
        leaves = x0[s[h] :].reshape(parents, -1)
        above = x1[s[h - 1] : s[h]].reshape(parents, 1)
        chunk, scratch = self._slices[x0.dtype]
        flags = 0
        for a in range(0, parents, chunk):
            part = leaves[a : a + chunk]
            diff = scratch[0, : part.size].reshape(part.shape)
            np.bitwise_xor(part, above[a : a + chunk], out=diff)
            flags |= int(np.bitwise_or.reduce(diff, axis=None))
        return flags
