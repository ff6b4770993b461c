"""Synchronous majority dynamics on odd-degree hosts.

Each step replaces every opinion with the sign of the sum of the
neighbours' opinions; odd degrees make the sign strict.  Trajectories are
eventually 2-periodic, and the stabilisation time

    tau = min { t : xi_{t+2} = xi_t pointwise }

is bounded by |E| - |V| / 2, so ``stabilise`` always terminates within
floor(|E| - |V|/2) + 2 steps and treats anything beyond as a hard bug.
It is one loop over the three most recent states, recording each vertex's
flip times by parity as it goes.

Opinions are carried by :class:`OpinionVector`, an immutable wrapper of a
read-only int8 sign array (+1 or -1 per vertex), the same arrays the
stepping engine works on over the host's CSR adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTimeError,
    BadVertexError,
    InvariantViolationError,
    LengthMismatchError,
    OpinionFormatError,
    PartitionError,
)

# The stability predicates by name, as ``estimate_probability`` and the
# CLI's ``prob --target`` and ``stability --kind`` take them; kept here,
# beside ``is_t_stable``, so the CLI parser imports no engine module.
TARGETS = ("weak", "strong", "le_t", "one_close")

# '+' and '-' are 43 and 45 in ASCII, so 44 - code maps them to +1 and -1
# (mod 256) and back again; no other code maps to either.
_MIDPOINT = np.uint8(44)


def _opinion_bytes(n: int, rng: np.random.Generator) -> np.ndarray:
    """The draw behind a uniformly random opinion vector on n vertices:
    ceil(n/8) bytes, bit i of which, read little-endian, is vertex i's.

    ``Generator.bytes(m)`` is the little-endian bytes of ceil(m/4) uint32
    draws, one even when m = 0.  Up to 32 vertices, one scalar uint32
    draw reads the same word, through the buffered half of PCG64's output
    that bounded draws share, in about a third of the time."""
    size = (n + 7) // 8
    if n <= 32:
        word = int(rng.integers(1 << 32, dtype=np.uint32))
        return np.frombuffer(word.to_bytes(4, "little")[:size], dtype=np.uint8)
    return np.frombuffer(rng.bytes(size), dtype=np.uint8)


class OpinionVector:
    """Immutable opinion assignment: a read-only int8 array of +1 / -1.

    The constructor takes such an array and freezes it without a copy;
    build vectors with the ``from_*``, ``filled`` and ``random`` methods.
    """

    __slots__ = ("n", "_signs")

    def __init__(self, signs: np.ndarray):
        signs.flags.writeable = False
        object.__setattr__(self, "n", int(signs.size))
        object.__setattr__(self, "_signs", signs)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("OpinionVector is immutable")

    @classmethod
    def from_signs(cls, signs) -> "OpinionVector":
        """Positive entries hold +1, all others -1."""
        return cls(((np.asarray(signs) > 0).view(np.int8) * 2 - 1).ravel())

    @classmethod
    def from_string(cls, text: str) -> "OpinionVector":
        codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
        signs = (_MIDPOINT - codes).view(np.int8)
        if not np.all(np.abs(signs) == 1):
            bad = set(text) - {"+", "-"}
            raise OpinionFormatError(
                f"opinion string may contain only '+' and '-', found {sorted(bad)!r}"
            )
        return cls(signs)

    @classmethod
    def filled(cls, n: int, opinion: int) -> "OpinionVector":
        return cls(np.full(n, 1 if opinion > 0 else -1, dtype=np.int8))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "OpinionVector":
        """Vertex i holds +1 iff bit i of ``_opinion_bytes(n, rng)`` is set."""
        bits = np.unpackbits(_opinion_bytes(n, rng), count=n, bitorder="little")
        return cls(bits.view(np.int8) * 2 - 1)

    def sign(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise BadVertexError(f"vertex {v} out of range for n={self.n}")
        return int(self._signs[v])

    def to_signs(self) -> np.ndarray:
        """A writable copy of the sign array."""
        return self._signs.copy()

    def to_string(self) -> str:
        return (_MIDPOINT - self._signs.view(np.uint8)).tobytes().decode("ascii")

    def negated(self) -> "OpinionVector":
        return OpinionVector(-self._signs)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, OpinionVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._signs, other._signs))

    def __hash__(self) -> int:
        return hash(self._signs.tobytes())

    def __repr__(self) -> str:
        return f"OpinionVector({self.to_string()!r})"


def step_budget(host) -> int:
    """floor(|E| - |V|/2): upper bound on tau for any initial vector."""
    two_m = int(host.adj_flat.size)
    return (two_m - host.n) // 2


def _check_length(host, xi) -> None:
    if len(xi) != host.n:
        raise LengthMismatchError(
            f"expected {host.n} opinions, got {len(xi)}"
        )


def _step_signs(host, signs: np.ndarray) -> np.ndarray:
    gathered = signs[host.adj_flat].astype(np.int64)
    sums = np.add.reduceat(gathered, host.adj_offsets[:-1])
    return np.where(sums > 0, 1, -1).astype(np.int8)


def step(host, xi: OpinionVector) -> OpinionVector:
    """One synchronous majority update."""
    _check_length(host, xi)
    return OpinionVector.from_signs(_step_signs(host, xi.to_signs()))


@dataclass
class StabilisationResult:
    """Outcome of running the dynamics to its 2-periodic tail.

    stable_even / stable_odd are the opinions occupied at large even / odd
    times.  Flip arrays use -1 for "never".
    """

    tau: int
    steps_executed: int
    stable_even: OpinionVector
    stable_odd: OpinionVector
    first_flip: np.ndarray
    last_flip: np.ndarray
    last_flip_even: np.ndarray
    last_flip_odd: np.ndarray
    history: list[np.ndarray] | None = None

    def is_vertex_t_stable(self, v: int, t: int) -> bool:
        """No flip of v at a time of t's parity after t."""
        return int(self.last_flip_by_parity(t)[v]) <= t

    def last_flip_by_parity(self, t: int) -> np.ndarray:
        return self.last_flip_even if t % 2 == 0 else self.last_flip_odd


def stabilise(host, xi0: OpinionVector, keep_history: bool = False) -> StabilisationResult:
    """Run until xi_{t+2} = xi_t and report tau plus flip bookkeeping.

    Only the three most recent states are kept, enough to detect the first
    such t; a "flip at s" means xi_s(v) != xi_{s-2}(v) for s >= 2.  Full
    history is opt-in since it costs O(tau * n).
    """
    _check_length(host, xi0)
    limit = step_budget(host) + 2
    window = [xi0.to_signs()]
    history = [window[0]] if keep_history else None
    first_flip = np.full(host.n, -1, dtype=np.int64)
    last_flip_by_parity = [np.full(host.n, -1, dtype=np.int64) for _ in range(2)]
    t = 0
    while True:
        if t >= limit:
            raise InvariantViolationError(
                f"no period-2 window within {limit} steps; "
                "the dynamics engine is broken"
            )
        new = _step_signs(host, window[-1])
        t += 1
        window = [*window[-2:], new]
        if history is not None:
            history.append(new)
        if t < 2:
            continue
        idx = np.flatnonzero(new != window[0])
        if not idx.size:
            break
        last_flip_by_parity[t & 1][idx] = t
        fresh = idx[first_flip[idx] < 0]
        first_flip[fresh] = t
    tau = t - 2
    last_flip = np.maximum(*last_flip_by_parity)
    if int(last_flip.max(initial=-1)) > tau + 1:
        raise InvariantViolationError("flip recorded after stabilisation")
    # Window now holds (xi_tau, xi_{tau+1}, xi_{tau+2}); split by parity.
    even_state = window[0] if tau % 2 == 0 else window[1]
    odd_state = window[1] if tau % 2 == 0 else window[0]
    return StabilisationResult(
        tau=tau,
        steps_executed=t,
        stable_even=OpinionVector.from_signs(even_state),
        stable_odd=OpinionVector.from_signs(odd_state),
        first_flip=first_flip,
        last_flip=last_flip,
        last_flip_even=last_flip_by_parity[0],
        last_flip_odd=last_flip_by_parity[1],
        history=history,
    )


def is_t_stable(host, xi0: OpinionVector, v: int, t: int) -> bool:
    """True iff xi_s(v) = xi_{s+2}(v) for every s >= t with s = t (mod 2)."""
    if not (0 <= v < host.n):
        raise BadVertexError(f"vertex {v} out of range for n={host.n}")
    if t < 0:
        raise BadTimeError(f"t must be >= 0, got {t}")
    return stabilise(host, xi0).is_vertex_t_stable(v, t)


def is_stable_partition(host, partition) -> bool:
    """True iff +1 on U / -1 on W is a fixed point of the dynamics.

    ``partition`` is a pair (U, W) of vertex collections that must split
    the host's vertex set exactly.
    """
    u_side, w_side = partition
    u_set, w_set = set(map(int, u_side)), set(map(int, w_side))
    if u_set & w_set:
        raise PartitionError(f"sides overlap at {sorted(u_set & w_set)[:5]}")
    if u_set | w_set != set(range(host.n)):
        raise PartitionError("sides must cover every vertex exactly once")
    signs = np.full(host.n, -1, dtype=np.int8)
    if u_set:
        signs[sorted(u_set)] = 1
    return bool(np.array_equal(_step_signs(host, signs), signs))
