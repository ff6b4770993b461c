"""Rooted trees for synchronous majority dynamics.

Hosts are finite trees in which every vertex has odd degree, so a majority
among neighbours is always strict.  A tree is one adjacency (a CSR with
neighbours ascending) and its rooting (parent pointers and BFS order): a
vertex's children are its neighbours other than its parent, and every
subtree or light cone is one walk over that adjacency (``_walk``).  Every
edge list reaches RootedTree as one (m, 2) integer array, checked by array
operations; rows already in BFS (parent, child) order, as every tree file
majlab writes is, give the parent and order without a BFS.  No constructor
derives depth, height or diameter: the first read of any of them derives
all three.  Perfect trees use dense 0-based vertex ids assigned in BFS
order from the root; random odd trees (``treegen``) number every parent
before its children and build their arrays without an edge list; loaded
trees keep the ids given in the file.

Vertex classification counts degree-1 neighbours ("pendant" vertices)
against the threshold (deg - 1) / 2 and is independent of the root choice.
"""

from __future__ import annotations

import re
from enum import IntEnum
from operator import add
from pathlib import Path

import numpy as np

from .errors import (
    BadVertexError,
    DegreeParityError,
    NotATreeError,
    TooSmallError,
    TreeFormatError,
)

_HEADER_RE = re.compile(r"^tree\s+n=(\d+)\s+root=(\d+)\s*$")


class VertexClass(IntEnum):
    """Behavioural class of a vertex under majority dynamics.

    ACTIVE:  fewer than (deg - 1) / 2 pendant neighbours.
    BALKY:   exactly (deg - 1) / 2 pendant neighbours (every leaf of a tree
             with at least 3 vertices is balky).
    PASSIVE: more than (deg - 1) / 2 pendant neighbours; such vertices are
             0-stationary under every initial opinion vector.

    Values match the int8 codes produced by :func:`classify_all`, so the
    members compare directly against those arrays.
    """

    ACTIVE = 0
    BALKY = 1
    PASSIVE = 2

    @property
    def label(self) -> str:
        return self.name.lower()


def _build_csr(n: int, src: np.ndarray, dst: np.ndarray):
    """CSR adjacency with neighbour lists sorted ascending (deterministic)."""
    order = np.lexsort((dst, src))
    flat = np.ascontiguousarray(dst[order], dtype=np.int32)
    degree = np.bincount(src, minlength=n).astype(np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    return flat, offsets, degree


def _validated_edge_arrays(n: int, root: int, ends: np.ndarray):
    """Both directions of every edge, and ``_rows_in_bfs_order``'s parent
    and order (None if the rows are not in BFS order).  Raises at the
    first edge, in input order, that is out of range or a self-loop, then
    at any parallel pair."""
    src, dst = ends.T
    outside = (ends < 0) | (ends >= n)
    bad = outside[:, 0] | outside[:, 1] | (src == dst)
    if bad.any():
        i = int(bad.argmax())
        u, v = int(src[i]), int(dst[i])
        if outside[i].any():
            raise TreeFormatError(f"edge ({u}, {v}) out of range for n={n}")
        raise TreeFormatError(f"self-loop at vertex {u}")
    rooted = _rows_in_bfs_order(n, root, ends)
    if rooted is None:  # rows in BFS order have no parallel pair
        keys = np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))
        if (keys[1:] == keys[:-1]).any():
            raise TreeFormatError("parallel edge in input")
    return np.concatenate([src, dst]), np.concatenate([dst, src]), rooted


def _rows_in_bfs_order(n: int, root: int, ends: np.ndarray):
    """Parent and order read straight from rows of in-range ids with
    no self-loop, or None unless the rows, as (parent, child), are
    ``_bfs_tree``'s order from ``root``.

    They are when the children plus the root are all n ids, parent
    positions never decrease, and children of one parent come in ascending
    id order.  Each parent then also comes before its child: were row i's
    parent at a position p > i, the row at position p would have a parent
    at or past p, itself or later, and so on past the last row.  So the
    parent pointers span a tree, and a FIFO walk over ascending neighbour
    lists visits the root, then each listed vertex's children in turn:
    these rows.
    """
    par, kid = ends.T
    pos = np.zeros(n, dtype=np.int64)
    pos[kid] = np.arange(1, n)
    at = pos[par]  # each row's parent position
    after = at[1:] - at[:-1]
    if not (
        pos[root] == 0
        and np.array_equal(pos[kid], np.arange(1, n))
        and ((after > 0) | ((after == 0) & (kid[1:] > kid[:-1]))).all()
    ):
        return None
    parent = np.full(n, -1, dtype=np.int32)
    parent[kid] = par
    return parent, np.concatenate(([root], kid)).astype(np.int32)


class RootedTree:
    """A rooted odd-degree tree: its adjacency and its rooting.

    Attributes
    ----------
    n, root : int
    parent : np.ndarray
        Parent id per vertex, -1 at the root.
    order : np.ndarray
        BFS order from the root; parents precede children.
    adj_flat, adj_offsets : np.ndarray
        The CSR adjacency, each neighbour list ascending.  The children
        of v are its neighbours other than ``parent[v]``, in that order.
    depth, height, degree : np.ndarray
        ``height[v]`` is the distance from v to the farthest leaf inside the
        subtree of v (0 exactly at childless vertices).
    diameter : int
        Longest path length.

    Depth, height and diameter are read-only, and the first read of any of
    them derives all three (``_depth_height_diameter``).
    """

    __slots__ = (
        "n",
        "root",
        "parent",
        "order",
        "degree",
        "adj_flat",
        "adj_offsets",
        "_levels",  # (depth, height, diameter) once read, else None
    )

    def __init__(self, **fields):
        for name in RootedTree.__slots__[:-1]:
            setattr(self, name, fields[name])
        self._levels = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_edges(cls, edges, root: int = 0, n: int | None = None) -> "RootedTree":
        """The tree on ``edges``: any iterable of (u, v) pairs, or an (m, 2) int array."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            ends = np.asarray(edges, dtype=np.int64)
        except OverflowError:  # an id beyond int64 is out of range: reported below
            ends = np.array(edges, dtype=object)
        if ends.size and ends.shape[1:] != (2,):
            raise TreeFormatError("edges must be (u, v) pairs")
        ends = ends.reshape(-1, 2)
        if n is None:
            n = max(int(ends.max()) + 1 if ends.size else 0, root + 1)
        if len(ends) != n - 1:
            raise NotATreeError(f"expected {n - 1} edges for n={n}, got {len(ends)}")
        if not (0 <= root < n):
            raise BadVertexError(f"root {root} out of range for n={n}")
        src, dst, rooted = _validated_edge_arrays(n, root, ends)
        adj_flat, adj_offsets, degree = _build_csr(n, src, dst)
        even = np.flatnonzero(degree % 2 == 0)
        if even.size:
            raise DegreeParityError(
                f"vertex {even[0]} has even degree {degree[even[0]]}; all degrees must be odd"
            )
        if rooted is None:
            rooted = _bfs_tree(n, adj_flat, adj_offsets, root)
            if rooted[1].size != n:
                raise NotATreeError("input is disconnected")
        parent, order = rooted
        return cls(
            n=n, root=root, parent=parent, order=order, degree=degree,
            adj_flat=adj_flat, adj_offsets=adj_offsets,
        )

    # -- structure accessors -------------------------------------------

    def _read_levels(self):
        if self._levels is None:
            self._levels = _depth_height_diameter(self.n, self.parent, self.order)
        return self._levels

    depth = property(lambda self: self._read_levels()[0])
    height = property(lambda self: self._read_levels()[1])
    diameter = property(lambda self: self._read_levels()[2])

    def neighbours(self, v: int) -> np.ndarray:
        return self.adj_flat[self.adj_offsets[v] : self.adj_offsets[v + 1]]

    def children(self, v: int) -> np.ndarray:
        """The neighbours of v other than its parent, ascending."""
        nbrs = self.neighbours(v)
        return nbrs[nbrs != self.parent[v]]

    def is_leaf(self, v: int) -> bool:
        """True iff v has no children (height 0)."""
        return self.degree[v] == (v != self.root)

    @property
    def pendant(self) -> np.ndarray:
        """Degree-1 vertices; the root-independent notion of 'leaf'."""
        return self.degree == 1

    @property
    def edge_count(self) -> int:
        return self.n - 1

    def subtree_mask(self, v: int) -> np.ndarray:
        """Boolean membership mask of the subtree rooted at v."""
        if not (0 <= v < self.n):
            raise BadVertexError(f"vertex {v} out of range for n={self.n}")
        mask = np.zeros(self.n, dtype=bool)
        mask[_walk(self, v, int(self.parent[v]))[0]] = True
        return mask

    def edges(self) -> list[tuple[int, int]]:
        """Parent edges (parent, child) with children in BFS order."""
        kids = self.order[1:]
        return list(zip(self.parent[kids].tolist(), kids.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        # the CSR adjacency, neighbours sorted, is one per edge set
        return (self.n, self.root) == (other.n, other.root) and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("adj_offsets", "adj_flat")
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root}, diameter={self.diameter})"


def _bfs_tree(n, adj_flat, adj_offsets, root):
    """Parent (-1 at the root) and BFS order from ``root``; the order
    covers fewer than n vertices exactly when the graph is disconnected."""
    adj, offsets = adj_flat.tolist(), adj_offsets.tolist()
    parent = [-1] * n
    parent[root] = root  # a parent marks a visited vertex
    order = [root]
    for v in order:  # the list grows while it is read: a FIFO queue
        for u in adj[offsets[v] : offsets[v + 1]]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    parent[root] = -1
    return np.array(parent, dtype=np.int32), np.array(order, dtype=np.int32)


def _walk(
    tree: RootedTree, start: int, avoid: int, levels: int | None = None,
    first: int = 0, back: int | None = None,
) -> tuple[list[int], list[list[int]]]:
    """The vertices reached from ``start`` without entering ``avoid``, in
    BFS order, and each one's neighbours among them as positions, the one
    it is reached from first: the subtree of ``start`` when ``avoid`` is
    its parent.  Positions count from ``first``, and ``back``, if given,
    is the position listed first at ``start``.

    With ``levels`` the walk keeps the vertices at most that far from
    ``start``, and each kept vertex with neighbours beyond the walk lists
    itself as its one neighbour: the cut pins it.  Each kept vertex slices
    its own adjacency row and no other.
    """
    flat, offsets = tree.adj_flat, tree.adj_offsets
    ids, via = [int(start)], [avoid]
    adj = [[] if back is None else [back]]
    end, level = 1, 0  # the entries before end are at most level from start
    for i, u in enumerate(ids):  # the list grows while it is read
        if i == end:
            end, level = len(ids), level + 1
        beyond = flat[offsets[u] : offsets[u + 1]].tolist()
        if via[i] in beyond:
            beyond.remove(via[i])
        if level == levels:
            if beyond:
                adj[i] = [first + i]
            continue
        for w in beyond:
            adj[i].append(first + len(ids))
            adj.append([first + i])
            ids.append(w)
            via.append(u)
    return ids, adj


def _depth_height_diameter(n, parent, order):
    """Depth per vertex in a root-down pass, then height per vertex and
    the diameter in a leaves-up pass: each vertex keeps its two tallest
    branches, and the longest path through it joins them."""
    par, below_root = parent.tolist(), order.tolist()[1:]
    depth = [0] * n
    for v in below_root:
        depth[v] = depth[par[v]] + 1
    tallest = [0] * n
    second = [0] * n
    for v in reversed(below_root):
        p, branch = par[v], tallest[v] + 1
        if branch > tallest[p]:
            tallest[p], second[p] = branch, tallest[p]
        elif branch > second[p]:
            second[p] = branch
    height = np.array(tallest, dtype=np.int32)
    return np.array(depth, dtype=np.int32), height, max(map(add, tallest, second))


def _perfect_level_starts(k: int, h: int) -> list[int]:
    """First id of each level of the perfect host of branching factor k and
    height h, then its vertex count n.  Level 0 is the root, level 1 its
    k + 1 children, and level d > 1 the k children of each vertex of level
    d - 1, taken in their parents' order."""
    if k < 2 or k % 2 != 0:
        raise DegreeParityError(f"branching factor must be even and >= 2, got {k}")
    if h < 1:
        raise TooSmallError(f"height must be >= 1, got {h}")
    starts = [0, 1]
    for d in range(1, h + 1):
        starts.append(starts[-1] + (k + 1) * k ** (d - 1))
    return starts


def _indexable_level_starts(k: int, h: int) -> list[int]:
    """``_perfect_level_starts`` of a host that numpy can index at 16 bytes
    a vertex, what its edge arrays or two word-engine states take; a
    larger one is refused before anything is allocated."""
    starts = _perfect_level_starts(k, h)
    if starts[-1] * 16 > np.iinfo(np.intp).max:
        raise MemoryError(f"a perfect host of n={starts[-1]} vertices is too large to index")
    return starts


def build_perfect_tree(k: int, h: int) -> RootedTree:
    """Perfect tree of branching factor k and height h.

    The root has k + 1 children and every other internal vertex has k, so
    every internal degree is k + 1 (odd exactly when k is even) and all
    leaves sit at depth h.  Vertex count: 1 + (k + 1) (k^h - 1) / (k - 1).
    """
    starts = _indexable_level_starts(k, h)
    n = starts[-1]
    parent = np.full(n, -1, dtype=np.int32)
    parent[1 : starts[2]] = 0
    for d in range(2, h + 1):
        lo, hi = starts[d], starts[d + 1]
        j = np.arange(hi - lo, dtype=np.int64)
        parent[lo:hi] = starts[d - 1] + j // k
    kids = np.arange(1, n, dtype=np.int64)
    src = np.concatenate([kids, parent[kids]])
    dst = np.concatenate([parent[kids], kids])
    adj_flat, adj_offsets, degree = _build_csr(n, src, dst)
    order = np.arange(n, dtype=np.int32)
    return RootedTree(
        n=n, root=0, parent=parent, order=order, degree=degree,
        adj_flat=adj_flat, adj_offsets=adj_offsets,
    )


def reroot(tree: RootedTree, new_root: int) -> RootedTree:
    """Same tree (same ids and edges), re-rooted by a BFS from new_root."""
    if not (0 <= new_root < tree.n):
        raise BadVertexError(f"root {new_root} out of range for n={tree.n}")
    parent, order = _bfs_tree(tree.n, tree.adj_flat, tree.adj_offsets, new_root)
    return RootedTree(
        n=tree.n, root=new_root, parent=parent, order=order, degree=tree.degree,
        adj_flat=tree.adj_flat, adj_offsets=tree.adj_offsets,
    )


# -- vertex classification ---------------------------------------------


def pendant_neighbour_counts(host) -> np.ndarray:
    """Number of degree-1 neighbours per vertex."""
    pend = (host.degree == 1).astype(np.int64)
    gathered = pend[host.adj_flat]
    return np.add.reduceat(gathered, host.adj_offsets[:-1])


def classify_all(host) -> np.ndarray:
    """Class per vertex as an int8 array: 0 ACTIVE, 1 BALKY, 2 PASSIVE."""
    return _classes(host, pendant_neighbour_counts(host))


def _classes(host, counts: np.ndarray) -> np.ndarray:
    """``classify_all`` given the pendant neighbour counts."""
    threshold = (host.degree.astype(np.int64) - 1) // 2
    codes = np.full(host.n, 1, dtype=np.int8)
    codes[counts < threshold] = 0
    codes[counts > threshold] = 2
    return codes


_CLASS_BY_CODE = (VertexClass.ACTIVE, VertexClass.BALKY, VertexClass.PASSIVE)


def classify_vertex(host, v: int) -> VertexClass:
    if not (0 <= v < host.n):
        raise BadVertexError(f"vertex {v} out of range for n={host.n}")
    return _CLASS_BY_CODE[classify_all(host)[v]]


# -- text format ----------------------------------------------------------


def tree_to_text(tree: RootedTree, header_comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (header_comments or [])]
    lines.append(f"tree n={tree.n} root={tree.root}")
    kids = tree.order[1:]
    rows = np.column_stack((tree.parent[kids], kids))  # edges(), as one array
    return "\n".join(lines) + "\n" + "%d %d\n" * len(kids) % tuple(rows.ravel().tolist())


def _is_content(line: str) -> bool:
    return line.strip()[:1] not in ("", "#")


# The body of a plain file: ASCII digits, blanks and newlines only.  Ids of
# at most 18 digits fit int64; np.fromstring saturates longer ones silently.
_PLAIN_BYTES = b"0123456789 \t\n"
_PLAIN_DIGITS = 18


def tree_from_text(text: str) -> RootedTree:
    n, root, ends = _plain_edges(text) or _edges_by_line(text)
    return RootedTree.from_edges(ends, root=root, n=n)


def _plain_edges(text: str):
    """(n, root, ends) by array passes, or None unless the header parses and
    the body after it is plain (see ``_PLAIN_BYTES``) with 0 or 2 ids on
    every line and n - 1 edge lines: then ``_edges_by_line`` reads the same
    edges, and any other text goes there, which also reports every error.

    Every file majlab writes is plain."""
    start = 0
    while start < len(text):  # to the first \n-ended piece with content
        end = text.find("\n", start) + 1 or len(text)
        content = [line for line in text[start:end].splitlines() if _is_content(line)]
        if content:
            break
        start = end
    else:
        return None
    m = _HEADER_RE.match(content[0].strip())
    body = text[end:]
    if len(content) > 1 or not m or not body.isascii():
        return None
    raw = body.encode("ascii")
    if raw.translate(None, _PLAIN_BYTES):
        return None
    codes = np.frombuffer(raw, dtype=np.uint8)
    digit = codes >= ord("0")  # blanks and newlines are below
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    first, past = bounds[::2], bounds[1::2]  # each digit run
    n, root = int(m.group(1)), int(m.group(2))
    if len(first) != 2 * (n - 1) or (past - first).max(initial=0) > _PLAIN_DIGITS:
        return None
    if not first.size:  # np.fromstring reads a blank string as [0]
        return n, root, np.empty((0, 2), dtype=np.int64)
    # whether a newline lies between each run and the next: never within a
    # line's pair, always between pairs
    broken = np.logical_or.reduceat(codes == ord("\n"), first)
    if broken[::2].any() or not broken[1:-1:2].all():
        return None
    return n, root, np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)


def _edges_by_line(text: str):
    """(n, root, ends) line by line: the reference reading, and the one
    that reports every format error."""
    lines = list(filter(_is_content, text.splitlines()))
    if not lines:
        raise TreeFormatError("empty tree file")
    m = _HEADER_RE.match(lines[0].strip())
    if not m:
        raise _line_error(text, 0, "expected 'tree n=<N> root=<R>'")
    n, root = int(m.group(1)), int(m.group(2))
    if len(lines) - 1 != n - 1:
        raise NotATreeError(f"expected {n - 1} edge lines for n={n}, got {len(lines) - 1}")
    del lines[0]
    try:
        if set(map(len, map(str.split, lines))) - {2}:
            raise ValueError("an edge line without two fields")
        ends = np.array(" ".join(lines).split(), dtype=np.int64).reshape(-1, 2)
    except (ValueError, OverflowError):
        # the first line that is not two integers, else ids beyond int64 for from_edges
        ends = [line.split() for line in lines]
        for k, row in enumerate(ends, start=1):
            if len(row) != 2:
                raise _line_error(text, k, "expected '<u> <v>'")
            try:
                row[:] = map(int, row)
            except ValueError:
                raise _line_error(text, k, "non-integer vertex id") from None
    return n, root, ends


def _line_error(text: str, k: int, problem: str) -> TreeFormatError:
    """The error at the k-th content line, from 0: only errors need its number."""
    lineno = [i for i, line in enumerate(text.splitlines(), 1) if _is_content(line)][k]
    return TreeFormatError(f"line {lineno}: {problem}")


def save_tree(tree: RootedTree, path, header_comments: list[str] | None = None) -> None:
    Path(path).write_text(tree_to_text(tree, header_comments), encoding="utf-8")


def load_tree(path) -> RootedTree:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TreeFormatError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return tree_from_text(text)
