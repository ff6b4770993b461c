"""Opinion vectors and the reference dynamics engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majlab.dynamics import (
    OpinionVector,
    _opinion_bytes,
    is_stable_partition,
    is_t_stable,
    stabilise,
    step,
    step_budget,
)
from majlab.errors import (
    BadTimeError,
    BadVertexError,
    LengthMismatchError,
    OpinionFormatError,
    PartitionError,
)
from majlab.treegen import random_even_size, random_odd_tree
from majlab.trees import RootedTree, build_perfect_tree

STAR = RootedTree.from_edges([(0, 1), (0, 2), (0, 3)])


def naive_step(tree, signs):
    """Per-vertex majority over neighbours, written without numpy."""
    out = np.empty_like(signs)
    for v in range(tree.n):
        total = sum(int(signs[u]) for u in tree.neighbours(v))
        out[v] = 1 if total > 0 else -1
    return out


@settings(max_examples=100, derandomize=True)
@given(st.text(alphabet="+-", min_size=1, max_size=40))
def test_opinion_string_round_trip(text):
    xi = OpinionVector.from_string(text)
    assert len(xi) == len(text)
    assert xi.to_string() == text
    assert xi.negated().to_string() == text.translate(str.maketrans("+-", "-+"))


def test_opinion_vector_basics():
    xi = OpinionVector.from_string("+-+")
    assert xi.sign(0) == 1 and xi.sign(1) == -1
    assert xi.to_signs().tolist() == [1, -1, 1]
    assert OpinionVector.from_signs(np.array([1, -1, 1])) == xi
    assert OpinionVector.filled(3, 1).to_string() == "+++"
    assert OpinionVector.filled(3, -1).to_string() == "---"
    assert hash(xi) == hash(OpinionVector.from_string("+-+"))
    assert xi != OpinionVector.from_string("+--")
    with pytest.raises(AttributeError):
        xi.n = 5
    with pytest.raises(OpinionFormatError):
        OpinionVector.from_string("+0-")
    for v in (-1, 3):
        with pytest.raises(BadVertexError, match=f"vertex {v} out of range") as raised:
            xi.sign(v)
        assert raised.value.code == "BAD_VERTEX"
    assert repr(xi) == "OpinionVector('+-+')"
    # another type is not equal, by the reflected comparison
    assert (xi == 3) is False and xi != 3


def test_opinion_array_operations_at_scale():
    n = 100003
    signs = np.where(np.random.default_rng(12).random(n) < 0.5, 1, -1).astype(np.int8)
    text = "".join("+" if s > 0 else "-" for s in signs.tolist())
    xi = OpinionVector.from_string(text)
    assert xi.to_string() == text
    assert xi == OpinionVector.from_signs(signs)
    assert np.array_equal(xi.to_signs(), signs)
    assert xi.negated().to_string() == text.translate(str.maketrans("+-", "-+"))
    assert xi.negated().negated() == xi
    assert [xi.sign(v) for v in range(0, n, 997)] == signs[::997].tolist()


def test_to_signs_returns_a_copy():
    xi = OpinionVector.from_string("+-+")
    signs = xi.to_signs()
    signs[:] = -1
    assert xi.to_string() == "+-+"
    assert xi.to_signs().tolist() == [1, -1, 1]


@pytest.mark.parametrize("text", ["+é-", "+−", "\ud800", "+ -"])
def test_opinion_string_rejects_other_characters(text):
    with pytest.raises(OpinionFormatError):
        OpinionVector.from_string(text)


def test_opinion_random_is_seed_deterministic():
    a = OpinionVector.random(50, np.random.default_rng(9))
    b = OpinionVector.random(50, np.random.default_rng(9))
    c = OpinionVector.random(50, np.random.default_rng(10))
    assert a == b
    assert len(a) == 50
    assert a != c  # 2^-50 collision chance


def bytes_opinion_draw(n, rng):
    """The opinion draw through ``Generator.bytes`` at every n: ceil(n/8)
    bytes, bit i of which, read little-endian, is vertex i's."""
    return np.frombuffer(rng.bytes((n + 7) // 8), dtype=np.uint8)


def test_opinion_draw_is_the_bytes_draw():
    # every n from 0 to 40, across the 32-vertex boundary, between 0-2
    # bounded draws: PCG64 serves those from a buffered half-word, which
    # the opinion draw must leave as ``bytes`` leaves it
    for seed in range(2000):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in range(41):
            skip = int(got.integers(3))
            assert skip == want.integers(3), (n, seed)
            for _ in range(skip):
                assert got.integers(1, 20) == want.integers(1, 20), (n, seed)
            draw = bytes_opinion_draw(n, want)
            assert _opinion_bytes(n, got).tobytes() == draw.tobytes(), (n, seed)
            signs = np.unpackbits(bytes_opinion_draw(n, want), count=n, bitorder="little")
            want_vector = (signs.view(np.int8) * 2 - 1).tobytes()
            assert OpinionVector.random(n, got).to_signs().tobytes() == want_vector, (n, seed)
        assert got.integers(1, 20) == want.integers(1, 20), seed
        assert got.integers(2**63) == want.integers(2**63), seed


def test_step_matches_naive_majority():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tree = random_odd_tree(random_even_size(6, 18, rng), rng)
        for _ in range(5):
            xi = OpinionVector.random(tree.n, rng)
            assert (step(tree, xi).to_signs() == naive_step(tree, xi.to_signs())).all()


def test_step_budget_formula():
    # trees have m = n - 1 edges
    for tree in (STAR, build_perfect_tree(2, 3), build_perfect_tree(4, 2)):
        assert step_budget(tree) == (tree.n - 2) // 2


def test_step_rejects_length_mismatch():
    with pytest.raises(LengthMismatchError):
        step(STAR, OpinionVector.from_string("+-"))
    with pytest.raises(LengthMismatchError):
        stabilise(STAR, OpinionVector.from_string("+-+++"))


def test_stabilise_finds_minimal_period_two_time():
    rng = np.random.default_rng(2)
    for _ in range(30):
        tree = random_odd_tree(random_even_size(6, 18, rng), rng)
        xi0 = OpinionVector.random(tree.n, rng)
        res = stabilise(tree, xi0, keep_history=True)
        hist = res.history
        assert res.tau <= step_budget(tree)
        assert res.steps_executed == res.tau + 2
        assert len(hist) == res.tau + 3
        assert (hist[res.tau + 2] == hist[res.tau]).all()
        for t in range(res.tau):
            assert (hist[t + 2] != hist[t]).any()
        # the settled pair really is a 2-cycle
        even = res.stable_even
        odd = res.stable_odd
        assert step(tree, even) == odd
        assert step(tree, odd) == even
        te = res.tau + (res.tau & 1)
        assert (even.to_signs() == hist[te]).all()
        assert (odd.to_signs() == hist[te + 1]).all()


def test_flip_bookkeeping_matches_history():
    rng = np.random.default_rng(7)
    for _ in range(15):
        tree = random_odd_tree(random_even_size(6, 16, rng), rng)
        xi0 = OpinionVector.random(tree.n, rng)
        res = stabilise(tree, xi0, keep_history=True)
        hist = res.history
        first = np.full(tree.n, -1)
        last = np.full(tree.n, -1)
        by_parity = [np.full(tree.n, -1), np.full(tree.n, -1)]
        for s in range(2, len(hist)):
            flipped = np.flatnonzero(hist[s] != hist[s - 2])
            last[flipped] = s
            by_parity[s & 1][flipped] = s
            first[flipped[first[flipped] < 0]] = s
        assert (res.first_flip == first).all()
        assert (res.last_flip == last).all()
        assert (res.last_flip_even == by_parity[0]).all()
        assert (res.last_flip_odd == by_parity[1]).all()
        for v in range(tree.n):
            for t in range(res.tau + 2):
                direct = all(
                    (hist[s] == hist[s - 2])[v]
                    for s in range(t + 2, len(hist), 2)
                )
                assert res.is_vertex_t_stable(v, t) == direct
                assert is_t_stable(tree, xi0, v, t) == direct


def test_is_t_stable_rejects_bad_vertices_and_times():
    xi0 = OpinionVector.from_string("+-+-")
    with pytest.raises(BadVertexError):
        is_t_stable(STAR, xi0, 4, 0)
    with pytest.raises(BadTimeError, match="^t must be >= 0, got -1$"):
        is_t_stable(STAR, xi0, 0, -1)
    with pytest.raises(BadTimeError, match="^t must be >= 0, got None$"):
        is_t_stable(STAR, xi0, 0, None)


def test_stabilise_history_is_opt_in_and_starts_at_xi0():
    rng = np.random.default_rng(8)
    tree = random_odd_tree(12, rng)
    xi0 = OpinionVector.random(tree.n, rng)
    plain = stabilise(tree, xi0)
    kept = stabilise(tree, xi0, keep_history=True)
    assert plain.history is None
    assert plain.tau == kept.tau
    assert (kept.history[0] == xi0.to_signs()).all()


def test_stable_partition_checks():
    tree = build_perfect_tree(2, 2)
    everyone = list(range(tree.n))
    assert is_stable_partition(tree, (everyone, []))
    assert is_stable_partition(tree, ([], everyone))
    # +1 only at the root is immediately overturned
    assert not is_stable_partition(tree, ([tree.root], everyone[1:]))
    with pytest.raises(PartitionError):
        is_stable_partition(tree, ([0, 1], [1] + everyone[2:]))
    with pytest.raises(PartitionError):
        is_stable_partition(tree, ([0], everyone[2:]))
