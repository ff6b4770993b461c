"""Bit-sliced batch engines against the scalar reference engine."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majlab.bitsliced as bitsliced
from majlab.bitsliced import (
    LANES,
    BatchRun,
    PackedHost,
    adjacency_lists,
    batch_max_tau,
    batch_step,
    bit_majority,
    lowest_bit_index,
    pack_bit_rows,
    tt_column,
)
from majlab.dynamics import OpinionVector, _step_signs, stabilise, step, step_budget
from majlab.errors import InvariantViolationError
from majlab.probe import _batch_taus
from majlab.treegen import random_even_size, random_odd_tree
from majlab.trees import build_perfect_tree


def unpack_column(cols, j, n):
    """Sign vector of trajectory j from per-vertex column integers."""
    return np.array([1 if (cols[v] >> j) & 1 else -1 for v in range(n)], dtype=np.int8)


def tail_state(hist, s):
    """State at time s, reading the 2-periodic tail beyond the history."""
    if s < len(hist):
        return hist[s]
    return hist[len(hist) - 2 + ((s - len(hist)) % 2)]


def test_tt_column_enumerates_all_assignments():
    for m in range(1, 6):
        for i in range(m):
            col = tt_column(i, m)
            for j in range(1 << m):
                assert (col >> j) & 1 == (j >> i) & 1


@settings(max_examples=150, derandomize=True)
@given(st.integers(1, 9).filter(lambda k: k % 2 == 1), st.integers(0, 2**63 - 1))
def test_bit_majority_matches_popcount(k, seed):
    rng = np.random.default_rng(seed)
    width = 48
    mask = (1 << width) - 1
    words = [int(rng.integers(0, 1 << width)) for _ in range(k)]
    got = bit_majority(words, mask)
    for j in range(width):
        ones = sum((w >> j) & 1 for w in words)
        assert (got >> j) & 1 == (1 if 2 * ones > k else 0)


def test_pack_bit_rows_layout():
    rows = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    cols = pack_bit_rows(rows)
    assert cols == [0b101, 0b100]


def test_lowest_bit_index():
    assert lowest_bit_index(1) == 0
    assert lowest_bit_index(0b101000) == 3
    assert lowest_bit_index(1 << 63) == 63
    with pytest.raises(ValueError):
        lowest_bit_index(0)
    with pytest.raises(ValueError):
        lowest_bit_index(-4)


def test_batch_step_matches_scalar_step():
    rng = np.random.default_rng(1)
    for _ in range(10):
        tree = random_odd_tree(random_even_size(6, 18, rng), rng)
        width = 64
        vectors = [OpinionVector.random(tree.n, rng) for _ in range(width)]
        mat = np.stack([xi.to_signs() for xi in vectors], axis=1)
        cols = pack_bit_rows((mat > 0).astype(np.uint8))
        stepped = batch_step(adjacency_lists(tree), cols, (1 << width) - 1)
        for j, xi in enumerate(vectors):
            want = step(tree, xi).to_signs()
            assert (unpack_column(stepped, j, tree.n) == want).all()


def test_batch_run_tracks_every_trajectory():
    rng = np.random.default_rng(2)
    tree = random_odd_tree(12, rng)
    width = 32
    vectors = [OpinionVector.random(tree.n, rng) for _ in range(width)]
    mat = np.stack([xi.to_signs() for xi in vectors], axis=1)
    cols0 = pack_bit_rows((mat > 0).astype(np.uint8))
    mask = (1 << width) - 1
    runs = [stabilise(tree, xi, keep_history=True) for xi in vectors]

    batch = BatchRun(adjacency_lists(tree), cols0, mask, step_budget(tree))
    assert batch.t == 0
    for v in range(tree.n):
        assert batch.flip_col(v) == 0  # no flips before two steps exist
    while batch.undecided:
        batch.advance()
        s = batch.t
        for j, res in enumerate(runs):
            want = tail_state(res.history, s)
            assert (unpack_column(batch.cols, j, tree.n) == want).all()
            if s >= 2:
                flips = tail_state(res.history, s) != tail_state(res.history, s - 2)
                for v in range(tree.n):
                    assert (batch.flip_col(v) >> j) & 1 == int(flips[v])
    assert batch.t == max(res.tau for res in runs) + 2


def test_batch_run_undecided_shrinks_to_zero():
    rng = np.random.default_rng(3)
    tree = build_perfect_tree(2, 3)
    width = 64
    vectors = [OpinionVector.random(tree.n, rng) for _ in range(width)]
    mat = np.stack([xi.to_signs() for xi in vectors], axis=1)
    cols0 = pack_bit_rows((mat > 0).astype(np.uint8))
    batch = BatchRun(adjacency_lists(tree), cols0, (1 << width) - 1, step_budget(tree))
    seen = [batch.undecided]
    while batch.undecided:
        batch.advance()
        seen.append(batch.undecided)
        assert seen[-1] & ~seen[-2] == 0  # decided trajectories stay decided
    assert batch.t <= batch.limit


def test_batch_max_tau_matches_per_trajectory_maximum():
    rng = np.random.default_rng(4)
    for _ in range(6):
        tree = random_odd_tree(random_even_size(6, 12, rng), rng)
        width = 1 << tree.n
        cols0 = [tt_column(v, tree.n) for v in range(tree.n)]
        run = BatchRun(adjacency_lists(tree), cols0, (1 << width) - 1, step_budget(tree))
        tau, argmax = batch_max_tau(run)
        best = -1
        first = None
        for j in range(width):
            xi = OpinionVector.from_signs(unpack_column(cols0, j, tree.n))
            got = stabilise(tree, xi).tau
            if got > best:
                best, first = got, j
        assert tau == best
        assert argmax == first  # ties resolve to the lowest column index


# Perfect hosts with internal degrees 3, 5, 7, 9 and 11.
WORD_HOSTS = [(2, 1), (2, 5), (4, 1), (4, 3), (6, 1), (6, 3), (8, 2), (10, 2)]


def row_to_signs(row, n):
    bits = np.unpackbits(row, count=n, bitorder="little")
    return OpinionVector.from_signs(bits.astype(np.int8) * 2 - 1)


@pytest.fixture(params=["default", "narrow"])
def slices(request, monkeypatch):
    """Hosts here are smaller than one slice; narrow slices, shorter than a
    row of k + 1 children for k >= 6, make the word engine cut every level
    and every lane transposition into parts."""
    if request.param == "narrow":
        monkeypatch.setattr(bitsliced, "_SLICE", 5)
        monkeypatch.setattr(bitsliced, "_TRANSPOSE_SLICE", 1)


def test_packed_step_matches_scalar_step(slices):
    rng = np.random.default_rng(5)
    for k, h in WORD_HOSTS:
        tree = build_perfect_tree(k, h)
        words = rng.integers(0, 2**64, size=tree.n, dtype=np.uint64)
        stepped = np.empty_like(words)
        PackedHost(k, h).step(words, stepped)
        for j in range(LANES):
            lane = ((words >> np.uint64(j)) & np.uint64(1)).astype(np.int8) * 2 - 1
            got = ((stepped >> np.uint64(j)) & np.uint64(1)).astype(np.int8) * 2 - 1
            assert (got == _step_signs(tree, lane)).all(), (k, h, j)


def test_packed_taus_match_stabilise(slices):
    # rows carry random bits past n in their last byte: they must be ignored
    rng = np.random.default_rng(6)
    for k, h in WORD_HOSTS:
        tree = build_perfect_tree(k, h)
        rows = rng.integers(0, 256, size=(LANES + 1, (tree.n + 7) // 8), dtype=np.uint8)
        want = [stabilise(tree, row_to_signs(row, tree.n)).tau for row in rows]
        packed = PackedHost(k, h)
        for width in (1, LANES - 1, LANES, LANES + 1):
            assert packed.taus(rows[:width]) == want[:width], (k, h, width)


def test_packed_taus_on_a_perfect_host(slices):
    tree = build_perfect_tree(4, 4)
    rng = np.random.default_rng(7)
    vectors = [OpinionVector.random(tree.n, rng) for _ in range(LANES + 1)]
    rows = [np.packbits(xi.to_signs() > 0, bitorder="little") for xi in vectors]
    assert PackedHost(4, 4).taus(rows) == [stabilise(tree, xi).tau for xi in vectors]
    assert PackedHost(4, 4).taus([]) == []


@pytest.mark.parametrize("k", [2, 4, 6])
def test_perfect_hosts_settle_their_bottom_two_levels_at_once(k):
    """Why the word engine steps only levels 0 to h - 2: the k leaf children
    of a vertex on level h - 1 all hold its time-t opinion at t + 1, so it
    alternates from t = 0 and its leaves copy that from t = 1.  A leaf can
    delay tau only to 1, when its time-0 opinion differs from its parent's
    time-1 opinion, which is its own at time 2."""
    for h in range(2, 7):
        tree = build_perfect_tree(k, h)
        core, above = tree.depth < h - 1, tree.depth == h - 1
        leaves = tree.depth == h
        for seed in range(20):
            xi = OpinionVector.random(tree.n, np.random.default_rng(seed))
            res = stabilise(tree, xi, keep_history=True)
            hist = np.array(res.history)
            assert (hist[2:, above] == hist[:-2, above]).all(), (k, h, seed)
            assert (hist[3:, leaves] == hist[1:-2, leaves]).all(), (k, h, seed)
            core_tau = next(
                t for t in range(len(hist) - 2) if (hist[t + 2, core] == hist[t, core]).all()
            )
            leaf_flag = int((hist[2, leaves] != hist[0, leaves]).any())
            assert res.tau == max(core_tau, leaf_flag), (k, h, seed)


# sha256 of the comma-joined taus of trials 0-199 of seed 20261019, as the
# full-host word engine computed them: three full words and one of width 8.
PACKED_TAU_DIGESTS = [
    (2, 1, "4e34ae04b0bd7090d1fcd1924522068e4657f94c3780cbde6ee329a03cccc803"),
    (2, 2, "e92c8e3bb497584d1e1f8edfd797de5f83bbaa779ba0812a5d26a7a13828ea12"),
    (2, 3, "de796a9e4fc97a9db67e970a2334f8efe594e7cbc09d1c50cdca068a754ca1a7"),
    (2, 4, "b0a0e5355148f690cb41b155896bfa87d2cc7453db359663a836c1d8031808d0"),
    (2, 5, "9d8f9b0974c744266a2fe7d7c8612f46a820b72c06ab0fb792ce9eb9a846b828"),
    (2, 6, "509228ac0e70f82a6214d9abb825a272c373a1a357e3443cc7a66a7abe78c133"),
    (2, 7, "6e1ecb5175220cd70cb41ef3839b523a6008150bfa6abb8d83370aa6260e0a64"),
    (2, 8, "2d1951c95dec44043e635f251b7192750babc4965dfd840ebd77c7e2618d24c6"),
    (2, 9, "afa6330714611358d1f6a145a1a856d416c65dec33705bf9f8342feb6d753f26"),
    (2, 10, "11c83e2ac22ab6f63d843c310bbed5d9281747b375012af7c7224b9f28ea6261"),
    (2, 11, "b5fc25fe3c8ecf7aebae3f1d54ebc245188c5728a53714cf8fb0d0e058f4b77e"),
    (2, 12, "8f0757e0b7f1e9a1e120cdc827df86a1a0e390d57a5c1a2c771c7a199567b1a1"),
    (4, 1, "6483fdd214de656f7ab8b2f6bea8653c2a59764473042db1fd2b2d5bf29da51a"),
    (4, 2, "659978bcda6c3ae291057213bbaeacb4dcc6bc8dd4a5227090efcf531c2f437b"),
    (4, 3, "5e091d52aa721ecf557eb1679f29fd2a06cb3ea9da34cc482295458a4aa346f2"),
    (4, 4, "4d311bca2015071c35309f2cee2ff03d9dbca9aaab5af0748a72fa240286e29d"),
    (4, 5, "e186b682f8b4b66635beeeeab445f526c78188c6e01b329f08007980a0f63ede"),
    (4, 6, "bd33ff2ef463258a4be8cfed3c6d144969c44972b4782dc81403751faff57d1c"),
    (4, 7, "724ceefa5aec61c6ee750977a9630d969174b4ed84668de71e7ffa4004461692"),
    (6, 1, "504a54d37e06e118b674c88b123e461769c9b7f1b20bedebfba11cab7cc93e0f"),
    (6, 2, "659978bcda6c3ae291057213bbaeacb4dcc6bc8dd4a5227090efcf531c2f437b"),
    (6, 3, "fc797b942447131808ed936055babf2a560fbc827b172516a24413c7565379c5"),
    (6, 4, "423ba95c5e199930650fb9bd4de7f7712fee721549e072233c98e486c1deab17"),
    (6, 5, "2d9fffd9ed557394ffd38c22582f809404dca38cd18e25ccccc12e975005ed25"),
]


@pytest.mark.parametrize(
    "k,h,digest", PACKED_TAU_DIGESTS, ids=[f"{k}-{h}" for k, h, _ in PACKED_TAU_DIGESTS]
)
def test_packed_taus_match_their_golden_digest(k, h, digest, slices):
    taus = _batch_taus(PackedHost(k, h), 20261019, 0, 200)
    assert hashlib.sha256(",".join(map(str, taus)).encode()).hexdigest() == digest


def test_packed_run_aborts_at_the_step_budget(monkeypatch):
    tree = build_perfect_tree(2, 3)
    calls = []

    def never_periodic(self, state, below, out, levels):
        # every lane runs a, a, not a, not a, a, ...: no state t + 2 equals state t
        calls.append(1)
        np.bitwise_xor(state, np.uint64(0 if len(calls) % 2 else 2**64 - 1), out=out)

    monkeypatch.setattr(PackedHost, "_step_levels", never_periodic)
    rows = np.zeros((3, (tree.n + 7) // 8), dtype=np.uint8)
    with pytest.raises(InvariantViolationError, match="3 lanes"):
        PackedHost(2, 3).taus(rows)
    assert len(calls) == step_budget(tree) + 2


WIDTHS = (8, 16, 32, 64)


def test_transpose_lanes_matches_unpackbits_at_every_width(slices):
    # rows carry random bits past n, which land in words past n
    rng = np.random.default_rng(10)
    for n in (1, 7, 8, 9, 63, 64, 65, 200, 1000):
        for bits in WIDTHS:
            dt = np.dtype(f"uint{bits}")
            words = -(-n // bits) * bits
            lanes = rng.integers(0, 256, size=(bits, words // 8), dtype=np.uint8)
            bits_of_v = np.unpackbits(lanes, axis=1, bitorder="little").T.copy()
            want = np.packbits(bits_of_v, axis=1, bitorder="little")
            out = np.empty(words, dtype=dt)
            bitsliced._transpose_lanes(lanes.copy(), out)
            assert out.dtype == dt
            assert (out == want.view(dt.newbyteorder("<")).ravel()).all(), (n, bits)


def test_packed_step_on_narrow_words_is_the_low_lanes_of_uint64(slices):
    rng = np.random.default_rng(11)
    for k, h in WORD_HOSTS:
        packed = PackedHost(k, h)
        words = rng.integers(0, 2**64, size=packed.n, dtype=np.uint64)
        wide = np.empty_like(words)
        packed.step(words, wide)
        for bits in WIDTHS[:-1]:
            dt = np.dtype(f"uint{bits}")
            narrow = np.empty(packed.n, dtype=dt)
            packed.step(words.astype(dt), narrow)  # astype keeps the low bits
            assert narrow.dtype == dt
            assert (narrow == wide.astype(dt)).all(), (k, h, bits)


@pytest.mark.parametrize("k,h", WORD_HOSTS + [(2, 12), (4, 7), (6, 5), (8, 4)])
def test_taus_do_not_depend_on_the_word_width(k, h, monkeypatch):
    """The same rows fed in words of any number of lanes give the taus of
    the int8 engine, row by row; slices of 1 KiB cut the larger hosts'
    levels and transpositions into parts at every width."""
    monkeypatch.setattr(bitsliced, "_SLICE", 1 << 10)
    monkeypatch.setattr(bitsliced, "_TRANSPOSE_SLICE", 1 << 10)
    tree = build_perfect_tree(k, h)
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 256, size=(LANES + 1, (tree.n + 7) // 8), dtype=np.uint8)
    want = [stabilise(tree, row_to_signs(row, tree.n)).tau for row in rows]
    packed = PackedHost(k, h)
    assert packed.taus(rows) == want  # a word of 64 lanes, then one of a single lane
    for m in (1, 8, 9, 16, 17, 32, 33, 64):
        got = [t for a in range(0, len(rows), m) for t in packed.taus(rows[a : a + m])]
        assert got == want, (k, h, m)
    with pytest.raises(ValueError, match="66 rows announced, 65 given"):
        packed.taus(rows, LANES + 2)


@pytest.mark.parametrize("trials,bits", [(64, 64), (8, 8)])
def test_packed_taus_stream_their_rows(trials, bits):
    """``taus`` holds two states of words as wide as its first word's lanes,
    and at most one row beside the lane matrix, which lives in a state."""
    packed = PackedHost(2, 14)
    row_bytes = (packed.n + 7) // 8
    rng = np.random.default_rng(13)
    rows = (rng.integers(0, 256, size=row_bytes, dtype=np.uint8) for _ in range(trials))
    state = -(-packed.n // LANES) * LANES * bits // 8
    # the transposition's block of the lane matrix, which fills one state's
    # bytes, and its spare half block
    scratch = 2 * min(state, bitsliced._TRANSPOSE_SLICE)
    tracemalloc.start()
    try:
        packed.taus(rows, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * state + scratch + 2 * row_bytes, (peak, state, scratch, row_bytes)
