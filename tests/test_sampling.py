import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from swcopt.builders import relaxed_grouping
from swcopt.model import (
    BoxSupport,
    DiscreteSupport,
    IntegerBoxSupport,
    ScenarioPath,
    ScenarioPaths,
    UncertaintySet,
)
from swcopt.sampling import build_prefix_tree, draw_paths

FIG1_PATHS = [ScenarioPath.of([[a], [b]]) for a, b in ((3, 4), (5, 2), (2, 1), (5, 5))]


def _mixed_set():
    return UncertaintySet(
        (
            BoxSupport(np.array([75.0]), 0.3),
            IntegerBoxSupport(np.array([70]), np.array([130])),
            DiscreteSupport((np.array([1.0, 0.0]), np.array([0.0, 1.0]))),
        )
    )


def test_draws_stay_inside_supports():
    uns = _mixed_set()
    for p in draw_paths(uns, 200, seed=11):
        assert uns.contains(p)


def test_integer_stage_draws_are_lattice_points():
    uns = _mixed_set()
    for p in draw_paths(uns, 300, seed=5):
        v = p.stages[1][0]
        assert v == int(v)
        assert 70 <= v <= 130


def test_identical_seeds_reproduce():
    uns = _mixed_set()
    a = draw_paths(uns, 50, seed=123)
    b = draw_paths(uns, 50, seed=123)
    assert a == b
    c = draw_paths(uns, 50, seed=124)
    assert a != c


def test_draw_paths_needs_positive_count():
    with pytest.raises(ValueError):
        draw_paths(_mixed_set(), 0, seed=1)


def test_custom_sampler_callback():
    uns = UncertaintySet((BoxSupport(np.array([75.0]), 0.3),))

    def corners_only(support, rng, size):
        lo, hi = support.interval()
        picks = rng.integers(0, 2, size=(size, support.dim))
        return np.where(picks == 0, lo, hi)

    paths = draw_paths(uns, 100, seed=9, sampler=corners_only)
    values = {p.stages[0][0] for p in paths}
    assert values <= {52.5, 97.5}
    assert len(values) == 2


def test_prefix_tree_matches_published_example():
    tree = build_prefix_tree(FIG1_PATHS)
    assert tree.n_nodes(1) == 3          # draws 5 and 5 coincide at stage one
    assert tree.n_nodes(2) == 4
    p2n = tree.path_to_node
    assert p2n[1][0] == p2n[3][0]        # paths (5,2) and (5,5) share stage-1 node
    assert p2n[0][0] != p2n[1][0]
    assert len({p2n[i][1] for i in range(4)}) == 4


def test_star_tree_when_first_stage_draws_distinct():
    paths = [ScenarioPath.of([[float(i)], [0.0]]) for i in range(7)]
    tree = build_prefix_tree(paths)
    assert tree.node_counts() == (7, 7)


def test_identical_paths_collapse_to_single_chain():
    paths = [ScenarioPath.of([[1.0], [2.0], [3.0]])] * 9
    tree = build_prefix_tree(paths)
    assert tree.node_counts() == (1, 1, 1)
    assert tree.n_paths == 9


def test_stage_counts_must_agree():
    with pytest.raises(ValueError):
        build_prefix_tree([ScenarioPath.of([[1.0]]), ScenarioPath.of([[1.0], [2.0]])])


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=80, deadline=None)
def test_prefix_grouping_is_exact_and_monotone(raw):
    paths = [ScenarioPath.of([[float(a)], [float(b)], [float(c)]]) for a, b, c in raw]
    tree = build_prefix_tree(paths)
    n = len(paths)
    for i in range(n):
        for j in range(n):
            for t in range(1, 4):
                share = tree.path_to_node[i][t - 1] == tree.path_to_node[j][t - 1]
                assert share == (paths[i].prefix(t) == paths[j].prefix(t))
                if t > 1 and share:
                    # sharing later implies sharing earlier
                    assert tree.path_to_node[i][t - 2] == tree.path_to_node[j][t - 2]
    counts = tree.node_counts()
    assert all(counts[k] <= counts[k + 1] for k in range(len(counts) - 1))


def test_parent_links_consistent():
    paths = [ScenarioPath.of([[a], [b]]) for a, b in ((1, 1), (1, 2), (2, 1))]
    tree = build_prefix_tree(paths)
    for i, p in enumerate(paths):
        leaf = tree.path_to_node[i][1]
        assert tree.parent[1][leaf] == tree.path_to_node[i][0]
        assert tree.node_prefix(2, leaf) == p.prefix(2)


def test_draw_paths_is_one_float_array():
    uns = _mixed_set()
    N, D = 300, 4
    paths = draw_paths(uns, N, seed=5)
    assert paths.values.shape == (N, D) and paths.widths == (1, 1, 2)
    assert paths.values.dtype == np.float64 and paths.values.nbytes == 8 * N * D
    assert not paths.values.flags.writeable
    rng = np.random.default_rng(5)
    want = np.hstack([uns.sample_stage(t, rng, N) for t in range(1, 4)])
    assert paths.values.tobytes() == want.tobytes()
    assert list(paths) == oracles.draw_paths(uns, N, seed=5)


def test_custom_sampler_of_wrong_shape_names_the_stage():
    uns = _mixed_set()

    def one_short(support, rng, size):
        return support.sample(rng, size - 1)

    def transposed(support, rng, size):
        draws = support.sample(rng, size)
        return draws.T if support.dim > 1 else draws

    with pytest.raises(ValueError, match="stage 1"):
        draw_paths(uns, 10, seed=1, sampler=one_short)
    with pytest.raises(ValueError, match="stage 3"):  # the two-dimensional stage
        draw_paths(uns, 10, seed=1, sampler=transposed)


def assert_tree_matches_oracle(paths: ScenarioPaths):
    """Every field of the lexsort tree and of the relaxed grouping equals the
    dict-based oracle's, node values bit for bit."""
    for group, old_group in ((build_prefix_tree, oracles.build_prefix_tree),
                             (relaxed_grouping, oracles.relaxed_grouping)):
        tree, old = group(paths), old_group(list(paths))
        assert tree.node_counts() == old.node_counts()
        assert all(type(k) is int for k in tree.node_counts())
        assert tree.path_to_node.tolist() == [list(a) for a in old.path_to_node]
        for t in range(1, len(paths.widths) + 1):
            want = np.array([oracles.flatten_prefix(key) for key in old.nodes[t - 1]])
            assert tree.nodes[t - 1].shape == want.shape
            assert tree.nodes[t - 1].tobytes() == want.tobytes()
            assert tree.parent[t - 1].tolist() == list(old.parent[t - 1])
            assert [tree.node_prefix(t, j) for j in range(tree.n_nodes(t))] == list(old.nodes[t - 1])


@st.composite
def path_sets(draw):
    """Few distinct values (so ties at every stage), stages one or two wide,
    repeated rows, and 0.0 beside -0.0."""
    widths = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    D = sum(widths)
    value = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])
    rows = draw(st.lists(st.lists(value, min_size=D, max_size=D), min_size=1, max_size=16))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    return ScenarioPaths(np.array(rows).reshape(len(rows), D), widths)


@given(path_sets())
@example(ScenarioPaths(np.array([[2.0, 1.0]]), (1, 1)))                 # one path
@example(ScenarioPaths(np.array([[0.0, 1.0], [-0.0, 2.0]]), (1, 1)))    # 0.0 and -0.0 share
@settings(max_examples=150, deadline=None)
def test_lexsort_tree_matches_dict_oracle(paths):
    assert_tree_matches_oracle(paths)


@pytest.mark.parametrize("seed", range(4))
def test_drawn_trees_match_dict_oracle(seed):
    # integer ties, a two-dimensional discrete stage and continuous draws
    uns = UncertaintySet(
        (
            IntegerBoxSupport(np.array([1]), np.array([3])),
            DiscreteSupport((np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))),
            IntegerBoxSupport(np.array([0, 0]), np.array([1, 2])),
            BoxSupport(np.array([75.0]), 0.3),
        )
    )
    paths = draw_paths(uns, 60, seed)
    assert_tree_matches_oracle(paths)
    assert_tree_matches_oracle(paths[:1])
