"""Posterior normalization, inclusion/group probabilities, and class trees."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model_set, model_rows
from specid import aggregate
from specid.aggregate import (IdentificationTree, InclusionReport, ModelPosterior,
                              TreeNode, UnknownRegressorWarning,
                              averaged_coefficients, build_tree, class_probability,
                              group_probability, inclusion_probability, normalize)
from specid.core import ROOT_LABEL, ClassHierarchy
from specid.errors import InputError
from specid.regression import ModelPrior, Workspace
from specid.search import ModelSet, SearchConfig, exhaustive_search, run_search
from oracles import reference_member_probability_sum
from synth import make_table_instance


def make_model(regs, bic, coefs=None, intercept=None):
    """A (regressors, coefficients, intercept, bic) row; coefficients default to 1."""
    return tuple(regs), np.ones(len(regs)) if coefs is None else coefs, intercept, bic


def items(posterior):
    """(model row, probability) pairs in model order."""
    return zip(model_rows(posterior.models), posterior.probabilities)


class TestNormalize:
    def test_equal_bics_split_evenly(self):
        ms = make_model_set([make_model(("a",), 5.0), make_model(("b",), 5.0)], "ab")
        np.testing.assert_array_equal(normalize(ms).probabilities, [0.5, 0.5])

    def test_two_ln_nine_gives_nine_to_one(self):
        ms = make_model_set([make_model(("a",), 0.0),
                             make_model(("b",), 2.0 * math.log(9.0))], "ab")
        post = normalize(ms)
        assert post.probabilities[0] == pytest.approx(0.9, abs=1e-12)
        assert post.probabilities[1] == pytest.approx(0.1, abs=1e-12)

    def test_matches_direct_exponentiation(self):
        rng = np.random.default_rng(1)
        names = tuple("abcdefghij")
        for _ in range(20):
            bics = rng.uniform(-30.0, 50.0, 10)
            ms = make_model_set([make_model((n,), b) for n, b in zip(names, bics)], names)
            post = normalize(ms)
            w = np.exp(-(bics - bics.min()) / 2.0)
            np.testing.assert_allclose(post.probabilities, w / w.sum(), rtol=1e-12)
            assert abs(float(post.probabilities.sum()) - 1.0) <= 1e-12

    def test_size_prior_reweights(self):
        ms = make_model_set([make_model(("a",), 3.0), make_model(("a", "b"), 3.0)], "ab",
                            prior=ModelPrior(size_weights=(1.0, 3.0)))
        post = normalize(ms)
        assert post.probabilities[0] == pytest.approx(0.25, abs=1e-12)
        assert post.probabilities[1] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("strategy", ["exhaustive", "occam", "mc3"])
    def test_posterior_weights_by_the_prior_the_search_ran_under(self, strategy):
        y, X, names = make_table_instance(2)
        weights = (1.0, 10.0, 100.0)
        config = SearchConfig(max_size=3, strategy=strategy, mc3_iterations=2000,
                              prior=ModelPrior(size_weights=weights))
        models = run_search(None, Workspace(y, X, names=names), config)
        w = np.exp(-(models.bic - models.bic.min()) / 2.0) * np.take(weights, models.sizes - 1)
        np.testing.assert_allclose(normalize(models).probabilities, w / w.sum(), rtol=1e-12)
        assert models.prior is config.prior

    def test_set_refuses_a_prior_that_misses_a_size(self):
        rows = [make_model(("a", "b", "c", "d"), 1.0), make_model(("a",), 2.0),
                make_model(("a", "b", "c"), 3.0)]
        with pytest.raises(InputError, match="model size 4 "):
            make_model_set(rows, "abcd", prior=ModelPrior(size_weights=(1.0, 2.0, 3.0)))
        for prior in ((1.0, 2.0, 3.0, 4.0), "uniform", ModelPrior):
            with pytest.raises(InputError, match="must be a ModelPrior"):
                make_model_set(rows, "abcd", prior=prior)

    def test_rejects_nonfinite_bic(self):
        # the ModelSet refuses the row, so normalize never meets it
        with pytest.raises(InputError):
            make_model_set([make_model(("a",), math.inf)], "a")

    def test_huge_bic_shift_is_harmless(self):
        # shifted-log form: absolute BIC magnitude cannot overflow the weights
        ms = make_model_set([make_model(("a",), 1e6), make_model(("b",), 1e6 + 2.0)], "ab")
        post = normalize(ms)
        assert post.probabilities[0] == pytest.approx(1
                                                      / (1 + math.exp(-1)), rel=1e-12)


def test_model_posterior_validation():
    ms = make_model_set([make_model(("a",), 0.0), make_model(("b",), 1.0)], "ab")
    with pytest.raises(InputError):
        ModelPosterior(ms, np.array([1.0]))
    with pytest.raises(InputError):
        ModelPosterior(ms, np.array([-0.1, 1.1]))
    with pytest.raises(InputError):
        ModelPosterior(ms, np.array([0.7, 0.4]))
    post = ModelPosterior(ms, np.array([0.25, 0.75]))
    assert not post.probabilities.flags.writeable
    assert post.probabilities.tolist() == [0.25, 0.75]


def test_model_posterior_refuses_nan_probabilities():
    ms = make_model_set([make_model(("a",), 0.0), make_model(("b",), 1.0)], "ab")
    for probs in ([math.nan, math.nan], [math.nan, 1.0], [0.5, math.nan]):
        with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
            ModelPosterior(ms, np.array(probs))


class TestInclusion:
    def three_way(self):
        """{a}, {b}, {a,b} with equal posteriors of 1/3."""
        return make_model_set([make_model(("a",), 0.0, coefs=[2.0]),
                               make_model(("b",), 0.0, coefs=[4.0]),
                               make_model(("a", "b"), 0.0, coefs=[1.0, 3.0])], "ab")

    def test_inclusion_oracle(self):
        post = normalize(self.three_way())
        assert inclusion_probability(post, "a") == pytest.approx(2 / 3, abs=1e-12)
        assert inclusion_probability(post, "b") == pytest.approx(2 / 3, abs=1e-12)

    def test_unknown_regressor_warns_and_returns_zero(self):
        post = normalize(self.three_way())
        with pytest.warns(UnknownRegressorWarning):
            assert inclusion_probability(post, "z") == 0.0

    def test_averaged_coefficients_not_divided_by_inclusion(self):
        post = normalize(self.three_way())
        report = averaged_coefficients(post)
        assert report.names == ("a", "b")
        assert report.coefficient_of("a") == pytest.approx(1.0, abs=1e-12)
        assert report.coefficient_of("b") == pytest.approx(7 / 3, abs=1e-12)
        assert report.probability_of("a") == pytest.approx(2 / 3, abs=1e-12)
        assert report.intercept is None

    def test_intercept_averaged_when_present(self):
        ms = make_model_set([make_model(("a",), 0.0, intercept=3.0),
                             make_model(("b",), 0.0, intercept=1.0)], "ab")
        report = averaged_coefficients(normalize(ms))
        assert report.intercept == pytest.approx(2.0, abs=1e-12)

    def test_report_validation(self):
        with pytest.raises(InputError):
            InclusionReport(("a", "b"), np.array([0.5]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["probabilities", "coefficients"])
    def test_report_refuses_values_that_are_not_json(self, column, value):
        # results.json writes these sections, and RFC 8259 has no NaN or Infinity
        values = {"probabilities": [0.5, 1.0], "coefficients": [1.0, -2.0]}
        values[column][1] = value
        with pytest.raises(InputError, match="must be finite"):
            InclusionReport(("a", "b"), **values)

    def test_matches_exhaustive_hand_sums(self):
        # independent oracle: recompute PIPs from raw BICs with plain numpy
        y, X, names = make_table_instance(3)
        ws = Workspace(y, X, names=names)
        out = exhaustive_search(None, ws, SearchConfig(max_size=3,
                                                       strategy="exhaustive"))
        post = normalize(out)
        bics = out.bic
        w = np.exp(-(bics - bics.min()) / 2.0)
        w /= w.sum()
        for name in names:
            direct = float(sum(wi for wi, m in zip(w, model_rows(out))
                               if name in m.regressors))
            assert inclusion_probability(post, name) == pytest.approx(
                direct, abs=1e-10)


class TestGroups:
    def test_multi_member_model_counts_once(self):
        ms = make_model_set([make_model(("a", "b"), 0.0)], "ab")
        post = normalize(ms)
        assert group_probability(post, ["a", "b"]) == pytest.approx(1.0, abs=1e-15)
        assert group_probability(post, []) == 0.0

    def test_singleton_group_equals_inclusion(self):
        rng = np.random.default_rng(2)
        names = tuple("abcdef")
        for _ in range(10):
            pool = {}
            while len(pool) < 8:
                size = int(rng.integers(1, 4))
                regs = tuple(sorted(rng.choice(names, size=size, replace=False)))
                pool[regs] = make_model(regs, float(rng.uniform(0, 20)))
            post = normalize(make_model_set(pool.values(), names))
            for name in names:
                assert group_probability(post, [name]) == pytest.approx(
                    inclusion_probability(post, name), abs=1e-14)

    def test_union_bound_and_monotonicity(self):
        rng = np.random.default_rng(3)
        names = tuple("abcdef")
        for _ in range(15):
            pool = {}
            while len(pool) < 10:
                size = int(rng.integers(1, 5))
                regs = tuple(sorted(rng.choice(names, size=size, replace=False)))
                pool[regs] = make_model(regs, float(rng.uniform(0, 30)))
            post = normalize(make_model_set(pool.values(), names))
            s = list(rng.choice(names, size=2, replace=False))
            t = list(rng.choice(names, size=3, replace=False))
            gs, gt = group_probability(post, s), group_probability(post, t)
            union = group_probability(post, set(s) | set(t))
            assert union <= gs + gt + 1e-12
            assert max(gs, gt) <= union + 1e-12
            assert union <= 1.0 + 1e-12
            assert group_probability(post, s + s) == pytest.approx(gs, abs=1e-15)

    def test_bare_string_is_refused_not_split(self):
        # split into characters, "ab" would be the group {"a", "b"}
        ms = make_model_set([make_model(("ab",), 0.0), make_model(("a",), 1.0),
                             make_model(("b",), 2.0)], ("ab", "a", "b"))
        post = normalize(ms)
        with pytest.raises(InputError):
            group_probability(post, "ab")
        assert group_probability(post, ["ab"]) == post.probabilities[0]
        assert inclusion_probability(post, "ab") == post.probabilities[0]


class TestHierarchyProbabilities:
    paths = [("n1", ("Fabric", "Nylon")), ("n2", ("Fabric", "Nylon")),
             ("c1", ("Fabric", "Cotton")), ("v1", ("Vegetation",))]

    def posterior(self):
        ms = make_model_set([make_model(("n1", "n2"), 0.0), make_model(("v1",), 0.0)],
                            ("n1", "n2", "c1", "v1"))
        return normalize(ms), ClassHierarchy(self.paths)

    def test_class_probability_counts_models_once(self):
        post, h = self.posterior()
        assert class_probability(post, h, ("Fabric", "Nylon")) == pytest.approx(0.5)
        assert class_probability(post, h, "Fabric") == pytest.approx(0.5)
        assert class_probability(post, h, ("Vegetation",)) == pytest.approx(0.5)
        assert class_probability(post, h, ()) == pytest.approx(1.0)
        assert class_probability(post, h, ("Fabric", "Cotton")) == 0.0

    def test_member_sum_counts_multiplicity(self):
        post, h = self.posterior()
        assert reference_member_probability_sum(post, h, ("Fabric", "Nylon")) == \
            pytest.approx(1.0)  # two members in one half-weight model
        # always at least the class probability
        for node in [(), ("Fabric",), ("Fabric", "Nylon"), ("Vegetation",)]:
            assert reference_member_probability_sum(post, h, node) >= \
                class_probability(post, h, node) - 1e-15

    def test_build_tree_order_and_walk(self):
        post, h = self.posterior()
        tree = build_tree(post, h)
        assert tree.root.name == ROOT_LABEL
        assert tree.root.probability == pytest.approx(1.0)
        # ties in probability fall back to name order
        assert [c.name for c in tree.root.children] == ["Fabric", "Vegetation"]
        fabric = tree.root.children[0]
        assert [c.name for c in fabric.children] == ["Cotton", "Nylon"]
        walked = list(tree.walk())
        assert [path for path, _ in walked] == [
            (), ("Fabric",), ("Fabric", "Cotton"), ("Fabric", "Nylon"),
            ("Vegetation",)]
        for path, node in walked:
            assert node.probability == pytest.approx(
                class_probability(post, h, path), abs=1e-15)

    def test_children_sorted_ascending_by_probability(self):
        ms = make_model_set([make_model(("n1",), 0.0), make_model(("c1",), 2.0)],
                            ("n1", "n2", "c1", "v1"))
        tree = build_tree(normalize(ms), ClassHierarchy(self.paths))
        fabric = next(n for _, n in tree.walk() if n.name == "Fabric")
        probs = [c.probability for c in fabric.children]
        assert probs == sorted(probs)
        assert fabric.children[-1].name == "Nylon"


def test_tree_node_children_frozen():
    node = TreeNode("x", 0.5, children=[TreeNode("y", 0.2)])
    assert isinstance(node.children, tuple)
    assert isinstance(IdentificationTree(node).root, TreeNode)


@pytest.mark.parametrize("probability", [math.nan, math.inf, -math.inf, None, "0.5"])
def test_tree_node_refuses_a_probability_that_is_not_a_finite_number(probability):
    with pytest.raises(InputError, match="finite number"):
        TreeNode("x", probability)


def test_response_scaling_leaves_posterior_unchanged():
    """y -> a*y shifts every BIC by the same constant; probabilities survive."""
    y, X, names = make_table_instance(4)
    config = SearchConfig(max_size=3, strategy="exhaustive")
    base = normalize(exhaustive_search(None, Workspace(y, X, names=names), config))
    for alpha in (7.0, 0.03):
        scaled = normalize(exhaustive_search(
            None, Workspace(alpha * y, X, names=names), config))
        lookup = {m.regressors: p for m, p in items(scaled)}
        for model, p in items(base):
            assert lookup[model.regressors] == pytest.approx(p, abs=1e-12)


# The per-model loops that aggregation ran before it summed arrays, kept
# verbatim as the bit-for-bit reference for the blocked sums.

def reference_inclusion_probability(posterior, regressor):
    if regressor not in posterior.models.candidates:
        warnings.warn("regressor %r is not in the candidate library" % regressor,
                      UnknownRegressorWarning, stacklevel=2)
        return 0.0
    return float(sum(p for m, p in items(posterior) if regressor in m.regressors))


def reference_averaged_coefficients(posterior):
    names = posterior.models.candidates
    index = {name: i for i, name in enumerate(names)}
    probs = np.zeros(len(names))
    coefs = np.zeros(len(names))
    has_intercept = False
    intercept = 0.0
    for model, p in items(posterior):
        for name, beta in zip(model.regressors, model.coefficients):
            probs[index[name]] += p
            coefs[index[name]] += p * beta
        if model.intercept is not None:
            has_intercept = True
            intercept += p * model.intercept
    return InclusionReport(names, probs, coefs,
                           intercept=float(intercept) if has_intercept else None)


def reference_group_probability(posterior, names):
    group = frozenset(names)
    if not group:
        return 0.0
    return float(sum(p for m, p in items(posterior)
                     if not group.isdisjoint(m.regressors)))


def reference_build_tree(posterior, hierarchy):
    def build(path):
        kids = [build(child) for child in hierarchy.children(path)]
        kids.sort(key=lambda n: (n.probability, n.name))
        return TreeNode(hierarchy.label(path),
                        reference_group_probability(posterior, hierarchy.members(path)),
                        tuple(kids))

    return IdentificationTree(build(()))


def bits(value):
    """Bytes of a float or float array; tells -0.0 from 0.0, unlike ==."""
    return np.asarray(value, dtype=np.float64).tobytes()


def tree_bits(tree):
    return [(path, node.name, bits(node.probability)) for path, node in tree.walk()]


@st.composite
def aggregation_problems(draw):
    """A posterior and a hierarchy that hold the sums' edge cases: weights that
    underflow to 0.0 beside negative coefficients, models with two members of
    one class, hierarchy and group names outside the pool, and intercepts
    present, absent or mixed."""
    pool = ["c%d" % j for j in range(draw(st.integers(1, 7)))]
    labels = st.sampled_from(["A", "B", "C"])
    paths = [(name, tuple(draw(st.lists(labels, min_size=1, max_size=2))))
             for name in pool + ["out0", "out1"]]
    subsets = st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool),
                       unique=True)
    regressor_sets = draw(st.lists(subsets, min_size=1, max_size=12,
                                   unique_by=lambda regs: frozenset(regs)))
    intercepts = draw(st.sampled_from(["none", "all", "mixed"]))
    finite = st.floats(-1e3, 1e3)
    models = []
    for regs in regressor_sets:
        bic = draw(st.floats(-40.0, 40.0) | st.floats(1400.0, 2500.0))
        coefs = [draw(finite) for _ in regs]
        has = intercepts == "all" or (intercepts == "mixed" and draw(st.booleans()))
        models.append(make_model(regs, bic, coefs, draw(finite) if has else None))
    groups = draw(st.lists(st.lists(st.sampled_from(pool + ["out0", "zz"])),
                           max_size=4))
    return normalize(make_model_set(models, pool)), ClassHierarchy(paths), groups


class TestMatchesModelLoops:
    """Every blocked sum equals the per-model loop, bit for bit."""

    def assert_same(self, posterior, hierarchy, groups=()):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnknownRegressorWarning)
            for name in posterior.models.candidates + ("out0",):
                assert bits(inclusion_probability(posterior, name)) == \
                    bits(reference_inclusion_probability(posterior, name))
        report = averaged_coefficients(posterior)
        expected = reference_averaged_coefficients(posterior)
        assert report.names == expected.names
        assert bits(report.probabilities) == bits(expected.probabilities)
        assert bits(report.coefficients) == bits(expected.coefficients)
        assert (report.intercept is None) == (expected.intercept is None)
        if report.intercept is not None:
            assert bits(report.intercept) == bits(expected.intercept)
        for node in hierarchy.nodes():
            assert bits(class_probability(posterior, hierarchy, node)) == \
                bits(reference_group_probability(posterior, hierarchy.members(node)))
        for group in groups:
            assert bits(group_probability(posterior, group)) == \
                bits(reference_group_probability(posterior, group))
        assert tree_bits(build_tree(posterior, hierarchy)) == \
            tree_bits(reference_build_tree(posterior, hierarchy))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(aggregation_problems())
    def test_matches_reference_loops(self, problem):
        self.assert_same(*problem)

    # blocks of one model, totals carried over several blocks, and a short tail
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=aggregation_problems())
    def test_matches_reference_loops_in_small_blocks(self, rows, problem):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(aggregate, "SUM_ROWS", rows)
            self.assert_same(*problem)

    def test_one_group_over_many_models_adds_in_model_order(self):
        # numpy sums a one-column block pairwise past 8 rows, so a single
        # group's block must not be one column wide
        names = tuple("c%d" % j for j in range(12))
        subsets = [regs for k in (1, 2) for regs in itertools.combinations(names, k)]
        bics = np.random.default_rng(23).uniform(-20.0, 20.0, len(subsets))
        posterior = normalize(make_model_set(
            [make_model(regs, bic) for regs, bic in zip(subsets, bics)], names))
        for group in ([names[0]], names[:5], names):
            assert bits(group_probability(posterior, group)) == \
                bits(reference_group_probability(posterior, group))

    def test_exhaustive_table_posterior(self):
        y, X, names = make_table_instance(5)
        for with_intercept in (False, True):
            ws = Workspace(y, X, names=names, with_intercept=with_intercept)
            out = exhaustive_search(None, ws, SearchConfig(max_size=4,
                                                           strategy="exhaustive"))
            hierarchy = ClassHierarchy([(name, ("even" if j % 2 else "odd",))
                                        for j, name in enumerate(names)])
            self.assert_same(normalize(out), hierarchy, [names[:3], names[-2:]])


class TestMemory:
    """normalize holds a few model-length arrays; averaging and the class tree
    hold blocks of SUM_ROWS models, however many models there are."""

    candidates = tuple("c%d" % j for j in range(30))
    hierarchy = ClassHierarchy([(name, ("odd" if j % 2 else "even", "r%d" % (j % 5)))
                                for j, name in enumerate(candidates)])

    def posterior(self, n):
        """n distinct models of four candidates each, with intercepts."""
        index = np.array(list(itertools.islice(
            itertools.combinations(range(len(self.candidates)), 4), n)))
        rng = np.random.default_rng(n)
        ones = np.ones(n)
        return normalize(ModelSet(index, rng.normal(size=index.shape), rng.normal(size=n),
                                  rng.uniform(0.0, 30.0, n), ones, ones, self.candidates,
                                  "exhaustive"))

    @staticmethod
    def peak(call, *args):
        """Bytes allocated at the peak of call(*args), above what was held before."""
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            held = tracemalloc.get_traced_memory()[0]
            call(*args)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [2048, 16384])
    def test_normalize_holds_a_few_model_arrays(self, n):
        models = self.posterior(n).models
        assert self.peak(normalize, models) <= 8 * n * 8  # eight float64 arrays

    def test_normalize_peak_is_three_model_arrays(self):
        n = 16384
        models = self.posterior(n).models
        assert self.peak(normalize, models) <= 3 * n * 8

    def test_averaging_and_tree_peaks_do_not_grow_with_models(self):
        small, large = self.posterior(2048), self.posterior(8 * 2048)
        block = aggregate.SUM_ROWS * 8 * (2 * len(self.candidates) + 2)
        for call, args in ((averaged_coefficients, ()), (build_tree, (self.hierarchy,))):
            assert self.peak(call, large, *args) <= self.peak(call, small, *args) + block
