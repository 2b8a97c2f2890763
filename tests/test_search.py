"""Search strategies: exhaustive enumeration, the Occam beam, and the MC3 walk."""

import itertools
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specid import search
from specid.aggregate import averaged_coefficients, inclusion_probability, normalize
from specid.core import BandGrid, Spectrum, SpectralLibrary, average_pixels, extract_pixel
from specid.errors import AlignmentError, InputError, SearchError
from conftest import model_rows
from oracles import reference_submodel_beaten
from specid.regression import ModelPrior, Workspace, flagged
from specid.search import (ModelSet, SearchConfig, _checked, _first_parents, _fit,
                           _pcg64_draws, _screen, exhaustive_search, make_workspace,
                           mc3_search, occam_search, run_search)
from synth import make_scene, make_table_instance


def table_workspace(seed):
    y, X, names = make_table_instance(seed)
    return Workspace(y, X, names=names)


def keys(model_set):
    return {tuple(sorted(row.regressors)) for row in model_rows(model_set)}


def _finish(pool: dict, ws: Workspace, strategy: str, metadata: dict) -> tuple:
    """The reference searches' RegressionModels in (bic, key) order, and their metadata."""
    if not pool:
        raise SearchError("no usable models: every candidate design is degenerate")
    return sorted(pool.values(), key=lambda m: (m.bic, m.key())), metadata


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_rows_are(got: ModelSet, want: list, ws: Workspace):
    """Row i of got holds want[i]: its candidates in fit order and every number, bit
    for bit."""
    assert got.index.shape == (len(want), max(m.size for m in want))
    assert bits(got.best_bic) == bits(want[0].bic)
    for i, m in enumerate(want):
        k = got.sizes[i]
        assert got.index[i, :k].tolist() == [ws.names.index(n) for n in m.regressors]
        assert (got.index[i, k:] == -1).all() and (got.coefficients[i, k:] == 0).all()
        assert got.coefficients[i, :k].tobytes() == m.coefficients.tobytes()
        for name in ("bic", "rss", "condition"):
            assert bits(getattr(got, name)[i]) == bits(getattr(m, name)), name
        assert bits(got.intercepts[i]) == bits(math.nan if m.intercept is None else m.intercept)


class TestSearchConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_size": 0},
        {"window_ratio": 1.0},
        {"window_ratio": 0.5},
        {"strategy": "annealing"},
        {"mc3_iterations": 0},
        {"enumeration_cap": 0},
        {"beam_cap": 0},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"max_size": 2.5},
        {"max_size": True},
        {"mc3_iterations": 2.5},
        {"mc3_iterations": True},
        {"enumeration_cap": 2e6},
        {"beam_cap": 50_000.0},
        {"prior": None},
        {"prior": (1.0, 2.0)},
        {"window_ratio": "20"},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InputError):
            SearchConfig(**kwargs)

    def test_window(self):
        assert SearchConfig(window_ratio=20.0).window == pytest.approx(
            2.0 * math.log(20.0), abs=1e-14)

    def test_prior_must_cover_search_sizes(self):
        ws = table_workspace(0)
        config = SearchConfig(max_size=3, prior=ModelPrior(size_weights=(1.0, 1.0)))
        with pytest.raises(InputError):
            exhaustive_search(None, ws, config)


class TestMakeWorkspace:
    g = BandGrid(np.array([0.4, 0.5, 0.6, 0.7, 0.8]))

    def library(self, band_mask=None):
        rng = np.random.default_rng(0)
        specs = tuple(Spectrum("s%d" % i, self.g, rng.uniform(0.1, 1.0, 5), ("A",))
                      for i in range(3))
        return SpectralLibrary(self.g, specs, band_mask=band_mask)

    def test_workspace_passthrough(self):
        ws = table_workspace(1)
        assert make_workspace(None, ws) is ws

    def test_rejects_other_pools(self):
        with pytest.raises(InputError):
            make_workspace(np.zeros(5), "not a library")

    def test_masks_fold_together(self):
        lib = self.library(band_mask=[True, True, True, True, False])
        pixel = Spectrum("px", self.g, [1, 2, 3, 4, 5],
                         valid=[False, True, True, True, True])
        ws = make_workspace(pixel, lib)
        assert ws.names == lib.names
        assert ws.n_obs == 3
        np.testing.assert_array_equal(ws.y, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(ws.X, lib.matrix()[1:4])

    def test_plain_vector_uses_library_mask_only(self):
        lib = self.library(band_mask=[True, False, True, True, True])
        ws = make_workspace(np.arange(5, dtype=float), lib)
        assert ws.n_obs == 4
        with pytest.raises(InputError):
            make_workspace(np.arange(4, dtype=float), lib)

    def test_grid_mismatch(self):
        other = BandGrid(np.array([1.4, 1.5, 1.6, 1.7, 1.8]))
        pixel = Spectrum("px", other, np.ones(5))
        with pytest.raises(AlignmentError):
            make_workspace(pixel, self.library())

    def test_no_shared_usable_bands(self):
        lib = self.library(band_mask=[True, True, False, False, False])
        pixel = Spectrum("px", self.g, np.ones(5),
                         valid=[False, False, True, True, True])
        with pytest.raises(InputError):
            make_workspace(pixel, lib)


class TestExhaustive:
    def test_subset_counts(self):
        rng = np.random.default_rng(2)
        ws = Workspace(rng.normal(0, 1, 20), rng.normal(0, 1, (20, 4)))
        out = exhaustive_search(None, ws, SearchConfig(max_size=2, strategy="exhaustive"))
        assert len(out) == 10
        assert out.strategy_metadata["fits"] == 10

        ws8 = Workspace(rng.normal(0, 1, 25), rng.normal(0, 1, (25, 8)))
        out8 = exhaustive_search(None, ws8, SearchConfig(max_size=3, strategy="exhaustive"))
        assert len(out8) == 92

    def test_every_subset_is_present(self):
        rng = np.random.default_rng(3)
        names = ("a", "b", "c", "d", "e")
        ws = Workspace(rng.normal(0, 1, 20), rng.normal(0, 1, (20, 5)), names=names)
        out = exhaustive_search(None, ws, SearchConfig(max_size=5, strategy="exhaustive"))
        expected = set()
        for bits in range(1, 32):
            expected.add(tuple(sorted(n for i, n in enumerate(names) if bits >> i & 1)))
        assert keys(out) == expected

    def test_enumeration_cap(self):
        rng = np.random.default_rng(4)
        ws = Workspace(rng.normal(0, 1, 25), rng.normal(0, 1, (25, 8)))
        config = SearchConfig(max_size=3, strategy="exhaustive", enumeration_cap=50)
        with pytest.raises(SearchError):
            exhaustive_search(None, ws, config)

    def test_models_sorted_by_bic_then_key(self):
        out = exhaustive_search(None, table_workspace(5),
                                SearchConfig(max_size=3, strategy="exhaustive"))
        ranks = [(row.bic, tuple(sorted(row.regressors))) for row in model_rows(out)]
        assert ranks == sorted(ranks)
        assert out.best_bic == out.bic[0] == out.bic.min()

    def test_exact_tie_broken_by_name(self):
        # a column and its negation fit identically; the key orders them
        rng = np.random.default_rng(6)
        col = rng.normal(0, 1, 18)
        y = rng.normal(0, 1, 18)
        ws = Workspace(y, np.column_stack([col, -col]), names=("pos", "neg"))
        out = exhaustive_search(None, ws, SearchConfig(max_size=1, strategy="exhaustive"))
        assert out.bic[0] == out.bic[1]
        assert model_rows(out)[0].regressors == ("neg",)


def test_model_set_columns():
    out = exhaustive_search(None, table_workspace(7),
                            SearchConfig(max_size=2, strategy="exhaustive"))
    names = ("index", "coefficients", "intercepts", "bic", "rss", "condition")
    given = [getattr(out, name).copy() for name in names]
    again = ModelSet(*given, out.candidates, "occam")
    for name, column in zip(names, given):
        assert getattr(again, name) is column and not column.flags.writeable
        assert column.tobytes() == getattr(out, name).tobytes()
    assert again.sizes.tobytes() == out.sizes.tobytes() and not again.sizes.flags.writeable
    assert again.best_bic == out.best_bic == out.bic[0]
    assert again.strategy == "occam" and again.strategy_metadata == {}
    assert again.prior == ModelPrior.uniform()  # a set built by hand
    # lists take the set's dtypes; a row's set is the same in any order, and
    # no row need be full
    mixed = ModelSet([[0, 2], [1, -1], [2, 1]], [[1, 2], [3, 0], [4, 5]], [0, 0, 0],
                     [3, 1, 2], [1, 1, 1], [1, 1, 1], ("a", "b", "c"), "occam")
    assert mixed.index.dtype == np.intp and mixed.bic.dtype == np.float64
    assert mixed.sizes.tolist() == [2, 1, 2] and mixed.best_bic == 1.0


def columns(index, /, width=None, rows=None, **given):
    """A model set's columns around index, the others of the given lengths;
    `given` replaces any of them, or the candidates ("a", "b", "c")."""
    index = np.array(index, dtype=np.intp).reshape(-1, 2)
    rows = len(index) if rows is None else rows
    coefficients = np.zeros((len(index), index.shape[1] if width is None else width))
    return {"index": index, "coefficients": coefficients, "intercepts": np.zeros(rows),
            "bic": np.zeros(rows), "rss": np.ones(rows), "condition": np.ones(rows),
            "candidates": ("a", "b", "c"), **given}


@pytest.mark.parametrize("given, error", [
    pytest.param(columns([]), SearchError, id="no-rows"),
    pytest.param(columns([[0, 1]], rows=2), InputError, id="column-lengths"),
    pytest.param(columns([[0, 1]], width=3), InputError, id="coefficient-width"),
    pytest.param(columns([[0, 3]]), InputError, id="index-past-candidates"),
    pytest.param(columns([[0, -2]]), InputError, id="index-below-minus-one"),
    pytest.param(columns([[1, 1]]), InputError, id="candidate-twice"),
    pytest.param(columns([[-1, 1]]), InputError, id="padding-before-index"),
    pytest.param(columns([[0, 2], [2, 0]]), SearchError, id="set-reordered-in-two-rows"),
    pytest.param(columns([[0, -1], [1, 2], [0, -1]]), SearchError, id="set-in-two-rows"),
    # every row must be writable as strict JSON: no NaN, no Infinity, no empty set
    *(pytest.param(columns([[0, 1]], bic=[value]), InputError, id="bic-" + label)
      for value, label in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "minus-inf"))),
    *(pytest.param(columns([[0, 1]], coefficients=[[1.0, value]]), InputError,
                   id="coefficient-" + label)
      for value, label in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "minus-inf"))),
    *(pytest.param(columns([[0, 1]], intercepts=[value]), InputError, id="intercept-" + label)
      for value, label in ((math.inf, "inf"), (-math.inf, "minus-inf"))),
    pytest.param(columns([[0, 1], [-1, -1]]), InputError, id="row-without-candidate"),
    pytest.param(columns([], rows=1, index=np.empty((1, 0), np.intp),
                         coefficients=np.empty((1, 0))), InputError, id="width-0-index"),
    pytest.param(columns([[0, 1]], candidates=("a", "a", "c")), InputError,
                 id="candidate-name-repeated"),
    pytest.param(columns([[0, 1]], candidates=("a", "b", 7)), InputError,
                 id="candidate-name-not-a-string"),
])
def test_model_set_validation(given, error):
    with pytest.raises(error):
        ModelSet(**given, strategy="occam")


def row_verdict(index: np.ndarray, p: int):
    """The error class a model set's index earns, or None: the row check the
    ModelSet constructor made before it packed rows into bitmasks, kept as
    the reference. It sorts each row, then lexsorts the sorted rows."""
    held = index >= 0
    sizes = np.count_nonzero(held, axis=1)
    ranked = np.sort(index, axis=1)
    if (not sizes.all() or np.any(index < -1) or np.any(index >= p)
            or np.any(held[:, 1:] & ~held[:, :-1])
            or np.any((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] >= 0))):
        return InputError
    ranked = ranked[np.lexsort(ranked.T[::-1])]  # equal sets sort to equal rows
    if np.any(np.all(ranked[1:] == ranked[:-1], axis=1)):
        return SearchError
    return None


def index_set(index, p: int) -> dict:
    """A model set's columns around index, over p candidates named c0, c1, ..."""
    index = np.asarray(index, dtype=np.intp)
    rows = len(index)
    return {"index": index, "coefficients": np.zeros(index.shape), "intercepts": np.zeros(rows),
            "bic": np.zeros(rows), "rss": np.ones(rows), "condition": np.ones(rows),
            "candidates": tuple("c%d" % j for j in range(p))}


@pytest.mark.parametrize("p, index, error", [
    # candidates 63 and 64 lie in the first and the second 64-bit word
    (65, [[64, 3, 64]], InputError),
    (65, [[63, 64], [64, 63]], SearchError),
    (65, [[0, 64], [1, 64], [64, -1]], None),
    (130, [[64, 129, 64]], InputError),
    (130, [[129, 1, 63]], None),
    (130, [[1, 70, 129], [129, 1, 70]], SearchError),
    # equal in the first word, different in the third
    (130, [[0, 128], [0, 129]], None),
    (130, [[0, 130]], InputError),
], ids=["65-repeat", "65-set-twice", "65-distinct", "130-repeat", "130-one-row",
        "130-set-twice", "130-third-word", "130-past-candidates"])
def test_model_set_rows_past_64_candidates(p, index, error):
    assert row_verdict(np.array(index), p) is error
    if error is None:
        assert ModelSet(**index_set(index, p), strategy="occam").sizes.tolist() == [
            np.count_nonzero(np.array(row) >= 0) for row in index]
    else:
        with pytest.raises(error) as caught:
            ModelSet(**index_set(index, p), strategy="occam")
        assert type(caught.value) is error


@st.composite
def index_matrices(draw):
    """(index, p): rows of distinct candidates, then -1, with planted faults:
    a repeated candidate, padding before a candidate, an index out of range,
    and a set repeated in another order."""
    p = draw(st.sampled_from([3, 64, 65, 130]))
    width = draw(st.integers(1, min(5, p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 8))
    index = np.full((rows, width), -1, dtype=np.intp)
    for row in index:
        size = int(rng.integers(1, width + 1))
        row[:size] = rng.choice(p, size, replace=False)
    for fault in draw(st.lists(st.sampled_from(["repeat", "padding", "range", "twice"]),
                               max_size=3)):
        i = int(rng.integers(rows))
        size = int(np.count_nonzero(index[i] >= 0))
        if fault == "repeat" and size > 1:
            index[i, size - 1] = index[i, int(rng.integers(size - 1))]
        elif fault == "padding":
            index[i, int(rng.integers(width))] = -1
        elif fault == "range":
            index[i, int(rng.integers(width))] = draw(st.sampled_from([-2, p, p + 64, 2**40]))
        elif fault == "twice":
            other = int(rng.integers(rows))
            index[other] = -1
            index[other, :size] = rng.permutation(index[i, :size])
    return index, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index_matrices())
def test_model_set_row_check_matches_the_sorted_check(problem):
    index, p = problem
    want = row_verdict(index, p)
    if want is None:
        models = ModelSet(**index_set(index, p), strategy="occam")
        assert models.sizes.tolist() == np.count_nonzero(index >= 0, axis=1).tolist()
    else:
        with pytest.raises(want) as caught:
            ModelSet(**index_set(index, p), strategy="occam")
        assert type(caught.value) is want


class TestOccam:
    config = SearchConfig(max_size=4, window_ratio=20.0)

    def test_retained_set_obeys_window(self):
        for seed in range(6):
            out = occam_search(None, table_workspace(seed), self.config)
            spread = out.bic.max() - out.best_bic
            assert spread <= self.config.window + 1e-9
            meta = out.strategy_metadata
            assert meta["window"] == pytest.approx(self.config.window)
            assert meta["fits"] > 0 and meta["beam_capped"] is False
            assert len(out.candidates) <= meta["exact_fits"] <= meta["fits"]
            assert meta["submodel_excluded"] == 0

    def test_matches_filtered_exhaustive(self):
        # distractor columns are built orthogonal to the signal span, so the
        # beam reaches everything the brute-force window keeps
        for seed in range(10):
            ws = table_workspace(seed)
            beam = occam_search(None, ws, self.config)
            full = exhaustive_search(
                None, ws, SearchConfig(max_size=4, strategy="exhaustive"))
            brute = {tuple(sorted(row.regressors)): row.bic for row in model_rows(full)
                     if row.bic - full.best_bic <= self.config.window}
            assert keys(beam) == set(brute)
            for row in model_rows(beam):
                assert row.bic == pytest.approx(brute[tuple(sorted(row.regressors))],
                                                abs=1e-8)

    def test_repeat_run_is_identical(self):
        ws = table_workspace(9)
        a = occam_search(None, ws, self.config)
        b = occam_search(None, ws, self.config)
        assert model_rows(a) == model_rows(b)

    def test_beam_cap_flagged(self):
        config = SearchConfig(max_size=3, window_ratio=1e6, beam_cap=2)
        out = occam_search(None, table_workspace(10), config)
        assert out.strategy_metadata["beam_capped"] is True

    def test_submodel_exclusion(self):
        # x1 shadows x0, so {x0, x1} sits inside the window but loses to {x0}
        rng = np.random.default_rng(17)
        n = 30
        x0 = rng.normal(0, 1, n)
        x1 = x0 + 0.01 * rng.normal(0, 1, n)
        X = np.column_stack([x0, x1, rng.normal(0, 1, (n, 2))])
        y = 1.5 * x0 + 0.05 * rng.normal(0, 1, n)
        ws = Workspace(y, X, names=("x0", "x1", "r0", "r1"))
        plain = occam_search(None, ws, SearchConfig(max_size=3))
        strict = occam_search(None, ws, SearchConfig(max_size=3,
                                                     submodel_exclusion=True))
        assert ("x0", "x1") in keys(plain)
        assert ("x0", "x1") not in keys(strict)
        dropped = strict.strategy_metadata["submodel_excluded"]
        assert dropped == len(plain) - len(strict) >= 1
        assert keys(strict) <= keys(plain)
        # no kept model is beaten by one of its own kept sub-models
        kept = {tuple(sorted(row.regressors)): row.bic for row in model_rows(strict)}
        for big, big_bic in kept.items():
            for small, small_bic in kept.items():
                if set(small) < set(big):
                    assert small_bic >= big_bic


@st.composite
def submodel_pools(draw):
    """Distinct sets of 1 to 5 of 6 candidates, each in some fit order, with
    BICs drawn mostly from a few values, so that ties fall within and across
    sizes; every other pool holds one size only."""
    sizes = st.integers(1, 5)
    if draw(st.booleans()):
        sizes = st.just(draw(sizes))
    rows = draw(st.lists(sizes.flatmap(lambda k: st.permutations(range(6)).map(
        lambda order: order[:k])), min_size=1, max_size=40, unique_by=frozenset))
    bics = draw(st.lists(st.sampled_from([-2.0, 0.0, 0.5, 3.0]) | st.floats(-5, 5),
                         min_size=len(rows), max_size=len(rows)))
    return rows, bics


@settings(max_examples=300, deadline=None, derandomize=True)
@given(submodel_pools())
def test_submodel_rule_matches_the_oracle(pool):
    # the strict Occam search's rule, on a pool's padded index rows
    rows, bics = pool
    index = np.full((len(rows), max(map(len, rows))), -1, dtype=np.intp)
    for i, row in enumerate(rows):
        index[i, :len(row)] = row
    got = search._submodel_beaten(index, np.array(bics))
    assert got.dtype == bool
    assert got.tolist() == reference_submodel_beaten(rows, bics)


def test_submodel_rule_on_models_of_twenty_candidates(monkeypatch):
    # a 300 x 40 design with 20 true predictors, searched with no size limit
    # (bma-table's default): the strict pool holds 51 models of 20 to 23
    # candidates, so a rule that walks each model's subsets, or the sets below
    # them, is exponential in model size; the pairwise rule takes under 1 ms
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (300, 40))
    beta = np.zeros(40)
    beta[:20] = rng.uniform(0.3, 1, 20)
    ws = Workspace(X @ beta + rng.normal(0, 1, 300), X, with_intercept=True)
    rule, calls = search._submodel_beaten, []

    def timed(index, bic):
        start = time.perf_counter()
        beaten = rule(index, bic)
        calls.append((index, bic, beaten, time.perf_counter() - start))
        return beaten
    monkeypatch.setattr(search, "_submodel_beaten", timed)
    out = occam_search(None, ws, SearchConfig(max_size=sys.maxsize, submodel_exclusion=True))
    (index, bic, beaten, seconds), = calls
    rows = [row[row >= 0].tolist() for row in index]
    assert len(rows) == 51 and max(map(len, rows)) == 23
    assert beaten.tolist() == reference_submodel_beaten(rows, bic.tolist())
    assert out.strategy_metadata["submodel_excluded"] == 49 and len(out) == 2
    assert seconds < 5.0


def reference_occam(y, library, config):
    """Occam search fitting every child exactly, one extend call per child.

    The level loop occam_search had before it screened levels; the screened
    search must reproduce it bit for bit.
    """
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    window = config.window
    fits = 0
    capped = False
    best = math.inf
    pool = {}

    name_index = {name: j for j, name in enumerate(ws.names)}
    level = []
    for j in range(p):
        model = ws.fit_subset((j,))
        fits += 1
        if model.condition_flag:
            continue
        best = min(best, model.bic)
        level.append(model)
    if not level:
        raise SearchError("every single-regressor model is degenerate")
    survivors = [m for m in level if m.bic - best <= window]
    pool.update({m.key(): m for m in survivors})

    for _size in range(2, limit + 1):
        survivors.sort(key=lambda m: (m.bic, m.key()))
        if len(survivors) > config.beam_cap:
            survivors = survivors[:config.beam_cap]
            capped = True
        candidates = {}
        for parent in survivors:
            inside = {name_index[n] for n in parent.regressors}
            for j in range(p):
                if j in inside:
                    continue
                ckey = tuple(sorted(parent.regressors + (ws.names[j],)))
                if ckey not in candidates:
                    candidates[ckey] = (parent, j)
        level = []
        for ckey in sorted(candidates):
            parent, j = candidates[ckey]
            child = ws.extend(parent, j)
            fits += 1
            if child.condition_flag:
                continue
            best = min(best, child.bic)
            level.append(child)
        survivors = [m for m in level if m.bic - best <= window]
        pool.update({m.key(): m for m in survivors})
        if not survivors:
            break

    retained = {k: m for k, m in pool.items() if m.bic - best <= window}
    dropped = 0
    if config.submodel_exclusion:
        keys = sorted(retained, key=len)
        keep = {}
        for key in keys:
            kset = set(key)
            beaten = any(set(other) < kset and retained[other].bic < retained[key].bic
                         for other in keys if len(other) < len(key))
            if beaten:
                dropped += 1
            else:
                keep[key] = retained[key]
        retained = keep
    meta = {"fits": fits, "beam_capped": capped, "window": window,
            "submodel_excluded": dropped}
    return _finish(retained, ws, "occam", meta)


def outcome(search, ws, config):
    try:
        return search(None, ws, config)
    except (InputError, SearchError) as exc:
        return type(exc)


def assert_same_search(ws, config):
    got = outcome(occam_search, ws, config)
    want = outcome(reference_occam, ws, config)
    if isinstance(want, type):
        assert got is want
        return
    want, want_meta = want
    assert_rows_are(got, want, ws)
    meta = got.strategy_metadata
    for name in ("fits", "beam_capped", "submodel_excluded", "window"):
        assert meta[name] == want_meta[name]
    assert len(ws.names) <= meta["exact_fits"] <= meta["fits"]


@st.composite
def search_problems(draw):
    """Small designs with the hazards the screen must bound: duplicated and
    near-collinear columns, badly scaled columns, near-noiseless responses."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(2, 7))
    X = rng.normal(0.0, 1.0, (n, p))
    for _ in range(draw(st.integers(0, 3))):
        a, b = rng.choice(p, 2, replace=False)
        kind = draw(st.sampled_from(["copy", "negate", "near", "scale"]))
        if kind == "copy":
            X[:, b] = X[:, a]
        elif kind == "negate":
            X[:, b] = -X[:, a]
        elif kind == "near":
            eps = draw(st.sampled_from([1e-2, 1e-5, 1e-7, 1e-8, 1e-10]))
            X[:, b] = X[:, a] + eps * rng.normal(0.0, 1.0, n)
        else:
            X[:, b] *= draw(st.sampled_from([1e-9, 1e-6, 1e6]))
    beta = rng.normal(0.0, 1.0, p) * (rng.random(p) < 0.5)
    noise = draw(st.sampled_from([0.0, 1e-13, 1e-8, 1e-3, 0.1, 1.0]))
    y = X @ beta + noise * rng.normal(0.0, 1.0, n) + draw(st.sampled_from([0.0, 3.0]))
    ws = Workspace(y, X, with_intercept=draw(st.booleans()))
    config = SearchConfig(max_size=draw(st.integers(1, 4)),
                          window_ratio=draw(st.sampled_from([1.5, 20.0, 1e4])),
                          beam_cap=draw(st.sampled_from([1, 2, 3, 50_000])),
                          submodel_exclusion=draw(st.booleans()))
    return ws, config


class TestOccamScreen:
    """The screened Occam search equals fitting every child exactly."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(search_problems())
    def test_matches_reference_loop(self, problem):
        assert_same_search(*problem)

    def test_table_instances(self):
        for seed in range(6):
            assert_same_search(table_workspace(seed), SearchConfig(max_size=4))

    def test_screened_out_level_still_checks_its_size(self):
        # y is exact in three columns, so no size-4 child can enter the window
        # and none is fitted; the level still has more parameters than n_obs
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (6, 4))
        ws = Workspace(3.0 + X[:, 1:] @ [0.9, 0.8, 0.05], X, with_intercept=True)
        config = SearchConfig(max_size=4, window_ratio=1.5)
        assert outcome(occam_search, ws, config) is InputError
        assert_same_search(ws, config)

    @pytest.mark.parametrize("noise", [0.0, 1e-9, 0.1])
    def test_bound_never_exceeds_the_exact_bic(self, noise):
        # near-noiseless fits are where rounding moves the BIC most: an exact
        # rss clamped at 0 against a screened one of 1e-30 is ~1000 BIC units
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(0, 1, (10, 6))
            X[:, 4] = X[:, 0] + 1e-6 * rng.normal(0, 1, 10)
            y = 3.0 + X[:, 1] - X[:, 2] + noise * rng.normal(0, 1, 10)
            ws = Workspace(y, X, with_intercept=bool(seed % 2))
            level = _fit(ws, np.arange(6)[:, None])
            for _ in range(3):
                level = level.take(np.flatnonzero(~flagged(level.condition)))
                parent, col = _first_parents(level.index, 6)
                bound = _screen(ws, level, parent, col)
                level = _fit(ws, np.column_stack([level.index[parent], col]), level, parent)
                for b, bic, flag in zip(bound, level.bic, flagged(level.condition)):
                    assert flag or b <= bic

    def test_flagged_child_with_the_lowest_bic(self):
        # x1 is tiny and orthogonal to x0: extend's pivot test is scale-free and
        # passes, but the condition estimate is not, so {x0, x1} is flagged while
        # holding by far the lowest BIC of its level; the level's window must
        # come from the best unflagged child instead.
        rng = np.random.default_rng(31)
        n = 25
        u, v = rng.normal(0, 1, n), rng.normal(0, 1, n)
        X = np.column_stack([u, 1e-11 * v, rng.normal(0, 1, (n, 3))])
        y = u + 0.5 * v + 1e-3 * rng.normal(0, 1, n)
        ws = Workspace(y, X, names=("x0", "x1", "r0", "r1", "r2"))
        x0 = ws.fit_subset((0,))
        children = [ws.extend(x0, j) for j in range(1, 5)]
        lowest = min(children, key=lambda m: m.bic)
        assert lowest.key() == ("x0", "x1") and lowest.condition_flag
        assert lowest.bic < min(m.bic for m in children if m is not lowest) - 100
        for exclusion in (False, True):
            assert_same_search(ws, SearchConfig(max_size=3,
                                                submodel_exclusion=exclusion))


def reference_exhaustive(y, library, config: SearchConfig = None) -> tuple:
    """Fit every regressor subset of size 1..max_size.

    Refuses to run when the subset count exceeds config.enumeration_cap.
    """
    # exhaustive_search as a depth-first recursion with one RegressionModel
    # per fit, kept verbatim; the level-wise search must reproduce it bit for bit
    config = config or SearchConfig(strategy="exhaustive")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    total = sum(math.comb(p, k) for k in range(1, limit + 1))
    if total > config.enumeration_cap:
        raise SearchError(
            "exhaustive search over %d candidates up to size %d needs %d fits, "
            "above the cap of %d" % (p, limit, total, config.enumeration_cap))
    pool = {}

    def descend(parent, last):
        for j in range(last + 1, p):
            child = ws.extend(parent, j)
            if not child.condition_flag:
                pool[child.key()] = child
            if child.size < limit:
                descend(child, j)

    for j in range(p):
        model = ws.fit_subset((j,))
        if not model.condition_flag:
            pool[model.key()] = model
        if limit > 1:
            descend(model, j)
    return _finish(pool, ws, "exhaustive", {"fits": total})


def assert_same_exhaustive(ws, config):
    got = outcome(exhaustive_search, ws, config)
    want = outcome(reference_exhaustive, ws, config)
    if isinstance(want, type):
        assert got is want
        return
    want, want_meta = want
    assert_rows_are(got, want, ws)
    assert not any(m.condition_flag for m in want)
    meta = got.strategy_metadata
    assert meta["fits"] == meta["exact_fits"] == want_meta["fits"]
    assert meta["degenerate"] == meta["fits"] - len(got)


@st.composite
def exhaustive_problems(draw):
    """Random designs with one column near or exactly a copy of another, so
    that fits fall back to lstsq and flagged parents are extended."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(2, 7))
    X = rng.normal(0.0, 1.0, (n, p))
    a, b = rng.choice(p, 2, replace=False)
    eps = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-2]))
    X[:, b] = X[:, a] + eps * rng.normal(0.0, 1.0, n)
    noise = draw(st.sampled_from([0.0, 1e-8, 0.1, 1.0]))
    y = X @ rng.normal(0.0, 1.0, p) + noise * rng.normal(0.0, 1.0, n)
    ws = Workspace(y, X, with_intercept=draw(st.booleans()))
    return ws, SearchConfig(max_size=draw(st.integers(1, 4)), strategy="exhaustive")


def fallback_workspace() -> Workspace:
    """x2 copies x0, so {x0, x2} has no Cholesky factor and falls back to
    lstsq; x3 is tiny, so {x1, x3} passes extend's scale-free pivot test and
    is factored but flagged. Both are extended to size 3."""
    rng = np.random.default_rng(40)
    X = rng.normal(0, 1, (20, 5))
    X[:, 2] = X[:, 0]
    X[:, 3] *= 1e-11
    return Workspace(X @ [1.0, -0.5, 0.0, 0.0, 0.3] + 0.1 * rng.normal(0, 1, 20), X)


class TestExhaustiveReference:
    """The level-wise exhaustive search equals the depth-first one bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(exhaustive_problems())
    def test_matches_reference_recursion(self, problem):
        assert_same_exhaustive(*problem)

    def test_table_instances(self):
        for seed in range(3):
            assert_same_exhaustive(table_workspace(seed),
                                   SearchConfig(max_size=4, strategy="exhaustive"))

    def test_fallback_parent_and_flagged_parent(self, monkeypatch):
        ws = fallback_workspace()
        copy = ws.extend(ws.fit_subset((0,)), 2)
        tiny = ws.extend(ws.fit_subset((1,)), 3)
        assert copy.condition_flag and copy._state[2] is None
        assert tiny.condition_flag and tiny._state[2] is not None
        fallbacks = []
        original = Workspace._fallback

        def counted(self, sel):
            fallbacks.append(tuple(sel))
            return original(self, sel)

        monkeypatch.setattr(Workspace, "_fallback", counted)
        assert_same_exhaustive(ws, SearchConfig(max_size=3, strategy="exhaustive"))
        assert (0, 2) in fallbacks and (0, 2, 4) in fallbacks


class TestFitChunkSeams:
    """Levels written two fits at a time, so every level, fallback parents
    included, crosses chunk seams, equal the reference searches bit for bit."""

    @pytest.fixture(autouse=True)
    def two_fit_chunks(self, monkeypatch):
        monkeypatch.setattr(search, "_FIT_CHUNK", 2)

    # the patch holds for every example, so the fixture need not run per example
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(exhaustive_problems())
    def test_exhaustive(self, problem):
        assert_same_exhaustive(*problem)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(search_problems())
    def test_occam(self, problem):
        assert_same_search(*problem)

    def test_fallback_parent_and_flagged_parent(self):
        assert_same_exhaustive(fallback_workspace(),
                               SearchConfig(max_size=3, strategy="exhaustive"))

    def test_table_instances(self):
        for seed in range(3):
            ws = table_workspace(seed)
            assert_same_exhaustive(ws, SearchConfig(max_size=4, strategy="exhaustive"))
            assert_same_search(ws, SearchConfig(max_size=4))


class TestFullFitChunks:
    """At the real _FIT_CHUNK, levels of more than one full chunk, with rows
    refitted from the Gram matrix in the middle of a chunk, equal the
    reference searches bit for bit."""

    @staticmethod
    def workspace(with_intercept):
        # "dup" is an exact copy of x3: growing a factor that holds one of
        # them by the other meets a dependent column, so _fit_rows refits it
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (40, 20))
        X[:, 10] = X[:, 3]
        y = X[:, [0, 3, 7]] @ [1.0, -0.5, 0.3] + 0.5 * rng.normal(0, 1, 40)
        names = ["x%d" % j for j in range(20)]
        names[10] = "dup"
        return Workspace(y, X, names=names, with_intercept=with_intercept)

    @staticmethod
    def refits(monkeypatch) -> list:
        """The candidate rows _factor fits from now on, in call order."""
        calls = []
        factor = Workspace._factor

        def counted(self, sel):
            calls.append(tuple(sel))
            return factor(self, sel)

        monkeypatch.setattr(Workspace, "_factor", counted)
        return calls

    @pytest.mark.parametrize("with_intercept", [False, True])
    def test_exhaustive(self, monkeypatch, with_intercept):
        ws = self.workspace(with_intercept)
        config = SearchConfig(max_size=3, strategy="exhaustive")
        calls = self.refits(monkeypatch)
        exhaustive_search(None, ws, config)
        monkeypatch.undo()
        # the last level (not kept) is fitted in prefix order, one full chunk first
        order = list(itertools.combinations(range(20), 3))
        assert len(order) > search._FIT_CHUNK
        at = [order.index(sel) for sel in calls if len(sel) == 3]
        assert any(0 < i < search._FIT_CHUNK - 1 for i in at)
        assert all(3 in order[i] and 10 in order[i] for i in at)
        assert_same_exhaustive(ws, config)

    @pytest.mark.parametrize("with_intercept", [False, True])
    def test_occam(self, monkeypatch, with_intercept):
        ws = self.workspace(with_intercept)
        # a window this wide fits every child, so the kept third level holds
        # all 1,140 three-candidate sets
        config = SearchConfig(max_size=4, window_ratio=1e300)
        calls = self.refits(monkeypatch)
        occam_search(None, ws, config)
        monkeypatch.undo()
        assert math.comb(20, 3) > search._FIT_CHUNK
        assert any(len(sel) == 3 for sel in calls) and any(len(sel) == 4 for sel in calls)
        assert_same_search(ws, config)


@pytest.mark.parametrize("with_intercept", [False, True])
def test_exhaustive_past_64_candidates(with_intercept):
    # 70 candidates up to size 2: 2,485 models, whose rows span two 64-bit words
    rng = np.random.default_rng(70)
    X = rng.normal(0, 1, (30, 70))
    ws = Workspace(X[:, [2, 66]] @ [1.0, -0.5] + 0.1 * rng.normal(0, 1, 30), X,
                   with_intercept=with_intercept)
    config = SearchConfig(max_size=2, strategy="exhaustive")
    assert len(exhaustive_search(None, ws, config)) == 2_485
    assert_same_exhaustive(ws, config)


def test_exhaustive_peak_is_a_small_multiple_of_its_models():
    # 30 candidates up to size 4: 31,930 models, 104 bytes each in the set's
    # columns; "copy" makes the second candidate a copy of the first, and the
    # designs holding both are flagged here and dropped from the columns in place
    for design in ("plain", "intercept", "copy"):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (40, 30))
        y = X[:, :3] @ [1.0, -0.5, 0.3] + rng.normal(0, 1, 40)
        if design == "copy":
            X[:, 1] = X[:, 0]
        ws = Workspace(y, X, with_intercept=design == "intercept")
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            held = tracemalloc.get_traced_memory()[0]
            got = exhaustive_search(None, ws, SearchConfig(max_size=4, strategy="exhaustive"))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        own = sum(column.nbytes for column in (got.index, got.coefficients, got.intercepts,
                                                got.bic, got.rss, got.condition, got.sizes))
        dropped = got.strategy_metadata["degenerate"]
        assert (dropped > 0) is (design == "copy"), design
        assert len(got) == 31_930 - dropped and own == 104 * len(got), design
        assert peak <= 150 * len(got), (design, peak / len(got))


class TestDegenerateCount:
    """strategy_metadata["degenerate"] counts the flagged designs dropped."""

    def workspace(self):
        # candidate "dup" is an exact copy of "a", and here every design holding
        # both is flagged (rounding can leave such a design unflagged)
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (20, 6))
        X[:, 5] = X[:, 0]
        y = X[:, :3] @ [1.0, -0.7, 0.4] + 0.05 * rng.normal(0, 1, 20)
        return Workspace(y, X, names=("a", "b", "c", "d", "e", "dup"))

    @staticmethod
    def flagged(ws, subsets) -> int:
        return sum(ws.fit_subset(sel).condition_flag for sel in subsets)

    def test_exhaustive_and_wide_occam(self):
        ws = self.workspace()
        subsets = [sel for k in range(1, 5) for sel in itertools.combinations(range(6), k)]
        expected = self.flagged(ws, subsets)
        assert expected == sum(math.comb(4, k - 2) for k in range(2, 5))
        full = exhaustive_search(None, ws, SearchConfig(max_size=4, strategy="exhaustive"))
        assert full.strategy_metadata["degenerate"] == expected
        # a window this wide keeps every unflagged model, so the beam fits
        # every design that holds both copies
        wide = occam_search(None, ws, SearchConfig(max_size=4, window_ratio=1e300))
        assert wide.strategy_metadata["degenerate"] == expected
        assert keys(wide) == keys(full)

    def test_mc3(self):
        ws = self.workspace()
        proposed = []
        factor = ws._factor  # the chain fits each distinct proposal through it once
        ws._factor = lambda sel: proposed.append(tuple(sel)) or factor(sel)
        out = mc3_search(None, ws, SearchConfig(max_size=4, strategy="mc3",
                                                mc3_iterations=3000, seed=4))
        assert len(proposed) == out.strategy_metadata["unique_fits"]
        expected = self.flagged(Workspace(ws.y, ws.X, ws.names), proposed)
        assert out.strategy_metadata["degenerate"] == expected > 0

    @staticmethod
    def assert_only_the_flagged_fits_added(plain, dark):
        # an all-zero last candidate is flagged alone and in every child: each
        # is fitted, counted and dropped, and the kept rows do not move a bit
        for name in ("index", "coefficients", "intercepts", "bic", "rss", "condition"):
            mine, theirs = getattr(dark, name), getattr(plain, name)
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), name
        before, after = plain.strategy_metadata, dark.strategy_metadata
        added = after["degenerate"] - before["degenerate"]
        assert added > 0
        for count in ("fits", "exact_fits"):
            assert after[count] - before[count] == added, count
        counts = ("fits", "exact_fits", "degenerate")
        assert ({k: v for k, v in after.items() if k not in counts}
                == {k: v for k, v in before.items() if k not in counts})

    def test_flagged_single_candidate_in_a_library(self):
        cube, library, _, _, pixels = make_scene(1)
        average = average_pixels(cube, pixels)
        dark = Spectrum("dark", library.grid, (0.0,) * len(library.grid), ("Dark",))
        plain = occam_search(average, library)
        got = occam_search(average, SpectralLibrary(library.grid, library.spectra + (dark,)))
        self.assert_only_the_flagged_fits_added(plain, got)
        assert plain.strategy_metadata["exact_fits"] == 484
        assert got.strategy_metadata["exact_fits"] == 560
        assert got.strategy_metadata["degenerate"] == 76

    @pytest.mark.parametrize("exclusion", [False, True])
    @pytest.mark.parametrize("ratio", [1.5, 20.0])
    def test_flagged_single_candidate_in_a_table(self, ratio, exclusion):
        # integer columns keep every Gram entry exact, so the zero column moves
        # no other entry's bits, whatever order the BLAS sums them in
        config = SearchConfig(max_size=4, window_ratio=ratio, submodel_exclusion=exclusion)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.integers(-4, 5, (30, 7)).astype(float)
            y = X[:, :3] @ [3.0, -2.0, 1.0] + rng.integers(-2, 3, 30) + 5.0
            names = tuple("x%d" % j for j in range(7))
            plain = occam_search(None, Workspace(y, X, names, with_intercept=True), config)
            got = occam_search(None, Workspace(y, np.column_stack([X, np.zeros(30)]),
                                               names + ("zero",), with_intercept=True), config)
            self.assert_only_the_flagged_fits_added(plain, got)


@pytest.mark.parametrize("search,message", [
    (occam_search, "every single-regressor model is degenerate"),
    (exhaustive_search, "no usable models: every candidate design is degenerate"),
], ids=["occam", "exhaustive"])
def test_an_all_zero_pool_is_a_search_error(search, message):
    # every design of zero columns is flagged, so no model is usable
    ws = Workspace(np.random.default_rng(1).normal(0, 1, 20), np.zeros((20, 3)))
    config = SearchConfig(max_size=2, strategy=search.__name__.split("_")[0])
    with pytest.raises(SearchError, match="^%s$" % re.escape(message)):
        search(None, ws, config)


class TestMC3:
    config = SearchConfig(max_size=4, strategy="mc3", mc3_iterations=20000, seed=3)

    def test_same_seed_reproduces_exactly(self):
        ws = table_workspace(11)
        a = mc3_search(None, ws, self.config)
        b = mc3_search(None, ws, self.config)
        assert model_rows(a) == model_rows(b)
        assert a.strategy_metadata == b.strategy_metadata

    def test_respects_max_size(self):
        out = mc3_search(None, table_workspace(12), self.config)
        assert out.sizes.max() <= self.config.max_size
        meta = out.strategy_metadata
        assert meta["iterations"] == 20000
        assert 0 < meta["accepted"] <= 20000
        assert meta["unique_fits"] >= len(out)

    def test_one_candidate_pool_runs_no_iteration(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 12)
        ws = Workspace(2.0 * x + 0.1 * rng.normal(0, 1, 12), x[:, None], names=("only",))
        out = mc3_search(None, ws, SearchConfig(max_size=1, strategy="mc3",
                                                mc3_iterations=500))
        assert keys(out) == {("only",)}
        assert out.strategy_metadata == {"iterations": 0, "accepted": 0,
                                         "unique_fits": 1, "degenerate": 0}

    def test_size_limit_the_rows_cannot_fit_fails_at_every_seed(self):
        # the full model of 5 candidates and an intercept has 7 parameters,
        # too many for 7 rows, so the chain fails before its first move
        rng = np.random.default_rng(21)
        X = rng.normal(0, 1, (7, 5))
        ws = Workspace(X @ rng.normal(0, 1, 5) + 0.1 * rng.normal(0, 1, 7), X,
                       with_intercept=True)
        for seed in range(8):
            config = SearchConfig(max_size=5, strategy="mc3", mc3_iterations=1, seed=seed)
            with pytest.raises(InputError, match="7 parameters needs more than 7 obs"):
                mc3_search(None, ws, config)
        fits = mc3_search(None, ws, SearchConfig(max_size=4, strategy="mc3", mc3_iterations=1))
        assert fits.strategy_metadata["iterations"] == 1

    def test_inclusion_close_to_exhaustive(self):
        for seed in range(3):
            ws = table_workspace(seed)
            walk = normalize(mc3_search(None, ws, self.config))
            full = normalize(exhaustive_search(
                None, ws, SearchConfig(max_size=4, strategy="exhaustive")))
            for name in ws.names:
                delta = abs(inclusion_probability(walk, name)
                            - inclusion_probability(full, name))
                assert delta <= 0.05, "seed %d, %s off by %.4f" % (seed, name, delta)


class TestPCG64Draws:
    """The chain's draws are Generator.integers(n) and Generator.random(), bit for bit."""

    # 2**31 + 1 and 3 * 2**30 + 7 reject about half and a quarter of their
    # 32-bit words; 2**32 takes a word whole
    RANGES = (1, 2, 3, 2**31 + 1, 3 * 2**30 + 7, 2**32)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), shuffled=st.integers(0, 12), kept=st.booleans(),
           block=st.integers(1, 8),
           calls=st.lists(st.none() | st.sampled_from(RANGES) | st.integers(1, 2**32),
                          max_size=80))
    def test_equal_the_generators_draws(self, seed, shuffled, kept, block, calls):
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (want, got):
            rng.permutation(shuffled)  # as the chain starts
            if rng.bit_generator.state["has_uint32"] != kept:
                rng.integers(2)  # one 32-bit word: keeps a half, or uses the kept one
        assert got.bit_generator.state["has_uint32"] == kept
        integers, random = _pcg64_draws(got, block)
        for n in calls:  # None draws random()
            if n is None:
                assert bits(random()) == bits(want.random())
            else:
                assert integers(n) == int(want.integers(n))


def reference_mc3(y, library, config: SearchConfig = None) -> tuple:
    """Metropolis walk over subsets (add / remove / swap moves).

    Proposals are uniform over the legal neighbor moves of the current model;
    acceptance is min(1, exp(-(bic'-bic)/2) * prior ratio * |N(M)|/|N(M')|).
    The returned set holds every unique model the chain occupied, each with
    its exactly computed BIC; degenerate proposals are rejected outright
    (`degenerate` counts the distinct ones).
    """
    # mc3_search with a cache of RegressionModels, kept verbatim; the chain
    # that keeps fits as rows must reproduce it bit for bit
    config = config or SearchConfig(strategy="mc3")
    ws = make_workspace(y, library)
    limit = _checked(ws, config)
    p = ws.n_candidates
    prior = config.prior
    rng = np.random.default_rng(config.seed)
    cache = {}

    def fitted(key):
        model = cache.get(key)
        if model is None:
            model = ws.fit_subset(key)
            cache[key] = model
        return model

    def neighbor_count(k: int) -> int:
        adds = p - k if k < limit else 0
        removes = k if k > 1 else 0
        return adds + removes + k * (p - k)

    current_key = None
    for j in rng.permutation(p):
        model = fitted((int(j),))
        if not model.condition_flag:
            current_key = (int(j),)
            current = model
            break
    if current_key is None:
        raise SearchError("every single-regressor model is degenerate")

    visited = {current_key}
    accepted = 0
    for _ in range(config.mc3_iterations):
        k = len(current_key)
        adds = p - k if k < limit else 0
        removes = k if k > 1 else 0
        total = adds + removes + k * (p - k)
        if total == 0:
            break  # no legal move (single candidate pool)
        move = int(rng.integers(total))
        inside = set(current_key)
        outside = [j for j in range(p) if j not in inside]
        if move < adds:
            proposal_key = tuple(sorted(current_key + (outside[move],)))
        elif move < adds + removes:
            kept = list(current_key)
            del kept[move - adds]
            proposal_key = tuple(kept)
        else:
            slot, target = divmod(move - adds - removes, p - k)
            kept = list(current_key)
            kept[slot] = outside[target]
            proposal_key = tuple(sorted(kept))
        proposal = fitted(proposal_key)
        if proposal.condition_flag:
            continue  # zero-posterior state; reject
        log_alpha = (-(proposal.bic - current.bic) / 2.0
                     + prior.log_weight(len(proposal_key)) - prior.log_weight(k)
                     + math.log(total) - math.log(neighbor_count(len(proposal_key))))
        if log_alpha >= 0 or math.log(rng.random()) < log_alpha:
            current_key, current = proposal_key, proposal
            visited.add(proposal_key)
            accepted += 1

    pool = {key: cache[key] for key in visited}
    meta = {"iterations": config.mc3_iterations, "accepted": accepted,
            "unique_fits": len(cache),
            "degenerate": sum(m.condition_flag for m in cache.values())}
    return _finish(pool, ws, "mc3", meta)


@st.composite
def mc3_problems(draw):
    """Small designs, some holding an exact or near copy of a column (so that
    the chain proposes flagged designs) or a zero column, under a uniform or
    a size-weight prior."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(1, 7))
    X = rng.normal(0.0, 1.0, (n, p))
    kind = draw(st.sampled_from(["none", "copy", "near", "zero"]))
    a, b = rng.permutation(p)[:2] if p > 1 else (0, 0)
    if kind == "zero":
        X[:, a] = 0.0
    elif kind != "none" and p > 1:
        eps = 0.0 if kind == "copy" else draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
        X[:, b] = X[:, a] + eps * rng.normal(0.0, 1.0, n)
    noise = draw(st.sampled_from([1e-8, 0.1, 1.0]))
    y = X @ rng.normal(0.0, 1.0, p) + noise * rng.normal(0.0, 1.0, n)
    ws = Workspace(y, X, with_intercept=draw(st.booleans()))
    weights = draw(st.none() | st.lists(st.floats(0.01, 100.0), min_size=p, max_size=p))
    config = SearchConfig(max_size=draw(st.integers(1, p)), strategy="mc3",
                          mc3_iterations=draw(st.integers(1, 400)),
                          seed=draw(st.integers(0, 2**32 - 1)),
                          prior=ModelPrior(size_weights=weights and tuple(weights)))
    return ws, config


def assert_same_mc3(ws, config):
    got = outcome(mc3_search, ws, config)
    limit = min(config.max_size, ws.n_candidates)
    if limit + ws.with_intercept + 1 >= ws.n_obs:
        # the chain checks its size limit before it starts; the reference
        # failed only if its walk reached that size
        assert got is InputError
        return
    want = outcome(reference_mc3, ws, config)
    if isinstance(want, type):
        assert got is want
        return
    want, want_meta = want
    assert_rows_are(got, want, ws)
    # the reference reported the configured count even when its chain had no move
    ran = config.mc3_iterations if ws.n_candidates > 1 else 0
    assert got.strategy_metadata == dict(want_meta, iterations=ran)


class TestMC3Reference:
    """The chain that keeps fits as rows equals the one with model objects."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mc3_problems())
    def test_matches_reference_chain(self, problem):
        assert_same_mc3(*problem)

    def test_table_instances_and_flagged_proposals(self):
        for seed in range(3):
            assert_same_mc3(table_workspace(seed),
                            SearchConfig(max_size=4, strategy="mc3", mc3_iterations=3000,
                                         seed=seed))
        ws = TestDegenerateCount().workspace()
        config = SearchConfig(max_size=6, strategy="mc3", mc3_iterations=3000, seed=4)
        assert mc3_search(None, ws, config).strategy_metadata["degenerate"] > 0
        assert_same_mc3(ws, config)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(0, 5), strategy=st.sampled_from(["occam", "exhaustive"]),
       order=st.permutations(range(40)), implant=st.integers(0, 8))
def test_library_order_leaves_the_posterior_unchanged(seed, strategy, order, implant):
    # the Gram matrix's low bits depend on column position, so the PIPs
    # agree to rounding, not bit for bit
    cube, library, _, _, pixels = make_scene(seed)
    pixel = extract_pixel(cube, *pixels[implant])
    shuffled = SpectralLibrary(library.grid, [library.spectra[j] for j in order])
    config = SearchConfig(strategy=strategy, max_size=3)
    runs = [run_search(pixel, lib, config) for lib in (library, shuffled)]
    assert keys(runs[0]) == keys(runs[1])
    pips = [dict(zip(r.names, r.probabilities))
            for r in (averaged_coefficients(normalize(run)) for run in runs)]
    for name, pip in pips[0].items():
        assert abs(pip - pips[1][name]) <= 1e-10


def test_degenerate_candidate_never_retained():
    # a zero column is flagged in every design that includes it
    rng = np.random.default_rng(13)
    n = 30
    x0, x1 = rng.normal(0, 1, n), rng.normal(0, 1, n)
    X = np.column_stack([x0, np.zeros(n), x1])
    y = x0 + 0.5 * x1 + 0.05 * rng.normal(0, 1, n)
    ws = Workspace(y, X, names=("a", "dead", "b"))
    for search in (exhaustive_search, occam_search, mc3_search):
        out = search(None, ws, SearchConfig(max_size=3, strategy="mc3",
                                            mc3_iterations=2000))
        assert all("dead" not in row.regressors for row in model_rows(out))
        assert "dead" in out.candidates
        assert inclusion_probability(normalize(out), "dead") == 0.0


def test_run_search_dispatch():
    ws = table_workspace(14)
    for strategy, fn in (("exhaustive", exhaustive_search),
                         ("occam", occam_search), ("mc3", mc3_search)):
        config = SearchConfig(max_size=3, strategy=strategy, mc3_iterations=500)
        via_dispatch = run_search(None, ws, config)
        direct = fn(None, ws, config)
        assert via_dispatch.strategy == strategy
        assert keys(via_dispatch) == keys(direct)
