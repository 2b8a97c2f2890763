"""Least-squares engine: oracle fits, BIC values, and factor-update identities."""

import math
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from specid.errors import InputError
from specid.regression import (CONDITION_LIMIT, ModelPrior, RegressionModel,
                               Workspace, bic_from_parts, check_residual, fit, flagged,
                               scipy_linalg_module)


def random_instance(rng, n=24, p=6):
    X = rng.normal(0.0, 1.0, (n, p))
    beta = rng.normal(0.0, 1.0, p)
    y = X @ beta + rng.normal(0.0, 0.1, n)
    return y, X


def test_bic_formula_hand_values():
    # n ln(rss/n) + k ln n with k = regressors + intercept + noise variance
    assert bic_from_parts(2.0, 8, 2, False) == pytest.approx(
        8 * math.log(0.25) + 3 * math.log(8), abs=1e-14)
    assert bic_from_parts(2.0, 8, 2, True) == pytest.approx(
        8 * math.log(0.25) + 4 * math.log(8), abs=1e-14)
    # rss floor keeps the log finite on perfect fits
    assert math.isfinite(bic_from_parts(0.0, 8, 2, False))
    with pytest.raises(InputError):
        bic_from_parts(1.0, 0, 1, False)


class TestFitOracle:
    """fit() against numpy's lstsq on well-conditioned designs."""

    def test_coefficients_rss_bic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y, X = random_instance(rng)
            model = fit(y, X)
            beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            np.testing.assert_allclose(model.coefficients, beta, rtol=1e-8)
            resid = y - X @ beta
            assert model.rss == pytest.approx(float(resid @ resid), rel=1e-10)
            assert model.bic == pytest.approx(
                bic_from_parts(model.rss, y.size, X.shape[1], False), abs=1e-12)
            assert not model.condition_flag

    def test_intercept_matches_augmented_lstsq(self):
        rng = np.random.default_rng(2)
        y, X = random_instance(rng, n=30, p=4)
        model = fit(y, X, with_intercept=True)
        aug = np.column_stack([np.ones(30), X])
        beta, _, _, _ = np.linalg.lstsq(aug, y, rcond=None)
        assert model.intercept == pytest.approx(beta[0], rel=1e-8)
        np.testing.assert_allclose(model.coefficients, beta[1:], rtol=1e-8)
        assert model.bic == pytest.approx(
            bic_from_parts(model.rss, 30, 4, True), abs=1e-12)

    def test_residual_orthogonal_to_design(self):
        # |column . (y - X beta)| <= 1e-8 * |column| * |y|
        rng = np.random.default_rng(3)
        for _ in range(30):
            y, X = random_instance(rng, n=20, p=5)
            model = fit(y, X)
            resid = y - X @ model.coefficients
            for j in range(X.shape[1]):
                bound = 1e-8 * np.linalg.norm(X[:, j]) * np.linalg.norm(y)
                assert abs(float(X[:, j] @ resid)) <= bound
            assert check_residual(model) <= 1e-8


class TestWorkspace:
    def test_input_validation(self):
        y = np.zeros(5)
        with pytest.raises(InputError):
            Workspace(y, np.zeros((5, 0)))
        with pytest.raises(InputError):
            Workspace(y, np.zeros((4, 2)))
        with pytest.raises(InputError):
            Workspace(np.array([1.0, np.nan, 0, 0, 0]), np.zeros((5, 2)))
        with pytest.raises(InputError):
            Workspace(y, np.zeros((5, 2)), names=("a",))
        with pytest.raises(InputError):
            Workspace(y, np.zeros((5, 2)), names=("a", "a"))

    def test_fit_subset_checks(self):
        rng = np.random.default_rng(4)
        y, X = random_instance(rng, n=10, p=4)
        ws = Workspace(y, X)
        with pytest.raises(InputError):
            ws.fit_subset(())
        with pytest.raises(InputError):
            ws.fit_subset((0, 0))
        with pytest.raises(InputError):
            ws.fit_subset((4,))
        # k (regressors + noise) must stay below n
        tiny = Workspace(y[:3], X[:3, :])
        with pytest.raises(InputError):
            tiny.fit_subset((0, 1, 2))

    def test_subset_matches_direct_fit(self):
        rng = np.random.default_rng(5)
        y, X = random_instance(rng, n=25, p=7)
        ws = Workspace(y, X, names=tuple("abcdefg"))
        for sel in [(0,), (2, 5), (1, 3, 6), (0, 1, 2, 3)]:
            model = ws.fit_subset(sel)
            direct = fit(y, X[:, list(sel)])
            assert model.regressors == tuple("abcdefg"[j] for j in sel)
            np.testing.assert_allclose(model.coefficients, direct.coefficients,
                                       rtol=1e-9)
            assert model.rss == pytest.approx(direct.rss, rel=1e-9)
            assert model.bic == pytest.approx(direct.bic, abs=1e-9)

    def test_extend_equals_fresh_subset(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            y, X = random_instance(rng, n=28, p=8)
            ws = Workspace(y, X)
            parent = ws.fit_subset((1, 4))
            child = ws.extend(parent, 6)
            fresh = ws.fit_subset((1, 4, 6))
            assert child.key() == fresh.key()
            np.testing.assert_allclose(sorted(child.coefficients),
                                       sorted(fresh.coefficients), rtol=1e-8)
            assert child.rss == pytest.approx(fresh.rss, rel=1e-8, abs=1e-12)
            assert child.bic == pytest.approx(fresh.bic, abs=1e-8)

    def test_extend_rejects(self):
        rng = np.random.default_rng(7)
        y, X = random_instance(rng, n=12, p=4)
        ws = Workspace(y, X)
        parent = ws.fit_subset((0,))
        with pytest.raises(InputError):
            ws.extend(parent, 0)        # already selected
        with pytest.raises(InputError):
            ws.extend(parent, 9)
        other = Workspace(y, X)
        with pytest.raises(InputError):
            other.extend(parent, 1)     # parent from a different workspace

    def test_rss_monotone_under_extension(self):
        # adding a regressor can only reduce the residual sum of squares
        rng = np.random.default_rng(8)
        for _ in range(20):
            y, X = random_instance(rng, n=26, p=7)
            ws = Workspace(y, X)
            order = list(rng.permutation(7))
            model = ws.fit_subset((order[0],))
            for j in order[1:5]:
                bigger = ws.extend(model, int(j))
                assert bigger.rss <= model.rss + 1e-10 * max(1.0, model.rss)
                model = bigger

    def test_orthogonal_extension_pythagoras(self):
        # for c orthogonal to the current design, rss drops by (c.y)^2/|c|^2
        rng = np.random.default_rng(9)
        n = 30
        base = rng.normal(0, 1, (n, 2))
        extra = rng.normal(0, 1, n)
        q, _ = np.linalg.qr(base)
        extra -= q @ (q.T @ extra)
        y = rng.normal(0, 1, n)
        ws = Workspace(y, np.column_stack([base, extra]))
        parent = ws.fit_subset((0, 1))
        child = ws.extend(parent, 2)
        drop = float(extra @ y) ** 2 / float(extra @ extra)
        assert parent.rss - child.rss == pytest.approx(drop, rel=1e-9)

    def test_zero_column_flags_degenerate(self):
        rng = np.random.default_rng(10)
        y = rng.normal(0, 1, 12)
        X = np.column_stack([rng.normal(0, 1, 12), np.zeros(12)])
        model = Workspace(y, X).fit_subset((0, 1))
        assert model.condition_flag
        assert model.condition == math.inf or model.condition > CONDITION_LIMIT

    def test_dependent_extension_stays_sane(self):
        # extending by a copy of an existing regressor hits the pivot guard
        # and falls back to a direct fit: no spurious rss drop, finite betas
        rng = np.random.default_rng(11)
        y = rng.normal(0, 1, 15)
        col = rng.normal(0, 1, 15)
        ws = Workspace(y, np.column_stack([col, col]))
        parent = ws.fit_subset((0,))
        child = ws.extend(parent, 1)
        assert np.all(np.isfinite(child.coefficients))
        assert child.rss == pytest.approx(parent.rss, rel=1e-9)
        assert float(np.sum(child.coefficients)) == pytest.approx(
            parent.coefficients[0], rel=1e-6)

    def test_extreme_scale_ratio_flags_degenerate(self):
        rng = np.random.default_rng(21)
        y = rng.normal(0, 1, 15)
        X = np.column_stack([rng.normal(0, 1, 15), 1e-12 * rng.normal(0, 1, 15)])
        model = Workspace(y, X).fit_subset((0, 1))
        assert model.condition_flag
        assert model.condition > CONDITION_LIMIT


# The fit path as it was before its Python overhead was trimmed, kept verbatim
# (RegressionModel, _State, bic_from_parts and _condition as Reference*): the
# trimmed Workspace must reproduce it bit for bit.
RSS_FLOOR = 1e-300


def reference_bic_from_parts(rss: float, n_obs: int, n_regressors: int, has_intercept: bool) -> float:
    """The BIC of a least-squares fit, from its summary numbers."""
    if n_obs <= 0:
        raise InputError("n_obs must be positive, got %r" % n_obs)
    k = n_regressors + (1 if has_intercept else 0) + 1
    return n_obs * math.log(max(rss, RSS_FLOOR) / n_obs) + k * math.log(n_obs)


@dataclass(frozen=True, eq=False)
class ReferenceModel:
    regressors: tuple
    coefficients: np.ndarray
    intercept: float | None
    rss: float
    n_obs: int
    bic: float
    condition: float
    condition_flag: bool
    _state: object = field(default=None, repr=False)

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.float64).copy()
        coef.flags.writeable = False
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "regressors", tuple(self.regressors))

    @property
    def size(self) -> int:
        return len(self.regressors)

    def key(self) -> tuple:
        """Order-free identity of the regressor subset."""
        return tuple(sorted(self.regressors))


class ReferenceState:
    """Factorization attached to a model so extensions can reuse it."""

    __slots__ = ("ws", "sel", "chol", "zvec")

    def __init__(self, ws, sel, chol, zvec):
        self.ws = ws
        self.sel = sel
        self.chol = chol
        self.zvec = zvec


def reference_condition(chol: np.ndarray) -> float:
    """Condition estimate of the design via its Cholesky factor."""
    rcond, info = lapack.dtrcon(chol, norm='1', uplo='L', diag='N')
    if info != 0 or rcond <= 0:
        return math.inf
    return 1.0 / rcond


class ReferenceWorkspace(Workspace):
    def _model(self, sel, beta, rss, cond, chol, zvec) -> ReferenceModel:
        rss = max(float(rss), 0.0)
        flagged = not math.isfinite(cond) or cond > CONDITION_LIMIT
        state = ReferenceState(self, tuple(sel), chol, zvec)
        return ReferenceModel(
            regressors=tuple(self.names[j] for j in sel),
            coefficients=beta[self._off:],
            intercept=float(beta[0]) if self._off else None,
            rss=rss,
            n_obs=self.n_obs,
            bic=reference_bic_from_parts(rss, self.n_obs, len(sel), self.with_intercept),
            condition=float(cond),
            condition_flag=flagged,
            _state=state,
        )

    def fit_subset(self, sel) -> ReferenceModel:
        """Fit the candidates at indices `sel` (plus the intercept if any)."""
        sel = tuple(int(j) for j in sel)
        if not sel:
            raise InputError("a model needs at least one regressor")
        if len(set(sel)) != len(sel):
            raise InputError("repeated regressor indices: %r" % (sel,))
        if any(not 0 <= j < self.n_candidates for j in sel):
            raise InputError("regressor index out of range: %r" % (sel,))
        self._check_size(len(sel))
        didx = ([0] + [j + 1 for j in sel]) if self._off else list(sel)
        sub = self.gram[np.ix_(didx, didx)]
        rhs = self.xty[didx]
        chol, info = lapack.dpotrf(sub, lower=1)
        if info != 0:
            return self._fallback(sel)
        zvec, _ = lapack.dtrtrs(chol, rhs, lower=1)
        beta, _ = lapack.dtrtrs(chol, zvec, lower=1, trans=1)
        rss = self.yty - float(zvec @ zvec)
        return self._model(sel, beta, rss, reference_condition(chol), chol, zvec)

    def extend(self, parent: ReferenceModel, j: int) -> ReferenceModel:
        """Fit parent's regressors plus candidate j by updating its factor."""
        st = parent._state
        if st is None or st.ws is not self:
            raise InputError("parent model was not fitted from this workspace")
        j = int(j)
        if j in st.sel:
            raise InputError("regressor %r is already in the model" % self.names[j])
        if not 0 <= j < self.n_candidates:
            raise InputError("regressor index out of range: %r" % j)
        if st.chol is None:  # degenerate parent, no factor to update
            return self.fit_subset(st.sel + (j,))
        self._check_size(len(st.sel) + 1)
        dj = j + self._off
        didx = ([0] + [i + 1 for i in st.sel]) if self._off else list(st.sel)
        cross = self.gram[didx, dj]
        w, _ = lapack.dtrtrs(st.chol, cross, lower=1)
        pivot = self.gram[dj, dj] - float(w @ w)
        if pivot <= 0 or pivot <= 1e-14 * self.gram[dj, dj]:
            return self.fit_subset(st.sel + (j,))  # numerically dependent column
        m = st.chol.shape[0]
        chol = np.zeros((m + 1, m + 1))
        chol[:m, :m] = st.chol
        chol[m, :m] = w
        chol[m, m] = math.sqrt(pivot)
        znew = (self.xty[dj] - float(w @ st.zvec)) / chol[m, m]
        zvec = np.append(st.zvec, znew)
        beta, _ = lapack.dtrtrs(chol, zvec, lower=1, trans=1)
        rss = parent.rss - znew * znew
        return self._model(st.sel + (j,), beta, rss, reference_condition(chol), chol, zvec)

    def _fallback(self, sel) -> ReferenceModel:
        """Rank-deficient design: minimum-norm solution, flagged."""
        design = self._design(sel)
        beta, _, _, _ = np.linalg.lstsq(design, self.y, rcond=None)
        resid = self.y - design @ beta
        return self._model(sel, beta, float(resid @ resid), math.inf, None, None)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_same_fit(got, want):
    assert got.regressors == want.regressors
    assert got.key() == want.key()
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert (got.intercept is None) == (want.intercept is None)
    if want.intercept is not None:
        assert bits(got.intercept) == bits(want.intercept)
    for name in ("rss", "bic", "condition"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert got.condition_flag == want.condition_flag


@st.composite
def extension_chains(draw):
    """A design with duplicated, near-collinear or badly scaled columns (so
    that extensions fall back to fit_subset and to lstsq), and an order in
    which to add its columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(2, 7))
    X = rng.normal(0.0, 1.0, (n, p))
    for _ in range(draw(st.integers(0, 3))):
        a, b = rng.choice(p, 2, replace=False)
        kind = draw(st.sampled_from(["copy", "near", "scale", "zero"]))
        if kind == "copy":
            X[:, b] = X[:, a]
        elif kind == "near":
            eps = draw(st.sampled_from([1e-5, 1e-7, 1e-8, 1e-10]))
            X[:, b] = X[:, a] + eps * rng.normal(0.0, 1.0, n)
        elif kind == "scale":
            X[:, b] *= draw(st.sampled_from([1e-9, 1e6]))
        else:
            X[:, b] = 0.0
    y = X @ rng.normal(0.0, 1.0, p) + draw(st.sampled_from([0.0, 1e-8, 0.1]))
    y = y + rng.normal(0.0, draw(st.sampled_from([0.0, 0.1])), n)
    return y, X, draw(st.booleans()), draw(st.permutations(range(p)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(chain=extension_chains())
def test_fits_equal_the_reference_bit_for_bit(chain):
    y, X, with_intercept, order = chain
    ws = Workspace(y, X, with_intercept=with_intercept)
    ref = ReferenceWorkspace(y, X, with_intercept=with_intercept)
    got, want = ws.fit_subset(order[:1]), ref.fit_subset(order[:1])
    assert_same_fit(got, want)
    for size, j in enumerate(order[1:], start=2):
        if size + ws._off + 1 >= ws.n_obs:
            with pytest.raises(InputError):
                ws.extend(got, j)
            break
        got, want = ws.extend(got, j), ref.extend(want, j)
        assert_same_fit(got, want)
        assert_same_fit(ws.fit_subset(order[:size]), ref.fit_subset(order[:size]))


def test_coefficients_are_read_only_and_never_shared():
    rng = np.random.default_rng(12)
    y, X = random_instance(rng, n=20, p=4)
    ws = Workspace(y, X, with_intercept=True)
    parent = ws.fit_subset((0, 2))
    for model in (parent, ws.extend(parent, 3), ws.fit_subset((1, 3))):
        with pytest.raises(ValueError):
            model.coefficients[0] = 1.0
    given_coefs = np.array([1.0, 2.0])
    model = RegressionModel(regressors=("a", "b"), coefficients=given_coefs,
                            intercept=None, rss=1.0, n_obs=10, bic=0.0,
                            condition=1.0, condition_flag=False)
    given_coefs[0] = 5.0
    assert model.coefficients.tolist() == [1.0, 2.0]
    assert given_coefs.flags.writeable
    with pytest.raises(ValueError):
        model.coefficients[1] = 0.0


def test_check_residual_needs_a_fitted_model():
    # a model built by hand carries no workspace to recompute its residual from
    model = RegressionModel(regressors=("a",), coefficients=[1.0], intercept=None, rss=1.0,
                            n_obs=10, bic=0.0, condition=1.0, condition_flag=False)
    with pytest.raises(InputError, match="^model carries no fit state$"):
        check_residual(model)


# `python -c SAME_FORTRAN ORDER` imports specid and scipy.linalg's lapack and
# blas in ORDER (specid-first or scipy-first), then checks that specid's
# LAPACK and BLAS functions are the very objects scipy.linalg exports.
SAME_FORTRAN = """
import sys

def specid_side():
    from specid import regression
    # background_stats takes dsyrk from _fblas the same way
    return regression.lapack, regression.scipy_linalg_module("_fblas")

def scipy_side():
    from scipy.linalg import blas, lapack
    return lapack, blas

if sys.argv[1] == "specid-first":
    ours = specid_side()
    assert "scipy.linalg" not in sys.modules
    lapack, blas = scipy_side()
else:
    lapack, blas = scipy_side()
    ours = specid_side()
for name in ("dpotrf", "dtrtrs", "dtrcon"):
    assert getattr(ours[0], name) is getattr(lapack, name), name
assert ours[1].dsyrk is blas.dsyrk
print("same")
"""


@pytest.mark.parametrize("order", ["specid-first", "scipy-first"])
def test_fortran_functions_are_scipy_linalgs_in_either_import_order(order):
    proc = subprocess.run([sys.executable, "-c", SAME_FORTRAN, order],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "same\n"


def test_a_missing_compiled_module_is_an_import_error_in_one_line():
    with pytest.raises(ImportError) as err:
        scipy_linalg_module("_no_such_module")
    assert str(err.value) == \
        "specid needs scipy: no compiled scipy.linalg._no_such_module found"
    assert "scipy.linalg._no_such_module" not in sys.modules


def test_flagged_on_floats_and_arrays():
    values = [0.0, 1.0, CONDITION_LIMIT, np.nextafter(CONDITION_LIMIT, math.inf),
              math.inf, math.nan]
    want = [not math.isfinite(c) or c > CONDITION_LIMIT for c in values]
    assert want == [False, False, False, True, True, True]
    assert [flagged(float(c)) for c in values] == want
    assert all(type(flagged(float(c))) is bool for c in values)
    assert flagged(np.array(values)).tolist() == want


def test_response_scaling_shifts_all_bics_equally():
    """y -> a*y multiplies every rss by a^2; BIC differences are unchanged."""
    rng = np.random.default_rng(12)
    y, X = random_instance(rng, n=22, p=6)
    ws = Workspace(y, X)
    subsets = [(0,), (1, 2), (0, 3, 4), (2, 5)]
    for alpha in (3.0, 0.25, 17.5):
        ws2 = Workspace(alpha * y, X)
        base = [ws.fit_subset(s) for s in subsets]
        scaled = [ws2.fit_subset(s) for s in subsets]
        for m, s in zip(base, scaled):
            assert s.rss == pytest.approx(alpha ** 2 * m.rss, rel=1e-9)
        for i in range(len(subsets)):
            for j in range(i + 1, len(subsets)):
                d0 = base[i].bic - base[j].bic
                d1 = scaled[i].bic - scaled[j].bic
                assert d1 == pytest.approx(d0, abs=1e-8)


class TestModelPrior:
    def test_uniform_weight_is_zero(self):
        assert ModelPrior.uniform().log_weight(3) == 0.0

    def test_size_weights(self):
        prior = ModelPrior(size_weights=(1.0, 2.0, 4.0))
        assert prior.log_weight(2) == pytest.approx(math.log(2.0))
        with pytest.raises(InputError):
            prior.log_weight(4)
        with pytest.raises(InputError):
            ModelPrior(size_weights=())
        with pytest.raises(InputError):
            ModelPrior(size_weights=(1.0, 0.0))
        with pytest.raises(InputError):
            ModelPrior(size_weights=(1.0, -2.0))
