"""The interior-point SVR dual solver, pinned against the SLSQP oracle.

The oracle (``tests/svr_oracle.py``) is the SciPy SLSQP solve the SVR used
before.  On the Table II and Table IV data the interior-point solve must
reach a dual objective no worse than the oracle's, and on the RBF rows
give the same predictions and fold MAEs.
"""

from itertools import product

import numpy as np
import pytest

from repro.errors import DataError, ModelingError
from repro.measurement.checkpoint_campaign import run_checkpoint_campaign
from repro.modeling import svr as svr_module
from repro.modeling.model_selection import cross_validate_mae
from repro.modeling.preprocessing import MinMaxScaler
from repro.modeling.svr import SVR, solve_svr_dual
from svr_oracle import OracleSVR, dual_objective, slsqp_dual

#: (C, epsilon) corners and centre of the paper's grid.
GRID = ((10.0, 0.01), (50.0, 0.05), (100.0, 0.1), (100.0, 0.01))
KERNELS = ("rbf", "poly", "linear")


@pytest.fixture(scope="module")
def table2_data(speed_dataset):
    """Per-GPU min-max scaled GFLOPs -> step time, as Table II fits them."""
    data = {}
    for gpu in ("k80", "p100"):
        rows = [m for m in speed_dataset.measurements() if m.gpu_name == gpu]
        features = MinMaxScaler().fit_transform(
            np.array([[m.model_gflops] for m in rows]))
        data[gpu] = (features, np.array([m.step_time for m in rows]))
    return data


@pytest.fixture(scope="module")
def table4_data(catalog):
    """Checkpoint size (MB) -> duration; two repetitions keep the oracle's
    fits under a second."""
    rows = run_checkpoint_campaign(repetitions=2, seed=7, catalog=catalog,
                                   with_sequential_check=False).measurements()
    return (np.array([[m.total_bytes / 2 ** 20] for m in rows]),
            np.array([m.duration for m in rows]))


def _gram(model: SVR, features: np.ndarray) -> np.ndarray:
    """The regularized Gram matrix ``SVR.fit`` builds for ``model``."""
    kernel = svr_module._make_kernel(model.kernel, model.degree,
                                     model._gamma_value, model.coef0)
    gram = kernel(features, features)
    return 0.5 * (gram + gram.T) + 1e-10 * np.eye(len(features))


def _assert_objective_no_worse(model: SVR, features, targets) -> None:
    gram = _gram(model, features)
    ours = solve_svr_dual(gram, targets, model.C, model.epsilon)
    mine = dual_objective(gram, targets, model.epsilon, ours.alpha,
                          ours.alpha_star)
    theirs = dual_objective(gram, targets, model.epsilon,
                            *slsqp_dual(gram, targets, model.C,
                                        model.epsilon))
    assert mine <= theirs + 1e-7 * (1.0 + abs(theirs)), (mine, theirs)
    # The solution is feasible: inside the box, on the equality.
    for variables in (ours.alpha, ours.alpha_star):
        assert variables.min() >= 0.0 and variables.max() <= model.C
    assert abs(float(np.sum(ours.alpha - ours.alpha_star))) < 1e-8 * model.C


@pytest.mark.parametrize("gpu,kernel", list(product(("k80", "p100"), KERNELS)))
def test_table2_dual_objective_no_worse_than_oracle(table2_data, gpu, kernel):
    features, targets = table2_data[gpu]
    for C, epsilon in GRID:
        model = SVR(kernel=kernel, C=C, epsilon=epsilon).fit(features, targets)
        assert model.n_iter_ <= svr_module.MAX_ITERATIONS
        assert model.dual_residual_ < svr_module.TOLERANCE
        assert model.primal_residual_ < svr_module.TOLERANCE
        assert model.mu_ < svr_module.TOLERANCE
        _assert_objective_no_worse(model, features, targets)


@pytest.mark.parametrize("gpu", ["k80", "p100"])
def test_table2_rbf_predictions_and_fold_maes_match_oracle(table2_data, gpu):
    features, targets = table2_data[gpu]
    for C, epsilon in GRID:
        ours = SVR(kernel="rbf", C=C, epsilon=epsilon).fit(features, targets)
        oracle = OracleSVR(kernel="rbf", C=C, epsilon=epsilon).fit(
            features, targets)
        np.testing.assert_allclose(ours.predict(features),
                                   oracle.predict(features), rtol=0, atol=1e-4)
        assert ours.intercept_ == pytest.approx(oracle.intercept_, abs=1e-4)
        mine = cross_validate_mae(
            lambda: SVR(kernel="rbf", C=C, epsilon=epsilon), features,
            targets, rng=np.random.default_rng(0))
        theirs = cross_validate_mae(
            lambda: OracleSVR(kernel="rbf", C=C, epsilon=epsilon), features,
            targets, rng=np.random.default_rng(0))
        np.testing.assert_allclose(mine.fold_maes, theirs.fold_maes, rtol=0,
                                   atol=1e-4)


def test_table4_objective_predictions_and_fold_maes_match_oracle(table4_data):
    features, targets = table4_data
    ours = SVR(kernel="rbf", C=50.0, epsilon=0.05).fit(features, targets)
    oracle = OracleSVR(kernel="rbf", C=50.0, epsilon=0.05).fit(features,
                                                               targets)
    _assert_objective_no_worse(ours, features, targets)
    np.testing.assert_allclose(ours.predict(features), oracle.predict(features),
                               rtol=0, atol=1e-4)
    mine = cross_validate_mae(lambda: SVR(kernel="rbf", C=50.0, epsilon=0.05),
                              features, targets, rng=np.random.default_rng(0))
    theirs = cross_validate_mae(
        lambda: OracleSVR(kernel="rbf", C=50.0, epsilon=0.05), features,
        targets, rng=np.random.default_rng(0))
    np.testing.assert_allclose(mine.fold_maes, theirs.fold_maes, rtol=0,
                               atol=1e-4)


@pytest.mark.parametrize("kernel", KERNELS)
def test_support_vectors_exclude_interior_values_next_to_a_bound(
        table2_data, kernel):
    features, targets = table2_data["k80"]
    for C, epsilon in GRID:
        model = SVR(kernel=kernel, C=C, epsilon=epsilon).fit(features, targets)
        oracle = OracleSVR(kernel=kernel, C=C, epsilon=epsilon).fit(
            features, targets)
        # Interior iterates leave tiny nonzero coefficients off the support;
        # none of them may count.
        off_support = np.setdiff1d(np.arange(len(targets)), model.support_)
        assert np.all(np.abs(model.dual_coef_[off_support]) < 1e-6 * C)
        np.testing.assert_array_equal(model.support_, oracle.support_)
        assert model.n_support_ == oracle.n_support_ == len(model.support_)
        # Off the support, samples sit inside the epsilon tube.
        residual = np.abs(targets - model.predict(features))
        assert np.all(residual[off_support] <= epsilon + 1e-6)


def test_unconverged_solve_raises_instead_of_returning(table2_data,
                                                       monkeypatch):
    features, targets = table2_data["k80"]
    monkeypatch.setattr(svr_module, "MAX_ITERATIONS", 1)
    model = SVR(kernel="rbf", C=50.0, epsilon=0.05)
    with pytest.raises(ModelingError, match="did not converge in 1 "
                       r"interior-point iterations: dual residual .*mu"):
        model.fit(features, targets)
    assert model.dual_coef_ is None and model.support_ is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_instead_of_fitting(bad):
    features = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
    targets = np.linspace(1.0, 2.0, 8)
    broken_targets = targets.copy()
    broken_targets[3] = bad
    with pytest.raises(DataError, match="finite"):
        SVR().fit(features, broken_targets)
    broken_features = features.copy()
    broken_features[5, 0] = bad
    with pytest.raises(DataError, match="finite"):
        SVR().fit(broken_features, targets)


def test_solver_is_deterministic(table2_data):
    features, targets = table2_data["p100"]
    first = SVR(kernel="poly", C=100.0, epsilon=0.01).fit(features, targets)
    second = SVR(kernel="poly", C=100.0, epsilon=0.01).fit(features, targets)
    np.testing.assert_array_equal(first.dual_coef_, second.dual_coef_)
    assert first.intercept_ == second.intercept_
    assert first.n_iter_ == second.n_iter_
