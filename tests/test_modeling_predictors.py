"""Tests for the Table II / Table IV predictors and cluster-speed composition."""

import pytest

from repro.errors import DataError, ModelingError, NotFittedError
from repro.modeling import checkpoint_predictor
from repro.modeling.checkpoint_predictor import (
    DEFAULT_SVR_C,
    DEFAULT_SVR_EPSILON,
    TABLE4_MODEL_SPECS,
    CheckpointTimePredictor,
    build_table4_models,
    evaluate_table4_models,
)
from repro.modeling.model_selection import PAPER_C_GRID, PAPER_EPSILON_GRID
from repro.modeling.speed_predictor import (
    TABLE2_MODEL_SPECS,
    ClusterSpeedPredictor,
    StepTimeModelSpec,
    StepTimePredictor,
    build_table2_models,
    evaluate_table2_models,
)
from repro.perf.ps_capacity import PSCapacityModel


@pytest.fixture(scope="module")
def speed_measurements(speed_dataset):
    return speed_dataset.measurements()


@pytest.fixture(scope="module")
def checkpoint_measurements(checkpoint_dataset):
    return checkpoint_dataset.measurements()


def test_table2_has_eight_models():
    assert len(TABLE2_MODEL_SPECS) == 8
    gpu_specific = [s for s in TABLE2_MODEL_SPECS if s.gpu_name is not None]
    assert len(gpu_specific) == 6
    assert {s.gpu_name for s in gpu_specific} == {"k80", "p100"}


def test_gpu_specific_predictor_accuracy(speed_measurements, catalog):
    truth = {m.model_name: m.step_time for m in speed_measurements
             if m.gpu_name == "k80"}
    # The linear K80 model lands within the paper's reported MAE band
    # (~0.065 s) on the named models; the SVR-RBF variant fits the small
    # models noticeably better, as in Table II.
    linear = StepTimePredictor(
        StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")).fit(speed_measurements)
    svr = StepTimePredictor(
        StepTimeModelSpec("SVR RBF Kernel, K80", "cm", "svr_rbf", "k80")).fit(speed_measurements)
    for name in ("resnet_15", "resnet_32", "shake_shake_big"):
        gflops = catalog.profile(name).gflops
        assert abs(linear.predict_step_time(gflops, "k80") - truth[name]) < 0.10
        assert abs(svr.predict_step_time(gflops, "k80") - truth[name]) < 0.06


def test_svr_rbf_beats_gpu_agnostic_multivariate(speed_measurements):
    rows = {row.spec.name: row for row in evaluate_table2_models(speed_measurements,
                                                                 seed=3)}
    assert rows["SVR RBF Kernel, K80"].test_mae < rows["Multivariate, GPU-agnostic"].test_mae
    # The paper's headline: GPU-specific SVR-RBF reaches ~9% MAPE; allow slack
    # for the smaller simulated dataset.
    assert rows["SVR RBF Kernel, K80"].test_mape < 25.0


def test_gpu_specific_models_reject_other_gpus(speed_measurements, catalog):
    spec = StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")
    predictor = StepTimePredictor(spec).fit(speed_measurements)
    with pytest.raises(ModelingError):
        predictor.predict_step_time(catalog.profile("resnet_15").gflops, "p100")


def test_predictor_requires_fit(catalog):
    spec = StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")
    with pytest.raises(NotFittedError):
        StepTimePredictor(spec).predict_step_time(1.0, "k80")


def test_predictor_rejects_unknown_modes():
    with pytest.raises(ModelingError):
        StepTimePredictor(StepTimeModelSpec("x", "bad", "linear", None))
    with pytest.raises(ModelingError):
        StepTimePredictor(StepTimeModelSpec("x", "cm", "bad", None))


def test_predictor_requires_enough_data(speed_measurements):
    spec = StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")
    with pytest.raises(DataError):
        StepTimePredictor(spec).fit(speed_measurements[:2])


def test_build_table2_models_predict_speeds(speed_measurements, catalog):
    models = build_table2_models(speed_measurements)
    assert set(models) == {spec.name for spec in TABLE2_MODEL_SPECS}
    gflops = catalog.profile("resnet_32").gflops
    agnostic = models["Univariate, GPU-agnostic"].predict_speed(gflops, "k80")
    specific = models["Univariate, K80"].predict_speed(gflops, "k80")
    assert agnostic > 0 and specific > 0


def test_cluster_speed_predictor_sums_workers(speed_measurements, catalog):
    models = build_table2_models(speed_measurements)
    predictor = ClusterSpeedPredictor(
        per_gpu_predictors={"k80": models["SVR RBF Kernel, K80"],
                            "p100": models["SVR RBF Kernel, P100"]},
        step_time_predictor=models["Univariate, GPU-agnostic"])
    gflops = catalog.profile("resnet_32").gflops
    speeds = predictor.predict_worker_speeds(gflops, ["k80", "k80", "p100"])
    assert len(speeds) == 3
    assert predictor.predict_cluster_speed(gflops, ["k80", "k80", "p100"]) == pytest.approx(
        sum(speeds))
    # Heterogeneous-cluster prediction: K80 + P100 speed sits between the two
    # homogeneous two-worker clusters.
    hetero = predictor.predict_cluster_speed(gflops, ["k80", "p100"])
    assert (predictor.predict_cluster_speed(gflops, ["k80", "k80"]) < hetero
            < predictor.predict_cluster_speed(gflops, ["p100", "p100"]))


def test_cluster_speed_predictor_with_ps_bottleneck(speed_measurements, catalog):
    models = build_table2_models(speed_measurements)
    predictor = ClusterSpeedPredictor(
        step_time_predictor=models["Univariate, GPU-agnostic"],
        per_gpu_predictors={"p100": models["SVR RBF Kernel, P100"]},
        ps_capacity_model=PSCapacityModel())
    profile = catalog.profile("resnet_32")
    plain = predictor.predict_cluster_speed(profile.gflops, ["p100"] * 8)
    capped = predictor.predict_with_ps_bottleneck(profile.gflops, ["p100"] * 8,
                                                  profile.parameter_bytes)
    assert capped < plain


def test_cluster_speed_predictor_validation(speed_measurements):
    with pytest.raises(ModelingError):
        ClusterSpeedPredictor()
    models = build_table2_models(speed_measurements)
    predictor = ClusterSpeedPredictor(step_time_predictor=models["Univariate, GPU-agnostic"])
    with pytest.raises(ModelingError):
        predictor.predict_cluster_speed(1.0, [])
    with pytest.raises(ModelingError):
        predictor.predict_with_ps_bottleneck(1.0, ["k80"], 1024)


def test_table4_has_four_models():
    assert len(TABLE4_MODEL_SPECS) == 4
    assert TABLE4_MODEL_SPECS[-1].estimator == "svr_rbf"


def test_checkpoint_predictors_fit_and_predict(checkpoint_measurements, catalog):
    models = build_table4_models(checkpoint_measurements)
    files = catalog.profile("resnet_32").checkpoint
    for name, model in models.items():
        predicted = model.predict_time(files)
        # Ground truth for ResNet-32 is ~3.84 s.
        assert predicted == pytest.approx(3.84, rel=0.4), name


def test_table4_paper_grid_search_no_worse_than_defaults(
        checkpoint_measurements, catalog, monkeypatch):
    """Section III-B's protocol: the paper's full 10x10 (C, epsilon) grid,
    5-fold, on the 100-sample Table IV dataset (80-row fits)."""
    searches = []
    search = checkpoint_predictor.grid_search_svr

    def recording_search(*args, **kwargs):
        searches.append(search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(checkpoint_predictor, "grid_search_svr",
                        recording_search)
    models = build_table4_models(checkpoint_measurements, use_grid_search=True)
    (result,) = searches
    maes = dict(result.results)
    assert list(maes) == [(c, e) for c in PAPER_C_GRID
                          for e in PAPER_EPSILON_GRID]
    assert result.best_mae == maes[(result.best_C, result.best_epsilon)]
    assert result.best_mae <= maes[(DEFAULT_SVR_C, DEFAULT_SVR_EPSILON)]
    svr = models["SVR RBF kernel"]
    assert (svr.svr_C, svr.svr_epsilon) == (result.best_C, result.best_epsilon)
    files = catalog.profile("resnet_32").checkpoint
    assert svr.predict_time(files) == pytest.approx(3.84, rel=0.4)


def test_checkpoint_evaluation_rows(checkpoint_measurements):
    rows = evaluate_table4_models(checkpoint_measurements, seed=1)
    assert len(rows) == 4
    for row in rows:
        assert row.kfold_mae >= 0
        assert row.test_mae >= 0
    by_name = {row.spec.name: row for row in rows}
    # The headline claim: the checkpoint models predict within a few percent;
    # the univariate linear model is already good because the ground truth is
    # linear in checkpoint size.
    assert by_name["Univariate"].test_mape < 20.0


def test_checkpoint_predictor_validation(checkpoint_measurements, catalog):
    with pytest.raises(ModelingError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[0].__class__("x", "bad", "linear"))
    with pytest.raises(NotFittedError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[0]).predict_time(
            catalog.profile("resnet_15").checkpoint)
    with pytest.raises(DataError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[0]).fit(checkpoint_measurements[:2])
