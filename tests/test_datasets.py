"""Synthetic dataset generators and their determinism contracts."""

import numpy as np
import pytest
from scipy.optimize import minimize

from homotopy_opt import datasets
from homotopy_opt.core import ConfigurationError, make_rng
from homotopy_opt.problems import CubicLogisticProblem


def test_linear_toy_noise_free_is_exact_line():
    ds = datasets.gen_linear_toy(50, 3.0, 0.0, 17)
    assert np.array_equal(ds.targets, 3.0 * ds.inputs[:, 0])
    assert np.all(np.abs(ds.inputs) <= 1.0)


def test_linear_toy_determinism():
    a = datasets.gen_linear_toy(100, 3.0, 1.0, 40)
    b = datasets.gen_linear_toy(100, 3.0, 1.0, 40)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = datasets.gen_linear_toy(100, 3.0, 1.0, 41)
    assert not np.array_equal(a.targets, c.targets)


def test_linear_toy_validation():
    with pytest.raises(ConfigurationError):
        datasets.gen_linear_toy(0, 3.0, 1.0, 0)
    with pytest.raises(ConfigurationError):
        datasets.gen_linear_toy(10, 3.0, -1.0, 0)


def test_sine_noise_free_labels():
    ds = datasets.gen_sine(64, 10.0, 0.0, 5)
    x = ds.inputs[:, 0]
    assert np.array_equal(ds.targets, np.sin(10.0 * x))
    assert np.array_equal(ds.source_targets, x**2)
    assert np.all(np.abs(x) <= 1.0)


def test_sine_noise_magnitude_matches_variance_reading():
    # Noise parameter is a variance of 0.1, so the residual standard
    # deviation should sit near sqrt(0.1) ~ 0.316.
    for seed in (0, 6803, 999):
        ds = datasets.gen_sine(500, 10.0, float(np.sqrt(0.1)), seed)
        resid = ds.targets - np.sin(10.0 * ds.inputs[:, 0])
        assert 0.25 <= resid.std() <= 0.40
        src_resid = ds.source_targets - ds.inputs[:, 0] ** 2
        assert 0.07 <= src_resid.std() <= 0.14


def test_sine_source_stream_is_independent_of_target_noise():
    a = datasets.gen_sine(200, 10.0, float(np.sqrt(0.1)), 3)
    b = datasets.gen_sine(200, 10.0, float(np.sqrt(0.1)), 3)
    assert np.array_equal(a.source_targets, b.source_targets)
    assert np.array_equal(a.targets, b.targets)


def test_moons_noise_free_endpoints():
    ds = datasets.gen_moons(4, 0.0, 0)
    pts = {tuple(np.round(p, 12)) for p in ds.inputs}
    assert pts == {(1.0, 0.0), (-1.0, 0.0), (0.0, 0.5), (2.0, 0.5)}


def test_moons_noise_free_unit_circle_and_balance():
    ds = datasets.gen_moons(200, 0.0, 0)
    class0 = ds.inputs[ds.targets == 0.0]
    radii = np.sum(class0**2, axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    assert np.sum(ds.targets == 0.0) == np.sum(ds.targets == 1.0) == 100


def test_moons_rejects_odd_counts():
    with pytest.raises(ConfigurationError):
        datasets.gen_moons(5, 0.1, 0)
    with pytest.raises(ConfigurationError):
        datasets.gen_moons(0, 0.1, 0)


def test_moons_cubic_separability():
    # A converged cubic logistic fit should classify the default dataset
    # nearly perfectly; this is what makes the homotopy target meaningful.
    ds = datasets.gen_moons(1000, 0.1, 123)
    prob = CubicLogisticProblem(ds.inputs, ds.targets)
    res = minimize(
        lambda w: prob.full_objective(w, 1.0),
        np.zeros(9),
        jac=lambda w: prob.full_gradient(w, 1.0),
        method="L-BFGS-B",
        options={"maxiter": 2000},
    )
    assert prob.epoch_metrics(res.x[None], 1.0)[1][0] <= 0.05


def test_offsets_come_from_their_salted_stream():
    ds = datasets.gen_offsets(6, 2.0, 41)
    reference = 2.0 * make_rng(41 ^ datasets.LQ_OFFSET_SALT).standard_normal(6)
    assert np.array_equal(ds.targets, reference)
    assert np.array_equal(ds.inputs, np.zeros((6, 1)))


def test_dataset_csv_round_trip(tmp_path):
    ds = datasets.gen_sine(10, 10.0, float(np.sqrt(0.1)), 4)
    path = tmp_path / "sine.csv"
    datasets.dataset_to_csv(ds, path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "x1,y,y_source"
    assert "\r" not in text
    assert len(lines) == 12 and lines[-1] == ""
    parsed = np.array([[float(v) for v in row.split(",")] for row in lines[1:-1]])
    assert np.array_equal(parsed[:, 0], ds.inputs[:, 0])
    assert np.array_equal(parsed[:, 1], ds.targets)
    assert np.array_equal(parsed[:, 2], ds.source_targets)


def test_dataset_csv_two_feature_header(tmp_path):
    ds = datasets.gen_moons(6, 0.1, 9)
    path = tmp_path / "moons.csv"
    datasets.dataset_to_csv(ds, path)
    assert path.read_text(encoding="utf-8").split("\n")[0] == "x1,x2,y"


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "cells.csv"
    datasets.write_csv(path, "a,b,c,d,e", [[3, np.int64(4), None, 0.1, 1 / 3]])
    assert path.read_bytes() == b"a,b,c,d,e\n3,4,,0.10000000000000001,0.33333333333333331\n"


def test_dataset_length_validation():
    with pytest.raises(ConfigurationError):
        datasets.Dataset(inputs=np.zeros((3, 1)), targets=np.zeros(2))
