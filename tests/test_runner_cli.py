import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from m2e.cli import build_parser, main
from m2e.cluster import kmeans
from m2e.cp import AlsOptions
from m2e.dataio import load_dataset, load_matrix, save_dataset
from m2e.datagen import SyntheticSpec, generate
from m2e.runner import (METHODS, GridSpec, RunConfig, run_cluster, run_cp,
                        run_evaluate, run_fit, run_gridsearch)
from m2e.solver import M2eConfig, SolverNumericsError


SMALL = SyntheticSpec(views=2, nodes=8, subjects=12, cluster_sizes=(6, 6),
                      latent_rank=2, separation=4.0, noise_sigma=0.02,
                      jitter=0.1, seed=0)


@pytest.fixture
def dataset_dir(tmp_path):
    views, labels = generate(SMALL)
    path = tmp_path / "ds"
    save_dataset(path, views, labels)
    return path


def quick_config(**overrides):
    solver = M2eConfig(rank=2, lambdas=(1.0, 1.0), max_outer_iters=60, seed=0)
    defaults = dict(solver=solver, kmeans_restarts=4, eval_repeats=3)
    defaults.update(overrides)
    return RunConfig(**defaults)


# --------------------------------------------------------------------------
# run_fit


def test_run_fit_writes_artifacts(dataset_dir, tmp_path):
    out = tmp_path / "fit"
    solution = run_fit(quick_config(), dataset_dir, out)
    for name in ("consensus.txt", "view1_node_factor.txt", "view1_subject_factor.txt",
                 "view2_node_factor.txt", "view2_subject_factor.txt",
                 "trace.txt", "summary.json"):
        assert (out / name).exists(), name
    trace = load_matrix(out / "trace.txt")
    assert trace.shape[0] == solution.iterations
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] == solution.iterations
    np.testing.assert_array_equal(load_matrix(out / "consensus.txt"),
                                  solution.consensus)


def test_run_fit_summary_contains_full_config(dataset_dir, tmp_path):
    config = quick_config()
    run_fit(config, dataset_dir, tmp_path / "fit")
    summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
    cfg = summary["config"]
    assert set(cfg) == {"method", "solver", "kmeans_k", "kmeans_restarts",
                        "eval_repeats", "positive_class"}
    assert set(cfg["solver"]) == {"rank", "lambdas", "max_outer_iters", "seed"}


def test_run_fit_rerun_byte_identical(dataset_dir, tmp_path):
    run_fit(quick_config(), dataset_dir, tmp_path / "a")
    run_fit(quick_config(), dataset_dir, tmp_path / "b")
    assert (tmp_path / "a" / "consensus.txt").read_bytes() == \
        (tmp_path / "b" / "consensus.txt").read_bytes()


@pytest.mark.parametrize("method", ("m2e-ds", "m2e-ts"))
def test_run_fit_variants(dataset_dir, tmp_path, method):
    solution = run_fit(quick_config(method=method), dataset_dir, tmp_path / method)
    assert solution.iterations >= 1


def test_run_fit_cohort_preset_rank7(tmp_path):
    # cohort-shaped synthetic data (90 nodes, 70 subjects, two views) at the
    # rank the grid search favors for it; shortened iteration budget
    from m2e.datagen import hiv_shape_preset

    spec = dataclasses.replace(hiv_shape_preset(), seed=5)
    views, labels = generate(spec)
    path = tmp_path / "cohort"
    save_dataset(path, views, labels)
    config = RunConfig(solver=M2eConfig(rank=7, lambdas=(1.0, 1.0),
                                        max_outer_iters=40, seed=5))
    solution = run_fit(config, path, tmp_path / "fit")
    assert solution.iterations >= 1
    t = solution.objective_trace
    for i in range(3, len(t) - 1):
        assert t[i + 1] <= t[i] * (1 + 1e-6)


def test_run_fit_warns_when_the_fit_hits_its_cap(dataset_dir, tmp_path):
    capped = M2eConfig(rank=2, lambdas=(1.0, 1.0), max_outer_iters=2, seed=0)
    with pytest.warns(UserWarning, match="did not converge.* after 2 iterations"):
        solution = run_fit(quick_config(solver=capped), dataset_dir, tmp_path / "fit")
    assert not solution.converged


def test_run_fit_converged_fit_emits_no_warning(dataset_dir, tmp_path):
    config = quick_config(solver=M2eConfig(rank=2, lambdas=(1.0, 1.0), seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = run_fit(config, dataset_dir, tmp_path / "fit")
    assert solution.converged


def test_run_config_rejects_method_without_fitter():
    assert METHODS == ("m2e", "m2e-ds", "m2e-ts")
    with pytest.raises(ValueError, match="method"):
        RunConfig(method="cp")


def test_run_cluster_labels_file_is_one_integer_per_line(tmp_path):
    emb = np.repeat([[0.0, 0.0], [10.0, 10.0]], 3, axis=0)
    config = quick_config()
    run_cluster(emb, config, tmp_path)
    expected = kmeans(emb, 2, restarts=config.kmeans_restarts, seed=0).labels
    assert (tmp_path / "labels.txt").read_bytes() == \
        "".join(f"{x}\n" for x in expected).encode()


def test_grid_defaults_follow_protocol():
    grid = GridSpec()
    assert grid.lambda_grid == (1e-4, 1e-2, 1.0, 1e2, 1e4)
    assert grid.rank_grid == tuple(range(1, 21))


# --------------------------------------------------------------------------
# run_evaluate


def test_evaluate_point_mass_embedding(tmp_path):
    emb = np.repeat([[0.0, 0.0], [10.0, 10.0]], 10, axis=0)
    labels = np.repeat([1, 2], 10)
    doc = run_evaluate(emb, labels, quick_config(), tmp_path)
    assert doc["mean"]["accuracy"] == 1.0
    assert doc["std"]["accuracy"] == 0.0
    assert (tmp_path / "metrics.json").exists()


def test_evaluate_random_embedding_near_chance():
    rng = np.random.default_rng(1)
    emb = rng.standard_normal((40, 3))
    labels = np.repeat([1, 2], 20)
    doc = run_evaluate(emb, labels, quick_config(eval_repeats=20))
    assert 0.45 <= doc["mean"]["accuracy"] <= 0.72


def test_evaluate_metrics_satisfy_f1_identity(dataset_dir, tmp_path):
    ds = load_dataset(dataset_dir)
    solution = run_fit(quick_config(), ds, tmp_path / "fit")
    doc = run_evaluate(solution.consensus, ds.labels, quick_config())
    for rep in doc["repetitions"]:
        p, r = rep["precision"], rep["recall"]
        if p + r > 0:
            assert rep["f1"] == pytest.approx(2 * p * r / (p + r))
        else:
            assert rep["f1"] == 0.0


def test_evaluate_rejects_non_integer_labels():
    emb = np.repeat([[0.0, 0.0], [10.0, 10.0]], 3, axis=0)
    labels = np.repeat([1, 2], 3)
    for bad, shown in ((labels + 0.7, "1.7"), (np.where(labels == 2, np.nan, 1.0), "nan")):
        with pytest.raises(ValueError) as err:
            run_evaluate(emb, bad, quick_config())
        assert str(err.value) == f"labels must be integers, got {shown}"
    doc = run_evaluate(emb, labels.astype(float), quick_config())  # whole floats are integers
    assert doc["mean"]["accuracy"] == 1.0


def test_evaluate_rejects_row_mismatch():
    with pytest.raises(ValueError, match="rows"):
        run_evaluate(np.zeros((5, 2)), np.ones(4, dtype=int), quick_config())


def test_evaluate_warns_on_label_arity_mismatch():
    rng = np.random.default_rng(2)
    emb = rng.standard_normal((12, 2))
    labels = np.repeat([1, 2, 3], 4)  # three classes, k stays 2
    with pytest.warns(UserWarning, match="distinct values"):
        doc = run_evaluate(emb, labels, quick_config(eval_repeats=2))
    assert len(doc["repetitions"]) == 2


def test_evaluate_warns_when_no_label_is_the_positive_class(tmp_path):
    emb = np.repeat([[0.0, 0.0], [10.0, 10.0]], 3, axis=0)
    labels = np.repeat([1, 2], 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_evaluate(emb, labels, quick_config(positive_class=2), tmp_path / "two")
    with pytest.warns(UserWarning, match="no label is positive_class 7") as caught:
        doc = run_evaluate(emb, labels, quick_config(positive_class=7), tmp_path / "seven")
    assert len(caught) == 1  # the arity warning stays silent: two classes, k = 2
    assert all(r["degenerate"] for r in doc["repetitions"])
    assert doc["mean"]["f1"] == 0.0


# --------------------------------------------------------------------------
# run_gridsearch


def test_gridsearch_single_cell_matches_fit_plus_evaluate(dataset_dir, tmp_path):
    grid = GridSpec(lambda_grid=(1.0,), rank_grid=(2,))
    rows = run_gridsearch(grid, dataset_dir, quick_config(), tmp_path / "gs")
    assert len(rows) == 1
    ds = load_dataset(dataset_dir)
    solution = run_fit(quick_config(), ds, tmp_path / "fit")
    doc = run_evaluate(solution.consensus, ds.labels, quick_config())
    assert rows[0]["mean_accuracy"] == pytest.approx(doc["mean"]["accuracy"])


def test_gridsearch_outputs_and_ranking(dataset_dir, tmp_path):
    grid = GridSpec(lambda_grid=(1e-2, 1.0), rank_grid=(1, 2))
    out = tmp_path / "gs"
    rows = run_gridsearch(grid, dataset_dir, quick_config(), out)
    assert len(rows) == 4 * 2  # lambda pairs (2^2 views) x ranks
    accs = [r["mean_accuracy"] for r in rows]
    assert accs == sorted(accs, reverse=True)
    vs_rank = load_matrix(out / "accuracy_vs_rank.txt")
    assert vs_rank.shape[0] == len(grid.rank_grid)
    assert (out / "accuracy_vs_lambda.txt").exists()
    assert (out / "grid_results.txt").exists()
    assert json.loads((out / "summary.json").read_text())["failed_cells"] == []


def test_gridsearch_requires_labels(tmp_path):
    views, _ = generate(SMALL)
    save_dataset(tmp_path / "nolabels", views)
    with pytest.raises(ValueError, match="labels"):
        run_gridsearch(GridSpec(lambda_grid=(1.0,), rank_grid=(2,)),
                       tmp_path / "nolabels", quick_config(), tmp_path / "gs")


def test_gridsearch_guards_large_grids(dataset_dir, tmp_path):
    grid = GridSpec(lambda_grid=tuple(float(i + 1) for i in range(110)),
                    rank_grid=(1,))
    with pytest.raises(ValueError, match="cells"):
        run_gridsearch(grid, dataset_dir, quick_config(), tmp_path / "gs")


def test_cli_gridsearch_refuses_a_large_grid_before_any_fit(dataset_dir, tmp_path):
    out = tmp_path / "gs"
    values = ",".join(str(i + 1) for i in range(101))  # 101^2 weight pairs x 1 rank
    code = main(["gridsearch", "--dataset", str(dataset_dir), "--out", str(out),
                 "--lambda-grid", values, "--rank-grid", "1"])
    assert code == 1
    message = json.loads((out / "error.json").read_text())["message"]
    assert "10201 cells" in message and "--force-large-grid" in message
    assert not (out / "grid_results.txt").exists()


def fail_at_weights(monkeypatch, failing):
    """Make the joint fitter raise SolverNumericsError for the given view weights."""
    import m2e.runner as runner
    fit = runner.m2e_fit

    def fitter(views, config):
        if tuple(config.lambdas) in failing:
            raise SolverNumericsError(f"rank {config.rank} blew up at outer iteration 5",
                                      iteration=5)
        return fit(views, config)

    monkeypatch.setattr(runner, "m2e_fit", fitter)


def test_gridsearch_records_a_failed_cell_and_goes_on(dataset_dir, tmp_path, monkeypatch):
    fail_at_weights(monkeypatch, {(1e4, 1e4)})
    grid = GridSpec(lambda_grid=(1.0, 1e4), rank_grid=(1, 2))
    out = tmp_path / "gs"
    with pytest.warns(UserWarning, match="2 of 8 cells failed"):
        rows = run_gridsearch(grid, dataset_dir, quick_config(), out)
    assert len(rows) == 6
    assert all(r["lambdas"] != [1e4, 1e4] for r in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed_cells"] == [
        {"lambdas": [1e4, 1e4], "rank": rank, "iteration": 5,
         "error": f"rank {rank} blew up at outer iteration 5"} for rank in (1, 2)]
    for name, count in (("grid_results.txt", 6), ("accuracy_vs_lambda.txt", 3)):
        weights = load_matrix(out / name)[:, :2]
        assert weights.shape[0] == count
        assert not (weights == 1e4).all(axis=1).any()
    assert load_matrix(out / "accuracy_vs_rank.txt").shape[0] == 2


def test_gridsearch_raises_the_first_error_when_every_cell_fails(dataset_dir, tmp_path,
                                                                  monkeypatch):
    fail_at_weights(monkeypatch, {(1e4, 1e4)})
    grid = GridSpec(lambda_grid=(1e4,), rank_grid=(2, 1))
    with pytest.raises(SolverNumericsError, match="rank 2 blew up") as err:
        run_gridsearch(grid, dataset_dir, quick_config(), tmp_path / "gs")
    assert err.value.iteration == 5


def test_cli_gridsearch_warns_of_failed_cells(tmp_path, dataset_dir, monkeypatch):
    fail_at_weights(monkeypatch, {(1e4, 1e4)})
    out = tmp_path / "gs"
    with pytest.warns(UserWarning, match="1 of 4 cells failed"):
        code = main(["gridsearch", "--dataset", str(dataset_dir), "--out", str(out),
                     "--lambda-grid", "1.0,1e4", "--rank-grid", "2", "--restarts", "3",
                     "--repeats", "2", "--max-iters", "30", "--seed", "0"])
    assert code == 0
    failed = json.loads((out / "summary.json").read_text())["failed_cells"]
    assert [(c["lambdas"], c["iteration"]) for c in failed] == [([1e4, 1e4], 5)]


# --------------------------------------------------------------------------
# run_cp


def test_run_cp_recovers_noiseless_view(tmp_path):
    views, labels = generate(SyntheticSpec(views=1, nodes=8, subjects=12,
                                           cluster_sizes=(6, 6), latent_rank=2,
                                           noise_sigma=0.0, jitter=0.3, seed=3))
    path = tmp_path / "ds"
    save_dataset(path, views, labels)
    doc = run_cp(path, 0, AlsOptions(rank=2, seed=1), tmp_path / "cp")
    assert doc["relative_error"] < 1e-3
    trace = load_matrix(tmp_path / "cp" / "error_trace.txt")
    assert (np.diff(trace[:, 0]) <= 1e-10).all()
    for mode in (1, 2, 3):
        assert (tmp_path / "cp" / f"factor_mode{mode}.txt").exists()


def test_run_cp_rejects_zero_rank(dataset_dir, tmp_path):
    with pytest.raises(ValueError):
        run_cp(dataset_dir, 0, AlsOptions(rank=0), tmp_path / "cp")


def test_run_cp_rejects_unknown_view(dataset_dir, tmp_path):
    with pytest.raises(ValueError, match="unknown view"):
        run_cp(dataset_dir, "fmri", AlsOptions(rank=2), tmp_path / "cp")


def test_drivers_write_numpy_integer_settings_as_json_numbers(dataset_dir, tmp_path):
    solver = M2eConfig(rank=np.int64(2), lambdas=(np.float64(1.0), np.int64(1)),
                       max_outer_iters=np.int32(200), seed=np.int64(0))
    config = RunConfig(solver=solver, kmeans_k=np.int64(2), kmeans_restarts=np.int64(3),
                       eval_repeats=np.int64(2), positive_class=np.int64(1))
    ds = load_dataset(dataset_dir)
    solution = run_fit(config, ds, tmp_path / "fit")
    run_evaluate(solution.consensus, ds.labels, config, tmp_path / "eval")
    run_gridsearch(GridSpec(lambda_grid=(np.float64(1.0),), rank_grid=(np.int64(2),)),
                   ds, config, tmp_path / "gs")
    run_cp(dataset_dir, 0, AlsOptions(rank=np.int64(2), max_iters=np.int64(5)), tmp_path / "cp")
    spec = dataclasses.replace(SMALL, nodes=np.int64(6), seed=np.int64(1))
    views, labels = generate(spec)
    save_dataset(tmp_path / "ds", views, labels, metadata=dataclasses.asdict(spec))

    def read(path):
        return json.loads((tmp_path / path).read_text())

    solver_doc = {"rank": 2, "lambdas": [1.0, 1.0], "max_outer_iters": 200, "seed": 0}
    for path in ("fit/summary.json", "eval/metrics.json", "gs/summary.json"):
        assert read(path)["config"]["solver"] == solver_doc
        assert read(path)["config"]["eval_repeats"] == 2
    assert (read("gs/summary.json")["lambda_grid"], read("gs/summary.json")["rank_grid"]) == \
        ([1.0], [2])
    assert read("cp/summary.json")["rank"] == 2
    assert (read("ds/manifest.json")["metadata"]["nodes"],
            read("ds/manifest.json")["metadata"]["seed"]) == (6, 1)


# --------------------------------------------------------------------------
# CLI end-to-end


def test_cli_generate_fit_evaluate_pipeline(tmp_path):
    ds = tmp_path / "ds"
    code = main(["generate", "--out", str(ds), "--views", "2", "--nodes", "8",
                 "--subjects", "12", "--cluster-sizes", "6,6", "--latent-rank", "2",
                 "--separation", "4.0", "--noise", "0.02", "--jitter", "0.1",
                 "--seed", "0"])
    assert code == 0
    assert (ds / "manifest.json").exists()

    fit_out = tmp_path / "fit"
    code = main(["fit", "--dataset", str(ds), "--out", str(fit_out),
                 "--rank", "2", "--lambda", "1=1.0", "--lambda", "2=1.0",
                 "--max-iters", "60", "--seed", "0"])
    assert code == 0
    assert (fit_out / "consensus.txt").exists()

    eval_out = tmp_path / "eval"
    code = main(["evaluate", "--embedding", str(fit_out / "consensus.txt"),
                 "--dataset", str(ds), "--out", str(eval_out),
                 "--restarts", "4", "--repeats", "3", "--seed", "0"])
    assert code == 0
    metrics = json.loads((eval_out / "metrics.json").read_text())
    assert metrics["mean"]["accuracy"] > 0.9

    cluster_out = tmp_path / "cl"
    code = main(["cluster", "--embedding", str(fit_out / "consensus.txt"),
                 "--out", str(cluster_out), "--k", "2", "--restarts", "4",
                 "--seed", "0"])
    assert code == 0
    labels = [int(x) for x in (cluster_out / "labels.txt").read_text().split()]
    assert len(labels) == 12

    # success never leaves an error document behind
    for out in (ds, fit_out, eval_out, cluster_out):
        assert not (out / "error.json").exists()


def test_cli_generate_preset(tmp_path):
    ds = tmp_path / "hiv"
    code = main(["generate", "--preset", "hiv", "--out", str(ds), "--seed", "1",
                 "--nodes", "10"])  # shrink nodes to keep the test fast
    assert code == 0
    manifest = json.loads((ds / "manifest.json").read_text())
    assert manifest["subject_count"] == 70
    assert manifest["metadata"]["generator"]["cluster_sizes"] == [35, 35]


def test_cli_evaluate_without_labels_fails_with_document(tmp_path):
    views, _ = generate(SMALL)
    ds = tmp_path / "ds"
    save_dataset(ds, views)
    emb = tmp_path / "emb.txt"
    np.savetxt(emb, np.zeros((12, 2)))
    out = tmp_path / "eval"
    code = main(["evaluate", "--embedding", str(emb), "--dataset", str(ds),
                 "--out", str(out)])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "labels" in error["message"]


def test_cli_evaluate_dataset_reads_no_view_file(tmp_path, dataset_dir):
    (dataset_dir / "view1.txt").write_text("not a matrix\n")
    emb = tmp_path / "emb.txt"
    np.savetxt(emb, np.arange(24.0).reshape(12, 2))
    out = tmp_path / "eval"
    code = main(["evaluate", "--embedding", str(emb), "--dataset", str(dataset_dir),
                 "--out", str(out), "--repeats", "1"])
    assert code == 0
    assert (out / "metrics.json").exists()


def test_cli_cp_reads_only_the_requested_view(tmp_path, dataset_dir):
    (dataset_dir / "view2.txt").write_text("not a matrix\n")
    out = tmp_path / "cp"
    argv = ["cp", "--dataset", str(dataset_dir), "--rank", "2", "--max-iters", "3",
            "--out", str(out)]
    assert main(argv + ["--view", "view1"]) == 0
    assert json.loads((out / "summary.json").read_text())["view"] == "view1"
    assert main(argv + ["--view", "view2"]) == 1
    assert "view 'view2'" in json.loads((out / "error.json").read_text())["message"]


def test_cli_evaluate_nan_embedding_fails_with_document(tmp_path):
    emb = np.ones((6, 2))
    emb[4, 0] = np.nan
    np.savetxt(tmp_path / "emb.txt", emb)
    (tmp_path / "labels.txt").write_text("1\n1\n1\n2\n2\n2\n")
    out = tmp_path / "eval"
    code = main(["evaluate", "--embedding", str(tmp_path / "emb.txt"),
                 "--labels", str(tmp_path / "labels.txt"), "--out", str(out)])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValueError"
    assert "non-finite rows" in error["message"] and "row 4" in error["message"]


@pytest.mark.parametrize("bad", ["0", "1.5"])
def test_cli_evaluate_bad_labels_file_fails_naming_it(tmp_path, bad):
    np.savetxt(tmp_path / "emb.txt", np.zeros((4, 2)))
    (tmp_path / "truth.txt").write_text(f"1\n{bad}\n2\n2\n")
    out = tmp_path / "eval"
    code = main(["evaluate", "--embedding", str(tmp_path / "emb.txt"),
                 "--labels", str(tmp_path / "truth.txt"), "--out", str(out)])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "DatasetError"
    assert "truth.txt" in error["message"]


@pytest.mark.parametrize("command", [["generate"], ["cp", "--dataset", "d", "--rank", "2"]])
def test_cli_config_only_on_commands_that_read_it(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--out", "o", "--config", "f.json"])


@pytest.mark.parametrize("flag", ["--tol", "--residual-tol"])
def test_cli_fit_has_no_stop_tolerance_flags(flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fit", "--dataset", "d", "--out", "o", flag, "1e-6"])


def test_cli_fit_reruns_byte_identical(tmp_path):
    ds = tmp_path / "ds"
    views, labels = generate(SMALL)
    save_dataset(ds, views, labels)
    for out in ("a", "b"):
        assert main(["fit", "--dataset", str(ds), "--out", str(tmp_path / out),
                     "--rank", "2", "--max-iters", "40", "--seed", "7"]) == 0
    assert (tmp_path / "a" / "consensus.txt").read_bytes() == \
        (tmp_path / "b" / "consensus.txt").read_bytes()


def test_cli_config_file_with_flag_override(tmp_path, dataset_dir):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "method": "m2e",
        "solver": {"rank": 3, "max_outer_iters": 40, "lambdas": [1.0, 1.0]},
    }))
    out = tmp_path / "fit"
    code = main(["fit", "--dataset", str(dataset_dir), "--config", str(cfg_file),
                 "--out", str(out), "--rank", "2"])  # flag overrides rank
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["solver"]["rank"] == 2
    assert summary["config"]["solver"]["max_outer_iters"] == 40


def test_cli_gridsearch_and_cp(tmp_path, dataset_dir):
    gs_out = tmp_path / "gs"
    code = main(["gridsearch", "--dataset", str(dataset_dir), "--out", str(gs_out),
                 "--lambda-grid", "1.0", "--rank-grid", "2,3", "--restarts", "3",
                 "--repeats", "2", "--max-iters", "40", "--seed", "0"])
    assert code == 0
    vs_rank = load_matrix(gs_out / "accuracy_vs_rank.txt")
    assert vs_rank.shape[0] == 2

    cp_out = tmp_path / "cp"
    code = main(["cp", "--dataset", str(dataset_dir), "--view", "view1",
                 "--rank", "2", "--out", str(cp_out), "--seed", "0"])
    assert code == 0
    assert (cp_out / "summary.json").exists()
    code = main(["cp", "--dataset", str(dataset_dir), "--rank", "2", "--out", str(cp_out),
                 "--max-iters", "3", "--tol", "1e-300"])
    assert code == 0
    assert json.loads((cp_out / "summary.json").read_text())["iterations"] == 3


def test_cli_bad_lambda_flag(tmp_path, dataset_dir):
    out = tmp_path / "fit"
    code = main(["fit", "--dataset", str(dataset_dir), "--out", str(out),
                 "--lambda", "oops"])
    assert code == 1
    assert (out / "error.json").exists()


@pytest.mark.parametrize("build, message", [
    (lambda: M2eConfig(lambdas=(np.nan, 1.0)), "lambdas must be positive and finite, got nan"),
    (lambda: M2eConfig(lambdas=(1.0, np.inf)), "lambdas must be positive and finite, got inf"),
    (lambda: GridSpec(lambda_grid=(np.nan,)), "lambda_grid must be positive and finite, got nan"),
    (lambda: GridSpec(lambda_grid=(1.0, np.inf)),
     "lambda_grid must be positive and finite, got inf"),
    (lambda: AlsOptions(rank=2, rel_tol=np.nan), "rel_tol must be positive and finite, got nan"),
    (lambda: AlsOptions(rank=2, rel_tol=np.inf), "rel_tol must be positive and finite, got inf"),
    (lambda: SyntheticSpec(separation=np.nan), "separation must be finite and >= 0, got nan"),
    (lambda: SyntheticSpec(noise_sigma=np.nan), "noise_sigma must be finite and >= 0, got nan"),
    (lambda: SyntheticSpec(jitter=np.nan), "jitter must be finite and >= 0, got nan"),
    (lambda: SyntheticSpec(separation=np.inf), "separation must be finite and >= 0, got inf"),
    (lambda: SyntheticSpec(jitter=-0.5), "jitter must be finite and >= 0, got -0.5"),
    (lambda: M2eConfig(lambdas=(1.0, 0)), "lambdas must be positive and finite, got 0.0"),
    (lambda: M2eConfig(lambdas=()), "lambdas must be a non-empty sequence, got ()"),
    (lambda: M2eConfig(lambdas=2.0), "lambdas must be a non-empty sequence, got 2.0"),
    (lambda: GridSpec(rank_grid=[]), "rank_grid must be a non-empty sequence, got ()"),
    (lambda: M2eConfig(lambdas=(True, 1.0)), "lambdas must be a number, got True"),
    (lambda: M2eConfig(lambdas=("1", 1.0)), "lambdas must be a number, got '1'"),
    (lambda: AlsOptions(rank=2, rel_tol=False), "rel_tol must be a number, got False"),
    (lambda: SyntheticSpec(separation=None), "separation must be a number, got None"),
    (lambda: M2eConfig(lambdas=(10**400,)),
     "lambdas must be positive and finite, got a number past the float range"),
    (lambda: GridSpec(lambda_grid=(1.0, 10**400)),
     "lambda_grid must be positive and finite, got a number past the float range"),
], ids=["lambdas-nan", "lambdas-inf", "grid-nan", "grid-inf", "rel-tol-nan", "rel-tol-inf",
        "separation-nan", "noise-nan", "jitter-nan", "separation-inf", "jitter-negative",
        "lambdas-zero", "lambdas-empty", "lambdas-scalar", "rank-grid-empty", "lambdas-bool",
        "lambdas-str", "rel-tol-bool", "separation-none", "lambdas-past-float",
        "grid-past-float"])
def test_configs_reject_non_finite_numbers(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: M2eConfig(rank=2.5), "rank must be an integer, got 2.5"),
    (lambda: M2eConfig(rank=4.0), "rank must be an integer, got 4.0"),
    (lambda: M2eConfig(max_outer_iters=10.0), "max_outer_iters must be an integer, got 10.0"),
    (lambda: M2eConfig(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: M2eConfig(rank=True), "rank must be an integer, got True"),
    (lambda: AlsOptions(rank=4.0), "rank must be an integer, got 4.0"),
    (lambda: AlsOptions(rank=2, max_iters=2.5), "max_iters must be an integer, got 2.5"),
    (lambda: AlsOptions(rank=2, seed=3.0), "seed must be an integer, got 3.0"),
    (lambda: M2eConfig(seed=-1), "seed must be >= 0, got -1"),
    (lambda: AlsOptions(rank=2, seed=np.int64(-1)), "seed must be >= 0, got -1"),
    (lambda: SyntheticSpec(seed=-1), "seed must be >= 0, got -1"),
    (lambda: M2eConfig(rank=0), "rank must be >= 1, got 0"),
    (lambda: AlsOptions(rank=2, max_iters=0), "max_iters must be >= 1, got 0"),
    (lambda: SyntheticSpec(subjects=4, cluster_sizes=(2.7, 2.7), latent_rank=2),
     "cluster_sizes must be an integer, got 2.7"),
    (lambda: SyntheticSpec(cluster_sizes=(20, 20, 0)), "cluster_sizes must be >= 1, got 0"),
    (lambda: SyntheticSpec(views=2.5), "views must be an integer, got 2.5"),
    (lambda: SyntheticSpec(nodes=0), "nodes must be >= 1, got 0"),
    (lambda: RunConfig(kmeans_k=2.0), "kmeans_k must be an integer, got 2.0"),
    (lambda: RunConfig(kmeans_restarts=0), "kmeans_restarts must be >= 1, got 0"),
    (lambda: RunConfig(eval_repeats=2.0), "eval_repeats must be an integer, got 2.0"),
    (lambda: RunConfig(positive_class=1.5),
     "positive_class: labels must be integers, got 1.5"),
    (lambda: RunConfig(positive_class=0),
     "positive_class: labels must be positive integers (1..K), got 0"),
    (lambda: RunConfig(positive_class=True),
     "positive_class: labels must be integers, got True"),
    (lambda: GridSpec(rank_grid=(1, 2.5)), "rank_grid must be an integer, got 2.5"),
    (lambda: GridSpec(rank_grid=(True,)), "rank_grid must be an integer, got True"),
    (lambda: GridSpec(rank_grid=(2, 0)), "rank_grid must be >= 1, got 0"),
], ids=["rank-2.5", "rank-4.0", "max-outer-iters", "seed", "rank-bool", "als-rank",
        "als-max-iters", "als-seed", "seed-negative", "als-seed-negative",
        "spec-seed-negative", "rank-zero", "als-max-iters-zero", "cluster-sizes-fraction",
        "cluster-sizes-zero", "views", "nodes-zero", "kmeans-k", "kmeans-restarts-zero",
        "eval-repeats", "positive-class-fraction", "positive-class-zero",
        "positive-class-bool", "rank-grid-fraction", "rank-grid-bool", "rank-grid-zero"])
def test_configs_reject_non_integer_counts_and_seeds(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_configs_take_numpy_integers():
    config = M2eConfig(rank=np.int64(3), max_outer_iters=np.int32(5), seed=np.uint8(2))
    assert (config.rank, config.max_outer_iters, config.seed) == (3, 5, 2)
    assert AlsOptions(rank=np.int64(2), max_iters=np.int16(4)).max_iters == 4
    # stored as Python numbers, so every config dumps to JSON as it is
    configs = [
        config,
        M2eConfig(lambdas=[np.float32(0.5), np.int64(2)]),
        AlsOptions(rank=np.int64(2), rel_tol=np.float64(1e-6), seed=np.int8(1)),
        RunConfig(solver=config, kmeans_k=np.int64(2), kmeans_restarts=np.int32(3),
                  eval_repeats=np.uint16(4), positive_class=np.int64(2)),
        GridSpec(lambda_grid=(np.float64(1.0), 2), rank_grid=np.arange(1, 3)),
        SyntheticSpec(views=np.int64(1), nodes=np.int64(6), subjects=np.int64(8),
                      cluster_sizes=np.array([4, 4]), latent_rank=np.int64(2),
                      separation=np.float32(4.0), noise_sigma=np.int64(0), seed=np.int64(3)),
    ]
    for cfg in configs:
        for value in dataclasses.astuple(cfg):
            for x in value if isinstance(value, tuple) else (value,):
                assert type(x) in (int, float, str, type(None)), (cfg, x)
        json.dumps(dataclasses.asdict(cfg))
    assert configs[1].lambdas == (0.5, 2.0)
    assert configs[4].lambda_grid == (1.0, 2.0) and configs[4].rank_grid == (1, 2)
    assert configs[5].cluster_sizes == (4, 4)


@pytest.mark.parametrize("field, value", [("rank", 2.5), ("max_outer_iters", 10.0),
                                          ("seed", 1.5), ("kmeans_k", 2.0),
                                          ("eval_repeats", 2.0), ("positive_class", 1.5)])
def test_cli_non_integer_config_fails_before_the_dataset_loads(tmp_path, field, value):
    _assert_config_fails_first(tmp_path, ["fit", "--dataset", str(tmp_path / "missing")],
                               field, value)


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("kmeans_k", 2.0),
                                          ("positive_class", 1.5)])
@pytest.mark.parametrize("command, inputs", [("cluster", ["--embedding"]),
                                             ("evaluate", ["--embedding", "--labels"]),
                                             ("gridsearch", ["--dataset"])],
                         ids=["cluster", "evaluate", "gridsearch"])
def test_cli_config_fails_before_any_input_loads(tmp_path, command, inputs, field, value):
    missing = [arg for flag in inputs for arg in (flag, str(tmp_path / "missing"))]
    _assert_config_fails_first(tmp_path, [command, *missing], field, value)


def _assert_config_fails_first(tmp_path, command, field, value):
    """`command`, whose inputs are missing, reports the bad --config setting instead."""
    cfg_file = tmp_path / "cfg.json"
    solver_field = field in {f.name for f in dataclasses.fields(M2eConfig)}
    cfg_file.write_text(json.dumps({"solver": {field: value}} if solver_field
                                   else {field: value}))
    out = tmp_path / "out"
    code = main([*command, "--config", str(cfg_file), "--out", str(out)])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValueError"
    if field == "positive_class":  # a label, checked by the label rule
        assert error["message"] == f"positive_class: labels must be integers, got {value!r}"
    else:
        assert error["message"] == f"{field} must be an integer, got {value!r}"


@pytest.mark.parametrize("command", [["fit"], ["cp", "--rank", "2"]], ids=["fit", "cp"])
def test_cli_negative_seed_fails_before_the_dataset_loads(tmp_path, command):
    out = tmp_path / "out"
    code = main([*command, "--dataset", str(tmp_path / "missing"), "--seed", "-1",
                 "--out", str(out)])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert (error["error"], error["message"]) == ("ValueError", "seed must be >= 0, got -1")


def test_cli_non_finite_lambda_fails_with_document(tmp_path, dataset_dir):
    out = tmp_path / "fit"
    code = main(["fit", "--dataset", str(dataset_dir), "--out", str(out),
                 "--lambda", "1=nan", "--lambda", "2=1"])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValueError"
    assert error["message"] == "lambdas must be positive and finite, got nan"


def test_cli_repeated_lambda_view_fails_with_document(tmp_path, dataset_dir):
    out = tmp_path / "fit"
    code = main(["fit", "--dataset", str(dataset_dir), "--out", str(out),
                 "--lambda", "1=0.1", "--lambda", "1=5"])
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "view 1 more than once" in error["message"]


def test_cli_config_file_with_removed_field_fails(tmp_path, dataset_dir):
    cfg_file = tmp_path / "cfg.json"
    for removed, cfg in (("mu_growth", {"solver": {"mu_growth": 1.05}}),
                         ("obj_rel_tol", {"solver": {"obj_rel_tol": 1e-6}}),
                         ("residual_tol", {"solver": {"residual_tol": 1e-3}}),
                         ("kmeans_max_iters", {"kmeans_max_iters": 100})):
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / removed
        code = main(["fit", "--dataset", str(dataset_dir), "--config", str(cfg_file),
                     "--out", str(out)])
        assert code == 1
        error = json.loads((out / "error.json").read_text())
        assert removed in error["message"]


def test_cli_singular_block_fails_with_solver_error_document(tmp_path, dataset_dir,
                                                             monkeypatch):
    import m2e.solver as solver
    calls, solve = [], solver.ridge_solve

    def singular_after_the_start(gram, rhs):  # the start solves once per view
        calls.append(1)
        if len(calls) > 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(gram, rhs)

    monkeypatch.setattr(solver, "ridge_solve", singular_after_the_start)
    out = tmp_path / "fit"
    assert main(["fit", "--dataset", str(dataset_dir), "--out", str(out), "--rank", "2"]) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "SolverNumericsError"
    assert "outer iteration 0, view 0 node" in error["message"]


def test_cli_lambda_count_must_match_views(tmp_path, dataset_dir):
    out = tmp_path / "fit"
    code = main(["fit", "--dataset", str(dataset_dir), "--out", str(out),
                 "--rank", "2", "--lambda", "1=1.0"])  # dataset has two views
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "weights" in error["message"]


def test_cli_gridsearch_method_flag(tmp_path, dataset_dir):
    out = tmp_path / "gs"
    code = main(["gridsearch", "--dataset", str(dataset_dir), "--out", str(out),
                 "--lambda-grid", "1.0", "--rank-grid", "2", "--method", "m2e-ts",
                 "--restarts", "3", "--repeats", "2", "--max-iters", "30",
                 "--seed", "0"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["method"] == "m2e-ts"
