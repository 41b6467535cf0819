import csv
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extvae import cli
from extvae import emulation as emu
from extvae import workers
from extvae.model import HyperParams


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


TINY_CONFIG = {
    "schema_version": 1,
    "seed": 7,
    "data": {"rows": 6, "cols": 6, "knot_side": 2, "wendland_radius": 25.0,
             "n_t": 24},
    "hyper": {"latent_dim": 4, "n_theta_basis": 4, "conv_channels": 8,
              "enc_widths": [16], "epochs": 3, "rho0": 0.1,
              "penalty_abs": True},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """simulate -> train -> emulate on a tiny instance, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    sim = root / "sim"
    assert run_cli("simulate", "--config", cfg_path, "--out", sim) == 0
    train = root / "train"
    assert run_cli("train", "--config", cfg_path,
                   "--fields", sim / "fields.csv",
                   "--conditions", sim / "conditions.csv",
                   "--knots", sim / "knots.csv",
                   "--sites", sim / "sites.csv",
                   "--out", train) == 0
    emu_dir = root / "emu"
    assert run_cli("emulate", "--config", cfg_path,
                   "--checkpoint", train / "checkpoint.json",
                   "--fields", sim / "fields.csv",
                   "--conditions", sim / "conditions.csv",
                   "--n-samples", 5, "--out", emu_dir) == 0
    return root, cfg_path, sim, train, emu_dir


class TestSimulate:
    def test_desk_preset_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli("simulate", "--desk", "--seed", 7, "--out", a) == 0
        assert run_cli("simulate", "--desk", "--seed", 7, "--out", b) == 0
        for name in ("fields.csv", "conditions.csv", "theta_truth.csv",
                     "latent_truth.csv", "sites.csv", "knots.csv",
                     "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_default_preset_has_64_knots(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # default knot layout with a short series to keep the run quick
        cfg.write_text(json.dumps({"schema_version": 1,
                                   "data": {"n_t": 6}}))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg, "--seed", 1,
                       "--out", out) == 0
        header = read_rows(out / "theta_truth.csv")[0]
        assert header[-1] == "knot_63"
        assert len(read_rows(out / "knots.csv")) == 65   # header + 64 knots

    def test_latent_truth_reconstructs_fields(self, tiny_run):
        from extvae import fieldsim as fs

        _, _, sim, *_ = tiny_run
        sites = cli.read_coords_csv(str(sim / "sites.csv"))
        knots = cli.read_coords_csv(str(sim / "knots.csv"))
        z = cli.read_matrix_csv(str(sim / "latent_truth.csv"))
        x = cli.read_matrix_csv(str(sim / "fields.csv"))
        w = fs.wendland_basis(sites, knots, TINY_CONFIG["data"]["wendland_radius"])
        y = z @ w.T
        # noise-free reload: X / (WZ) must equal the log-Laplace noise draws,
        # and Y itself must be reproducible to near round-off
        y2 = cli.read_matrix_csv(str(sim / "latent_truth.csv")) @ w.T
        assert np.max(np.abs(y - y2)) < 1e-10
        assert np.all(x > 0) and np.all(y > 0)

    def test_manifest_written(self, tiny_run):
        _, _, sim, *_ = tiny_run
        manifest = json.loads((sim / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 7
        assert "fields.csv" in manifest["outputs"]

    def test_unknown_config_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1, "nonsense": {}}))
        assert run_cli("simulate", "--config", cfg,
                       "--out", tmp_path / "o") == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1,
                                   "data": {"rowz": 5}}))
        assert run_cli("simulate", "--config", cfg,
                       "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("doc", [[1], {"schema_version": 1, "data": 5},
                                     {"schema_version": 1, "hyper": "ab"}])
    def test_config_not_an_object_rejected(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_schema_version_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 99}))
        assert run_cli("simulate", "--config", cfg,
                       "--out", tmp_path / "o") == 2


class TestTrain:
    def test_missing_input_exit_code_and_message(self, tmp_path, capsys):
        code = run_cli("train", "--fields", tmp_path / "nope.csv",
                       "--conditions", tmp_path / "nope2.csv",
                       "--out", tmp_path / "o")
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_report_and_checkpoint_written(self, tiny_run):
        *_, train, _ = tiny_run
        rows = read_rows(train / "train_report.csv")
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 1 + TINY_CONFIG["hyper"]["epochs"]
        assert (train / "checkpoint.json").exists()

    def test_grid_emits_scores(self, tiny_run, tmp_path):
        root, cfg_path, sim, *_ = tiny_run
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([
            {"learning_rate": 1e-3}, {"learning_rate": 5e-4}]))
        out = tmp_path / "gridtrain"
        assert run_cli("train", "--config", cfg_path,
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--knots", sim / "knots.csv",
                       "--sites", sim / "sites.csv",
                       "--grid", grid_path, "--grid-epochs", 2,
                       "--out", out) == 0
        rows = read_rows(out / "grid_scores.csv")
        assert rows[0] == ["candidate", "score"]
        assert len(rows) == 3

    def test_final_state_saved_between_periodic_checkpoints(self, tiny_run, tmp_path):
        # checkpoint_every 7 over 10 epochs: the checkpoint holds epoch 10,
        # the same bytes as a run without periodic checkpoints
        root, cfg_path, sim, *_ = tiny_run
        cfg = json.loads(cfg_path.read_text())
        for name, section in (("every7", {"checkpoint_every": 7}), ("plain", {})):
            (tmp_path / f"{name}.json").write_text(json.dumps({**cfg, "train": section}))
            assert run_cli("train", "--config", tmp_path / f"{name}.json",
                           "--fields", sim / "fields.csv",
                           "--conditions", sim / "conditions.csv",
                           "--knots", sim / "knots.csv", "--sites", sim / "sites.csv",
                           "--epochs", 10, "--out", tmp_path / name) == 0
        ckpt = (tmp_path / "every7" / "checkpoint.json").read_bytes()
        assert len(json.loads(ckpt)["meta"]["loss_history"]) == 10
        assert ckpt == (tmp_path / "plain" / "checkpoint.json").read_bytes()
        assert len(read_rows(tmp_path / "every7" / "train_report.csv")) == 11


class TestEmulate:
    def test_ensemble_csv_layout(self, tiny_run):
        *_, emu_dir = tiny_run
        rows = read_rows(emu_dir / "ensemble.csv")
        assert rows[0] == ["time_index", "site_id", "sample_index", "value",
                           "scenario"]
        assert rows[1][4] == "factual"
        n_t = TINY_CONFIG["data"]["n_t"]
        assert len(rows) == 1 + n_t * 36 * 5

    def test_theta_hat_csv(self, tiny_run):
        *_, emu_dir = tiny_run
        rows = read_rows(emu_dir / "theta_hat.csv")
        assert rows[0] == ["time_index", "knot_id", "mean", "std"]
        assert len(rows) == 1 + TINY_CONFIG["data"]["n_t"] * 4

    def test_default_sample_count_is_2000(self):
        assert emu.DEFAULT_N_SAMPLES == 2000

    def test_condition_mode_flag(self, tiny_run, tmp_path):
        root, cfg_path, sim, train, _ = tiny_run
        out = tmp_path / "wn"
        assert run_cli("emulate", "--config", cfg_path,
                       "--checkpoint", train / "checkpoint.json",
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--n-samples", 3, "--condition-mode", "white-noise",
                       "--out", out) == 0
        rows = read_rows(out / "ensemble.csv")
        assert rows[1][4] == "white-noise"

    def test_counterfactual_flip(self, tiny_run, tmp_path):
        root, cfg_path, sim, train, _ = tiny_run
        out = tmp_path / "cf"
        assert run_cli("counterfactual", "--config", cfg_path,
                       "--checkpoint", train / "checkpoint.json",
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--n-samples", 3, "--flip", "--out", out) == 0
        rows = read_rows(out / "ensemble.csv")
        assert rows[1][4] == "counterfactual"

    def test_counterfactual_needs_flip_or_series(self, tiny_run, tmp_path):
        root, cfg_path, sim, train, _ = tiny_run
        assert run_cli("counterfactual", "--config", cfg_path,
                       "--checkpoint", train / "checkpoint.json",
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("command", ["simulate", "train", "emulate", "counterfactual",
                                     "metrics", "metrics, one file name twice",
                                     "metrics, one file twice", "preprocess"])
def test_each_file_hashed_at_most_once(tiny_run, tmp_path, monkeypatch, command):
    """Each file is hashed at most once, and a table is never re-read to hash
    what _write_csv wrote; every file read is an input, and every file written
    to --out an output (manifest.json and sidecars aside), each with the sha256
    of its bytes."""
    _, cfg, sim, train, emu_dir = tiny_run
    m_cfg = tmp_path / "m.json"
    m_cfg.write_text(json.dumps({"schema_version": 1, "metrics": {"n_boot": 3}}))
    cli.write_series_csv(str(tmp_path / "cf.csv"),
                         1 - cli.read_series_csv(str(sim / "conditions.csv")))
    (tmp_path / "em").mkdir()
    (tmp_path / "em" / "fields.csv").write_bytes(
        (emu_dir / "emulated_fields.csv").read_bytes())
    model = ["--checkpoint", train / "checkpoint.json", "--fields", sim / "fields.csv",
             "--conditions", sim / "conditions.csv", "--n-samples", 2]
    inputs = {"simulate": ["--config", cfg],
              "train": ["--config", cfg, "--fields", sim / "fields.csv",
                        "--conditions", sim / "conditions.csv",
                        "--knots", sim / "knots.csv", "--sites", sim / "sites.csv"],
              "emulate": ["--config", cfg, *model],
              "counterfactual": ["--config", cfg, *model,
                                 "--cf-conditions", tmp_path / "cf.csv"],
              "metrics": ["--config", m_cfg, "--truth", sim / "fields.csv",
                          "--emulated", emu_dir / "emulated_fields.csv",
                          "--coords", sim / "sites.csv",
                          "--ensemble", emu_dir / "ensemble.csv"],
              "metrics, one file name twice": [
                  "--config", m_cfg, "--truth", sim / "fields.csv",
                  "--emulated", tmp_path / "em" / "fields.csv", "--coords", sim / "sites.csv"],
              "metrics, one file twice": [
                  "--config", m_cfg, "--truth", sim / "fields.csv",
                  "--emulated", sim / "fields.csv", "--coords", sim / "sites.csv"],
              "preprocess": [*TestPreprocess._write_inputs(tmp_path),
                             "--start-date", "2015-01-01"]}[command]
    hashed, sha256 = [], cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda p: hashed.append(p) or sha256(p))
    written, write_csv = [], cli._write_csv
    monkeypatch.setattr(cli, "_write_csv",
                        lambda p, *args, **kw: written.append(p) or write_csv(p, *args, **kw))
    out = tmp_path / "o"
    assert run_cli(command.split(",")[0], *inputs, "--out", out) == 0
    assert hashed and len(hashed) == len(set(hashed)), hashed
    assert written and not set(hashed) & set(written), set(hashed) & set(written)
    # a file is listed by its name, or by its path where another has the name
    read = list(dict.fromkeys(p for p in inputs[1::2] if isinstance(p, os.PathLike)))
    names = [p.name for p in read]
    read = {p.name if names.count(p.name) == 1 else str(p): p for p in read}
    written = {p.name: p for p in out.iterdir()
               if p.name != "manifest.json" and p.suffix != ".npy"}
    manifest = json.loads((out / "manifest.json").read_text())
    for listed, files in ((manifest["inputs"], read), (manifest["outputs"], written)):
        assert sorted(listed) == sorted(files)
        for name, digest in listed.items():
            assert digest == hashlib.sha256(files[name].read_bytes()).hexdigest(), name


class TestDeskSiteSelection:
    """``--sites`` selects columns of the full-grid draw bit for bit."""

    @pytest.fixture(scope="class")
    def desk_fit(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("desk")
        sim, fit = root / "sim", root / "fit"
        assert run_cli("simulate", "--desk", "--seed", 7, "--out", sim) == 0
        assert run_cli("train", "--desk", "--seed", 7,
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--knots", sim / "knots.csv", "--sites", sim / "sites.csv",
                       "--epochs", 2, "--out", fit) == 0
        return sim, fit

    @pytest.mark.parametrize("command", ["emulate", "counterfactual"])
    def test_sites_equal_full_grid_rows(self, desk_fit, tmp_path, command):
        sim, fit = desk_fit
        common = ["--checkpoint", fit / "checkpoint.json",
                  "--fields", sim / "fields.csv",
                  "--conditions", sim / "conditions.csv", "--n-samples", 3]
        if command == "counterfactual":
            common.append("--flip")
        assert run_cli(command, *common, "--out", tmp_path / "full") == 0
        assert run_cli(command, *common, "--sites", "250,0,17",
                       "--out", tmp_path / "sub") == 0
        full, full_ids, _ = cli._read_ensemble_csv(str(tmp_path / "full" / "ensemble.csv"))
        sub, sub_ids, scenario = cli._read_ensemble_csv(str(tmp_path / "sub" / "ensemble.csv"))
        assert scenario == ("factual" if command == "emulate" else "counterfactual")
        assert full_ids.tolist() == list(range(400))
        assert sub_ids.tolist() == [0, 17, 250]
        assert sub.tobytes() == np.ascontiguousarray(full[:, [0, 17, 250], :]).tobytes()
        assert ((tmp_path / "sub" / "theta_hat.csv").read_bytes()
                == (tmp_path / "full" / "theta_hat.csv").read_bytes())


class TestMetrics:
    def test_curve_csv_columns_and_self_chi(self, tiny_run, tmp_path):
        root, cfg_path, sim, train, emu_dir = tiny_run
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "metrics": {"distance": 0.0, "u": [0.5, 0.8], "n_boot": 10}}))
        out = tmp_path / "metrics"
        assert run_cli("metrics", "--config", cfg,
                       "--truth", sim / "fields.csv",
                       "--emulated", emu_dir / "emulated_fields.csv",
                       "--coords", sim / "sites.csv",
                       "--ensemble", emu_dir / "ensemble.csv",
                       "--out", out) == 0
        rows = read_rows(out / "chi_truth.csv")
        assert rows[0] == ["u", "estimate", "lo95", "hi95"]
        # zero-distance bin: the self-pair co-exceedance is identically 1
        assert all(float(r[1]) == 1.0 for r in rows[1:])
        assert (out / "are_truth.csv").exists()
        assert (out / "are_emulated.csv").exists()
        summary = read_rows(out / "twcrps_summary.csv")
        assert summary[0] == ["scenario", "median_twcrps"]
        assert (out / "qq.csv").exists()
        meta = json.loads((out / "metrics_meta.json").read_text())
        assert meta["n_boot"] == 10


class TestPreprocess:
    @staticmethod
    def _write_inputs(tmp_path, n_days=3 * 365, nan_at=None, n_coords=2):
        import datetime as dt
        import math

        from extvae import preprocess as pp
        from extvae.seeds import substream

        dates = pp.daterange(dt.date(2015, 1, 1), n_days)
        doy = pp.day_of_year(dates)
        t = np.arange(1.0, n_days + 1)
        rng = substream(77)
        base = 4.0 + 2.0 * np.sin(2 * math.pi * doy / 365.0) + 0.0005 * t
        daily = np.column_stack([base + 0.7 * rng.standard_normal(n_days),
                                 base + 0.7 * rng.standard_normal(n_days)])
        if nan_at is not None:
            daily[nan_at] = np.nan
        daily_path = tmp_path / "daily.csv"
        cli.write_matrix_csv(str(daily_path), daily, "site_")
        sites_path = tmp_path / "sites.csv"
        coords = np.array([[150.0, -30.0], [150.1, -30.0], [150.2, -30.0]])
        cli.write_coords_csv(str(sites_path), coords[:n_coords], "site_id")
        return ["--daily", daily_path, "--sites", sites_path]

    def test_pipeline_outputs(self, tmp_path):
        out = tmp_path / "prep"
        assert run_cli("preprocess", *self._write_inputs(tmp_path),
                       "--start-date", "2015-01-01", "--out", out) == 0
        fields = cli.read_matrix_csv(str(out / "fields.csv"))
        assert fields.shape == (36, 2)
        assert np.all(fields > 0)
        gev_rows = read_rows(out / "gev_params.csv")
        assert gev_rows[0] == ["site_id", "mu", "sigma", "xi"]
        gof_rows = read_rows(out / "gof.csv")
        assert all(0.0 <= float(r[3]) <= 1.0 for r in gof_rows[1:])

    @pytest.mark.parametrize("inputs, args, needle", [
        ({}, ["--start-date", "2014-13-01"], "--start-date"),
        ({}, ["--start-date", "9999-06-01"], "--start-date"),
        ({"n_days": 300}, [], "10 months"),
        ({"n_days": 850}, [], "28 months"),
        ({"nan_at": (400, 1)}, [], "value nan at row 400, column 1"),
        ({}, ["--bins", "3"], "--bins"),
        ({}, ["--radius-km", "0"], "--radius-km"),
        ({}, ["--radius-km", "nan"], "--radius-km"),
    ])
    def test_bad_input_rejected_before_compute(self, tmp_path, capsys,
                                               inputs, args, needle):
        args = args if "--start-date" in args else ["--start-date", "2015-01-01", *args]
        code = run_cli("preprocess", *self._write_inputs(tmp_path, **inputs),
                       *args, "--out", tmp_path / "prep")
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and needle in err and "Traceback" not in err
        assert not (tmp_path / "prep").exists()


class TestFixedW:
    def test_fixed_w_train_flag(self, tiny_run, tmp_path):
        root, cfg_path, sim, *_ = tiny_run
        out = tmp_path / "fixw"
        assert run_cli("train", "--config", cfg_path,
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--knots", sim / "knots.csv",
                       "--sites", sim / "sites.csv",
                       "--fixed-W", "--out", out) == 0
        from extvae import training as tr

        model = tr.checkpoint_load(str(out / "checkpoint.json"))
        assert model.config.hyper.fix_w
        assert model.config.fixed_w is not None
        assert "w_raw" not in model.params.layout


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        assert run_cli("gradcheck", "--seed", 0) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_tailcheck_full_size(self, capsys):
        assert run_cli("tailcheck", "--seed", 0) == 0
        assert capsys.readouterr().out.count("PASS") == 2

    def test_numerical_failure_exit_code(self, capsys):
        # far too few draws for the requested tail level -> numerical error
        code = run_cli("tailcheck", "--seed", 0, "--n", 500, "--level", 0.999)
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFormatting:
    def test_floats_round_trip_17_digits(self, tmp_path):
        vals = np.array([[np.pi, 1 / 3, 1e-17], [2 / 7, 1.0, 123456.789]])
        path = tmp_path / "m.csv"
        cli.write_matrix_csv(str(path), vals, "site_")
        back = cli.read_matrix_csv(str(path))
        assert np.array_equal(back, vals)


# ---------------------------------------------------------------------------
# the file layer against the csv.writer loops it replaced
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def ref_write_matrix_csv(path, matrix, prefix, index_name="time_index", ids=None):
    matrix = np.asarray(matrix)
    if ids is None:
        ids = range(matrix.shape[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([index_name] + [f"{prefix}{j}" for j in ids])
        for t in range(matrix.shape[0]):
            w.writerow([t] + [_fmt(v) for v in matrix[t]])


def ref_write_series_csv(path, values, name="condition"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time_index", name])
        for t, v in enumerate(values):
            w.writerow([t, _fmt(v)])


def ref_write_coords_csv(path, coords, id_name):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([id_name, "x", "y"])
        for i, (x, y) in enumerate(coords):
            w.writerow([i, _fmt(x), _fmt(y)])


def ref_write_ensemble(path, ens):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time_index", "site_id", "sample_index", "value", "scenario"])
        n_t, n_sel, n_samp = ens.samples.shape
        for t in range(n_t):
            for j in range(n_sel):
                sid = int(ens.site_indices[j])
                for s in range(n_samp):
                    w.writerow([t, sid, s, _fmt(ens.samples[t, j, s]), ens.scenario])


def ref_write_curve_csv(path, curve):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "estimate", "lo95", "hi95"])
        for k in range(curve.u.size):
            w.writerow([_fmt(curve.u[k]), _fmt(curve.estimate[k]),
                        _fmt(curve.lo95[k]), _fmt(curve.hi95[k])])


AWKWARD = np.array([5e-324, 1e-300, 1e22, -0.0, np.nan, np.inf, -np.inf, 1 / 3,
                    -2.5e-308, 123456.789, 0.1, -1e16])


def awkward_matrix(n_rows, n_cols, shift=0):
    return np.roll(AWKWARD, shift)[np.add.outer(np.arange(n_rows),
                                                np.arange(n_cols)) % AWKWARD.size]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def sidecars(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.suffix == ".npy")


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sidecar_of(path):
    """The one sidecar of the CSV at ``path``, named by the CSV's sha256 and
    then by its own."""
    (side,) = [path.parent / n for n in sidecars(path.parent) if re.fullmatch(
        re.escape(f".{path.name}.") + r"[0-9a-f]{64}\.[0-9a-f]{64}\.npy", n)]
    assert side.name == f".{path.name}.{sha256(path)}.{sha256(side)}.npy"
    return side


def drop_sidecar(path) -> None:
    """Delete the one sidecar of the CSV at ``path``, so that reads parse it."""
    sidecar_of(path).unlink()


class TestFileLayer:
    @pytest.mark.parametrize("index_name,ids", [
        ("time_index", None), ("month_index", np.array([3, 17, 250, 4, 0, 9, 1]))])
    def test_matrix_bytes_and_bits(self, tmp_path, index_name, ids):
        m = awkward_matrix(5, 7)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli.write_matrix_csv(str(new), m, "site_", index_name=index_name, ids=ids)
        ref_write_matrix_csv(str(ref), m, "site_", index_name=index_name, ids=ids)
        assert new.read_bytes() == ref.read_bytes()
        back = cli.read_matrix_csv(str(new))
        assert same_bits(back, m)
        assert back.flags.c_contiguous and back.dtype == np.float64

    def test_series_coords_curve_bytes(self, tmp_path):
        from extvae.metrics import ChiCurve

        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli.write_series_csv(str(new), AWKWARD, "loss")
        ref_write_series_csv(str(ref), AWKWARD, "loss")
        assert new.read_bytes() == ref.read_bytes()
        assert same_bits(cli.read_series_csv(str(new)), AWKWARD)

        coords = awkward_matrix(9, 2, shift=3)
        cli.write_coords_csv(str(new), coords, "knot_id")
        ref_write_coords_csv(str(ref), coords, "knot_id")
        assert new.read_bytes() == ref.read_bytes()
        assert same_bits(cli.read_coords_csv(str(new)), coords)

        m = awkward_matrix(4, 4, shift=5)
        curve = ChiCurve(u=m[0], estimate=m[1], lo95=m[2], hi95=m[3],
                         defined=np.ones(4, bool), n_pairs=1)
        cli.write_curve_csv(str(new), curve)
        ref_write_curve_csv(str(ref), curve)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("scenario", ["factual", 'odd, "quoted" 100%', "a,b", 'a"b'])
    def test_long_ensemble_bytes_and_read_back(self, tmp_path, scenario):
        samples = awkward_matrix(4 * 3, 5).reshape(4, 3, 5)
        samples[np.isnan(samples)] = 2.0
        ens = emu.EmulationEnsemble(samples=samples, theta=np.ones((4, 2, 5)),
                                    scenario=scenario,
                                    site_indices=np.array([17, 0, 250]))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli.write_ensemble(str(new), ens)
        ref_write_ensemble(str(ref), ens)
        assert new.read_bytes() == ref.read_bytes()
        back, site_ids, label = cli._read_ensemble_csv(str(new))
        assert label == scenario
        assert site_ids.tolist() == [0, 17, 250]
        # sites come back in id order
        assert same_bits(back, samples[:, [1, 0, 2], :])

    @pytest.mark.parametrize("scenario", ["a\rb", "a\nb", "a\r\nb", "end\n", "a\0b"])
    def test_line_break_label_rejected_before_writing(self, tmp_path, scenario):
        ens = emu.EmulationEnsemble(samples=np.ones((2, 1, 1)), theta=np.ones((2, 1, 1)),
                                    scenario=scenario, site_indices=np.array([0]))
        with pytest.raises(ValueError, match="line break"):
            cli.write_ensemble(str(tmp_path / "ens.csv"), ens)
        assert not (tmp_path / "ens.csv").exists()

    @pytest.mark.parametrize("edit", ["drop", "repeat", "fraction"])
    def test_incomplete_long_ensemble_rejected(self, tmp_path, edit):
        ens = emu.EmulationEnsemble(samples=np.ones((2, 2, 2)), theta=np.ones((2, 1, 2)),
                                    scenario="factual",
                                    site_indices=np.array([0, 5]))
        path = tmp_path / "ens.csv"
        cli.write_ensemble(str(path), ens)
        lines = path.read_text().splitlines()
        if edit == "drop":
            del lines[3]
        elif edit == "repeat":
            lines[3] = lines[4]
        else:
            lines[3] = "0.5" + lines[3][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(cli.ConfigError, match="ens.csv"):
            cli._read_ensemble_csv(str(path))

    @pytest.mark.parametrize("layout", ["lf", "no-final-newline", "padded", "blank-line",
                                        "quoted-cell", "lone-cr"])
    def test_read_line_layouts(self, tmp_path, layout):
        m = awkward_matrix(11, 5, shift=2)
        cells = [[f"{v:.17g}" for v in row] for row in m]
        if layout == "padded":
            cells = [[f"  {c} " for c in row] for row in cells]
        if layout == "quoted-cell":
            cells[6][2] = f'"{cells[6][2]}"'
        lines = ["t,a,b,c,d,e"] + [f"{t}," + ",".join(row) for t, row in enumerate(cells)]
        if layout == "blank-line":                   # no row to loadtxt
            lines.insert(7, "")
        eol = "\r\n" if layout == "lone-cr" else "\n"
        text = eol.join(lines) + ("\r" if layout == "lone-cr" else
                                  "" if layout == "no-final-newline" else "\n")
        (tmp_path / "m.csv").write_bytes(text.encode())
        back = cli.read_matrix_csv(str(tmp_path / "m.csv"))
        assert same_bits(back, m) and back.flags.c_contiguous

    def test_read_accepts_quotes_spaces_and_dates(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text('date,"site_0", site_1\n'
                        '2015-01-01,"1.5", 2.25 \n'
                        '"Jan 2, 2015", -0 ,"1e-300"\n')
        back = cli.read_matrix_csv(str(path))
        assert same_bits(back, np.array([[1.5, 2.25], [-0.0, 1e-300]]))


# ---------------------------------------------------------------------------
# sidecars: the values of a wide matrix beside its CSV
# ---------------------------------------------------------------------------

# every NaN spelling %.17g writes as "nan", both zeros, both infinities and
# subnormals
SPECIAL = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                    0xFFF4000000000123, 0x8000000000000000, 0x0000000000000000,
                    0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,
                    0x800FFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF, 0x3FD5555555555555],
                   dtype=np.uint64).view(np.float64)


@pytest.fixture
def parses(monkeypatch):
    """The paths cli._read_csv parses, in order."""
    calls, real = [], cli._read_csv
    monkeypatch.setattr(cli, "_read_csv",
                        lambda path, *args: calls.append(path) or real(path, *args))
    return calls


def snapshot(directory) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestSidecar:
    @pytest.mark.parametrize("shape", [(3, 4), (1, 12), (12, 1)],
                             ids=["wide", "one-row", "one-column"])
    def test_sidecar_bits_equal_the_parse(self, tmp_path, parses, shape):
        path = tmp_path / "m.csv"
        cli.write_matrix_csv(str(path), SPECIAL.reshape(shape), "site_")
        assert sidecars(tmp_path) == [sidecar_of(path).name]
        hit = cli.read_matrix_csv(str(path))
        assert parses == []
        drop_sidecar(path)
        parsed = cli.read_matrix_csv(str(path))
        assert parses == [str(path)]
        assert same_bits(hit, parsed) and hit.flags.c_contiguous
        expect = np.where(np.isnan(SPECIAL), np.nan, SPECIAL).reshape(shape)
        assert same_bits(parsed, expect)

    @pytest.mark.parametrize("damage", ["csv-edited", "other-values", "truncated",
                                        "not-npy", "shape", "dtype", "object"])
    def test_stale_or_damaged_sidecar_reads_the_csv(self, tmp_path, parses, damage):
        path = tmp_path / "m.csv"
        m = awkward_matrix(5, 4)
        cli.write_matrix_csv(str(path), m, "site_")
        side = sidecar_of(path)
        expect = np.where(np.isnan(m), np.nan, m)
        if damage == "csv-edited":
            expect[2, 1] = 7.0
            ref_write_matrix_csv(str(path), expect, "site_")
        elif damage == "other-values":                      # same header and size
            np.save(side, expect[::-1].copy())
        elif damage == "truncated":
            side.write_bytes(side.read_bytes()[:-8])
        elif damage == "not-npy":
            side.write_bytes(b"time_index,site_0\r\n")
        elif damage == "shape":
            np.save(side, np.ascontiguousarray(expect.T))     # same count of values
        else:          # named after its own bytes, so that its header is what fails
            np.save(side, expect.astype(np.float32) if damage == "dtype"
                    else expect.astype(object), allow_pickle=True)
            side.rename(tmp_path / f".m.csv.{sha256(path)}.{sha256(side)}.npy")
        assert damage == "csv-edited" or len(sidecars(tmp_path)) == 1
        before = snapshot(tmp_path)
        assert same_bits(cli.read_matrix_csv(str(path)), expect)
        assert parses == [str(path)]
        assert snapshot(tmp_path) == before

    def test_header_only_matrix_is_refused(self, tmp_path, parses):
        path = tmp_path / "m.csv"
        cli.write_matrix_csv(str(path), np.empty((0, 3)), "site_")
        with pytest.raises(cli.ConfigError, match="0 rows"):
            cli.read_matrix_csv(str(path))
        assert parses == [str(path)]

    def test_read_only_directory_reads(self, tmp_path, parses):
        path = tmp_path / "ro" / "m.csv"
        path.parent.mkdir()
        m = awkward_matrix(3, 4)
        cli.write_matrix_csv(str(path), m, "site_")
        expect = np.where(np.isnan(m), np.nan, m)
        before = snapshot(path.parent)
        path.parent.chmod(0o555)
        try:
            assert same_bits(cli.read_matrix_csv(str(path)), expect)
            assert parses == []
            path.parent.chmod(0o755)
            drop_sidecar(path)
            path.parent.chmod(0o555)
            assert same_bits(cli.read_matrix_csv(str(path)), expect)
            assert parses == [str(path)]
        finally:
            path.parent.chmod(0o755)
        assert snapshot(path.parent) == {k: v for k, v in before.items()
                                         if not k.endswith(".npy")}

    def test_rewrite_leaves_one_sidecar(self, tmp_path):
        path, other = tmp_path / "m.csv", tmp_path / "m.csv.x.csv"
        cli.write_matrix_csv(str(other), np.ones((2, 2)), "site_")
        for shift in range(3):
            cli.write_matrix_csv(str(path), awkward_matrix(3, 4, shift), "site_")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, other.name, sidecar_of(path).name, sidecar_of(other).name])
        assert same_bits(cli.read_matrix_csv(str(path)), awkward_matrix(3, 4, 2))

    def test_failed_sidecar_write_leaves_the_csv_alone(self, tmp_path, parses,
                                                       monkeypatch):
        path = tmp_path / "m.csv"
        cli.write_matrix_csv(str(path), np.ones((2, 2)), "site_")

        def disk_full(src, dst):
            raise OSError(28, "No space left on device", dst)

        monkeypatch.setattr(os, "replace", disk_full)
        m = awkward_matrix(3, 4)
        digest = cli.write_matrix_csv(str(path), m, "site_")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]
        assert digest == sha256(path)
        assert same_bits(cli.read_matrix_csv(str(path)), np.where(np.isnan(m), np.nan, m))
        assert parses == [str(path)]


# ---------------------------------------------------------------------------
# row blocks: large tables formatted and parsed by forked workers
# ---------------------------------------------------------------------------

@pytest.fixture
def split(monkeypatch, forks):
    """Tables of 16 values and more split into row blocks on 4 usable CPUs.
    Yields the pids of the forked workers; no worker may outlive the test."""
    monkeypatch.setattr(cli, "BLOCK_CELLS", 8)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    yield forks


def _in_workers(monkeypatch, name, act):
    """Make cli.<name> call ``act`` first when it runs in a forked worker."""
    parent, real = os.getpid(), getattr(cli, name)

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            act()
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, patched)


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise():
    raise MemoryError("worker out of memory")


class TestRowBlocks:
    @pytest.mark.parametrize("shape,n_workers", [((9, 7), 3), ((3, 40), 2), ((1, 40), 0)],
                             ids=["wide", "rows-below-cpus", "one-row"])
    def test_split_matrix_write_is_one_block_bytes(self, tmp_path, split, shape,
                                                     n_workers):
        m = awkward_matrix(*shape)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli.write_matrix_csv(str(new), m, "site_")
        assert len(split) == n_workers
        ref_write_matrix_csv(str(ref), m, "site_")
        assert new.read_bytes() == ref.read_bytes()
        back = cli.read_matrix_csv(str(new))
        assert same_bits(back, m) and back.flags.c_contiguous
        drop_sidecar(new)
        assert same_bits(cli.read_matrix_csv(str(new)), back)

    def test_split_long_ensemble_write_is_one_block_bytes(self, tmp_path, split):
        samples = awkward_matrix(5 * 3, 4).reshape(5, 3, 4)
        ens = emu.EmulationEnsemble(samples=samples, theta=np.ones((5, 2, 4)),
                                    scenario='odd, "quoted" 100%',
                                    site_indices=np.array([17, 0, 250]))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        cli.write_ensemble(str(new), ens)
        assert len(split) == 3
        ref_write_ensemble(str(ref), ens)
        assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("act", [_die, _raise], ids=["dies", "raises"])
    def test_failed_write_worker_is_one_line_exit_2(self, tmp_path, capsys,
                                                    monkeypatch, split, act):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        _in_workers(monkeypatch, "_block", act)
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
        assert split
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "row-block worker" in err and ".csv" in err
        assert "Traceback" not in err

    def test_parent_failure_kills_and_reaps_workers(self, tmp_path, monkeypatch, split):
        real, parent = cli._block, os.getpid()

        def parent_fails(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(cli, "_block", parent_fails)
        with pytest.raises(KeyboardInterrupt):
            cli.write_matrix_csv(str(tmp_path / "m.csv"), awkward_matrix(9, 7), "site_")
        assert len(split) == 3

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_CONFIG))
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "one") == 0
        monkeypatch.setattr(cli, "BLOCK_CELLS", 8)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "four") == 0
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert "fields.csv" in names and "manifest.json" in names
        assert names == sorted(p.name for p in (tmp_path / "four").iterdir())
        assert len(sidecars(tmp_path / "one")) == 3           # one per wide matrix
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "four" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# the numpy renderer against Python's %
# ---------------------------------------------------------------------------

def _around(values, ulps: int = 3) -> np.ndarray:
    """Each value and the floats up to ``ulps`` steps of its bit pattern away."""
    bits = np.asarray(values, np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).view(np.float64).ravel()


class TestRenderOracle:
    """floattext.render writes each value as '%.17g' % x does, byte for byte,
    on the cases its fast path could get wrong: random bit patterns (NaN
    payloads, subnormals, every exponent), magnitudes past its table, exact
    decimal ties, powers of ten and the %g switch points."""

    @staticmethod
    def corpus() -> np.ndarray:
        rng = np.random.default_rng(20251020)
        n = 50_000
        with np.errstate(over="ignore"):
            spread = 10.0 ** rng.uniform(-330, 310, n)
        ties = ((rng.integers(0, 2 ** rng.integers(1, 41, n)) + 0.5)
                * 2.0 ** -rng.integers(0, 80, n))
        # exact ties at the 17th digit: m * 2**-j whose 18 digits m * 5**j end in 5
        ties17 = [m * 2.0 ** -j for j in range(1, 26)
                  for m in range(10 ** 17 // 5 ** j | 1, min(10 ** 18 // 5 ** j, 2 ** 53), 2)[:300]]
        values = np.concatenate([
            SPECIAL, AWKWARD,
            rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
            spread, rng.lognormal(0.0, 1.5, n), ties, ties17,
            _around([float(f"1e{q}") for q in range(-330, 309)]),
            _around([1e-5, 1e-4, 1e16, 1e17])])
        return np.concatenate([values, -values])

    @staticmethod
    def rendered(values) -> bytes:
        """Each value's text and a newline, the NULs compacted away."""
        cells = cli.ft.render(values)
        lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
        return lines.tobytes().translate(None, b"\0")

    def check(self, values, template: str) -> None:
        got = self.rendered(values)
        want = "".join([template % x for x in values.tolist()]).encode()
        if got != want:
            bad = [(x, g, w) for x, g, w in zip(values.tolist(), got.split(b"\n"),
                                                 want.split(b"\n")) if g != w]
            pytest.fail(f"{len(bad)} of {values.size} values differ, e.g. {bad[:5]}")

    def test_floats_as_percent_17g(self):
        self.check(self.corpus(), "%.17g\n")

    def test_integers_as_percent_d(self):
        ints = np.concatenate([np.arange(-1000, 1001), np.random.default_rng(7).integers(
            -2 ** 53, 2 ** 53, 10_000), [2 ** 53, -2 ** 53, 10 ** 16, 10 ** 16 - 1]])
        self.check(ints.astype(np.float64), "%d\n")


def _write_tiny_inputs(root):
    cli.write_matrix_csv(str(root / "fields.csv"), np.ones((6, 3)), "site_")
    cli.write_series_csv(str(root / "conditions.csv"), np.linspace(0, 1, 6))


@pytest.mark.parametrize("kind,row", [
    ("non-numeric", "2,1.0,abc,1.0"),
    ("empty", "2,1.0,,1.0"),
    ("ragged-short", "2,1.0,1.0"),
    ("ragged-long", "2,1.0,1.0,1.0,1.0"),
])
def test_malformed_csv_exits_2_naming_the_file(tmp_path, capsys, kind, row):
    _write_tiny_inputs(tmp_path)
    lines = (tmp_path / "fields.csv").read_text().splitlines()
    lines[3] = row
    (tmp_path / "fields.csv").write_text("\r\n".join(lines) + "\r\n")
    code = run_cli("train", "--fields", tmp_path / "fields.csv",
                   "--conditions", tmp_path / "conditions.csv",
                   "--epochs", 1, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "fields.csv" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


class TestMetricsEnsemble:
    def test_second_scenario_exits_2_before_chi(self, tiny_run, tmp_path, capsys):
        _, _, sim, _, emu_dir = tiny_run
        lines = (emu_dir / "ensemble.csv").read_text().splitlines()
        assert lines[-1].endswith(",factual")
        lines[-1] = lines[-1][:-len("factual")] + "counterfactual"
        (tmp_path / "two.csv").write_text("\r\n".join(lines) + "\r\n")
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"schema_version": 1, "metrics": {"n_boot": 3}}))
        capsys.readouterr()
        assert run_cli("metrics", "--config", cfg, "--truth", sim / "fields.csv",
                       "--emulated", emu_dir / "emulated_fields.csv",
                       "--coords", sim / "sites.csv", "--ensemble", tmp_path / "two.csv",
                       "--out", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "two.csv" in err and "'counterfactual'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("label", [b'"a\rb"', b'"a\nb"', b'"a\r\nb"', b"a\0b"],
                             ids=["cr", "lf", "crlf", "nul"])
    def test_line_break_label_exits_2_naming_the_file(self, tiny_run, tmp_path,
                                                      capsys, label):
        _, _, sim, _, emu_dir = tiny_run
        text = (emu_dir / "ensemble.csv").read_bytes()
        (tmp_path / "ens.csv").write_bytes(text.replace(b",factual\r\n", b"," + label + b"\r\n"))
        capsys.readouterr()
        assert run_cli("metrics", "--truth", sim / "fields.csv",
                       "--emulated", emu_dir / "emulated_fields.csv",
                       "--coords", sim / "sites.csv", "--ensemble", tmp_path / "ens.csv",
                       "--out", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ens.csv" in err and "line break" in err
        assert not (tmp_path / "m").exists()


class TestInputValidation:
    """Bad command-line input is one stderr line and exit 2, before compute."""

    @staticmethod
    def _one_line_exit_2(code, capsys, needle):
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and needle in err and "Traceback" not in err

    @staticmethod
    def _corrupt(src, dest, case):
        """The CSV ``src`` copied to ``dest`` with its last data row dropped
        ("row short") or repeated ("row long"), its last column dropped
        ("column short"), or a non-numeric ("malformed") or NaN ("nan") cell."""
        lines = src.read_text().splitlines()
        if case == "row short":
            lines.pop()
        elif case == "row long":
            lines.append(lines[-1])
        elif case == "column short":
            lines = [line.rsplit(",", 1)[0] for line in lines]
        else:
            lines[1] = lines[1].rsplit(",", 1)[0] + {"malformed": ",abc", "nan": ",nan"}[case]
        dest.write_text("\r\n".join(lines) + "\r\n")
        return dest

    @staticmethod
    def _args(tiny_run, tmp_path, command) -> dict:
        """A valid flag -> value set for ``command`` on the tiny run's files."""
        root, cfg_path, sim, train, emu_dir = tiny_run
        model = {"--config": cfg_path, "--checkpoint": train / "checkpoint.json",
                 "--fields": sim / "fields.csv", "--conditions": sim / "conditions.csv",
                 "--n-samples": 2}
        return {
            "simulate": {"--config": cfg_path, "--conditions": sim / "conditions.csv"},
            "train": {"--config": cfg_path, "--fields": sim / "fields.csv",
                      "--conditions": sim / "conditions.csv",
                      "--knots": sim / "knots.csv", "--sites": sim / "sites.csv"},
            "emulate": model,
            "counterfactual": {**model, "--cf-conditions": sim / "conditions.csv"},
            "metrics": {"--config": cfg_path, "--truth": sim / "fields.csv",
                        "--emulated": emu_dir / "emulated_fields.csv",
                        "--coords": sim / "sites.csv"},
            "preprocess": {**dict(zip(*[iter(TestPreprocess._write_inputs(tmp_path))] * 2)),
                           "--start-date": "2015-01-01"},
        }[command]

    # every input that must agree with another in shape, and every series file
    @pytest.mark.parametrize("command, flag, case", [
        *(("simulate", "--conditions", case) for case in ("malformed", "nan")),
        *((command, "--conditions", case) for command in ("train", "emulate", "counterfactual")
          for case in ("row short", "row long", "malformed", "nan")),
        *(("counterfactual", "--cf-conditions", case)
          for case in ("row short", "row long", "malformed", "nan")),
        *((command, "--fields", case) for command in ("train", "emulate", "counterfactual")
          for case in ("row short", "column short")),
        ("train", "--sites", "row short"),
        *(("metrics", flag, "column short") for flag in ("--truth", "--emulated")),
        *(("metrics", "--coords", case) for case in ("row short", "row long")),
        ("preprocess", "--daily", "column short"),
        *(("preprocess", "--sites", case) for case in ("row short", "row long")),
    ])
    def test_inputs_that_disagree_rejected_before_output(self, tiny_run, tmp_path, capsys,
                                                         command, flag, case):
        args = self._args(tiny_run, tmp_path, command)
        args[flag] = self._corrupt(args[flag], tmp_path / "bad.csv", case)
        code = run_cli(command, *(a for pair in args.items() for a in pair),
                       "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, "bad.csv")
        assert not (tmp_path / "o").exists()

    # every coordinate table: train's knots and sites, metrics' and preprocess's
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("command, flag", [
        ("train", "--knots"), ("train", "--sites"), ("metrics", "--coords"),
        ("preprocess", "--sites")])
    def test_non_finite_coordinate_rejected_before_output(self, tiny_run, tmp_path, capsys,
                                                          command, flag, value):
        args = self._args(tiny_run, tmp_path, command)
        bad = cli.read_coords_csv(str(args[flag]))
        bad[1, 0] = value
        args[flag] = tmp_path / "bad.csv"
        cli.write_coords_csv(str(args[flag]), bad, "site_id")
        code = run_cli(command, *(a for pair in args.items() for a in pair),
                       "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, f"bad.csv: value {value:.17g} at row 1, column 0")
        assert not (tmp_path / "o").exists()

    # every knot 1000 units away leaves each site's Wendland row empty: a
    # learnable W (which starts there) and a fixed W are refused before output
    @pytest.mark.parametrize("fixed_w", [False, True], ids=["learnable", "fixed-W"])
    def test_knots_out_of_range_rejected_before_output(self, tiny_run, tmp_path, capsys,
                                                       fixed_w):
        args = self._args(tiny_run, tmp_path, "train")
        far = cli.read_coords_csv(str(args["--knots"])) + 1000.0
        args["--knots"] = tmp_path / "far.csv"
        cli.write_coords_csv(str(args["--knots"]), far, "knot_id")
        code = run_cli("train", *(a for pair in args.items() for a in pair),
                       *(["--fixed-W"] if fixed_w else []), "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, "site(s) have no knot within radius")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sites", ["0,9999", "-1", "0,x", "1.5", "0,,2", "0,0"])
    @pytest.mark.parametrize("command", ["emulate", "counterfactual"])
    def test_bad_sites_rejected_before_compute(self, tiny_run, tmp_path, capsys,
                                               command, sites):
        root, cfg_path, sim, train, _ = tiny_run
        code = run_cli(command, "--config", cfg_path,
                       "--checkpoint", train / "checkpoint.json",
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--n-samples", 2, *(["--flip"] if command == "counterfactual"
                                           else []), "--sites", sites, "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, "--sites")
        assert not (tmp_path / "o").exists()

    # fields the model reads are finite and > 0; metrics' ranks need finite only
    @pytest.mark.parametrize("command, flag, value", [
        *((command, "--fields", value)
          for command in ("train", "emulate", "counterfactual")
          for value in (0.0, -1.0, np.nan, np.inf)),
        *(("metrics", flag, value) for flag in ("--truth", "--emulated")
          for value in (np.nan, np.inf))])
    def test_bad_field_cell_rejected_before_compute(self, tiny_run, tmp_path, capsys,
                                                    command, flag, value):
        root, cfg_path, sim, train, emu_dir = tiny_run
        files = {"--fields": sim / "fields.csv", "--truth": sim / "fields.csv",
                 "--emulated": emu_dir / "emulated_fields.csv"}
        bad = cli.read_matrix_csv(str(files[flag]))
        bad[3, 2] = value
        files[flag] = tmp_path / "bad.csv"
        cli.write_matrix_csv(str(files[flag]), bad, "site_")
        data = ["--fields", files["--fields"], "--conditions", sim / "conditions.csv"]
        extra = {
            "train": data,
            "emulate": ["--checkpoint", train / "checkpoint.json", *data],
            "counterfactual": ["--checkpoint", train / "checkpoint.json", *data, "--flip"],
            "metrics": ["--truth", files["--truth"], "--emulated", files["--emulated"],
                        "--coords", sim / "sites.csv"],
        }[command]
        code = run_cli(command, "--config", cfg_path, *extra, "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, f"bad.csv: value {value:.17g} at row 3, column 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "train", "emulate",
                                         "counterfactual", "metrics",
                                         "gradcheck", "tailcheck"])
    def test_negative_seed_rejected(self, tiny_run, tmp_path, capsys, command):
        root, cfg_path, sim, train, emu_dir = tiny_run
        data = ["--fields", sim / "fields.csv", "--conditions", sim / "conditions.csv"]
        extra = {
            "simulate": ["--desk"],
            "train": data,
            "emulate": ["--checkpoint", train / "checkpoint.json", *data],
            "counterfactual": ["--checkpoint", train / "checkpoint.json", *data,
                               "--flip"],
            "metrics": ["--truth", sim / "fields.csv",
                        "--emulated", emu_dir / "emulated_fields.csv",
                        "--coords", sim / "sites.csv"],
            "gradcheck": [], "tailcheck": [],
        }[command]
        out = [] if command in ("gradcheck", "tailcheck") else ["--out", tmp_path / "o"]
        code = run_cli(command, *extra, "--seed", -1, *out)
        self._one_line_exit_2(code, capsys, "seed")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid", ['[{"learning_rate": 1e-3},', '{"learning_rate": 1e-3}',
                                      '[1, 2]', '[{"no_such_key": 1}]',
                                      '[{"learning_rate": -1}]', '[{"epochs": -1}]',
                                      '[{"epochs": 2.5}]', '[{"seed": -1}]',
                                      '[{"latent_dim": 9}]',
                                      # HyperParams field names only
                                      '[{"checkpoint_path": "TMP/stray.json"}]',
                                      '[{"batch_size": 8}]', '[{"hyper.rho0": 0.2}]',
                                      # kinds as well as ranges
                                      '[{"pool_len": 0}]', '[{"fix_w": "no"}]',
                                      # the stability index is not a setting
                                      '[{"alpha": 0.5}]'])
    def test_malformed_grid_rejected(self, tiny_run, tmp_path, capsys, grid):
        root, cfg_path, sim, *_ = tiny_run
        (tmp_path / "grid.json").write_text(grid.replace("TMP", tmp_path.as_posix()))
        code = run_cli("train", "--config", cfg_path,
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--knots", sim / "knots.csv", "--sites", sim / "sites.csv",
                       "--grid", tmp_path / "grid.json", "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, "grid.json")
        assert [p.name for p in tmp_path.iterdir()] == ["grid.json"]


    @pytest.mark.parametrize("command, flags, edit, needle", [
        pytest.param("train", ["--epochs", -1], {}, "epochs", id="train --epochs -1"),
        pytest.param("train", ["--lr", -1], {}, "learning_rate", id="train --lr -1"),
        pytest.param("train", ["--lr", "nan"], {}, "learning_rate", id="train --lr nan"),
        pytest.param("train", [], {"hyper": {"epochs": -1}}, "epochs",
                     id="train hyper.epochs -1"),
        pytest.param("train", [], {"train": {"epochs": -1}}, "'train': ['epochs']",
                     id="train train.epochs -1"),
        # the run length and seed live in HyperParams only
        pytest.param("train", [], {"train": {"epochs": 10}}, "'train': ['epochs']",
                     id="train train.epochs 10"),
        pytest.param("train", [], {"hyper": {"seed": 5}}, "'hyper': ['seed']",
                     id="train hyper.seed 5"),
        # beta1, beta2 and adam_eps are unknown keys: Adam's constants are fixed
        *(pytest.param("train", [], {"train": {key: value}}, key,
                       id=f"train train.{key} {value}")
          for key, value in (("batch_size", 2.5), ("batch_size", 0), ("beta1", "x"),
                             ("beta1", 1.0), ("beta2", -0.1), ("adam_eps", -1),
                             ("adam_eps", float("nan")), ("checkpoint_every", -1))),
        # each hyperparameter's kind as well as its range
        *(pytest.param("train", [], {"hyper": {key: value}}, key,
                       id=f"train hyper.{key} {value}")
          for key, value in (("pool_len", 0), ("conv_channels", 8.0),
                             ("rho0", float("nan")), ("penalty_abs", "no"),
                             ("latent_dim", 4.0), ("mc_draws", 1.5),
                             ("enc_widths", [16.5]), ("learning_rate", True))),
        # with the geometry a fixed W needs, so that only the kind can fail
        pytest.param("train", ["--knots", "{sim}/knots.csv", "--sites", "{sim}/sites.csv"],
                     {"hyper": {"fix_w": "no"}}, "fix_w", id="train hyper.fix_w no"),
        pytest.param("train", ["--grid-epochs", 1], {}, "--grid-epochs",
                     id="train --grid-epochs without --grid"),
        pytest.param("train", ["--grid", "{grid}", "--grid-epochs", -1], {},
                     "--grid-epochs", id="train --grid-epochs -1"),
        pytest.param("emulate", ["--n-samples", 0], {}, "n_samples",
                     id="emulate --n-samples 0"),
        pytest.param("emulate", [], {"emulate": {"n_samples": 0}}, "n_samples",
                     id="emulate emulate.n_samples 0"),
        pytest.param("emulate", [], {"emulate": {"n_samples": True}}, "n_samples",
                     id="emulate emulate.n_samples true"),
        pytest.param("emulate", [], {"emulate": {"mode": "pri"}}, "mode",
                     id="emulate emulate.mode pri"),
        pytest.param("counterfactual", [], {"emulate": {"mode": "pri"}}, "mode",
                     id="counterfactual emulate.mode pri"),
        pytest.param("emulate", [], {"emulate": {"draw_data_noise": "no"}},
                     "draw_data_noise", id="emulate emulate.draw_data_noise no"),
        pytest.param("counterfactual", [], {"emulate": {"draw_latent_noise": 0}},
                     "draw_latent_noise", id="counterfactual emulate.draw_latent_noise 0"),
        pytest.param("tailcheck", ["--n", 0], {}, "--n", id="tailcheck --n 0"),
        pytest.param("tailcheck", ["--level", 1.5], {}, "--level",
                     id="tailcheck --level 1.5"),
        pytest.param("tailcheck", ["--level", 0], {}, "--level", id="tailcheck --level 0"),
        pytest.param("gradcheck", ["--tol", -1], {}, "--tol", id="gradcheck --tol -1"),
        pytest.param("gradcheck", ["--tol", "inf"], {}, "--tol", id="gradcheck --tol inf"),
        *(pytest.param("metrics", [], {"metrics": {key: value}}, key,
                       id=f"metrics metrics.{key} {value}")
          for key, value in (("ref_index", 999), ("ref_index", -1), ("n_boot", -1),
                             ("n_boot", 1.5), ("u", "abc"), ("u", [1.5]), ("u", []),
                             ("max_pairs", 0), ("tol", -1), ("distance", -1.0))),
    ])
    def test_bad_numeric_input_rejected_before_compute(self, tiny_run, tmp_path,
                                                       capsys, command, flags,
                                                       edit, needle):
        root, cfg_path, sim, train, emu_dir = tiny_run
        cfg = json.loads(cfg_path.read_text())
        for section, values in edit.items():
            cfg.setdefault(section, {}).update(values)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "grid.json").write_text('[{"rho0": 0.2}]')
        flags = [str(f).format(grid=tmp_path / "grid.json", sim=sim) for f in flags]
        data = ["--fields", sim / "fields.csv", "--conditions", sim / "conditions.csv"]
        extra = {
            "train": ["--config", tmp_path / "cfg.json", *data],
            "emulate": ["--config", tmp_path / "cfg.json",
                        "--checkpoint", train / "checkpoint.json", *data],
            "counterfactual": ["--config", tmp_path / "cfg.json",
                               "--checkpoint", train / "checkpoint.json", *data,
                               "--flip"],
            "metrics": ["--config", tmp_path / "cfg.json", "--truth", sim / "fields.csv",
                        "--emulated", emu_dir / "emulated_fields.csv",
                        "--coords", sim / "sites.csv"],
            "tailcheck": [], "gradcheck": [],
        }[command]
        out = [] if command in ("gradcheck", "tailcheck") else ["--out", tmp_path / "o"]
        code = run_cli(command, *extra, *flags, *out)
        self._one_line_exit_2(code, capsys, needle)
        assert not (tmp_path / "o").exists()

    def test_fixed_w_without_geometry_rejected(self, tiny_run, tmp_path, capsys):
        root, cfg_path, sim, *_ = tiny_run
        code = run_cli("train", "--config", cfg_path,
                       "--fields", sim / "fields.csv",
                       "--conditions", sim / "conditions.csv",
                       "--fixed-W", "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, "fix_w needs sites, knots")
        assert not (tmp_path / "o").exists()

    def test_paths_section_rejected(self, tmp_path, capsys):
        # nothing reads a "paths" section, so an output directory named there
        # would be ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1,
                                   "paths": {"out": str(tmp_path / "elsewhere")}}))
        code = run_cli("simulate", "--desk", "--config", cfg, "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, "'paths'")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("edit, needle", [
        ({"data": {"n_t": 2.0}}, "data n_t"),
        ({"emulate": {"mode": "pri"}}, "emulate mode"),
        ({"metrics": {"n_boot": 1.5}}, "metrics n_boot"),
        ({"metrics": {"u": []}}, "metrics u"),
        ({"hyper": {"latent_dim": 4.0}}, "hyper latent_dim"),
        ({"hyper": {"alpha": 0.5}}, "'hyper': ['alpha']"),
        ({"train": {"batch_size": 0}}, "train batch_size")],
        ids=["data.n_t 2.0", "emulate.mode pri", "metrics.n_boot 1.5", "metrics.u []",
             "hyper.latent_dim 4.0", "hyper.alpha 0.5", "train.batch_size 0"])
    @pytest.mark.parametrize("command", ["simulate", "train", "emulate",
                                         "counterfactual", "metrics"])
    def test_every_section_checked_by_every_command(self, tiny_run, tmp_path, capsys,
                                                    command, edit, needle):
        root, cfg_path, sim, train, emu_dir = tiny_run
        cfg = json.loads(cfg_path.read_text())
        for section, values in edit.items():
            cfg.setdefault(section, {}).update(values)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        data = ["--fields", sim / "fields.csv", "--conditions", sim / "conditions.csv"]
        extra = {
            "simulate": [],
            "train": data,
            "emulate": ["--checkpoint", train / "checkpoint.json", *data],
            "counterfactual": ["--checkpoint", train / "checkpoint.json", *data,
                               "--flip"],
            "metrics": ["--truth", sim / "fields.csv",
                        "--emulated", emu_dir / "emulated_fields.csv",
                        "--coords", sim / "sites.csv"],
        }[command]
        code = run_cli(command, "--config", tmp_path / "cfg.json", *extra,
                       "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, needle)
        assert not (tmp_path / "o").exists()

    def test_alpha_is_not_a_hyperparameter(self):
        # the stability index is distributions.STABILITY_INDEX; as a config
        # key or a grid entry it is unknown (see the two tests above)
        with pytest.raises(TypeError, match="alpha"):
            HyperParams(alpha=0.5)

    @pytest.mark.parametrize("command", ["emulate", "counterfactual"])
    def test_format_1_checkpoint_rejected(self, tiny_run, tmp_path, capsys, command):
        # format 1 also stored the seed and epoch count in an rng section, a
        # parameter count in meta and the stability index in hyper; formats 1
        # and 2 also stored model.sever_condition
        root, cfg_path, sim, train, _ = tiny_run
        for version in (1, 2):
            state = json.loads((train / "checkpoint.json").read_text())
            state["format_version"] = version
            state["model"]["sever_condition"] = False
            if version == 1:
                state["hyper"]["alpha"] = 0.5
                state["rng"] = {"seed": state["hyper"]["seed"],
                                "epochs_completed": len(state["meta"]["loss_history"])}
                state["meta"]["n_params"] = sum(math.prod(shape)
                                                for *_, shape in state["param_layout"])
            (tmp_path / "old.json").write_text(json.dumps(state))
            code = run_cli(command, "--config", cfg_path,
                           "--checkpoint", tmp_path / "old.json",
                           "--fields", sim / "fields.csv",
                           "--conditions", sim / "conditions.csv",
                           *(["--flip"] if command == "counterfactual" else []),
                           "--out", tmp_path / "o")
            self._one_line_exit_2(code, capsys, f"format {version}")
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("rows", 0), ("n_t", -5), ("alpha0", -1),
                                            ("wendland_radius", 0), ("knot_side", 0),
                                            ("tau", 0)])
    def test_bad_data_config_rejected_before_simulate(self, tmp_path, capsys, key,
                                                       value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "data": {key: value}}))
        code = run_cli("simulate", "--desk", "--config", cfg, "--out", tmp_path / "o")
        self._one_line_exit_2(code, capsys, f"data {key}")
        assert not (tmp_path / "o").exists()


def _malform(state, data):
    """Delete a key the model needs, swap two layout names, or change one
    layout shape; returns a description of the edit."""
    kind = data.draw(st.sampled_from(["delete", "swap", "shape"]))
    layout = state["param_layout"]
    if kind == "delete":
        keys = ([(k,) for k in ("format_version", "hyper", "model", "param_layout",
                               "params")]
                + [("hyper", k) for k in state["hyper"]]
                + [("model", k) for k in state["model"]])
        path = data.draw(st.sampled_from(keys))
        block = state
        for key in path[:-1]:
            block = block[key]
        del block[path[-1]]
        return "delete " + ".".join(path)
    i, j = data.draw(st.lists(st.integers(0, len(layout) - 1), min_size=2,
                              max_size=2, unique=True))
    if kind == "swap":
        layout[i][0], layout[j][0] = layout[j][0], layout[i][0]
        return f"swap {layout[i][0]} and {layout[j][0]}"
    shape = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=3)
                      .filter(lambda s: s != layout[i][2]))
    layout[i][2] = shape
    return f"shape of {layout[i][0]} -> {shape}"


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_checkpoint_exits_2(tiny_run, tmp_path_factory, capsys, data):
    """A checkpoint that does not match its model is one stderr line and
    exit 2, never a traceback or a numerical error."""
    root, cfg_path, sim, train, _ = tiny_run
    state = json.loads((train / "checkpoint.json").read_text())
    edit = _malform(state, data)
    work = tmp_path_factory.mktemp("ckpt")
    (work / "checkpoint.json").write_text(json.dumps(state))
    capsys.readouterr()
    code = run_cli("emulate", "--config", cfg_path,
                   "--checkpoint", work / "checkpoint.json",
                   "--fields", sim / "fields.csv",
                   "--conditions", sim / "conditions.csv",
                   "--n-samples", 2, "--out", work / "o")
    err = capsys.readouterr().err
    assert code == 2, (edit, err)
    assert err.count("\n") == 1 and "Traceback" not in err, (edit, err)


# ---------------------------------------------------------------------------
# which scipy modules each command loads
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
SCIPY_USED = ("scipy.optimize", "scipy.special", "scipy.stats")
# runs argv (if any) through cli.main in a fresh interpreter, then prints the
# exit code and every scipy module loaded
_LOADED = """
import json, sys
from extvae import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_loaded(*argv) -> tuple[int, list[str]]:
    """The exit code of a fresh process running ``extvae argv`` and the scipy
    modules it loaded."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, modules


def _command_argv(command, tiny_run, tmp_path) -> list:
    root, cfg_path, sim, train, emu_dir = tiny_run
    out = ["--out", tmp_path / "out"]
    if command == "preprocess":
        return ["preprocess", *TestPreprocess._write_inputs(tmp_path),
                "--start-date", "2015-01-01", *out]
    data = ["--fields", sim / "fields.csv", "--conditions", sim / "conditions.csv"]
    post = ["--config", cfg_path, "--checkpoint", train / "checkpoint.json", *data,
            "--n-samples", 2, *out]
    return {
        "import": [],
        "simulate": ["simulate", "--config", cfg_path, *out],
        "train": ["train", "--config", cfg_path, *data, "--knots", sim / "knots.csv",
                  "--sites", sim / "sites.csv", "--epochs", 1, *out],
        "emulate": ["emulate", *post],
        "counterfactual": ["counterfactual", "--flip", *post],
        "metrics": ["metrics", "--truth", sim / "fields.csv",
                    "--emulated", emu_dir / "emulated_fields.csv",
                    "--coords", sim / "sites.csv",
                    "--ensemble", emu_dir / "ensemble.csv", *out],
        "gradcheck": ["gradcheck", "--seed", 0],
        "tailcheck": ["tailcheck", "--seed", 0],
    }[command]


# the scipy modules each command loads; () means no scipy module at all
SCIPY_BY_COMMAND = {
    "import": (), "simulate": (), "train": (), "metrics": (), "gradcheck": (),
    "tailcheck": (), "emulate": ("scipy.special",),
    "counterfactual": ("scipy.special",), "preprocess": SCIPY_USED,
}


@pytest.mark.parametrize("command", list(SCIPY_BY_COMMAND))
def test_each_command_loads_only_the_scipy_it_runs(tiny_run, tmp_path, command):
    """`import extvae.cli` loads no scipy, and a command loads only the scipy
    modules it calls: ndtri for the latent draws, the optimiser and the
    chi-square law for the preprocessing fits."""
    code, modules = scipy_loaded(*_command_argv(command, tiny_run, tmp_path))
    used = SCIPY_BY_COMMAND[command]
    assert code == 0
    assert tuple(m for m in SCIPY_USED if m in modules) == used
    if not used:
        assert modules == []
