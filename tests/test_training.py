import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from extvae import fieldsim as fs
from extvae import model as mdl
from extvae import training as tr


@pytest.fixture(scope="module")
def tiny_problem():
    grid = fs.regular_grid(5, 5, 20.0)
    knots = fs.knot_lattice(2, 20.0)
    w = fs.wendland_basis(grid.sites, knots, 25.0)
    c = fs.smooth_condition(fs.synthetic_condition(30, 3))
    theta = fs.simulate_theta(c, knots)
    x = fs.simulate_dataset(theta, w, 30.0, seed=3)
    hyper = mdl.HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                            enc_widths=(16,), alpha0=30.0, rho0=0.1,
                            penalty_abs=True, seed=3)
    return grid, knots, x, c, hyper


class TestTrain:
    def test_zero_epochs_returns_init(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=0))
        model, report = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                                 wendland_radius=25.0)
        init = mdl.init_params(model.config, cfg.hyper.seed)
        assert np.array_equal(model.params.data, init.data)
        assert report.loss_history == []

    def test_deterministic_histories(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=15))
        _, r1 = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                         wendland_radius=25.0)
        _, r2 = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                         wendland_radius=25.0)
        assert r1.loss_history == r2.loss_history

    def test_loss_decreases(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=120))
        _, report = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                             wendland_radius=25.0)
        assert report.loss_history[-1] < report.loss_history[0]

    def test_minibatch_path(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=4), batch_size=8)
        model, report = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                                 wendland_radius=25.0)
        assert len(report.loss_history) == 4
        assert np.all(np.isfinite(model.params.data))

    def test_param_count_independent_of_time(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=1))
        m1, r1 = tr.train(x[:10], c[:10], cfg, knots=knots, sites=grid.sites,
                          wendland_radius=25.0)
        m2, r2 = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                          wendland_radius=25.0)
        assert m1.params.size == m2.params.size

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", 2.5), ("beta1", 1.0), ("beta1", "x"),
        ("beta2", -0.1), ("adam_eps", 0.0), ("adam_eps", np.inf),
        ("checkpoint_every", -1), ("checkpoint_every", True)])
    def test_config_fields_checked(self, field, value):
        # the Adam constants are not TrainConfig fields: an unknown keyword
        retired = field in ("beta1", "beta2", "adam_eps")
        with pytest.raises(TypeError if retired else ValueError, match=field):
            tr.TrainConfig(**{field: value})

    def test_validation_errors(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=1))
        with pytest.raises(ValueError):
            tr.train(-x, c, cfg)
        with pytest.raises(ValueError):
            tr.train(x, c[:-1], cfg)


def candidates(base, *grid):
    """The grid's configs as ``extvae train --grid`` builds them."""
    return [tr.apply_overrides(base, overrides) for overrides in grid]


class TestGridSearch:
    def test_single_candidate(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        base = tr.TrainConfig(hyper=replace(hyper, epochs=3))
        best, scores = tr.grid_search(x, c, candidates(base, {"learning_rate": 5e-4}),
                                      knots=knots, sites=grid.sites,
                                      wendland_radius=25.0)
        assert best.hyper.learning_rate == 5e-4
        assert len(scores) == 1

    def test_tie_keeps_first(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        base = tr.TrainConfig(hyper=replace(hyper, epochs=3))
        grid_spec = candidates(base, {"learning_rate": 1e-3}, {"learning_rate": 1e-3})
        best, scores = tr.grid_search(x, c, grid_spec, knots=knots,
                                      sites=grid.sites, wendland_radius=25.0)
        assert scores[0] == scores[1]
        assert best.hyper.learning_rate == 1e-3

    def test_absurd_rate_scores_worse(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        base = tr.TrainConfig(hyper=replace(hyper, epochs=25))
        best, scores = tr.grid_search(
            x, c, candidates(base, {"learning_rate": 1e-3}, {"learning_rate": 1e3}),
            knots=knots, sites=grid.sites, wendland_radius=25.0)
        assert best.hyper.learning_rate == 1e-3
        assert scores[1] > scores[0] or not np.isfinite(scores[1])

    def test_search_epochs_shorten_only_the_search(self, tiny_problem):
        grid, knots, x, c, hyper = tiny_problem
        base = tr.TrainConfig(hyper=replace(hyper, epochs=5))
        best, scores = tr.grid_search(x, c, candidates(base, {"rho0": 0.2}),
                                      search_epochs=2, knots=knots, sites=grid.sites,
                                      wendland_radius=25.0)
        assert best.hyper == replace(hyper, epochs=5, rho0=0.2)
        _, short = tr.train(x, c, tr.TrainConfig(hyper=replace(best.hyper, epochs=2)),
                            knots=knots, sites=grid.sites, wendland_radius=25.0)
        assert scores == [short.loss_history[-1]]

    def test_empty_grid_rejected(self, tiny_problem):
        _, _, x, c, _ = tiny_problem
        with pytest.raises(ValueError):
            tr.grid_search(x, c, [])

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError):
            tr.apply_overrides(tr.TrainConfig(), {"nope": 1})
        for retired in ({"hyper.rho0": 0.2}, {"batch_size": 8},
                        {"checkpoint_path": "x.json"}):
            with pytest.raises(KeyError):
                tr.apply_overrides(tr.TrainConfig(), retired)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=10))
        model, report = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                                 wendland_radius=25.0)
        path = tmp_path / "ckpt.json"
        tr.checkpoint_save(path, model, loss_history=report.loss_history)
        loaded = tr.checkpoint_load(path)
        assert np.array_equal(loaded.params.data, model.params.data)
        assert loaded.config.hyper == model.config.hyper
        np.testing.assert_array_equal(loaded.config.phi, model.config.phi)

    def test_round_trip_reproduces_emulation(self, tiny_problem, tmp_path):
        from extvae import emulation as emu

        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=5))
        model, _ = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                            wendland_radius=25.0)
        path = tmp_path / "ckpt.json"
        tr.checkpoint_save(path, model)
        loaded = tr.checkpoint_load(path)
        a = emu.emulate(model, x, c, n_samples=3, seed=77)
        b = emu.emulate(loaded, x, c, n_samples=3, seed=77)
        assert np.array_equal(a.samples, b.samples)

    def test_loaded_params_reproduce_final_loss(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        cfg = tr.TrainConfig(hyper=replace(hyper, epochs=12))
        model, report = tr.train(x, c, cfg, knots=knots, sites=grid.sites,
                                 wendland_radius=25.0)
        path = tmp_path / "ckpt.json"
        tr.checkpoint_save(path, model, loss_history=report.loss_history)
        loaded = tr.checkpoint_load(path)
        # the last epoch's loss was evaluated at the pre-update parameters;
        # re-run the final step from the stored state instead
        cfg13 = tr.TrainConfig(hyper=replace(hyper, epochs=13))
        resumed, rep2 = tr.train(x, c, cfg13, resume_from=str(path))
        straight, rep3 = tr.train(x, c, cfg13, knots=knots,
                                  sites=grid.sites, wendland_radius=25.0)
        assert rep2.loss_history[-1] == pytest.approx(rep3.loss_history[-1],
                                                      rel=1e-12)

    def test_resume_equals_uninterrupted(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        path = tmp_path / "ckpt.json"
        cfg10 = tr.TrainConfig(hyper=replace(hyper, epochs=10), checkpoint_every=10,
                               checkpoint_path=str(path))
        m10, r10 = tr.train(x, c, cfg10, knots=knots, sites=grid.sites,
                            wendland_radius=25.0)
        cfg20 = tr.TrainConfig(hyper=replace(hyper, epochs=20))
        m20, r20 = tr.train(x, c, cfg20, knots=knots, sites=grid.sites,
                            wendland_radius=25.0)
        resumed, rr = tr.train(x, c, cfg20, resume_from=str(path))
        assert np.array_equal(resumed.params.data, m20.params.data)
        assert rr.loss_history == r20.loss_history

    def test_each_value_stored_once(self, tiny_problem, tmp_path):
        # the seed is hyper.seed and the epochs completed are the history's
        # length; no stream section, parameter count or stability index
        grid, knots, x, c, hyper = tiny_problem
        path = tmp_path / "ckpt.json"
        tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=3),
                                      checkpoint_path=str(path)),
                 knots=knots, sites=grid.sites, wendland_radius=25.0)
        state = json.loads(path.read_text())
        assert state["format_version"] == tr.CHECKPOINT_FORMAT_VERSION == 3
        assert sorted(state) == ["adam", "format_version", "hyper", "meta", "model",
                                 "param_layout", "params"]
        assert list(state["meta"]) == ["loss_history"]
        assert len(state["meta"]["loss_history"]) == 3
        assert state["hyper"] == json.loads(json.dumps(asdict(replace(hyper, epochs=3))))
        assert "alpha" not in state["hyper"]

    def test_resume_keeps_the_checkpoint_hyperparameters(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        path = tmp_path / "ckpt.json"
        tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=2),
                                      checkpoint_path=str(path)),
                 knots=knots, sites=grid.sites, wendland_radius=25.0)
        for other in (replace(hyper, epochs=4, seed=4),
                      replace(hyper, epochs=4, learning_rate=5e-4)):
            with pytest.raises(ValueError, match="checkpoint"):
                tr.train(x, c, tr.TrainConfig(hyper=other), resume_from=str(path))

    def test_resume_past_the_epoch_count_rejected(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        path = tmp_path / "ckpt.json"
        tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=6),
                                      checkpoint_path=str(path)),
                 knots=knots, sites=grid.sites, wendland_radius=25.0)
        before = path.read_bytes()
        short = tr.TrainConfig(hyper=replace(hyper, epochs=3), checkpoint_path=str(path))
        with pytest.raises(ValueError, match="6 epochs, more than the 3"):
            tr.train(x, c, short, resume_from=str(path))
        assert path.read_bytes() == before
        # a checkpoint that holds exactly the epochs asked for trains nothing more
        _, report = tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=6)),
                             resume_from=str(path))
        assert len(report.loss_history) == 6

    def test_truncated_file_rejected(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        model, _ = tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=1)),
                            knots=knots, sites=grid.sites, wendland_radius=25.0)
        path = tmp_path / "ckpt.json"
        tr.checkpoint_save(path, model)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        with pytest.raises(tr.CheckpointError):
            tr.checkpoint_load(path)

    def test_version_mismatch_rejected(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        model, _ = tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=1)),
                            knots=knots, sites=grid.sites, wendland_radius=25.0)
        path = tmp_path / "ckpt.json"
        tr.checkpoint_save(path, model)
        state = json.loads(path.read_text())
        state["format_version"] = 99
        path.write_text(json.dumps(state))
        with pytest.raises(tr.CheckpointError, match="format"):
            tr.checkpoint_load(path)

    def test_corrupt_payload_rejected(self, tiny_problem, tmp_path):
        grid, knots, x, c, hyper = tiny_problem
        model, _ = tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=1)),
                            knots=knots, sites=grid.sites, wendland_radius=25.0)
        path = tmp_path / "ckpt.json"
        tr.checkpoint_save(path, model)
        state = json.loads(path.read_text())
        state["params"]["data"] = state["params"]["data"][:16]
        path.write_text(json.dumps(state))
        with pytest.raises(tr.CheckpointError):
            tr.checkpoint_load(path)


class TestTrainingProgress:
    def test_desk_scale_smoothed_loss_improves(self, desk_models):
        # window-20 smoothed epoch loss must drop between epochs 20 and 400
        hist = np.asarray(desk_models["report"].loss_history)
        assert hist.size >= 400
        smooth = np.convolve(hist, np.ones(20) / 20.0, mode="valid")
        # smooth[i] averages epochs i..i+19: windows ending at epochs 400 and 20
        assert smooth[380] < smooth[0]


class TestAdam:
    def test_bias_correction_first_step(self):
        adam = tr.AdamState.zeros(2)
        params = np.zeros(2)
        grad = np.array([1.0, -2.0])
        out = adam.update(params, grad, lr=0.1)
        # after bias correction the first step is -lr * sign(grad)
        np.testing.assert_allclose(out, [-0.1, 0.1], atol=1e-7)

    def test_in_place_steps_keep_the_formula_bits(self):
        rng = np.random.default_rng(299)
        n, lr = 1000, 1e-3
        grads = [np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-8, 3, n)
                 for _ in range(9)]
        for g in grads[:3]:
            g[:4] = [-0.0, 0.0, -1e-8, 1e3]
        params = rng.standard_normal(n)
        m, v, ref = np.zeros(n), np.zeros(n), params
        for step, g in enumerate(grads, start=1):        # the out-of-place formula
            m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
            v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * g**2
            m_hat = m / (1.0 - tr.ADAM_BETA1**step)
            v_hat = v / (1.0 - tr.ADAM_BETA2**step)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
        adam, out = tr.AdamState.zeros(n), params
        for g in grads[:5]:
            new = adam.update(out, g, lr)
            assert not np.shares_memory(new, out)
            assert not np.shares_memory(new, adam.m) and not np.shares_memory(new, adam.v)
            out = new
        # a resume starts from the checkpoint's copies of m and v
        adam = tr.AdamState(m=tr._decode_array(tr._encode_array(adam.m)),
                            v=tr._decode_array(tr._encode_array(adam.v)), step=adam.step)
        for g in grads[5:]:
            out = adam.update(out, g, lr)
        assert adam.step == len(grads)
        assert out.tobytes() == ref.tobytes()
        assert (adam.m.tobytes(), adam.v.tobytes()) == (m.tobytes(), v.tobytes())

    def test_convergence_flag_logic(self):
        flat = [1.0] * 60
        assert tr._is_converged(flat)
        trending = list(np.linspace(2.0, 1.0, 60))
        assert not tr._is_converged(trending)
        assert not tr._is_converged([1.0] * 10)


# a 20-epoch full-batch desk fit after a 3-epoch warm-up, with or without the
# CLI's allocator policy; prints the fit's minor page faults and parameter hash
_DESK_FIT = """
import hashlib, json, resource, sys
from dataclasses import replace
from extvae import cli, fieldsim as fs, model as mdl, training as tr
if sys.argv[1] == "held":
    assert cli._hold_heap()
grid = fs.regular_grid(20, 20, 20.0)
knots = fs.knot_lattice(4, 20.0)
c = fs.smooth_condition(fs.synthetic_condition(200, 2026))
x = fs.simulate_dataset(fs.simulate_theta(c, knots),
                        fs.wendland_basis(grid.sites, knots, 6.0), 30.0, 2026)
hyper = mdl.HyperParams(latent_dim=16, n_theta_basis=9, seed=2026, rho0=0.1,
                        penalty_abs=True)
def fit(epochs):
    return tr.train(x, c, tr.TrainConfig(hyper=replace(hyper, epochs=epochs)),
                    knots=knots, sites=grid.sites, wendland_radius=6.0)[0]
fit(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
model = fit(20)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults,
                  "params": hashlib.sha256(model.params.data.tobytes()).hexdigest()}))
"""


class TestAllocatorPolicy:
    def test_held_heap_stops_faults_and_moves_no_bits(self):
        from extvae import cli

        if not cli._hold_heap():
            pytest.skip("this libc has no mallopt")
        src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        runs = {}
        for mode in ("held", "default"):
            done = subprocess.run([sys.executable, "-c", _DESK_FIT, mode], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=300)
            runs[mode] = json.loads(done.stdout.splitlines()[-1])
        assert runs["held"]["params"] == runs["default"]["params"]
        assert runs["held"]["faults"] < 500 * 20, runs
