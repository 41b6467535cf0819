"""The four workloads: what each sets up, times and checks.

Every workload drives ``extvae.cli.main`` in-process, so CSV parsing,
ensemble writing, checkpoint JSON and manifest hashing are all paid for as a
user pays for them.  ``quick`` shrinks each one to a few seconds with the
same commands and the same checks.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import json
import math
import os
import time

import numpy as np

import checks as ck
from extvae import cli
from extvae import emulation as emu
from extvae import metrics as mx
from extvae import model as mdl
from extvae import training as tr
from extvae.autodiff import ArrayView, value_and_gradient

DESK_SITES = "0,17,250"


class CommandFailed(RuntimeError):
    pass


class Run:
    """One workload run: its directory, seed, operation counts and the
    command walls of the current round."""

    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.tracer = None            # set only for the traced round
        self.attempted = 0
        self.failed = 0
        self.commands: list[tuple[str, float]] = []
        self.hashes: list[dict] = []
        self.check_log: list[dict] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def write_json(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli(self, *argv, out: str) -> float:
        """Run one extvae command writing into ``out``; returns its wall."""
        argv = [str(a) for a in argv] + ["--out", self.path(out)]
        self.attempted += 1
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                rc = self.tracer.span(f"command.{argv[0]}", cli.main, argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            raise CommandFailed(f"extvae {' '.join(argv)} exited {rc}")
        self.commands.append((argv[0], wall))
        self.hashes.append(ck.read_manifest(self.path(out, "manifest.json"))["outputs"])
        return wall

    def check(self, name: str, fn) -> bool:
        self.attempted += 1
        try:
            detail = fn()
        except Exception as err:  # a failing check is reported, not raised
            self.failed += 1
            self.check_log.append({"check": name, "ok": False,
                                   "detail": f"{type(err).__name__}: {err}"})
            return False
        self.check_log.append({"check": name, "ok": True, "detail": detail or ""})
        return True


def _time_plain_objective(model, x, c, batch, seed, repeats: int = 5) -> float:
    """Median ms of the objective evaluated in plain numpy (ArrayView)."""
    cfg = model.config
    eps = mdl.draw_eps(cfg, x.shape[0], seed)
    view = ArrayView(model.params)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mdl.penalized_elbo(cfg, view, x, c, eps, batch=batch)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


# ---------------------------------------------------------------------------
# desk-fit
# ---------------------------------------------------------------------------

class DeskFit:
    """simulate --desk in set-up; train --desk full batch is timed."""

    name = "desk-fit"

    def __init__(self, quick: bool):
        self.epochs = 10 if quick else 100

    def _train(self, run: Run, epochs: int, out: str) -> float:
        sim = run.path("sim")
        return run.cli("train", "--desk", "--seed", run.seed,
                       "--fields", f"{sim}/fields.csv",
                       "--conditions", f"{sim}/conditions.csv",
                       "--knots", f"{sim}/knots.csv", "--sites", f"{sim}/sites.csv",
                       "--epochs", epochs, out=out)

    def setup(self, run: Run) -> None:
        run.cli("simulate", "--desk", "--seed", run.seed, out="sim")
        self._train(run, 2, "warm")

    def round(self, run: Run) -> dict[str, float]:
        wall = self._train(run, self.epochs, "fit")
        n_t = ck.read_series(run.path("sim", "conditions.csv")).size
        return {"train_timesteps_per_s": self.epochs * n_t / wall}

    def probe(self, run: Run) -> dict[str, float]:
        model = tr.checkpoint_load(run.path("fit", "checkpoint.json"))
        x = ck.read_wide(run.path("sim", "fields.csv"))
        c = ck.read_series(run.path("sim", "conditions.csv"))
        return {"penalized_elbo_ms": _time_plain_objective(model, x, c, None, run.seed)}

    def checks(self, run: Run) -> None:
        ckpt = run.path("fit", "checkpoint.json")
        run.check("loss history finite and decreasing",
                  lambda: ck.loss_history(run.path("fit", "train_report.csv")))

        def gradient():
            model = tr.checkpoint_load(ckpt)
            cfg = model.config
            ck.require(cfg.hyper.penalty_abs, "the desk preset no longer trains penalty_abs")
            x = ck.read_wide(run.path("sim", "fields.csv"))
            c = ck.read_series(run.path("sim", "conditions.csv"))
            eps = mdl.draw_eps(cfg, x.shape[0], run.seed)

            def loss(p):
                return -mdl.penalized_elbo(cfg, p, x, c, eps) / float(x.shape[0])

            return ck.gradient_agrees(loss, model.params, value_and_gradient,
                                      ArrayView, run.seed)

        run.check("tape gradient matches central differences (penalty_abs)", gradient)
        run.check("checkpoint reload is bit-exact",
                  lambda: ck.checkpoint_roundtrip(
                      ckpt, tr.checkpoint_load,
                      lambda p, m: tr.checkpoint_save(p, m),
                      run.path("roundtrip.json")))


# ---------------------------------------------------------------------------
# desk-ensemble
# ---------------------------------------------------------------------------

class DeskEnsemble:
    """Set-up simulates and fits; emulate, prior-mode counterfactual, a
    full-grid emulate and metrics --ensemble are timed."""

    name = "desk-ensemble"

    def __init__(self, quick: bool):
        self.fit_epochs = 10 if quick else 30
        self.members = 8 if quick else 60
        self.n_boot = 2 if quick else 10
        self.prefix = 3 if quick else 5

    def _ens(self, run: Run, cmd: str, n: int, out: str, *extra) -> float:
        sim = run.path("sim")
        return run.cli(cmd, "--seed", run.seed,
                       "--checkpoint", run.path("fit", "checkpoint.json"),
                       "--fields", f"{sim}/fields.csv",
                       "--conditions", f"{sim}/conditions.csv",
                       "--n-samples", n, *extra, out=out)

    def _metrics(self, run: Run, cfg: str, out: str) -> float:
        sim = run.path("sim")
        return run.cli("metrics", "--config", cfg, "--seed", run.seed,
                       "--truth", f"{sim}/fields.csv",
                       "--emulated", run.path("field", "emulated_fields.csv"),
                       "--coords", f"{sim}/sites.csv",
                       "--ensemble", run.path("emu", "ensemble.csv"), out=out)

    def setup(self, run: Run) -> None:
        sim = run.path("sim")
        run.cli("simulate", "--desk", "--seed", run.seed, out="sim")
        run.cli("train", "--desk", "--seed", run.seed,
                "--fields", f"{sim}/fields.csv", "--conditions", f"{sim}/conditions.csv",
                "--knots", f"{sim}/knots.csv", "--sites", f"{sim}/sites.csv",
                "--epochs", self.fit_epochs, out="fit")
        run.write_json("prior.json", {"emulate": {"mode": "prior"}})
        run.write_json("metrics.json", {"metrics": {"n_boot": self.n_boot}})
        run.write_json("warm.json", {"metrics": {"n_boot": 1}})
        # warm-up: every timed command once at two members
        self._ens(run, "emulate", 2, "emu", "--sites", DESK_SITES)
        self._ens(run, "counterfactual", 2, "cf", "--flip", "--config",
                  run.path("prior.json"), "--sites", DESK_SITES)
        self._ens(run, "emulate", 1, "field")
        self._metrics(run, run.path("warm.json"), "met")

    def round(self, run: Run) -> dict[str, float]:
        n = self.members
        emu_s = self._ens(run, "emulate", n, "emu", "--sites", DESK_SITES)
        cf_s = self._ens(run, "counterfactual", n, "cf", "--flip", "--config",
                         run.path("prior.json"), "--sites", DESK_SITES)
        self._ens(run, "emulate", 1, "field")
        diag_s = self._metrics(run, run.path("metrics.json"), "met")
        return {"emulate_samples_per_s": n / emu_s,
                "counterfactual_samples_per_s": n / cf_s,
                "diagnostics_s": diag_s}

    def probe(self, run: Run) -> dict[str, float]:
        return {}

    def checks(self, run: Run) -> None:
        sim = run.path("sim")
        state = {}

        def load():
            state["ens"], state["sites"] = ck.read_long_ensemble(run.path("emu", "ensemble.csv"))
            cf, _ = ck.read_long_ensemble(run.path("cf", "ensemble.csv"))
            ck.require(state["ens"].shape[2] == self.members == cf.shape[2],
                       "ensembles do not hold the requested members")
            for name, arr in (("factual", state["ens"]), ("counterfactual", cf)):
                ck.require(bool(np.all(np.isfinite(arr)) and np.all(arr > 0)),
                           f"{name} samples are not positive and finite")
            return "x".join(map(str, cf.shape)) + " per scenario"

        if not run.check("ensemble samples positive and finite", load):
            return
        x = ck.read_wide(f"{sim}/fields.csv")
        c = ck.read_series(f"{sim}/conditions.csv")
        model = tr.checkpoint_load(run.path("fit", "checkpoint.json"))
        head = state["ens"][:, :, : self.prefix]
        sites = state["sites"]

        def prefix():
            k = emu.emulate(model, x, c, self.prefix, run.seed, sites=sites)
            ck.require(k.samples.tobytes() == np.ascontiguousarray(head).tobytes(),
                       f"a {self.prefix}-member run differs from the first members")

        def identity():
            cf = emu.counterfactual(model, x, c, c.copy(), self.prefix, run.seed, sites=sites)
            ck.require(cf.samples.tobytes() == np.ascontiguousarray(head).tobytes(),
                       "a counterfactual under the factual series differs")

        def twcrps():
            scores = ck.read_twcrps(run.path("met", "twcrps.csv"))
            rng = np.random.default_rng([run.seed, 202])
            for _ in range(6):
                t = int(rng.integers(x.shape[0]))
                j = int(rng.integers(sites.size))
                ck.close(scores[(t, int(sites[j]))],
                         ck.twcrps_kernel(state["ens"][t, j], x[t, sites[j]]),
                         f"twCRPS at t={t}, site {sites[j]}")
            return "6 cells"

        run.check("first members equal a shorter run (chunk invariance)", prefix)
        run.check("counterfactual under the factual series equals emulation", identity)
        run.check("twCRPS equals its kernel form", twcrps)
        _dependence_checks(run, x, ck.read_wide(run.path("field", "emulated_fields.csv")),
                           ck.read_coords(f"{sim}/sites.csv"), run.path("met"))


def _dependence_checks(run: Run, truth, emulated, coords, met_dir: str) -> None:
    u = 0.9
    psi = ck.grid_spacing(coords)

    def compare():
        pairs = mx.select_pairs(coords, psi, psi / 2.0, mx.MAX_PAIRS_PER_BIN, run.seed)
        for name, fields in (("truth", truth), ("emulated", emulated)):
            ck.close(ck.read_curve(os.path.join(met_dir, f"chi_{name}.csv"), u),
                     ck.chi_at(fields, coords, pairs, u), f"chi_{name}({u})")
            ck.close(ck.read_curve(os.path.join(met_dir, f"are_{name}.csv"), u),
                     ck.are_at(fields, coords, u), f"ARE_{name}({u})")
        return f"{len(pairs)} pairs at u = {u}"

    run.check("chi and ARE point estimates match ranks", compare)


# ---------------------------------------------------------------------------
# grid50-pipeline
# ---------------------------------------------------------------------------

QUICK_GRID = {"data": {"rows": 12, "cols": 12, "knot_side": 3,
                       "wendland_radius": 8.0, "n_t": 80},
              "hyper": {"latent_dim": 9, "n_theta_basis": 4},
              "train": {"batch_size": 32}}


class Grid50Pipeline:
    """The 50x50 default preset end to end: simulate, minibatch train, a
    full-grid emulate and metrics, all timed."""

    name = "grid50-pipeline"

    def __init__(self, quick: bool):
        self.quick = quick
        self.epochs = 1 if quick else 3
        self.members = 1
        self.n_boot = 2 if quick else 5

    def _config(self, run: Run, n_boot: int, name: str) -> str:
        doc = dict(QUICK_GRID) if self.quick else {}
        doc["metrics"] = {"n_boot": n_boot}
        return run.write_json(name, doc)

    def _pipeline(self, run: Run, cfg: str, epochs: int, members: int,
                  desk: bool) -> dict[str, float]:
        sim = run.path("sim")
        preset = ("--desk",) if desk else ()
        sim_s = run.cli("simulate", *preset, "--config", cfg, "--seed", run.seed, out="sim")
        train_s = run.cli("train", *preset, "--config", cfg, "--seed", run.seed,
                          "--fields", f"{sim}/fields.csv",
                          "--conditions", f"{sim}/conditions.csv",
                          "--knots", f"{sim}/knots.csv", "--sites", f"{sim}/sites.csv",
                          "--epochs", epochs, out="fit")
        emu_s = run.cli("emulate", "--seed", run.seed,
                        "--checkpoint", run.path("fit", "checkpoint.json"),
                        "--fields", f"{sim}/fields.csv",
                        "--conditions", f"{sim}/conditions.csv",
                        "--n-samples", members, out="emu")
        diag_s = run.cli("metrics", "--config", cfg, "--seed", run.seed,
                         "--truth", f"{sim}/fields.csv",
                         "--emulated", run.path("emu", "emulated_fields.csv"),
                         "--coords", f"{sim}/sites.csv", out="met")
        n_t = ck.read_series(f"{sim}/conditions.csv").size
        return {"simulate_s": sim_s,
                "train_timesteps_per_s": epochs * n_t / train_s,
                "emulate_samples_per_s": members / emu_s,
                "diagnostics_s": diag_s}

    def setup(self, run: Run) -> None:
        # warm-up: the same four commands at desk size
        self._pipeline(run, self._config(run, 1, "warm.json"), 1, 1, desk=True)
        self._config(run, self.n_boot, "grid.json")

    def round(self, run: Run) -> dict[str, float]:
        return self._pipeline(run, run.path("grid.json"), self.epochs,
                              self.members, desk=False)

    def probe(self, run: Run) -> dict[str, float]:
        model = tr.checkpoint_load(run.path("fit", "checkpoint.json"))
        x = ck.read_wide(run.path("sim", "fields.csv"))
        c = ck.read_series(run.path("sim", "conditions.csv"))
        batch = np.sort(np.random.default_rng(run.seed).permutation(x.shape[0])[:tr.MINIBATCH_SIZE])
        return {"penalized_elbo_ms": _time_plain_objective(model, x, c, batch, run.seed)}

    def checks(self, run: Run) -> None:
        sim = run.path("sim")
        data_cfg = ck.read_manifest(f"{sim}/manifest.json")["config"]["data"]
        x = ck.read_wide(f"{sim}/fields.csv")
        z = ck.read_wide(f"{sim}/latent_truth.csv")
        theta = ck.read_wide(f"{sim}/theta_truth.csv")
        emulated = ck.read_wide(run.path("emu", "emulated_fields.csv"))

        def emulated_ok():
            ck.require(emulated.shape == x.shape, "emulated field is not full-grid")
            ck.require(bool(np.all(np.isfinite(emulated)) and np.all(emulated > 0)),
                       "emulated field is not positive and finite")

        def noise():
            w = ck.wendland(ck.read_coords(f"{sim}/sites.csv"),
                            ck.read_coords(f"{sim}/knots.csv"),
                            data_cfg["wendland_radius"])
            return ck.noise_scale(x, z, w, data_cfg["alpha0"])

        run.check("loss history finite",
                  lambda: ck.loss_history(run.path("fit", "train_report.csv"),
                                          decreasing=False))
        run.check("emulated full grid positive and finite", emulated_ok)
        run.check("latent factors match the expPS Laplace transform",
                  lambda: ck.latent_laplace_transform(z, theta))
        run.check("log-Laplace noise has mean |log eps| = 1/alpha0", noise)
        _dependence_checks(run, x, emulated, ck.read_coords(f"{sim}/sites.csv"),
                           run.path("met"))


# ---------------------------------------------------------------------------
# fwi-preprocess
# ---------------------------------------------------------------------------

FWI_START = dt.date(2014, 1, 1)
FWI_DAYS = (dt.date(2025, 1, 1) - FWI_START).days       # 2014-2024, 132 months


def fwi_inputs(seed: int, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Daily FWI-like series: a seasonal cycle, a linear trend and Gumbel
    noise at lon/lat sites 0.25 degrees apart (about 25 km)."""
    rng = np.random.default_rng([seed, 303])
    side = math.ceil(math.sqrt(n_sites))
    k = np.arange(n_sites)
    coords = np.column_stack([145.0 + 0.25 * (k % side), -36.0 + 0.25 * (k // side)])
    day = np.arange(FWI_DAYS, dtype=np.float64)
    season = np.sin(2.0 * math.pi * day / 365.25 + rng.uniform(0.0, 0.5, n_sites)[:, None])
    daily = (20.0 + rng.uniform(-3.0, 3.0, n_sites)[:, None]
             + 8.0 * season + 0.0005 * day
             + rng.gumbel(0.0, 2.5, (n_sites, FWI_DAYS)))
    return daily.T, coords


class FwiPreprocess:
    """preprocess on synthetic daily series: monthly maxima, GEV fits and the
    Pareto-scale transform."""

    name = "fwi-preprocess"

    def __init__(self, quick: bool):
        self.n_sites = 4 if quick else 100

    def _write(self, run: Run, stem: str, daily: np.ndarray, coords: np.ndarray) -> None:
        idx = np.arange(daily.shape[0])[:, None]
        header = "time_index," + ",".join(f"site_{j}" for j in range(daily.shape[1]))
        np.savetxt(run.path(f"{stem}_daily.csv"), np.hstack([idx, daily]),
                   delimiter=",", header=header, comments="", fmt="%.12g")
        ids = np.arange(coords.shape[0])[:, None]
        np.savetxt(run.path(f"{stem}_sites.csv"), np.hstack([ids, coords]),
                   delimiter=",", header="site_id,x,y", comments="", fmt="%.12g")

    def _preprocess(self, run: Run, stem: str, out: str) -> float:
        return run.cli("preprocess", "--daily", run.path(f"{stem}_daily.csv"),
                       "--sites", run.path(f"{stem}_sites.csv"),
                       "--start-date", FWI_START.isoformat(), out=out)

    def setup(self, run: Run) -> None:
        daily, coords = fwi_inputs(run.seed, self.n_sites)
        self._write(run, "fwi", daily, coords)
        self._write(run, "warm", daily[:, :2], coords[:2])
        self._preprocess(run, "warm", "warm")

    def round(self, run: Run) -> dict[str, float]:
        wall = self._preprocess(run, "fwi", "pre")
        return {"preprocess_sites_per_s": self.n_sites / wall}

    def probe(self, run: Run) -> dict[str, float]:
        return {}

    def checks(self, run: Run) -> None:
        pre = run.path("pre")

        def months():
            m = np.loadtxt(f"{pre}/months.csv", delimiter=",", skiprows=1, ndmin=2)
            maxima = ck.read_wide(f"{pre}/monthly_maxima.csv")
            ck.require(m.shape[0] == 132 and maxima.shape == (132, self.n_sites),
                       f"expected 132 months at {self.n_sites} sites, got {maxima.shape}")

        def monotone():
            maxima = ck.read_wide(f"{pre}/monthly_maxima.csv")
            fields = ck.read_wide(f"{pre}/fields.csv")
            ck.require(bool(np.all(fields > 0)), "transformed fields are not positive")
            same = (np.argsort(maxima, axis=0, kind="stable")
                    == np.argsort(fields, axis=0, kind="stable"))
            ck.require(bool(np.all(same)), "the transform changed a site's rank order")

        def gof():
            p = np.loadtxt(f"{pre}/gof.csv", delimiter=",", skiprows=1, ndmin=2)[:, 3]
            ck.require(bool(np.all((p >= 0) & (p <= 1))), "a GOF p-value lies outside [0, 1]")

        def xi():
            xi = np.loadtxt(f"{pre}/gev_params.csv", delimiter=",", skiprows=1, ndmin=2)[:, 3]
            med = float(np.median(xi))
            ck.require(abs(med) < 0.1, f"median GEV shape {med:.3f} for Gumbel noise")
            return f"median xi {med:+.4f}"

        run.check("every site has 132 months", months)
        run.check("transform positive and rank-preserving", monotone)
        run.check("GOF p-values in [0, 1]", gof)
        run.check("median GEV shape near 0 for Gumbel noise", xi)


WORKLOADS = {w.name: w for w in (DeskFit, DeskEnsemble, Grid50Pipeline, FwiPreprocess)}
