"""Shared fixtures: the desk-scale instance and its trained models.

Training is the expensive step, so one session-scoped fixture trains the
learnable-weights model and the fixed-weights ablation once; the acceptance
criteria and the training-progress check all read from it.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from extvae import cli
from extvae import fieldsim as fs
from extvae import model as mdl
from extvae import training as tr

DESK_SEED = 2026
DESK_EPOCHS = 3000
# the desk preset's data values over their defaults, as `extvae simulate --desk`
DESK = cli._settings("data", {}, cli.DESK_DATA)


def pytest_sessionstart(session):
    # the allocator policy of the CLI: training without re-faulting the heap
    cli._hold_heap()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked in the test; no worker may outlive it."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def desk_instance():
    """The 20x20 / 16-knot / 200-step synthetic instance of the desk preset."""
    grid = fs.regular_grid(DESK["rows"], DESK["cols"], DESK["extent"])
    knots = fs.knot_lattice(DESK["knot_side"], DESK["extent"])
    w_true = fs.wendland_basis(grid.sites, knots, DESK["wendland_radius"])
    c = fs.smooth_condition(fs.synthetic_condition(DESK["n_t"], DESK_SEED))
    theta_true = fs.simulate_theta(c, knots, gamma=DESK["gamma"], b=DESK["b"],
                                   tau=DESK["tau"])
    x = fs.simulate_dataset(theta_true, w_true, DESK["alpha0"], DESK_SEED)
    return {
        "grid": grid, "knots": knots, "w_true": w_true,
        "c": c, "theta_true": theta_true, "x": x, "seed": DESK_SEED,
        "spacing": DESK["extent"] / (DESK["knot_side"] - 1),
    }


@pytest.fixture(scope="session")
def desk_models(desk_instance):
    """Learnable-W and fixed-W fits of the desk instance, with timings."""
    inst = desk_instance
    hyper = mdl.HyperParams(seed=DESK_SEED, epochs=DESK_EPOCHS)   # the desk preset
    t0 = time.perf_counter()
    model, report = tr.train(inst["x"], inst["c"], tr.TrainConfig(hyper=hyper),
                             knots=inst["knots"], sites=inst["grid"].sites,
                             wendland_radius=DESK["wendland_radius"])
    t_learn = time.perf_counter() - t0
    t0 = time.perf_counter()
    fixed_hyper = dataclasses.replace(hyper, fix_w=True)
    model_fx, report_fx = tr.train(inst["x"], inst["c"],
                                   tr.TrainConfig(hyper=fixed_hyper),
                                   knots=inst["knots"],
                                   sites=inst["grid"].sites,
                                   wendland_radius=DESK["wendland_radius"])
    t_fixed = time.perf_counter() - t0
    return {
        "model": model, "report": report, "seconds": t_learn,
        "model_fixed": model_fx, "report_fixed": report_fx,
        "seconds_fixed": t_fixed,
    }


@pytest.fixture(scope="session")
def desk_holdout(desk_instance):
    from extvae.seeds import substream

    rng = substream(DESK_SEED, "holdout")
    return np.sort(rng.choice(desk_instance["grid"].n_sites, size=40,
                              replace=False))
