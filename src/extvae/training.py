"""Gradient training of the penalized objective.

Adam on minibatches of time steps (full batch below 512 steps), deterministic
given the seed: fixed shuffle streams, fixed per-epoch noise streams, fixed
reduction order.  Checkpoints capture parameters, Adam state, and the loss
history, whose length is the epoch a resumed run starts from, so a resumed run
is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import base64
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import model as mdl
from .autodiff import NonFiniteError, ParamVector, value_and_gradient
from .model import HyperParams, ModelConfig, ModelParameters, check_value
from .seeds import substream

CHECKPOINT_FORMAT_VERSION = 3
FULL_BATCH_LIMIT = 512
# Adam's moment decay rates and denominator guard, at their usual values
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
MINIBATCH_SIZE = 128
PLATEAU_WINDOW = 50
PLATEAU_TOL = 1e-4


class TrainingError(RuntimeError):
    """Non-finite loss or gradient; the message names the epoch and batch."""


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """How to run the optimiser.  The run length, seed and learning rate are
    ``hyper.epochs``, ``hyper.seed`` and ``hyper.learning_rate``."""

    hyper: HyperParams = field(default_factory=HyperParams)
    batch_size: int | None = None        # None: full batch up to FULL_BATCH_LIMIT
    checkpoint_every: int = 0            # 0: only the final state
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.batch_size is not None:
            check_value("batch_size", self.batch_size, int, ge=1)
        check_value("checkpoint_every", self.checkpoint_every, int, ge=0)


@dataclass
class TrainReport:
    loss_history: list[float]
    seconds: float
    converged: bool


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)

    def update(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """New parameters in a fresh array; ``m`` and ``v`` change in place by
        the formula's operations in its order (lr * m_hat, then the division)."""
        self.step += 1
        scratch = np.multiply(grad, 1.0 - ADAM_BETA1)
        self.m *= ADAM_BETA1
        self.m += scratch
        np.multiply(np.square(grad, out=scratch), 1.0 - ADAM_BETA2, out=scratch)
        self.v *= ADAM_BETA2
        self.v += scratch
        np.sqrt(np.divide(self.v, 1.0 - ADAM_BETA2**self.step, out=scratch), out=scratch)
        scratch += ADAM_EPS
        out = np.divide(self.m, 1.0 - ADAM_BETA1**self.step)
        out *= lr
        out /= scratch
        return np.subtract(params, out, out=out)


def _batches(n_t: int, batch_size: int | None, rng: np.random.Generator):
    if batch_size is None:
        if n_t <= FULL_BATCH_LIMIT:
            yield np.arange(n_t)
            return
        batch_size = MINIBATCH_SIZE
    order = rng.permutation(n_t)
    for start in range(0, n_t, batch_size):
        yield np.sort(order[start : start + batch_size])


def _is_converged(history: list[float]) -> bool:
    if len(history) < PLATEAU_WINDOW:
        return False
    tail = np.asarray(history[-PLATEAU_WINDOW:])
    scale = max(abs(tail[-1]), 1e-12)
    return bool((tail.max() - tail.min()) / scale < PLATEAU_TOL)


def train(
    data: np.ndarray,
    c: np.ndarray,
    cfg: TrainConfig,
    *,
    knots: np.ndarray | None = None,
    sites: np.ndarray | None = None,
    wendland_radius: float | None = None,
    resume_from: dict | str | None = None,
) -> tuple[ModelParameters, TrainReport]:
    """Maximize the penalized objective; returns the model and an epoch log.

    ``resume_from`` accepts a checkpoint (dict or path); training then
    continues from the recorded epoch to ``cfg.hyper.epochs`` with the saved
    Adam state and matches an uninterrupted run bit for bit.  Every other
    hyperparameter of ``cfg`` must equal the checkpoint's.
    """
    x = np.asarray(data, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if x.ndim != 2 or np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("data must be a strictly positive (time, site) matrix")
    if c.shape != (x.shape[0],):
        raise ValueError("condition series length must match the data")
    n_t, n_s = x.shape
    hyper = cfg.hyper

    if resume_from is not None:
        state = resume_from if isinstance(resume_from, dict) else checkpoint_read(resume_from)
        model, adam, start_epoch, history = _restore_training_state(state)
        if start_epoch > hyper.epochs:
            raise ValueError(f"checkpoint holds {start_epoch} epochs, more than "
                             f"the {hyper.epochs} asked for")
        if replace(model.config.hyper, epochs=hyper.epochs) != hyper:
            raise ValueError("hyperparameters differ from the checkpoint's "
                             "in more than epochs")
        model_cfg = replace(model.config, hyper=hyper)
        params = model.params
    else:
        model_cfg = ModelConfig(
            n_sites=n_s, hyper=hyper, knots=knots, sites=sites,
            wendland_radius=wendland_radius,
        )
        params = mdl.init_params(model_cfg, hyper.seed)
        adam = AdamState.zeros(params.size)
        start_epoch = 0
        history: list[float] = []

    if model_cfg.n_sites != n_s:
        raise ValueError("model was built for a different site count")

    seed, lr, epochs = hyper.seed, hyper.learning_rate, hyper.epochs
    t0 = time.perf_counter()

    for epoch in range(start_epoch, epochs):
        shuffle_rng = substream(seed, "shuffle", epoch)
        epoch_loss = 0.0
        for bi, batch in enumerate(_batches(n_t, cfg.batch_size, shuffle_rng)):
            eps = substream(seed, "eps", epoch, bi).standard_normal(
                (hyper.mc_draws, n_t, hyper.latent_dim))

            def loss(p):
                return -mdl.penalized_elbo(model_cfg, p, x, c, eps,
                                           batch=batch) / float(len(batch))

            try:
                value, grad = value_and_gradient(loss, params)
            except NonFiniteError as err:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {bi}: {err}") from err
            if not np.isfinite(value) or not np.all(np.isfinite(grad)):
                raise TrainingError(
                    f"non-finite loss or gradient at epoch {epoch}, batch {bi}")
            epoch_loss += value * len(batch)
            params = params.replace(adam.update(params.data, grad, lr))
        history.append(epoch_loss / n_t)
        if (cfg.checkpoint_every and cfg.checkpoint_path and epoch + 1 < epochs
                and (epoch + 1) % cfg.checkpoint_every == 0):
            checkpoint_save(cfg.checkpoint_path,
                            ModelParameters(model_cfg, params),
                            adam=adam, loss_history=history)

    seconds = time.perf_counter() - t0
    model = ModelParameters(config=model_cfg, params=params)
    report = TrainReport(
        loss_history=list(history),
        seconds=seconds,
        converged=_is_converged(history),
    )
    if cfg.checkpoint_path:
        checkpoint_save(cfg.checkpoint_path, model, adam=adam, loss_history=history)
    return model, report


# ---------------------------------------------------------------------------
# hyperparameter grid search
# ---------------------------------------------------------------------------

def apply_overrides(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    """``cfg`` with the named HyperParams fields replaced."""
    unknown = sorted(set(overrides) - set(HyperParams.__dataclass_fields__))
    if unknown:
        raise KeyError(f"unknown hyperparameter(s) {unknown}")
    return replace(cfg, hyper=replace(cfg.hyper, **overrides))


def grid_search(
    data,
    c,
    configs: list[TrainConfig],
    *,
    search_epochs: int | None = None,
    knots=None,
    sites=None,
    wendland_radius=None,
) -> tuple[TrainConfig, list[float]]:
    """Train every candidate, score by final mean negative objective, return
    the argmin's config (ties keep the earliest candidate).  ``search_epochs``
    shortens the scoring runs only; the returned config keeps its epochs."""
    if not configs:
        raise ValueError("grid must be nonempty")
    scores: list[float] = []
    for cand in configs:
        if search_epochs is not None:
            cand = apply_overrides(cand, {"epochs": search_epochs})
        try:
            _, report = train(data, c, cand, knots=knots, sites=sites,
                              wendland_radius=wendland_radius)
            scores.append(report.loss_history[-1] if report.loss_history else np.inf)
        except TrainingError:
            scores.append(np.inf)
    if not np.any(np.isfinite(scores)):
        raise TrainingError("every grid candidate aborted")
    return configs[int(np.argmin(scores))], scores


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _encode_array(arr: np.ndarray | None):
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")}


def _decode_array(blob) -> np.ndarray | None:
    if blob is None:
        return None
    try:
        raw = base64.b64decode(blob["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        expect = int(np.prod(blob["shape"])) if blob["shape"] else 1
    except (ValueError, TypeError, KeyError) as err:
        raise CheckpointError(f"corrupt array payload: {err}") from err
    if arr.size != expect:
        raise CheckpointError("array payload length does not match its shape")
    return arr.reshape(blob["shape"])


def checkpoint_state(model: ModelParameters, *, adam: AdamState | None = None,
                     loss_history=None) -> dict:
    """Each value once: the seed is ``hyper.seed`` and the epochs completed
    are ``len(meta.loss_history)``."""
    cfg = model.config
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "hyper": asdict(cfg.hyper),
        "model": {
            "n_sites": cfg.n_sites,
            "knots": _encode_array(cfg.knots),
            "sites": _encode_array(cfg.sites),
            "wendland_radius": cfg.wendland_radius,
            "fixed_w": _encode_array(cfg.fixed_w),
            "phi": _encode_array(cfg.phi),
        },
        "param_layout": [[name, offset, list(shape)]
                         for name, (offset, shape) in model.params.layout.items()],
        "params": _encode_array(model.params.data),
        "adam": None if adam is None else {
            "m": _encode_array(adam.m),
            "v": _encode_array(adam.v),
            "step": adam.step,
        },
        "meta": {"loss_history": list(map(float, loss_history or []))},
    }


def checkpoint_save(path, model: ModelParameters, *, adam: AdamState | None = None,
                    loss_history=None) -> None:
    state = checkpoint_state(model, adam=adam, loss_history=loss_history)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)


def checkpoint_read(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {path} does not hold a JSON object")
    version = state.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"checkpoint {path} has format {version!r}; this "
                              f"version reads format {CHECKPOINT_FORMAT_VERSION}")
    return state


def checkpoint_load(path) -> ModelParameters:
    """Rebuild the model from a checkpoint; bit-exact parameter round trip."""
    state = checkpoint_read(path)
    return _model_from_state(state)


_MODEL_KEYS = ("n_sites", "knots", "sites", "wendland_radius", "fixed_w", "phi")


def _section(state: dict, name: str, keys) -> dict:
    block = state.get(name)
    if not isinstance(block, dict):
        raise CheckpointError(f"checkpoint has no {name!r} section")
    missing = [f"{name}.{key}" for key in keys if key not in block]
    if missing:
        raise CheckpointError(f"checkpoint is missing {', '.join(missing)}")
    return block


def _model_from_state(state: dict) -> ModelParameters:
    """Rebuild the model after checking every key it needs, and that the
    stored parameter layout is the configuration's template, name by name and
    shape by shape."""
    hyper_dict = _section(state, "hyper", [f.name for f in fields(HyperParams)])
    ms = _section(state, "model", _MODEL_KEYS)
    missing = [key for key in ("param_layout", "params") if key not in state]
    if missing:
        raise CheckpointError(f"checkpoint is missing {', '.join(missing)}")
    try:
        cfg = ModelConfig(
            n_sites=ms["n_sites"],
            hyper=HyperParams(**hyper_dict),
            knots=_decode_array(ms["knots"]),
            sites=_decode_array(ms["sites"]),
            wendland_radius=ms["wendland_radius"],
            fixed_w=_decode_array(ms["fixed_w"]),
            phi=_decode_array(ms["phi"]),
        )
        layout, offset = {}, 0
        for name, shape in mdl.param_template(cfg).items():
            layout[name] = (offset, shape)
            offset += int(np.prod(shape))
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"invalid model configuration in checkpoint: {err}") from err
    if state["param_layout"] != [[name, off, list(shape)]
                                 for name, (off, shape) in layout.items()]:
        raise CheckpointError("parameter layout does not match the model template")
    data = _decode_array(state["params"])
    if data is None or data.shape != (offset,):
        raise CheckpointError("parameter payload does not match the model layout")
    return ModelParameters(config=cfg, params=ParamVector(data=data, layout=layout))


def _restore_training_state(state: dict):
    model = _model_from_state(state)
    blob = state.get("adam")
    if blob is None:
        adam = AdamState.zeros(model.params.size)
    else:
        adam = AdamState(m=_decode_array(blob["m"]), v=_decode_array(blob["v"]),
                         step=blob["step"])
    history = list(_section(state, "meta", ["loss_history"])["loss_history"])
    return model, adam, len(history), history
