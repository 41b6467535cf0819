"""Spans around the calls into each extvae layer, recorded from outside src/.

`Tracer.install()` swaps a timing wrapper in for each public function named in
TRACED, in every extvae module that holds a reference to it (a function bound
with ``from .x import f`` lives in several module namespaces).  Spans are kept
in memory as (name, start, end, parent) and summarized when the run ends; the
originals are restored by `Tracer.uninstall()`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs; a dotted attribute names a method on a class
TRACED = [
    ("autodiff", "value_and_gradient"), ("autodiff", "conv1d_same"),
    ("autodiff", "maxpool1d"), ("autodiff", "Var.backward"),
    ("model", "penalized_elbo"), ("model", "encode"),
    ("model", "_xi_from_stacked"), ("model", "init_params"),
    ("training", "train"), ("training", "AdamState.update"),
    ("training", "checkpoint_save"), ("training", "checkpoint_load"),
    ("seeds", "substream"),
    ("distributions", "loglaplace_sample"),
    ("distributions", "expps_sample_field"), ("distributions", "gev_fit"),
    ("fieldsim", "simulate_dataset"), ("fieldsim", "pairwise_distances"),
    ("fieldsim", "wendland_basis"), ("fieldsim", "simulate_theta"),
    ("emulation", "emulate"), ("emulation", "counterfactual"),
    ("emulation", "_chunk_pass"),
    ("metrics", "chi_curve"), ("metrics", "are_curve"),
    ("metrics", "_uniform_scores"), ("metrics", "select_pairs"),
    ("metrics", "twcrps_field"), ("metrics", "qq_data"),
    ("preprocess", "run_pipeline"), ("preprocess", "preprocess_site"),
    ("cli", "read_matrix_csv"), ("cli", "read_series_csv"),
    ("cli", "read_coords_csv"), ("cli", "write_matrix_csv"),
    ("cli", "write_series_csv"), ("cli", "write_coords_csv"),
    ("cli", "write_curve_csv"), ("cli", "write_ensemble"),
    ("cli", "write_manifest"), ("cli", "_read_ensemble_csv"),
]

# span name -> label used in the per-layer metric names
_LABELS = {"_xi_from_stacked": "decode_xi", "_read_ensemble_csv": "ensemble_read",
           "_uniform_scores": "rank_transform", "Var.backward": "backward",
           "AdamState.update": "adam_update"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def _wrap(self, name: str, fn):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer.counters, args, kwargs)
            out = tracer.span(name, fn, *args, **kwargs)
            if name == "cli.write_ensemble":
                tracer.counters["ensemble_bytes"] += os.path.getsize(args[0])
            return out

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        mods = {n: sys.modules[f"extvae.{n}"] for n in
                ("autodiff", "model", "training", "seeds", "distributions",
                 "fieldsim", "emulation", "metrics", "preprocess", "cli")}
        for mod_name, attr in TRACED:
            label = _LABELS.get(attr, attr)
            name = f"{mod_name}.{label}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                orig = getattr(cls, meth)
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mods[mod_name], attr)
            wrapped = self._wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    # -- summaries -------------------------------------------------------
    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time covered by direct children)."""
        child = self._child_time()
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
        return out

    def commands(self) -> list[dict[str, float]]:
        """Top-level command spans: traced wall and the share its child spans
        cover (the rest is glue no span names)."""
        child = self._child_time()
        return [{"command": name, "traced_s": t1 - t0, "covered_s": child[i]}
                for i, (name, t0, t1, parent) in enumerate(self.spans)
                if parent < 0]


def _count_loglaplace(c, args, kwargs):
    c["loglaplace_draws"] += int(args[1])


def _count_expps(c, args, kwargs):
    theta = np.asarray(args[0], dtype=np.float64)
    c["expps_entries"] += theta.size
    c["expps_accept_sum"] += float(np.sum(np.exp(-np.sqrt(theta))))


_COUNTERS = {"distributions.loglaplace_sample": _count_loglaplace,
             "distributions.expps_sample_field": _count_expps}


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metric -> (value, unit), 0 for a layer this workload never
    calls.  ``extra`` carries figures measured outside the traced round."""
    rows = tracer.self_times()
    cnt = tracer.counters

    def total(name):
        return rows.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def per_call(name, scale):
        row = rows.get(name)
        return row["total_s"] / row["calls"] * scale if row else 0.0

    vag_ms = per_call("autodiff.value_and_gradient", 1e3)
    elbo_ms = extra.get("penalized_elbo_ms", 0.0)
    accept = cnt["expps_accept_sum"] / cnt["expps_entries"] if cnt["expps_entries"] else 0.0
    return {
        "autodiff.value_and_gradient_ms": (vag_ms, "ms"),
        "model.penalized_elbo_ms": (elbo_ms, "ms"),
        "autodiff.tape_overhead_ratio": (vag_ms / elbo_ms if elbo_ms else 0.0, "ratio"),
        "autodiff.conv1d_same_ms": (per_call("autodiff.conv1d_same", 1e3), "ms"),
        "autodiff.maxpool1d_ms": (per_call("autodiff.maxpool1d", 1e3), "ms"),
        "model.encode_ms": (per_call("model.encode", 1e3), "ms"),
        "model.decode_xi_ms": (per_call("model.decode_xi", 1e3), "ms"),
        "training.adam_update_ms": (per_call("training.adam_update", 1e3), "ms"),
        "training.checkpoint_save_s": (total("training.checkpoint_save"), "s"),
        "training.checkpoint_load_s": (total("training.checkpoint_load"), "s"),
        "seeds.substream_us": (per_call("seeds.substream", 1e6), "us"),
        "seeds.substreams": (calls("seeds.substream"), "count"),
        "distributions.loglaplace_sample_s": (total("distributions.loglaplace_sample"), "s"),
        "distributions.loglaplace_draws": (cnt["loglaplace_draws"], "count"),
        "distributions.expps_sample_field_s": (total("distributions.expps_sample_field"), "s"),
        "distributions.expps_acceptance": (accept, "ratio"),
        "fieldsim.simulate_dataset_s": (total("fieldsim.simulate_dataset"), "s"),
        "fieldsim.pairwise_distances_s": (total("fieldsim.pairwise_distances"), "s"),
        "emulation.emulate_s": (total("emulation.emulate"), "s"),
        "cli.write_ensemble_s": (total("cli.write_ensemble"), "s"),
        "cli.bytes_written_mb": (cnt["ensemble_bytes"] / 1e6, "MB"),
        "cli.write_manifest_s": (total("cli.write_manifest"), "s"),
        "cli.read_matrix_csv_s": (total("cli.read_matrix_csv"), "s"),
        "cli.ensemble_read_s": (total("cli.ensemble_read"), "s"),
        "metrics.chi_curve_s": (total("metrics.chi_curve"), "s"),
        "metrics.are_curve_s": (total("metrics.are_curve"), "s"),
        "metrics.rank_transforms": (calls("metrics.rank_transform"), "count"),
        "metrics.twcrps_field_s": (total("metrics.twcrps_field"), "s"),
        "metrics.qq_data_s": (total("metrics.qq_data"), "s"),
        "preprocess.run_pipeline_s": (total("preprocess.run_pipeline"), "s"),
        "distributions.gev_fit_ms": (per_call("distributions.gev_fit", 1e3), "ms"),
    }
