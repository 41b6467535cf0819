"""Command-line interface.

Subcommands: simulate, preprocess, train, emulate, counterfactual, metrics,
gradcheck, tailcheck.  Every command is deterministic given (config, seed),
writes a manifest (input/output hashes, seed, version) beside its outputs, and
exits 0 on success, 1 on numerical failure, 2 on I/O or configuration failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import ctypes
import dataclasses
import datetime as dt
import functools
import hashlib
import io
import itertools
import json
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from . import emulation as emu
from . import fieldsim as fs
from . import floattext as ft
from . import metrics as mx
from . import model as mdl
from . import preprocess as pp
from . import training as tr
from .autodiff import NonFiniteError, fd_check
from .distributions import GEV_MIN_OBS, expps_sample_field, tail_equivalence_check
from .model import ConfigError, HyperParams, ModelConfig, check_value
from .seeds import substream
from .workers import Workers, block_edges

CONFIG_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# presets and configuration
# ---------------------------------------------------------------------------

# the desk preset's changes to the "data" defaults in _SECTION_KEYS
DESK_DATA = {
    "rows": 20, "cols": 20, "knot_side": 4, "n_t": 200,
    # 4x4 knots on [0,20]^2 sit ~6.7 apart; radius 3 would leave interior
    # sites outside every basis support
    "wendland_radius": 6.0,
}
# the 50x50 preset's changes to the HyperParams defaults; the desk preset
# trains at the defaults
DEFAULT_HYPER = {"latent_dim": 64, "n_theta_basis": 16}


def _rows(kind, bounds: dict, **defaults) -> dict:
    """Table rows (default, kind, bounds) for keys that share a kind and bounds."""
    return {key: (default, kind, bounds) for key, default in defaults.items()}


# Each section's keys.  model._HYPER_KINDS and TrainConfig check the "hyper"
# and "train" values; every other key's row gives its default (a None default
# admits null too), and its kind and bounds as check_value takes them.
_SECTION_KEYS = {
    "data": {**_rows(int, {"ge": 1}, rows=50, cols=50, knot_side=8, n_t=528),
             **_rows(float, {"gt": 0}, extent=20.0, wendland_radius=3.0, gamma=2.0,
                     b=2.0, tau=15.0, alpha0=30.0)},
    "hyper": set(HyperParams.__dataclass_fields__) - {"seed"},   # top-level seed
    "train": {"batch_size", "checkpoint_every"},
    "emulate": {**_rows(int, {"ge": 1}, n_samples=emu.DEFAULT_N_SAMPLES),
                **_rows(emu.MODES, {}, mode="reconstruction"),
                **_rows(bool, {}, draw_latent_noise=True, draw_data_noise=True)},
    "metrics": {**_rows(float, {"ge": 0}, distance=None, tol=None),
                **_rows([float], {"ge": 0, "lt": 1},
                        u=[0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.925, 0.95, 0.975, 0.99]),
                # ref_index is also < the site count, known once the truth is read
                **_rows(int, {"ge": 0}, n_boot=mx.N_BOOT_DEFAULT, ref_index=None),
                **_rows(int, {"ge": 1}, max_pairs=mx.MAX_PAIRS_PER_BIN)},
}


def load_config(path: str | None) -> dict:
    """Read and strictly validate a run configuration document: every
    section's keys, and the kind and bounds of each value, whether or not the
    command reads them."""
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} does not hold a JSON object")
    version = cfg.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")
    for key, value in cfg.items():
        if key == "seed":
            continue
        if key not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {key!r} must be a JSON object")
        unknown = set(value) - set(_SECTION_KEYS[key])
        if unknown:
            raise ConfigError(f"unknown key(s) in config section {key!r}: "
                              f"{sorted(unknown)}")
        if key == "hyper":        # train checks across keys, with the preset
            for name, v in value.items():
                kind, bounds = mdl._HYPER_KINDS[name]
                check_value(f"hyper {name}", v, kind, **bounds)
        elif key == "train":
            try:
                tr.TrainConfig(**value)
            except ConfigError as err:
                raise ConfigError(f"train {err}") from None
        else:
            _settings(key, cfg)
    return cfg


def _seed(args, cfg: dict) -> int:
    """``--seed``, else the config's, else 0; numpy seeds must be >= 0."""
    return check_value("seed", args.seed if args.seed is not None
                       else cfg.get("seed", 0), int, ge=0)


def _merged(section: str, cfg: dict, preset: dict, flags: dict | None = None) -> dict:
    """``preset``, then the config's ``section``, then the flags that are set."""
    return {**preset, **cfg.get(section, {}),
            **{key: v for key, v in (flags or {}).items() if v is not None}}


def _settings(section: str, cfg: dict, preset: dict | None = None,
              flags: dict | None = None, **bounds) -> dict:
    """The ``section`` values over its table defaults, each checked against its
    row (a list must not be empty); ``bounds`` adds a key's run-time bounds,
    e.g. ``ref_index={"lt": n}``."""
    rows = _SECTION_KEYS[section]
    values = _merged(section, cfg, {key: row[0] for key, row in rows.items()}
                     | (preset or {}), flags)
    for key, value in values.items():
        default, kind, limits = rows[key]
        if value is not None or default is not None:
            values[key] = check_value(f"{section} {key}", value, kind, **limits,
                                      **bounds.get(key, {}))
            if values[key] == ():
                raise ConfigError(f"{section} {key} must not be empty")
    return values


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

# Every table is CSV as csv.writer writes it (header row, CRLF, minimal
# quoting) with each value as '%.17g' % x writes it (floattext.render), so
# floats read back bit for bit and ints below 2**53 read as %d writes them.
# Rows are laid out in a NUL-padded byte grid that one pass compacts, so no
# text in a row may hold a NUL.  Reads go through loadtxt.
# A wide matrix also leaves its parsed values beside the CSV, as the .npy
# sidecar .<csv name>.<sha256 of the CSV>.<sha256 of the .npy>.npy; a read
# whose CSV hashes to that name, and whose sidecar hashes to its own, loads it
# instead of parsing.
# A table of at least 2 * BLOCK_CELLS values is formatted in row blocks by
# ``workers``; the bytes are those of one block.

BLOCK_CELLS = 1 << 18


def _quote(text) -> str:
    """A text cell as csv.writer quotes it."""
    text = str(text)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text(strings) -> np.ndarray:
    """The strings' UTF-8 bytes as the rows of a NUL-padded byte grid."""
    return np.array([s.encode("utf-8") for s in strings], "S")[:, None].view(np.uint8)


def _block(rows: range, values, pre, post, prefix: str, index: bool):
    """The text of ``rows``, as one bytes object per sub-block of about
    floattext.CHUNK values.  Row t of ``values`` holds, in C order, k values
    for each of the len(pre) lines; line l is ``prefix``, t (when ``index``),
    pre[l], its values joined by ",", then ``post``."""
    lines = len(pre)
    k = values.size // max(1, len(values) * lines)
    slot = ft.WIDTH + 1                          # a value, and the "," before it
    sep = np.array([0] + [ord(",")] * (k - 1), np.uint8)
    step = max(1, ft.CHUNK // max(1, lines * k))
    for lo in range(rows.start, rows.stop, step):
        hi = min(lo + step, rows.stop)
        lead = _text([f"{prefix}{t}" if index else prefix for t in range(lo, hi)])
        start = lead.shape[1] + pre.shape[1]
        grid = np.empty((hi - lo, lines, start + slot * k + post.size), np.uint8)
        grid[:, :, :lead.shape[1]] = lead[:, None]
        grid[:, :, lead.shape[1]:start] = pre
        cells = grid[:, :, start:start + slot * k].reshape(hi - lo, lines, k, slot)
        cells[..., 0] = sep
        cells[..., 1:] = ft.render(values[lo:hi]).reshape(hi - lo, lines, k, ft.WIDTH)
        grid[:, :, start + slot * k:] = post
        yield grid.tobytes().translate(None, b"\0")


def _write_csv(path: str, header, values, pre=(",",), post: str = "\r\n",
               prefix: str = "", index: bool = True) -> str:
    """``header``, then the text of ``_block`` for every row of ``values``,
    formatted in row blocks.  Returns the sha256 of the bytes written."""
    values = np.asarray(values, np.float64)
    table = (values, _text(pre), np.frombuffer(post.encode("utf-8"), np.uint8), prefix,
             index)
    edges = block_edges(values.shape[0], values.size, BLOCK_CELLS)
    head, digest = (",".join(map(_quote, header)) + "\r\n").encode("utf-8"), hashlib.sha256()
    with (open(path, "wb") as fh,
          Workers(f"{path}: a row-block worker") as workers):
        # a worker formats its whole block before it sends any: it does not
        # wait on its pipe while the parent formats block 0
        pids = [workers.start(lambda *args: list(_block(*args)), range(lo, hi), *table)
                for lo, hi in zip(edges[1:], edges[2:])]
        for data in itertools.chain([head], _block(range(edges[1]), *table),
                                    *map(workers.chunks, pids)):     # blocks in order
            digest.update(data), fh.write(data)
        if not all(map(workers.reap, pids)):
            raise OSError(f"{path}: a row-block worker failed")
    return digest.hexdigest()


def _loadtxt(lines, n_cols: int, start: int, stop: int, converters=None):
    """The rows of ``lines``: columns start:stop parsed as floats, the others
    not parsed."""
    conv = {c: lambda _: 0.0 for c in range(n_cols) if not start <= c < stop}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # no data rows
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          ndmin=2, converters=conv | (converters or {}))


def _read_csv(path: str, start: int, stop=None, converters=None) -> np.ndarray:
    """Columns start:stop of the data rows as float64; the others are not
    parsed, but every row must be as wide as the header.  A converter's
    ConfigError is raised as is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            n_cols = len(next(csv.reader([fh.readline()]), []))
            stop = n_cols if stop is None else stop
            table = _loadtxt(fh, n_cols, start, stop, converters)
        need = max(stop, start + 1)
        if table.shape[0] == 0 or table.shape[1] != n_cols or n_cols < need:
            raise ValueError(f"{table.shape[0]} rows of {table.shape[1]} columns, "
                             f"{n_cols} in the header, {need} needed")
    except (ValueError, csv.Error) as err:
        if isinstance(err.__cause__, ConfigError):       # a converter's verdict
            raise err.__cause__ from None
        raise ConfigError(f"malformed CSV {path}: {err}") from None
    return np.ascontiguousarray(table[:, start:stop])


def _sidecars(path: str) -> tuple[str, list]:
    """The CSV's directory, and the (name, CSV sha256, own sha256) of each of
    its sidecars there."""
    head, name = os.path.split(path)
    pattern = re.compile(re.escape(f".{name}.") + r"([0-9a-f]{64})\.([0-9a-f]{64})\.npy")
    return head, [m.group(0, 1, 2) for m in map(pattern.fullmatch,
                                                os.listdir(head or ".")) if m]


def _write_sidecar(path: str, digest: str, matrix: np.ndarray) -> None:
    """Replace the CSV's sidecars by one for ``digest``: the values the CSV
    parses to (every NaN as np.nan), streamed a row block at a time into a
    temporary file that is then renamed after its own sha256.  A sidecar only
    saves a parse, so one that cannot be written is left out."""
    head, name = os.path.split(path)
    tmp, h = os.path.join(head, f".{name}.{os.getpid()}.tmp"), hashlib.sha256()
    step = max(1, BLOCK_CELLS // max(1, matrix.shape[1]))
    try:
        for other, _, _ in _sidecars(path)[1]:
            os.remove(os.path.join(head, other))
        with open(tmp, "wb") as fh:
            header = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header, {"descr": "<f8", "fortran_order": False, "shape": matrix.shape})
            blocks = (np.asarray(matrix[lo:lo + step], "<f8")
                      for lo in range(0, matrix.shape[0], step))
            for data in itertools.chain([header.getvalue()],
                                        (np.where(np.isnan(b), np.nan, b) for b in blocks)):
                h.update(data)
                fh.write(data)
        os.replace(tmp, os.path.join(head, f".{name}.{digest}.{h.hexdigest()}.npy"))
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _load_sidecar(path: str, digest: str) -> np.ndarray | None:
    """The values in the CSV's sidecar for ``digest`` when its bytes hash to
    its name and it holds a C-order float64 array of at least one row and
    one column; None when there is no such sidecar."""
    fmt = np.lib.format
    try:
        head, found = _sidecars(path)
        own = next((f for f in found if f[1] == digest), None)
        if own is None:
            return None
        with open(os.path.join(head, own[0]), "rb") as fh:
            if hashlib.file_digest(fh, "sha256").hexdigest() != own[2]:
                return None
            fh.seek(0)
            if fmt.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = fmt.read_array_header_1_0(fh)
            if len(shape) != 2 or min(shape) < 1 or fortran or dtype != np.dtype("<f8"):
                return None                      # an empty table is parsed, and refused
            fh.seek(0)
            return fmt.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None


def write_matrix_csv(path: str, matrix: np.ndarray, prefix: str,
                     index_name: str = "time_index", ids=None) -> str:
    """Wide layout: one row per time step, one column per site/knot, and the
    CSV's sidecar.  Returns the CSV's sha256."""
    matrix = np.asarray(matrix)
    if ids is None:
        ids = range(matrix.shape[1])
    digest = _write_csv(path, [index_name] + [f"{prefix}{j}" for j in ids], matrix)
    _write_sidecar(path, digest, matrix)
    return digest


def read_matrix_csv(path: str, digests: dict | None = None) -> np.ndarray:
    """Every column but the first (which may hold dates) as float64, from the
    CSV's sidecar when it has one, else parsed; writes no file.  ``digests``
    holds the sha256 of files already hashed by path, and gains the CSV's."""
    digests = {} if digests is None else digests
    digest = digests[path] = digests.get(path) or _sha256(path)
    table = _load_sidecar(path, digest)
    return _read_csv(path, 1) if table is None else table


def _check_cells(path: str, table: np.ndarray, positive: bool = False) -> np.ndarray:
    """The table read from ``path``; a ConfigError naming its first cell not
    finite (or not > 0, where ``positive``) by data row and column, from 0."""
    bad = np.argwhere(~(np.isfinite(table) & ((table > 0) if positive else True)))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(f"{path}: value {table[row, col]:.17g} at row {row}, column "
                          f"{col}; values must be {'finite and > 0' if positive else 'finite'}")
    return table


def write_series_csv(path: str, values: np.ndarray, name: str = "condition",
                     index_name: str = "time_index") -> str:
    return _write_csv(path, [index_name, name], values)


def read_series_csv(path: str) -> np.ndarray:
    return _read_csv(path, 1, 2)[:, 0]


def write_coords_csv(path: str, coords: np.ndarray, id_name: str) -> str:
    return _write_csv(path, [id_name, "x", "y"], coords)


def read_coords_csv(path: str) -> np.ndarray:
    return _read_csv(path, 1, 3)


def write_ensemble(path: str, ens: emu.EmulationEnsemble) -> str:
    if any(c in ens.scenario for c in "\r\n\0"):    # a read loses CR, a write NUL
        raise ValueError(f"scenario label {ens.scenario!r} holds a line break or a NUL")
    return _write_csv(path, ["time_index", "site_id", "sample_index", "value", "scenario"],
                      ens.samples, [f",{sid},{s}," for sid in ens.site_indices.tolist()
                                    for s in range(ens.n_samples)],
                      f",{_quote(ens.scenario)}\r\n")


def _read_ensemble_csv(path: str):
    """Long ensemble of one scenario -> ((time, site, sample) array, site ids,
    scenario); the file holds each (time, site, sample) of its indices exactly
    once, and the first data row's scenario on every row."""
    with open(path, "r", encoding="utf-8") as fh:      # as _read_csv reads it
        try:
            row = next(itertools.islice(csv.reader(fh), 1, None), [])
        except (ValueError, csv.Error) as err:
            raise ConfigError(f"malformed CSV {path}: {err}") from None
    scenario = row[4] if len(row) > 4 else ""
    if "\n" in scenario or "\0" in scenario:      # CR reads as LF, too
        raise ConfigError(f"ensemble {path}: scenario label {scenario!r} holds a "
                          "line break or a NUL")

    def same_scenario(text: str) -> float:
        if text != scenario:
            raise ConfigError(f"ensemble {path} holds a second scenario {text!r} "
                              f"after {scenario!r}; a file holds one")
        return 0.0

    table = _read_csv(path, 0, 4, {4: same_scenario})
    idx = table[:, :3]
    if not np.all(np.isfinite(idx) & (idx == np.round(idx))):
        raise ConfigError(f"malformed CSV {path}: non-integer index")
    (ts, ti), (site_ids, ji), (ss, si) = (np.unique(col, return_inverse=True)
                                          for col in idx.astype(np.int64).T)
    shape = (ts.size, site_ids.size, ss.size)
    flat = np.ravel_multi_index((ti, ji, si), shape)
    if flat.size != np.prod(shape) or np.bincount(flat).min() != 1:
        raise ConfigError(f"ensemble {path} misses or repeats cells")
    samples = np.empty(shape)
    samples.flat[flat] = table[:, 3]
    return samples, site_ids, scenario


def write_curve_csv(path: str, curve) -> str:
    return _write_csv(path, ["u", "estimate", "lo95", "hi95"], np.column_stack(
        [curve.u, curve.estimate, curve.lo95, curve.hi95]), [""], index=False)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_manifest(out_dir: str, command: str, seed, inputs: list[str],
                   outputs: list[str], config: dict | None = None,
                   digests: dict | None = None) -> None:
    """Each input is listed by its file name, or by its path where another
    input has the same name; so is each output.  ``digests``: the sha256 of
    files already hashed, by path."""
    known = digests or {}

    def listed(paths):
        names = collections.Counter(map(os.path.basename, set(paths)))
        return {p if names[os.path.basename(p)] > 1 else os.path.basename(p):
                known.get(p) or _sha256(p) for p in dict.fromkeys(paths)}

    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": config or {},
        "inputs": listed(inputs),
        "outputs": listed(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


class _Files:
    """One command's files.  It reads and checks the inputs; hands out the
    output paths, making ``out`` with the first, so that a command that stops
    before its first output leaves no ``out``; and writes the manifest of the
    inputs it was given and the outputs it handed out, hashing each file
    once."""

    def __init__(self, out: str, *inputs: str | None):
        self.out, self.inputs = out, [p for p in inputs if p]
        self.outputs, self.digests, self.shapes = [], {}, {}

    def table(self, path: str, positive: bool = False) -> np.ndarray:
        """A wide table whose cells are finite (and > 0, where ``positive``)."""
        table = _check_cells(path, read_matrix_csv(path, self.digests), positive)
        self.shapes[path] = table.shape
        return table

    def one_per(self, path: str, n: int, what: str, table: str, axis: int) -> None:
        """A ConfigError unless ``path``'s ``n`` ``what`` are one per row
        (``axis`` 0) or column (1) of the wide table read from ``table``."""
        if n != self.shapes[table][axis]:
            raise ConfigError(f"{path} has {n} {what} for the {self.shapes[table][axis]} "
                              f"{('rows', 'columns')[axis]} of {table}")

    def series(self, path: str, table: str | None = None) -> np.ndarray:
        """A finite condition series, with one value per row of ``table`` where
        one is named."""
        values = _check_cells(path, read_series_csv(path)[:, None])[:, 0]
        if table is not None:
            self.one_per(path, values.size, "values", table, 0)
        return values

    def coords(self, path: str, table: str | None = None) -> np.ndarray:
        """Finite coordinates, with one row per column of ``table`` where one
        is named."""
        coords = _check_cells(path, read_coords_csv(path))
        if table is not None:
            self.one_per(path, coords.shape[0], "rows", table, 1)
        return coords

    def output(self, name: str) -> str:
        os.makedirs(self.out, exist_ok=True)
        self.outputs.append(os.path.join(self.out, name))
        return self.outputs[-1]

    def write(self, name: str, writer, *args, **kwargs) -> None:
        """Output ``name``, written by ``writer``, which returns its sha256."""
        path = self.output(name)
        self.digests[path] = writer(path, *args, **kwargs)

    def manifest(self, command: str, seed, config: dict | None = None) -> None:
        write_manifest(self.out, command, seed, self.inputs, self.outputs, config,
                       self.digests)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    data_cfg = _settings("data", cfg, DESK_DATA if args.desk else None)
    seed = _seed(args, cfg)
    files = _Files(args.out, args.conditions, args.config)
    raw = (files.series(args.conditions) if args.conditions
           else fs.synthetic_condition(data_cfg["n_t"], seed))

    grid = fs.regular_grid(data_cfg["rows"], data_cfg["cols"], data_cfg["extent"])
    knots = fs.knot_lattice(data_cfg["knot_side"], data_cfg["extent"])
    w = fs.wendland_basis(grid.sites, knots, data_cfg["wendland_radius"])
    c = fs.smooth_condition(raw, window=5)
    theta = fs.simulate_theta(c, knots, gamma=data_cfg["gamma"],
                              b=data_cfg["b"], tau=data_cfg["tau"])
    x, z = fs.simulate_dataset(theta, w, data_cfg["alpha0"], seed,
                               return_latent=True)

    files.write("sites.csv", write_coords_csv, grid.sites, "site_id")
    files.write("knots.csv", write_coords_csv, knots, "knot_id")
    files.write("conditions.csv", write_series_csv, c)
    files.write("fields.csv", write_matrix_csv, x, "site_")
    files.write("theta_truth.csv", write_matrix_csv, theta, "knot_")
    files.write("latent_truth.csv", write_matrix_csv, z, "knot_")
    files.manifest("simulate", seed, {"data": data_cfg})
    print(f"simulated {x.shape[0]} x {x.shape[1]} fields "
          f"(K={knots.shape[0]}) into {args.out}")
    return 0


def _hyper_from(cfg: dict, desk: bool, flags: dict) -> HyperParams:
    try:
        return HyperParams(**_merged("hyper", cfg, {} if desk else DEFAULT_HYPER, flags))
    except ValueError as err:
        raise ConfigError(f"hyperparameters: {err}") from None


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg)
    files = _Files(args.out, args.fields, args.conditions, args.knots, args.sites,
                   args.grid, args.config)
    x = files.table(args.fields, positive=True)
    c = files.series(args.conditions, args.fields)
    knots = files.coords(args.knots) if args.knots else None
    sites = files.coords(args.sites, args.fields) if args.sites else None

    hyper = _hyper_from(cfg, args.desk, {
        "epochs": args.epochs, "learning_rate": args.lr, "seed": seed,
        "fix_w": True if args.fixed_w else None,
    })
    train_cfg = tr.TrainConfig(hyper=hyper, **cfg.get("train", {}))
    radius = _settings("data", cfg, DESK_DATA if args.desk else None)["wendland_radius"]

    candidates = []
    if args.grid_epochs is not None:
        if not args.grid:
            raise ConfigError("--grid-epochs needs --grid")
        check_value("--grid-epochs", args.grid_epochs, int, ge=0)
    if args.grid:
        try:
            with open(args.grid, "r", encoding="utf-8") as fh:
                grid = json.load(fh)
            if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
                raise TypeError("expected a JSON list of objects")
            candidates = [tr.apply_overrides(train_cfg, g) for g in grid]
        except (KeyError, TypeError, ValueError) as err:     # JSONDecodeError too
            raise ConfigError(f"grid {args.grid}: {err}") from None
    if knots is not None and sites is not None:
        try:                                   # a learnable W starts at this matrix
            fs.wendland_basis(sites, knots, radius)
        except ValueError as err:
            raise ConfigError(f"model: {err}") from None
    try:                                       # geometry, e.g. --fixed-W's W
        for cand in [train_cfg] + candidates:
            ModelConfig(n_sites=x.shape[1], hyper=cand.hyper, knots=knots,
                        sites=sites, wendland_radius=radius)
    except ValueError as err:
        where = "" if cand is train_cfg else f"grid {args.grid}: "
        raise ConfigError(f"{where}model: {err}") from None
    if args.grid:
        train_cfg, scores = tr.grid_search(
            x, c, candidates, search_epochs=args.grid_epochs,
            knots=knots, sites=sites, wendland_radius=radius)
        files.write("grid_scores.csv", write_series_csv, scores, "score",
                    index_name="candidate")

    model, report = tr.train(x, c, dataclasses.replace(
        train_cfg, checkpoint_path=files.output("checkpoint.json")),
        knots=knots, sites=sites, wendland_radius=radius)
    files.write("train_report.csv", write_series_csv, report.loss_history, "loss",
                index_name="epoch")
    files.manifest("train", train_cfg.hyper.seed)
    print(f"trained {model.config.hyper.epochs} epochs "
          f"({model.params.size} parameters, {report.seconds:.1f}s), "
          f"final loss {report.loss_history[-1] if report.loss_history else float('nan'):.6g}, "
          f"converged={report.converged}")
    return 0


def _parse_sites(text: str, n_sites: int) -> np.ndarray:
    """``--sites`` as indices, distinct integers in [0, n_sites)."""
    try:
        return emu.check_sites([int(s) for s in text.split(",")], n_sites)
    except ValueError:
        raise ConfigError(f"--sites takes distinct comma-separated integers in "
                          f"0..{n_sites - 1}, got {text!r}") from None


def _emulate_common(args, counterfactual_mode: bool) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg)
    emu_cfg = _settings("emulate", cfg, flags={"n_samples": args.n_samples})
    n_samples = emu_cfg["n_samples"]
    cf_path = getattr(args, "cf_conditions", None)
    files = _Files(args.out, args.checkpoint, args.fields, args.conditions, cf_path,
                   args.config)
    model = tr.checkpoint_load(args.checkpoint)
    sites_sel = _parse_sites(args.sites, model.config.n_sites) if args.sites else None
    x = files.table(args.fields, positive=True)
    files.one_per(args.checkpoint, model.config.n_sites, "sites", args.fields, 1)
    c = files.series(args.conditions, args.fields)

    scenario = "factual"
    c_used = c
    if counterfactual_mode:
        scenario = "counterfactual"
        if cf_path:
            c_used = files.series(cf_path, args.fields)
        elif args.flip:
            c_used = emu.flip_condition(c)
        else:
            raise ConfigError("counterfactual needs --flip or --cf-conditions")
    elif args.condition_mode:
        c_used = emu.ablate_condition(c, args.condition_mode, seed)
        scenario = args.condition_mode

    opts = {key: emu_cfg[key] for key in ("mode", "draw_latent_noise", "draw_data_noise")}
    if counterfactual_mode:
        ens = emu.counterfactual(model, x, c, c_used, n_samples, seed,
                                 sites=sites_sel, **opts)
    else:
        ens = emu.emulate(model, x, c_used, n_samples, seed, scenario=scenario,
                          sites=sites_sel, **opts)

    files.write("ensemble.csv", write_ensemble, ens)
    files.write("theta_hat.csv", _write_csv, ["time_index", "knot_id", "mean", "std"],
                np.stack([ens.theta.mean(axis=2), ens.theta.std(axis=2)], axis=2),
                [f",{k}," for k in range(ens.theta.shape[1])])
    files.write("emulated_fields.csv", write_matrix_csv, ens.samples[:, :, 0], "site_",
                ids=ens.site_indices)
    files.manifest("counterfactual" if counterfactual_mode else "emulate", seed)
    print(f"wrote {scenario} ensemble of {ens.n_samples} samples to {args.out}")
    return 0


def cmd_emulate(args) -> int:
    return _emulate_common(args, counterfactual_mode=False)


def cmd_counterfactual(args) -> int:
    return _emulate_common(args, counterfactual_mode=True)


def cmd_metrics(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg)
    files = _Files(args.out, args.truth, args.emulated, args.coords, args.ensemble,
                   args.config)
    truth = files.table(args.truth)
    emulated = files.table(args.emulated)
    # emulate --sites writes the kept sites only
    files.one_per(args.emulated, emulated.shape[1], "columns", args.truth, 1)
    coords = files.coords(args.coords, args.truth)
    if args.ensemble:
        ens, site_ids, scenario = _read_ensemble_csv(args.ensemble)
        if ens.shape[0] != truth.shape[0] \
                or not np.all((site_ids >= 0) & (site_ids < truth.shape[1])):
            raise ConfigError(f"ensemble {args.ensemble} does not fit the truth's "
                              f"{truth.shape[0]} time steps and {truth.shape[1]} sites")
    m_cfg = _settings("metrics", cfg, ref_index={"lt": truth.shape[1]})
    u = np.asarray(m_cfg["u"], dtype=np.float64)

    psi = mx.grid_spacing(coords)
    distance = m_cfg["distance"] if m_cfg["distance"] is not None else psi
    tol = m_cfg["tol"] if m_cfg["tol"] is not None else psi / 2.0
    ref = (m_cfg["ref_index"] if m_cfg["ref_index"] is not None
           else int(np.argmin(np.sum((coords - coords.mean(axis=0)) ** 2, axis=1))))
    pairs = mx.select_pairs(coords, distance, tol, m_cfg["max_pairs"], seed)

    sidecar = {"distance": distance, "tol": tol, "psi": psi, "seed": seed,
               "n_boot": m_cfg["n_boot"], "ref_index": ref}
    for name, fields in (("truth", truth), ("emulated", emulated)):
        chi = mx.chi_curve(fields, pairs, u, m_cfg["n_boot"], seed)
        files.write(f"chi_{name}.csv", write_curve_csv, chi)
        are = mx.are_curve(fields, psi, ref, u, n_boot=m_cfg["n_boot"], seed=seed)
        files.write(f"are_{name}.csv", write_curve_csv, are)

    if args.ensemble:
        obs = truth[:, site_ids]
        scores = mx.twcrps_field(ens, obs).scores
        label = _quote(scenario) + ","
        files.write("twcrps.csv", _write_csv, ["scenario", "time_index", "site_id", "twcrps"],
                    scores, [f",{sid}," for sid in site_ids.tolist()], prefix=label)
        files.write("twcrps_summary.csv", _write_csv, ["scenario", "median_twcrps"],
                    [np.median(scores)], [""], prefix=label, index=False)
        q = np.linspace(0.01, 0.99, 99)
        qo, qe = mx.qq_data(obs.ravel(), ens.ravel(), q)
        files.write("qq.csv", _write_csv, ["q", "obs_quantile", "ensemble_quantile"],
                    np.column_stack([q, qo, qe]), [""], index=False)

    with open(files.output("metrics_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
    files.manifest("metrics", seed)
    print(f"wrote dependence and score diagnostics to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    seed = _seed(args, {})
    check_value("--tol", args.tol, float, gt=0)
    hyper = HyperParams(latent_dim=4, n_theta_basis=4, conv_channels=8,
                        enc_widths=(16,), rho0=0.5, seed=seed)
    cfg = ModelConfig(n_sites=25, hyper=hyper)
    params = mdl.init_params(cfg, seed)
    rng = substream(seed, "gradcheck-data")
    x = np.exp(rng.standard_normal((6, 25)))
    c = rng.random(6)
    eps = mdl.draw_eps(cfg, 6, seed)
    report = fd_check(lambda p: mdl.penalized_elbo(cfg, p, x, c, eps), params,
                      step=1e-5)
    ok = report.max_rel_err <= args.tol
    print(f"gradcheck: max relative error {report.max_rel_err:.3e} "
          f"at {report.argmax[0]}{list(report.argmax[1])} over "
          f"{params.size} parameters ({report.n_skipped} kink-filtered) "
          f"-> {'PASS' if ok else 'FAIL'} (tol {args.tol:g})")
    return 0 if ok else 1


def cmd_tailcheck(args) -> int:
    seed = _seed(args, {})
    check_value("--n", args.n, int, ge=1)
    check_value("--level", args.level, float, gt=0, lt=1)
    tau, alpha0 = 1.0, 2.0
    # tight site cluster between the two knots: the shared latent factors
    # dominate, so joint exceedances accumulate
    sites = np.array([[0.45, 0.45], [0.55, 0.45], [0.45, 0.55], [0.55, 0.55]])
    knots = np.array([[0.25, 0.25], [0.75, 0.75]])
    w = fs.wendland_basis(sites, knots, radius=2.0)
    theta = np.array([0.1, 0.3])
    z = np.column_stack([
        expps_sample_field(np.full(args.n, th), substream(seed, "z", k))
        for k, th in enumerate(theta)
    ])
    y = z @ w.T
    res = tail_equivalence_check(y, tau, alpha0, seed, level=args.level)
    marg_ok = abs(res.marginal_ratio - res.expected_marginal) <= 0.20 * res.expected_marginal
    joint_ok = abs(res.joint_ratio - res.expected_joint) <= 0.35 * res.expected_joint
    print(f"tailcheck: marginal ratio {res.marginal_ratio:.4f} "
          f"(target {res.expected_marginal:g} +/- 20%) -> "
          f"{'PASS' if marg_ok else 'FAIL'}")
    print(f"tailcheck: joint ratio {res.joint_ratio:.4f} "
          f"(target {res.expected_joint:g} +/- 35%) -> "
          f"{'PASS' if joint_ok else 'FAIL'}")
    return 0 if (marg_ok and joint_ok) else 1


def cmd_preprocess(args) -> int:
    files = _Files(args.out, args.daily, args.sites)
    daily = files.table(args.daily)
    coords = files.coords(args.sites, args.daily)
    try:
        calendar = pp.daily_calendar(dt.date.fromisoformat(args.start_date),
                                     daily.shape[0])
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"--start-date {args.start_date!r}: {err}") from None
    n_months = len(calendar.months)
    if n_months < GEV_MIN_OBS:
        raise ConfigError(f"{args.daily}: {n_months} months of days, the GEV fit "
                          f"needs at least {GEV_MIN_OBS} monthly maxima")
    # a chi-square test needs more bins than fitted parameters plus one
    check_value("--bins", args.bins, int, gt=pp.GEV_PARAMS + 1)
    check_value("--radius-km", args.radius_km, float, gt=0)

    results = pp.run_pipeline(daily, calendar, coords, radius_km=args.radius_km,
                              n_bins=args.bins, doubled=args.doubled)
    months = results[0].months
    files.write("monthly_maxima.csv", write_matrix_csv,
                np.column_stack([r.maxima for r in results]), "site_",
                index_name="month_index")
    files.write("fields.csv", write_matrix_csv,
                np.column_stack([r.transformed for r in results]), "site_")
    files.write("gev_params.csv", _write_csv, ["site_id", "mu", "sigma", "xi"],
                [(r.gev.mu, r.gev.sigma, r.gev.xi) for r in results])
    files.write("gof.csv", _write_csv, ["site_id", "statistic", "df", "p_value"],
                [(r.gof.statistic, r.gof.df, r.gof.p_value) for r in results])
    files.write("months.csv", _write_csv, ["month_index", "year", "month"], months)
    files.manifest("preprocess", None)
    print(f"preprocessed {daily.shape[1]} sites, {len(months)} months -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="extvae",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON run configuration")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("simulate", help="generate a synthetic dataset")
    common(sp)
    sp.add_argument("--desk", action="store_true",
                    help="small 20x20 preset instead of the 50x50 default")
    sp.add_argument("--conditions", help="raw condition series CSV to smooth")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("preprocess", help="daily series -> Pareto-scale fields")
    sp.add_argument("--daily", required=True, help="daily values CSV (wide)")
    sp.add_argument("--sites", required=True, help="site lon/lat CSV")
    sp.add_argument("--start-date", required=True, help="first day, ISO format")
    sp.add_argument("--radius-km", type=float, default=pp.DEFAULT_NEIGHBOR_KM)
    sp.add_argument("--bins", type=int, default=10)
    sp.add_argument("--doubled", action="store_true",
                    help="classical factor-2 likelihood-ratio statistic")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("train", help="fit the model")
    common(sp)
    sp.add_argument("--fields", required=True)
    sp.add_argument("--conditions", required=True)
    sp.add_argument("--knots")
    sp.add_argument("--sites")
    sp.add_argument("--desk", action="store_true")
    sp.add_argument("--epochs", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--fixed-W", dest="fixed_w", action="store_true",
                    help="keep the weight matrix fixed at the Wendland basis")
    sp.add_argument("--grid", help="JSON list of hyperparameter overrides")
    sp.add_argument("--grid-epochs", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    for name, fn in (("emulate", cmd_emulate), ("counterfactual", cmd_counterfactual)):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--fields", required=True)
        sp.add_argument("--conditions", required=True)
        sp.add_argument("--n-samples", type=int, default=None)
        sp.add_argument("--sites", help="comma-separated site indices to keep")
        if name == "emulate":
            sp.add_argument("--condition-mode", choices=["white-noise", "fixed"],
                            help="ablate the condition series")
        else:
            sp.add_argument("--flip", action="store_true",
                            help="counterfactual c -> 1 - c")
            sp.add_argument("--cf-conditions", help="explicit series CSV")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("metrics", help="dependence and score diagnostics")
    common(sp)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--emulated", required=True)
    sp.add_argument("--coords", required=True)
    sp.add_argument("--ensemble", help="ensemble for twCRPS/QQ: the long "
                    "ensemble.csv of one scenario")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(func=cmd_gradcheck)

    sp = sub.add_parser("tailcheck", help="noise-replacement tail-ratio audit")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--n", type=int, default=10**6)
    sp.add_argument("--level", type=float, default=0.999,
                    help="pooled quantile level defining the tail")
    sp.set_defaults(func=cmd_tailcheck)
    return p


@functools.cache
def _hold_heap() -> bool:
    """Fix glibc's mmap and trim thresholds at their own 64-bit ceilings.

    A training step frees megabytes of tape temporaries; under glibc's dynamic
    thresholds the heap top goes back to the kernel after each step and is
    faulted in again by the next.  32 MiB is the dynamic mmap threshold's cap
    and 64 MiB its 2x trim rule; setting either stops the adjustment, so both
    are set.  Allocation policy only: no value changes.  Returns False, and
    does nothing, where there is no ``mallopt`` (another libc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1; 0 means refused
    return bool(mallopt(-3, 32 << 20)) and bool(mallopt(-1, 64 << 20))


def main(argv=None) -> int:
    _hold_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, tr.CheckpointError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (tr.TrainingError, NonFiniteError, FloatingPointError, ValueError,
            OverflowError, RuntimeError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
