"""The JSON leaf types that the config and trajectory files share, and the
trajectory file (`trajectories/rep_<idx>.json`).

The trajectory format is declared once, in `TRAJECTORY`: each key with its
leaf type, its shape in terms of the config's dimension `d`, and whether it
may be null.  `trajectory_payload` writes a record by walking it, and
`record_from_trajectory` reads a file by walking it, then checks what types
cannot say.  A file without `"format": FORMAT`, or with a key the
declaration does not list, is a ConfigError naming the key.
"""

from __future__ import annotations

import json
import math
import numbers
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError, ContractError, EstimatorUnavailable
from .estimators import ArmFit, IvwEstimate, KnownSigma, RunningSums, StackedFit, ivw_combine
from .linalg import eigvalsh, require_symmetric
from .records import ExperimentRecord, SimulationSetup
from .stopping import evaluate

FORMAT = 2


def _describe(value) -> str:
    return json.dumps(value, default=repr)


def _real(value) -> Optional[float]:
    """A finite real number (not a bool), or None."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            return None
        if math.isfinite(real):
            return real
    return None


def _integer(value, low: float = -math.inf, high: float = math.inf) -> Optional[int]:
    """An int, or a finite float with an integral value, in [low, high); else None."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        integer = int(value)
    else:
        real = _real(value)
        integer = int(real) if real is not None and real.is_integer() else None
    return integer if integer is not None and low <= integer < high else None


def _finite_entries(value) -> bool:
    return isinstance(value, list) and all(
        _finite_entries(v) if isinstance(v, list) else _real(v) is not None for v in value
    )


def _array(value) -> Optional[np.ndarray]:
    """A JSON array, possibly nested, of finite numbers; else None."""
    if _finite_entries(value):
        try:
            return np.asarray(value, dtype=float)
        except ValueError:  # ragged nesting
            pass
    return None


class _Leaf:
    """One JSON value type: `parse` gives the Python value, or None when the
    JSON value is not of this type; `to_json` gives a value's JSON form
    where that is not the value itself."""

    def __init__(self, what: str, parse, to_json=None):
        self.what, self.parse, self.to_json = what, parse, to_json

    def read(self, value, key: str):
        parsed = self.parse(value)
        if parsed is None:
            raise ConfigError(f"{key} must be {self.what}, got {_describe(value)}")
        return parsed

    def write(self, value):
        return value if self.to_json is None else self.to_json(value)

    def column(self, values) -> list:
        """`write` over `values`, None kept: one call per key of a trajectory's batches."""
        to_json = self.to_json
        return list(values) if to_json is None else [None if v is None else to_json(v) for v in values]


INT = _Leaf("an integer", _integer)
REAL = _Leaf("a finite number", _real)
BOOL = _Leaf("true or false", lambda v: v if isinstance(v, bool) else None)
STR = _Leaf("a string", lambda v: v if isinstance(v, str) else None)
ARRAY = _Leaf("an array of finite numbers", _array, lambda a: np.asarray(a, dtype=float).tolist())
LIST = _Leaf("an array", lambda v: v if isinstance(v, list) else None)
DICT = _Leaf("a JSON object", lambda v: v if isinstance(v, dict) else None)
_U64 = _Leaf("in [0, 2**64)", lambda v: _integer(v, 0, 1 << 64))
_COUNT = _Leaf("an integer >= 0", lambda v: _integer(v, 0))
# Batch statistics are float arrays, so they skip ARRAY's np.asarray.
_FLOATS = _Leaf(ARRAY.what, _array, np.ndarray.tolist)
_DIAGNOSTICS = _Leaf(DICT.what, DICT.parse, lambda d: {k: float(v) for k, v in d.items()})


class _Key:
    """A declared key: a leaf type, or a dict of keys (a JSON object with
    exactly those keys, read as a dict), or a one-item list of one (a JSON
    array of such objects, one per batch); for a leaf, an array's shape
    ("d": the config's dimension); whether it may be null; and how the
    writer gets its value from the object it writes (by default, the
    attribute of the key's name)."""

    def __init__(self, kind, shape=None, nullable: bool = False, get=None):
        self.kind, self.shape, self.nullable, self.get = kind, shape, nullable, get

    def read(self, value, path: str, dim: int):
        label, kind = f"trajectory key {path!r}", self.kind
        if value is None and self.nullable:
            return None
        if isinstance(kind, list):
            return [_read_object(kind[0], v, f"{path}[{i}]", dim) for i, v in enumerate(LIST.read(value, label))]
        if isinstance(kind, dict):
            return _read_object(kind, value, path, dim)
        value = kind.read(value, label)
        shape = self.shape and tuple(dim if n == "d" else n for n in self.shape)
        if shape and value.shape != shape:
            raise ConfigError(f"{label} must have shape {shape}, got {value.shape}")
        return value

    def write(self, value):
        """The JSON form of `value`; a list of entries is written a column
        (one key over every entry) at a time."""
        kind = self.kind
        if value is None:
            return None
        if isinstance(kind, _Leaf):
            return kind.write(value)
        if isinstance(kind, dict):
            return {name: key.write(key.get(value)) for name, key in kind.items()}
        columns = [key.kind.column(map(key.get, value)) for key in kind[0].values()]
        return list(map(dict, map(zip, repeat(tuple(kind[0])), zip(*columns))))


def _read_object(keys: Dict[str, _Key], value, path: str, dim: int) -> Dict:
    data, values = DICT.read(value, f"trajectory key {path!r}"), {}
    extra = sorted(data.keys() - keys.keys())
    if extra:
        raise ConfigError(f"trajectory key {_join(path, extra[0])!r} is not in trajectory format {FORMAT}")
    for name, key in keys.items():
        if name not in data:
            raise ConfigError(f"trajectory key {_join(path, name)!r} is missing")
        values[name] = key.read(data[name], _join(path, name), dim)
    return values


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _declare(get=None, nullable: bool = False, many: bool = False, **keys: _Key) -> _Key:
    """A key whose value is an object of `keys` (with `many`, a list of them)."""
    for name, key in keys.items():
        key.get = key.get or attrgetter(name)
    return _Key([keys] if many else keys, nullable=nullable, get=get)


_VEC, _MAT = ("d",), ("d", "d")
_STOP_TRACE = _declare(  # of `StopDecision`s
    attrgetter("trajectory.stop_trace"), many=True,
    t=_Key(INT), stop=_Key(BOOL), cap_hit=_Key(BOOL), diagnostics=_Key(_DIAGNOSTICS),
)
TRAJECTORY = _declare(
    format=_Key(INT, get=lambda rec: FORMAT),
    rep=_Key(_COUNT, get=attrgetter("rep_index")),
    seed=_Key(_U64),
    inference_seed=_Key(_U64),
    stop_time=_Key(INT),
    cap_hit=_Key(BOOL),
    noise_plugin=_Key(ARRAY, (2,), nullable=True, get=lambda rec: rec.ivw and rec.ivw.noise_sd),
    sufficient_stats=_declare(  # of `Trajectory.stats`' (beta1, gram1, beta0, gram0)
        attrgetter("trajectory.stats"), many=True,
        beta1=_Key(_FLOATS, _VEC, nullable=True, get=itemgetter(0)),
        gram1=_Key(_FLOATS, _MAT, get=itemgetter(1)),
        beta0=_Key(_FLOATS, _VEC, nullable=True, get=itemgetter(2)),
        gram0=_Key(_FLOATS, _MAT, get=itemgetter(3)),
    ),
    stop_trace=_STOP_TRACE,
    terminal=_declare(  # of the `IvwEstimate`; null: the run left none
        attrgetter("ivw"), nullable=True,
        beta0=_Key(ARRAY, _VEC), beta1=_Key(ARRAY, _VEC), var0=_Key(ARRAY, _MAT), var1=_Key(ARRAY, _MAT),
        batch_size=_Key(INT),
    ),
)


def trajectory_payload(rec: ExperimentRecord) -> Dict:
    """The JSON form of a record's trajectory file."""
    return TRAJECTORY.write(rec)


def record_from_trajectory(payload, setup: SimulationSetup, resimulation: bool) -> ExperimentRecord:
    """The slice of an ExperimentRecord that inference needs, from a
    trajectory file's JSON `payload` under the run's `setup`; `resimulation`
    says whether the sampler draws its surrogates' noise at the stored
    plug-in scales.  A payload that is malformed, does not fit the set-up
    or cannot be inferred from is a ConfigError naming the key."""
    payload = DICT.read(payload, "trajectory")
    if _integer(payload.get("format")) != FORMAT:
        given = _describe(payload["format"]) if "format" in payload else "missing"
        raise ConfigError(f"trajectory key 'format' is {given}; this banditstop reads trajectory format {FORMAT}")
    rule, file = setup.rule, TRAJECTORY.read(payload, "", setup.context.dim)
    stop_time, cap_hit = file["stop_time"], file["cap_hit"]  # a cap hit: the rule did not fire by t_max
    if not 1 <= stop_time <= rule.t_max:
        raise ConfigError(f"trajectory key 'stop_time' must lie in 1..{rule.t_max}")
    for key in ("sufficient_stats", "stop_trace"):
        if len(file[key]) != stop_time:
            raise ConfigError(f"trajectory key {key!r} must have stop_time = {stop_time} entries")
    # One decision per batch, each the one the config's rule makes from the
    # norms it stores and those of the entry before, as the loops carry them;
    # the last is the run's only stop.
    previous, logged = None, []
    for i, d in enumerate(file["stop_trace"]):
        path, last = f"stop_trace[{i}]", i + 1 == stop_time
        norms = (d["diagnostics"].get("var_norm_arm0"), d["diagnostics"].get("var_norm_arm1"))
        current = norms if all(isinstance(v, float) for v in norms) else None
        again = json.dumps(_STOP_TRACE.write([evaluate(rule, i + 1, current, previous)])[0], sort_keys=True)
        if json.dumps(d, sort_keys=True) != again:
            raise ConfigError(f"trajectory key {path!r} does not follow from the config's stopping rule: {again}")
        want = {"stop": last, "cap_hit": last and cap_hit}
        if {k: d[k] for k in want} != want:
            raise ConfigError(
                f"trajectory key {path!r} must have {json.dumps(want)}, since 'stop_time' is {stop_time} "
                f"and 'cap_hit' is {json.dumps(cap_hit)}"
            )
        previous = current
        logged.append(current)
    noise_sd, term, known = file["noise_plugin"], file["terminal"], isinstance(setup.sigma_mode, KnownSigma)
    if noise_sd is None and resimulation:  # it draws the surrogates' noise at these scales
        raise ConfigError("trajectory key 'noise_plugin' must be an array of finite numbers, got null")
    if noise_sd is not None and known and noise_sd.tolist() != [setup.sigma_mode.sigma] * 2:
        sigma = setup.sigma_mode.sigma
        raise ConfigError(f"trajectory key 'noise_plugin' must be [{sigma!r}, {sigma!r}] under a known sigma")
    if noise_sd is not None and (noise_sd < 0).any():
        raise ConfigError("trajectory key 'noise_plugin' must be nonnegative")
    if term is None:
        raise ConfigError("trajectory key 'terminal' must be a JSON object, got null: the run left no estimate")
    if term["batch_size"] != setup.batch_size:
        raise ConfigError(f"trajectory key 'terminal.batch_size' must be {setup.batch_size}")
    for key in ("var0", "var1"):
        try:
            require_symmetric(term[key])
        except ContractError:
            raise ConfigError(f"trajectory key 'terminal.{key}' must be symmetric") from None
        if eigvalsh(term[key])[0] < 0:
            raise ConfigError(f"trajectory key 'terminal.{key}' must have no negative eigenvalue")
    ivw = IvwEstimate(**term, noise_sd=None if noise_sd is None else tuple(noise_sd.tolist()))
    if known:
        _refold(file["sufficient_stats"], None if rule.predetermined else logged, ivw, setup)
    return ExperimentRecord(
        rep_index=file["rep"], seed=file["seed"], setup=setup, stop_time=stop_time, cap_hit=cap_hit, ivw=ivw,
        regret_hat=None, creg=None, inference=None, inference_seed=file["inference_seed"],
    )


def _refold(stats, logged: Optional[list], ivw: IvwEstimate, setup: SimulationSetup) -> None:
    """Under a known noise scale a trajectory's stored (beta, G) pairs alone
    give the norms an online rule reads and the terminal estimate: fold them
    as the run did and require, bit for bit, the norms the stop trace logs
    (`logged`, None for a pre-determined rule) and the stored terminal."""
    dim = setup.context.dim
    sums, zero, combined = RunningSums.empty(dim, residual=False), np.zeros(dim), None
    for i, e in enumerate(stats):
        sums.add(StackedFit.of_arms(*(ArmFit(e[f"beta{a}"], e[f"gram{a}"], 0, None, zero, None) for a in (0, 1))))
        try:
            combined = ivw_combine(sums, setup.sigma_mode, setup.batch_size)
        except EstimatorUnavailable:
            combined = None
        if logged is not None and logged[i] != (None if combined is None else combined.var_norms):
            raise ConfigError(f"trajectory key 'sufficient_stats[{i}]' does not give the norms 'stop_trace[{i}]' logs")
    names = ("beta0", "beta1", "var0", "var1")
    if combined is None or any(getattr(combined, k).tobytes() != getattr(ivw, k).tobytes() for k in names):
        raise ConfigError("trajectory key 'terminal' is not the combined estimate its 'sufficient_stats' give")
