"""The JSON leaf types that the config and trajectory files share, and the
trajectory file (`trajectories/rep_<idx>.json`).

The trajectory format is declared once, in `TRAJECTORY`, for either sigma
mode: each key with its leaf type, its shape in terms of the config's
dimension `d`, and whether it may be null.  `trajectory_payload` writes a
record by walking it, and `record_from_trajectory` reads a file by walking
it, naming the key of any ConfigError.  The per-batch statistics are the
file's one source of truth: each `sufficient_stats` entry holds what the
fold of the running sums reads of the batch's fit (`_READS`), and the
stored stop trace, stop, noise scales and terminal must equal what it gives.
"""

from __future__ import annotations

import json
import math
import numbers
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional

import numpy as np

from .errors import ConfigError, EstimatorUnavailable
from .estimators import KnownSigma, RunningSums, StackedFit, ivw_combine
from .records import ExperimentRecord, SimulationSetup
from .stopping import evaluate

FORMAT = 3


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


INT = _Leaf("an integer", _integer)
REAL = _Leaf("a finite number", _real)
BOOL = _Leaf("true or false", lambda v: v if isinstance(v, bool) else None)
STR = _Leaf("a string", lambda v: v if isinstance(v, str) else None)
ARRAY = _Leaf("an array of finite numbers", _array, lambda a: np.asarray(a, dtype=float).tolist())
LIST = _Leaf("an array", lambda v: v if isinstance(v, list) else None)
DICT = _Leaf("a JSON object", lambda v: v if isinstance(v, dict) else None)
_U64 = _Leaf("in [0, 2**64)", lambda v: _integer(v, 0, 1 << 64))
_COUNT = _Leaf("an integer >= 0", lambda v: _integer(v, 0))
# The writer hands batch statistics over as lists (`_stats`).
_LISTED = _Leaf(ARRAY.what, _array)


class _Key:
    """A declared key: a leaf type, or a dict of keys (a JSON object with
    exactly those keys, read as a dict), or a one-item list of one (a JSON
    array of such objects, one per batch); for a leaf, an array's shape
    ("d": the config's dimension); whether it may be null; and how the
    writer gets its value from the object it writes (by default, the
    attribute of the key's name), in its JSON form for a key of a list."""

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
        (one key's getter over every entry) at a time."""
        kind = self.kind
        if value is None:
            return None
        if isinstance(kind, _Leaf):
            return kind.write(value)
        if isinstance(kind, dict):
            return {name: key.write(key.get(value)) for name, key in kind.items()}
        columns = [list(map(key.get, value)) for key in kind[0].values()]
        return list(map(dict, map(zip, repeat(tuple(kind[0])), zip(*columns))))


def _read_object(keys: Dict[str, _Key], value, path: str, dim: int) -> Dict:
    data, values, prefix = DICT.read(value, f"trajectory key {path!r}"), {}, f"{path}." if path else ""
    extra = sorted(data.keys() - keys.keys())
    if extra:
        raise ConfigError(f"trajectory key {prefix + extra[0]!r} is not in trajectory format {FORMAT}")
    for name, key in keys.items():
        if name not in data:
            raise ConfigError(f"trajectory key {prefix + name!r} is missing")
        values[name] = key.read(data[name], prefix + name, dim)
    return values


def _declare(get=None, nullable: bool = False, many: bool = False, **keys: _Key) -> _Key:
    """A key whose value is an object of `keys` (with `many`, a list of them)."""
    for name, key in keys.items():
        key.get = key.get or attrgetter(name)
    return _Key([keys] if many else keys, nullable=nullable, get=get)


_VEC, _MAT = ("d",), ("d", "d")
_STOP_TRACE = _declare(  # of `StopDecision`s
    attrgetter("trajectory.stop_trace"), many=True,
    t=_Key(INT), stop=_Key(BOOL), cap_hit=_Key(BOOL),
    diagnostics=_Key(DICT, get=lambda d: {k: float(v) for k, v in d.diagnostics.items()}),
)
_TERMINAL = _declare(  # of the `IvwEstimate`; null: the run left none
    attrgetter("ivw"), nullable=True,
    beta0=_Key(ARRAY, _VEC), beta1=_Key(ARRAY, _VEC), var0=_Key(ARRAY, _MAT), var1=_Key(ARRAY, _MAT),
    batch_size=_Key(INT),
)
# What the fold reads of an arm's batch fit, by sigma mode (residual or not):
# each `StackedFit` field, stored as `<field><arm>`, with where it holds a
# value (True: only where the arm's batch Gram is invertible, so `beta` is
# not null; False: only where it is singular; None: always), leaf and shape.
# A known sigma's fold reads no singular arm's Gram and no count, X'y or y'y.
_READS = {
    False: {"beta": (True, _LISTED, _VEC), "gram": (True, _LISTED, _MAT)},
    True: {
        "beta": (True, _LISTED, _VEC), "gram": (None, _LISTED, _MAT), "count": (None, _COUNT, None),
        "rss": (True, REAL, None), "moment": (False, _LISTED, _VEC), "sum_sq": (False, REAL, None),
    },
}


def _stats(residual: bool) -> _Key:
    """`sufficient_stats` under either sigma mode.  The writer slices each
    batch's fit in the trajectory's row, one `tolist` per field and batch
    (cheaper than over a stack), into one tuple of the keys' values."""
    reads = _READS[residual]
    keys = [(name, arm, *read) for name, read in reads.items() for arm in (0, 1)]  # and when, leaf, shape

    def rows(rec) -> List[tuple]:
        stats = rec.trajectory.stats
        fields = {name: [getattr(fit, name)[row].tolist() for fit, row in stats] for name in ("usable", *reads)}
        return list(zip(*(
            [v[arm] if when is None or u[arm] is when else None for v, u in zip(fields[name], fields["usable"])]
            for name, arm, when, _, _ in keys
        )))

    return _declare(rows, many=True, **{
        f"{name}{arm}": _Key(leaf, shape, nullable=when is not None, get=itemgetter(k))
        for k, (name, arm, when, leaf, shape) in enumerate(keys)
    })


TRAJECTORY = {  # by sigma mode: residual or not
    residual: _declare(
        format=_Key(INT, get=lambda rec: FORMAT),
        rep=_Key(_COUNT, get=attrgetter("rep_index")),
        seed=_Key(_U64),
        inference_seed=_Key(_U64),
        stop_time=_Key(INT),
        cap_hit=_Key(BOOL),
        noise_plugin=_Key(ARRAY, (2,), nullable=True, get=lambda rec: rec.ivw and rec.ivw.noise_sd),
        sufficient_stats=_stats(residual),
        stop_trace=_STOP_TRACE,
        terminal=_TERMINAL,
    )
    for residual in (False, True)
}


def trajectory_payload(rec: ExperimentRecord) -> Dict:
    """The JSON form of a record's trajectory file."""
    return TRAJECTORY[not isinstance(rec.setup.sigma_mode, KnownSigma)].write(rec)


def record_from_trajectory(payload, setup: SimulationSetup) -> ExperimentRecord:
    """The slice of an ExperimentRecord that inference needs, from a
    trajectory file's JSON `payload` under the run's `setup`: its statistics
    folded as the run folded them, which give each decision, the stop and
    the terminal estimate.  A payload that is malformed, does not fit the
    set-up, disagrees bit for bit with what its statistics give or leaves no
    estimate is a ConfigError naming the key."""
    payload = DICT.read(payload, "trajectory")
    if _integer(payload.get("format")) != FORMAT:
        given = _describe(payload["format"]) if "format" in payload else "missing"
        raise ConfigError(f"trajectory key 'format' is {given}; this banditstop reads trajectory format {FORMAT}")
    rule, residual, dim = setup.rule, not isinstance(setup.sigma_mode, KnownSigma), setup.context.dim
    file = TRAJECTORY[residual].read(payload, "", dim)
    stop_time = file["stop_time"]
    if not 1 <= stop_time <= rule.t_max:
        raise ConfigError(f"trajectory key 'stop_time' must lie in 1..{rule.t_max}")
    for key in ("sufficient_stats", "stop_trace"):
        if len(file[key]) != stop_time:
            raise ConfigError(f"trajectory key {key!r} must have stop_time = {stop_time} entries")
    # The run's loop on the stored fits: fold, combine, decide.
    sums, norms = RunningSums.empty(dim, residual), None
    for i, entry in enumerate(file["sufficient_stats"]):
        sums.add(_batch_fit(entry, f"sufficient_stats[{i}]", _READS[residual], dim))
        previous = norms
        try:
            combined = ivw_combine(sums, setup.sigma_mode, setup.batch_size)
            norms = combined.var_norms
        except EstimatorUnavailable:
            combined = norms = None
        decision = evaluate(rule, i + 1, norms, previous)
        again = json.dumps(_STOP_TRACE.write([decision])[0], sort_keys=True)
        if json.dumps(file["stop_trace"][i], sort_keys=True) != again:
            raise ConfigError(
                f"trajectory key 'stop_trace[{i}]' does not follow from the config's stopping rule "
                f"on the 'sufficient_stats' up to it: {again}"
            )
        if decision.stop:
            break
    if not decision.stop or decision.t != stop_time:
        where = f"at batch {decision.t}" if decision.stop else "later"
        raise ConfigError(f"trajectory key 'stop_time' is {stop_time}, but the config's stopping rule stops {where}")
    if file["cap_hit"] != decision.cap_hit:
        raise ConfigError(f"trajectory key 'cap_hit' must be {json.dumps(decision.cap_hit)}, as in 'stop_trace[{i}]'")
    if combined is None:
        raise ConfigError("trajectory key 'terminal': the run left no estimate at its stop to infer from")
    ivw = combined.estimate()
    stored = {**payload, **{f"terminal.{k}": v for k, v in (payload["terminal"] or {}).items()}}
    derived = {"noise_plugin": list(ivw.noise_sd), **{f"terminal.{k}": v for k, v in _TERMINAL.write(ivw).items()}}
    for key, value in derived.items():  # as JSON text: bit for bit
        if json.dumps(stored.get(key)) != json.dumps(value):
            got = _describe(stored.get(key))
            raise ConfigError(f"trajectory key {key!r} must be {json.dumps(value)}, as 'sufficient_stats' give, got {got}")
    return ExperimentRecord(
        rep_index=file["rep"], seed=file["seed"], setup=setup, stop_time=stop_time, cap_hit=decision.cap_hit,
        ivw=ivw, regret_hat=None, creg=None, inference=None, inference_seed=file["inference_seed"],
    )


def _batch_fit(entry: Dict, path: str, reads: Dict, dim: int) -> StackedFit:
    """The batch fit an entry gives the fold, zero where it reads nothing; a null `beta`: a singular arm."""
    usable = [entry[f"beta{arm}"] is not None for arm in (0, 1)]
    fit = {"moment": np.zeros((2, dim)), "count": np.zeros(2, int), "sum_sq": None, "rss": None}  # known sigma
    for name, (when, _, shape) in reads.items():
        for arm in (0, 1):
            wanted = when is None or usable[arm] is when
            if (entry[f"{name}{arm}"] is not None) != wanted:
                raise ConfigError(
                    f"trajectory key '{path}.{name}{arm}' must {'not ' if wanted else ''}be null, "
                    f"since 'beta{arm}' is {'not ' if usable[arm] else ''}null"
                )
        zero = np.zeros([dim] * len(shape or ()))
        fit[name] = np.array([zero if entry[f"{name}{arm}"] is None else entry[f"{name}{arm}"] for arm in (0, 1)])
    return StackedFit(usable=np.array(usable), **fit)
