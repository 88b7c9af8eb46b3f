"""The two JSON files banditstop reads, declared once each and walked by
one reader and writer: the config file, and the trajectory file
(`trajectories/rep_<idx>.json`).

The walker: `_Key` declares a key (its leaf type, shape, whether it may be
null or left out, and how the writer gets its value), `_Object` a JSON
object of keys read as `build(**values)`, and `_Tagged` an object whose
`kind` key picks the `_Object` that reads it.  A value of the wrong type, a
missing key, or (in a strict object) an unknown key is a ConfigError of one
form, `<file> key '<dotted.path>' ...`.

The config format is one table, `_CONFIG`: each section is its dataclass
with its keys in order (`_section`, which takes from the dataclass defaults
whether a key may be left out or null, and ignores keys it does not list).
A section's range error is prefixed with its key.  An unknown
`sigma_mode.kind` reads as residual.

The trajectory format, `TRAJECTORY`, declares for either sigma mode each
key with its leaf type, its shape in terms of the config's dimension `d`,
and whether it may be null.  `set_up` stamps the run's set-up in the
config's form, and a file read under another set-up is an error naming the
first key that differs.  The per-batch statistics are then the file's one
source of truth: each `sufficient_stats` entry holds what the fold of the
running sums reads of the batch's fit (`_READS`), and the stored stop, cap
hit, noise scales and terminal must equal what it gives.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .bounds import check_bound_values
from .errors import ConfigError
from .estimators import KnownSigma, ResidualSigma, RunningSums, SigmaMode, StackedFit
from .inference import ConditionalSamplerConfig
from .model import ContextSpec, TrueModel, TruncatedGaussian, UniformBox
from .policies import ClipSchedule, EpsGreedy, PolicyKind, Schedule, Thompson, Ucb, UniformRandom
from .records import ExperimentRecord, SimulationSetup
from .simulate import fold_to_stop
from .stopping import StoppingRule

FORMAT = 4


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

    def read(self, value, label):
        parsed = self.parse(value)
        if parsed is None:
            raise ConfigError(f"{label} must be {self.what}, got {_describe(value)}")
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


class _At(NamedTuple):
    """Where the walker is: the file ("config" or "trajectory"), the schema
    it reads, the dimension `d` of array shapes, and the dotted key path."""

    file: str
    schema: str
    dim: Optional[int] = None
    path: str = ""

    def key(self, name: str) -> "_At":
        return self._replace(path=f"{self.path}.{name}" if self.path else name)

    def item(self, i: int) -> "_At":
        return self._replace(path=f"{self.path}[{i}]")

    def __str__(self) -> str:
        return f"{self.file} key {self.path!r}"


class _Key:
    """A declared key: its kind (a leaf type, an `_Object` or `_Tagged`, or
    a one-item list of one: a JSON array of such values, one per batch); for
    a leaf, an array's shape ("d": the file's dimension); whether it may be
    null or left out; and how the writer gets its value from the object it
    writes (by default, the attribute of the key's name), in its JSON form
    for a key of a list."""

    def __init__(self, kind, shape=None, nullable: bool = False, get=None, optional: bool = False):
        self.kind, self.shape, self.nullable, self.get, self.optional = kind, shape, nullable, get, optional

    def read(self, value, at: _At):
        kind = self.kind
        if value is None and self.nullable:
            return None
        if isinstance(kind, list):
            return [kind[0].read(v, at.item(i)) for i, v in enumerate(LIST.read(value, at))]
        value = kind.read(value, at)
        shape = self.shape and tuple(at.dim if n == "d" else n for n in self.shape)
        if shape and value.shape != shape:
            raise ConfigError(f"{at} must have shape {shape}, got {value.shape}")
        return value

    def write(self, value):
        """The JSON form of `value`; the getter of a list gives its JSON form."""
        return value if value is None or isinstance(self.kind, list) else self.kind.write(value)


class _Object:
    """A JSON object of the declared `keys`, read as `build(**values)` and
    written through each key's getter.  A `lenient` object ignores keys it
    does not declare; any other rejects them."""

    def __init__(self, build=dict, lenient: bool = False, **keys: _Key):
        for name, key in keys.items():
            key.get = key.get or attrgetter(name)
        self.build, self.lenient, self.keys = build, lenient, keys

    def read(self, value, at: _At):
        data, values = DICT.read(value, at), {}
        extra = not self.lenient and sorted(data.keys() - self.keys.keys())
        if extra:
            raise ConfigError(f"{at.key(extra[0])} is not in {at.schema}")
        for name, key in self.keys.items():
            if name in data:
                values[name] = key.read(data[name], at.key(name))
            elif not key.optional:
                raise ConfigError(f"{at.key(name)} is missing")
        try:
            return self.build(**values)
        except ConfigError as exc:  # a range error: name the object, unless at the root or already named
            if not at.path or str(exc).startswith(at.path):
                raise
            raise ConfigError(f"{at}: {exc}") from None

    def write(self, obj) -> Dict:
        return {name: key.write(key.get(obj)) for name, key in self.keys.items()}


class _Tagged:
    """A JSON object whose `kind` key picks the `_Object` that reads the rest.
    A kind not in `kinds` reads as `fallback`, or is an error without one."""

    def __init__(self, kinds: Dict[str, _Object], fallback: Optional[str] = None):
        self.kinds, self.fallback = kinds, fallback

    def read(self, value, at: _At):
        data = DICT.read(value, at)
        if "kind" not in data:
            raise ConfigError(f"{at.key('kind')} is missing")
        kind = STR.read(data["kind"], at.key("kind"))
        obj = self.kinds.get(kind, self.kinds.get(self.fallback))
        if obj is None:
            raise ConfigError(f"{at.key('kind')} must be one of {', '.join(self.kinds)}, got {_describe(kind)}")
        return obj.read({name: v for name, v in data.items() if name != "kind"}, at)

    def write(self, obj) -> Dict:
        kind = next(k for k, section in self.kinds.items() if section.build is type(obj))
        return {"kind": kind, **self.kinds[kind].write(obj)}


_VEC, _MAT = ("d",), ("d", "d")
_TERMINAL = _Key(_Object(  # of the `IvwEstimate`; null: the run left none
    beta0=_Key(ARRAY, _VEC), beta1=_Key(ARRAY, _VEC), var0=_Key(ARRAY, _MAT), var1=_Key(ARRAY, _MAT),
    batch_size=_Key(INT),
), nullable=True, get=attrgetter("ivw"))
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
    (cheaper than over a stack), and writes the entries a key at a time."""
    reads = _READS[residual]
    keys = [(f"{name}{arm}", name, arm, *read) for name, read in reads.items() for arm in (0, 1)]  # when, leaf, shape
    names = tuple(key[0] for key in keys)

    def rows(rec) -> List[Dict]:
        stats = rec.trajectory.stats
        fields = {name: [getattr(fit, name)[row].tolist() for fit, row in stats] for name in ("usable", *reads)}
        columns = (
            [v[arm] if when is None or u[arm] is when else None for v, u in zip(fields[name], fields["usable"])]
            for _, name, arm, when, _, _ in keys
        )
        return list(map(dict, map(zip, repeat(names), zip(*columns))))

    return _Key([_Object(**{
        key: _Key(leaf, shape, nullable=when is not None) for key, _, _, when, leaf, shape in keys
    })], get=rows)


def _set_up(setup: SimulationSetup) -> Dict:
    """The `set_up` of a run: each section of the config that the run reads,
    written by the `_CONFIG` key that declares it, and the bound constants
    that a pre-determined rule reads (null under an online rule)."""
    rule, config = setup.rule, SimpleNamespace(**vars(setup), stopping=setup.rule)  # as the keys' getters name it
    keys = {name: _CONFIG.keys[name] for name in ("context", "policy", "clip", "batch_size", "sigma_mode", "stopping")}
    written = {name: key.write(key.get(config)) for name, key in keys.items()}
    return {**written, "bounds": asdict(rule.consts) if rule.predetermined else None}


def _check_set_up(stored, derived, path: str = "set_up") -> None:
    """A ConfigError naming the first key, in the config's order, where the
    file's `set_up` differs from the config's as JSON text."""
    if isinstance(stored, dict) and isinstance(derived, dict):
        for name in {**derived, **stored}:
            _check_set_up(stored.get(name, ...), derived.get(name, ...), f"{path}.{name}")
    elif _describe(stored) != _describe(derived):  # a key one of them lacks is `...`
        stored, derived = ("missing" if v is ... else _describe(v) for v in (stored, derived))
        raise ConfigError(f"trajectory key {path!r} is {stored}; the config reads it under {derived}")


TRAJECTORY = {  # by sigma mode: residual or not
    residual: _Object(
        format=_Key(INT, get=lambda rec: FORMAT),
        set_up=_Key(DICT, get=lambda rec: _set_up(rec.setup)),
        rep=_Key(_COUNT, get=attrgetter("rep_index")),
        seed=_Key(_U64),
        inference_seed=_Key(_U64),
        stop_time=_Key(INT),
        cap_hit=_Key(BOOL),
        noise_plugin=_Key(ARRAY, (2,), nullable=True, get=lambda rec: rec.ivw and rec.ivw.noise_sd),
        sufficient_stats=_stats(residual),
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
    run through the run's own stopping step (`simulate.fold_to_stop`), which
    gives the stop and the terminal estimate.  A payload that is malformed,
    was written under another set-up, disagrees bit for bit with what its
    statistics give or leaves no estimate is a ConfigError naming the key."""
    payload = DICT.read(payload, "trajectory")
    if _integer(payload.get("format")) != FORMAT:
        given = _describe(payload["format"]) if "format" in payload else "missing"
        raise ConfigError(f"trajectory key 'format' is {given}; this banditstop reads trajectory format {FORMAT}")
    if "set_up" in payload:  # else the walk says it is missing
        _check_set_up(payload["set_up"], _set_up(setup))
    rule, residual, dim = setup.rule, not isinstance(setup.sigma_mode, KnownSigma), setup.context.dim
    file = TRAJECTORY[residual].read(payload, _At("trajectory", f"trajectory format {FORMAT}", dim))
    stop_time = file["stop_time"]
    if not 1 <= stop_time <= rule.t_max:
        raise ConfigError(f"trajectory key 'stop_time' must lie in 1..{rule.t_max}")
    if len(file["sufficient_stats"]) != stop_time:
        raise ConfigError(f"trajectory key 'sufficient_stats' must have stop_time = {stop_time} entries")
    stats = enumerate(file["sufficient_stats"])
    fits = (_batch_fit(entry, f"sufficient_stats[{i}]", _READS[residual], dim) for i, entry in stats)
    decision, ivw = fold_to_stop(setup, RunningSums.empty(dim, residual), fits)
    if not decision.stop or decision.t != stop_time:
        where = f"at batch {decision.t}" if decision.stop else "later"
        raise ConfigError(f"trajectory key 'stop_time' is {stop_time}, but the config's stopping rule stops {where}")
    if ivw is None:
        raise ConfigError("trajectory key 'terminal': the run left no estimate at its stop to infer from")
    stored = {**payload, **{f"terminal.{k}": v for k, v in (payload["terminal"] or {}).items()}}
    derived = {"cap_hit": decision.cap_hit, "noise_plugin": list(ivw.noise_sd)}
    derived.update({f"terminal.{k}": v for k, v in _TERMINAL.write(ivw).items()})
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


# ---------------------------------------------------------------------------
# The config file
# ---------------------------------------------------------------------------

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CalibrationConfig:
    t_ref: int
    replications: int = 200

    def __post_init__(self):
        # Checked here so that a bad block fails before any pilot runs.
        if self.t_ref < 1:
            raise ConfigError("bounds.calibration.t_ref must be >= 1")
        if self.replications < 10:
            raise ConfigError("bounds.calibration.replications must be >= 10")


@dataclass(frozen=True)
class BoundsConfig:
    margin_exponent: float
    margin_const: float
    delta: float
    unit_cost: float
    tail_const: Optional[float] = None
    context_bound: Optional[float] = None  # None: sqrt(dim) * sup bound of the context spec
    calibration: Optional[CalibrationConfig] = None

    def __post_init__(self):
        # Checked here so that a bad value fails before any pilot runs.
        check_bound_values(
            self.context_bound, self.margin_exponent, self.margin_const, self.tail_const, self.delta, self.unit_cost
        )
        if self.calibration is not None and self.delta >= 1.0:
            raise ConfigError("a calibration needs delta < 1")


@dataclass(frozen=True)
class ExperimentConfig:
    context: ContextSpec
    model: TrueModel
    policy: PolicyKind
    clip: ClipSchedule
    batch_size: int
    stopping: StoppingRule
    sigma_mode: SigmaMode
    replications: int
    master_seed: int
    bounds: Optional[BoundsConfig] = None
    inference: Optional[ConditionalSamplerConfig] = None
    hypothesis: Optional[Tuple[np.ndarray, np.ndarray]] = None
    regret_mc_samples: int = 100_000
    trajectory_json: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        object.__setattr__(self, "stopping", replace(self.stopping, batch_size=self.batch_size))
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.regret_mc_samples < 1:
            raise ConfigError("regret_mc_samples must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.model.dim != self.context.dim:
            raise ConfigError("model dimension does not match the context spec")
        l1 = sum(abs(v) for v in self.model.beta0.tolist() + self.model.beta1.tolist())
        if not math.isfinite(self.context.sup_bound * l1):  # the bound on |x . beta|
            raise ConfigError("model.beta0 and model.beta1 are too large: x . beta overflows at context.sup_bound")
        if self.stopping.predetermined and self.bounds is None:
            raise ConfigError("pre-determined rules need a bounds section")
        if self.hypothesis is not None:
            h0, h1 = self.hypothesis
            if np.asarray(h0).size != self.model.dim or np.asarray(h1).size != self.model.dim:
                raise ConfigError("hypothesis dimension does not match the model")


def _section(cls, build=None, **kinds) -> _Object:
    """A config section, read as `(build or cls)(**values)`.  A key may be
    left out where `cls` has a default for it, and be null where that default
    is None.  Keys it does not list are ignored."""
    params = inspect.signature(cls).parameters
    keys = {name: kind if isinstance(kind, _Key) else _Key(kind) for name, kind in kinds.items()}
    for name, key in keys.items():
        default = params[name].default
        key.optional, key.nullable = default is not inspect.Parameter.empty, default is None
    return _Object(build or cls, lenient=True, **keys)


# The config format: each section with its keys in order, each with its JSON
# type.  The table checks types only; the dataclasses check ranges.
_SCHEDULE = dict(initial=REAL, decay=REAL, floor=REAL)
_CONFIG = _section(
    ExperimentConfig,
    context=_section(
        ContextSpec,
        dim=INT,
        sup_bound=REAL,
        dist=_Tagged({
            "uniform_box": _section(UniformBox, lower=ARRAY, upper=ARRAY),
            "truncated_gaussian": _section(TruncatedGaussian, mean=ARRAY, cov=ARRAY, bound=REAL),
        }),
    ),
    model=_section(TrueModel, beta0=ARRAY, beta1=ARRAY, sigma0=REAL, sigma1=REAL, noise=STR),
    policy=_Tagged({
        "uniform": _section(UniformRandom),
        "eps_greedy": _section(EpsGreedy, eps=_section(Schedule, **_SCHEDULE)),
        "ucb": _section(Ucb, bonus=_section(Schedule, **_SCHEDULE)),
        "thompson": _section(Thompson, sigma_prior=REAL),
    }),
    # Stored as its bare schedule.
    clip=_Key(_section(Schedule, lambda **s: ClipSchedule(Schedule(**s)), **_SCHEDULE), get=attrgetter("clip.schedule")),
    batch_size=INT,
    stopping=_section(StoppingRule, kind=STR, t_max=INT, k=REAL, c_prime=REAL, scale_by_batch=BOOL),
    # Any other kind reads as residual: perfbench/test_perfbench.py
    # (test_round_trip_rejects_keys_the_package_would_drop) expects the
    # benchmark's round trip, not this reader, to reject a misspelt kind.
    sigma_mode=_Tagged({"known": _section(KnownSigma, sigma=REAL), "residual": _section(ResidualSigma)}, "residual"),
    bounds=_section(
        BoundsConfig,
        margin_exponent=REAL,
        margin_const=REAL,
        delta=REAL,
        unit_cost=REAL,
        tail_const=REAL,
        context_bound=REAL,
        calibration=_section(CalibrationConfig, t_ref=INT, replications=INT),
    ),
    inference=_section(ConditionalSamplerConfig, mode=STR, n_samples=INT, max_attempts=INT, level=REAL, bonferroni=BOOL),
    # The pair (beta0, beta1).
    hypothesis=_section(
        lambda beta0, beta1: (beta0, beta1), beta0=_Key(ARRAY, get=itemgetter(0)), beta1=_Key(ARRAY, get=itemgetter(1))
    ),
    replications=INT,
    master_seed=INT,
    regret_mc_samples=INT,
    trajectory_json=BOOL,
)


def config_to_dict(config: ExperimentConfig) -> Dict:
    """The JSON form of `config`; `config_from_dict` reads it back."""
    return {"schema_version": SCHEMA_VERSION, **_CONFIG.write(config)}


def config_from_dict(data: Dict) -> ExperimentConfig:
    """Read a JSON config; any malformed value is a ConfigError naming its key."""
    at = _At("config", f"config schema_version {SCHEMA_VERSION}")
    try:
        version = INT.read(DICT.read(data, "config").get("schema_version", SCHEMA_VERSION), at.key("schema_version"))
        if version != SCHEMA_VERSION:
            raise ConfigError(f"config key 'schema_version' is {version}; this banditstop reads schema_version {SCHEMA_VERSION}")
        return _CONFIG.read(data, at)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "config"))
