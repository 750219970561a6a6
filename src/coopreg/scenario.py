"""Scenario configuration: parsing, validation, serialization, resolution.

A scenario is one human-readable text file with named sections mirroring the
problem data: nominal plant, output map, communication graph, signal model,
per-agent uncertainty and disturbance wiring, numerics and output options.
Spatial profiles are written as closed-form expressions of z so that files
stay small and exact.

Syntax errors raise ParseError with a line number; semantic problems are
collected and raised together as one SchemaError listing every violation.
"""

import math
import re
import sys
from dataclasses import dataclass, fields
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .backstepping import MIN_GRID_POINTS, OutputOperator
from .comm_graph import CommTopology
from .errors import ParseError, SchemaError, read_text, violations
from .expressions import Expression
from .grid import GridFunction, uniform_nodes
from .signal_model import ExoModel, build_signal_model
from .simulator import AgentSpec, NominalPlant
from .synthesis import MODE_LEADER, MODE_LEADERLESS

_FMT = "{:.17g}".format


@dataclass(frozen=True)
class AgentConfig:
    """Raw per-agent configuration (expressions kept as sources)."""

    delta_lambda: str
    delta_a: str
    delta_q0: float
    delta_q1: float
    delta_c0: str
    delta_points: tuple
    delta_c_b0: float
    delta_c_b1: float
    g1: tuple               # one expression per disturbance channel
    g2: tuple
    g3: tuple
    g4: tuple
    P: tuple                # m_i rows over the signal state
    x0: str
    v0: tuple


@dataclass(frozen=True)
class Numerics:
    grid_points: int
    dt: float
    horizon: float
    mu_c: float
    nu: float | None
    riccati_a: float
    b_y: tuple
    blowup: float


@dataclass(frozen=True)
class OutputOptions:
    sample_every: int
    snapshot_times: tuple
    out_dir: str | None


@dataclass(frozen=True)
class Scenario:
    """Plain-data scenario; builder methods produce the computational objects."""

    mode: str
    plant_a: str
    q0: float
    q1: float
    c0: str
    points: tuple
    c_b0: float
    c_b1: float
    adjacency: tuple
    leader_links: tuple
    reference_frequencies: tuple
    disturbance_frequencies: tuple
    w0: tuple
    p_override: tuple | None
    agents: tuple
    numerics: Numerics
    outputs: OutputOptions

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    # builders --------------------------------------------------------
    def grid(self, m: int | None = None) -> int:
        """The design grid, m or else the file's grid_points; a grid of fewer than
        MIN_GRID_POINTS intervals is a SchemaError."""
        m = self.numerics.grid_points if m is None else int(m)
        if m < MIN_GRID_POINTS:
            raise SchemaError([f"grid_points = {m} must be at least {MIN_GRID_POINTS}"])
        return m

    def topology(self) -> CommTopology:
        return CommTopology(
            adjacency=np.array(self.adjacency, dtype=float),
            leader_links=np.array(self.leader_links, dtype=float),
        )

    def exo_model(self) -> ExoModel:
        return build_signal_model(
            self.reference_frequencies,
            self.disturbance_frequencies,
            [agent.P for agent in self.agents],
            self.numerics.b_y,
            self.p_override,
        )

    def plant(self, m: int | None = None) -> NominalPlant:
        m = self.numerics.grid_points if m is None else m
        return NominalPlant(
            a=_profile("[plant] a", self.plant_a, m),
            q0=self.q0,
            q1=self.q1,
            output=OutputOperator(
                smooth_weight=_profile("[output] c0", self.c0, m),
                point_weights=self.points,
                boundary_weights=(self.c_b0, self.c_b1),
            ),
        )

    def agent_specs(self, m: int | None = None) -> tuple:
        m = self.numerics.grid_points if m is None else m
        specs = []
        for i, agent in enumerate(self.agents, start=1):
            where = f"[agent {i}]"
            g1 = np.zeros((m + 1, len(agent.P)))
            for c, source in enumerate(agent.g1):
                g1[:, c] = _profile(f"{where} g1", source, m).values
            specs.append(
                AgentSpec(
                    # parabolicity: the diffusion 1 + delta_lambda stays positive
                    delta_lambda=_profile(f"{where} delta_lambda", agent.delta_lambda, m, -1.0),
                    delta_a=_profile(f"{where} delta_a", agent.delta_a, m),
                    delta_q0=agent.delta_q0,
                    delta_q1=agent.delta_q1,
                    delta_c0=_profile(f"{where} delta_c0", agent.delta_c0, m),
                    delta_points=agent.delta_points,
                    delta_cb0=agent.delta_c_b0,
                    delta_cb1=agent.delta_c_b1,
                    g1=g1,
                    g2=np.array(agent.g2, dtype=float),
                    g3=np.array(agent.g3, dtype=float),
                    g4=np.array(agent.g4, dtype=float),
                    initial_profile=_profile(f"{where} x0", agent.x0, m),
                )
            )
        return tuple(specs)

    def resolve(
        self,
        m: int | None = None,
        dt: float | None = None,
        horizon: float | None = None,
    ) -> "ResolvedScenario":
        m = self.grid(m)
        dt = self.numerics.dt if dt is None else float(dt)
        horizon = self.numerics.horizon if horizon is None else float(horizon)
        if bad := violations([("dt", dt), ("horizon", horizon)]):
            raise SchemaError(bad)
        steps = horizon / dt
        if not 0 < steps < np.inf or abs(steps - round(steps)) > 1e-9 * steps:
            raise SchemaError([
                f"horizon = {horizon} is not a whole number of steps of dt = {dt} "
                f"(horizon / dt = {steps:.10g})"
            ])
        return ResolvedScenario(
            mode=self.mode,
            plant=self.plant(m),
            agents=self.agent_specs(m),
            topology=self.topology(),
            exo=self.exo_model(),
            dt=dt,
            n_steps=round(steps),
            sample_every=self.outputs.sample_every,
            snapshot_times=self.outputs.snapshot_times,
            blowup_bound=self.numerics.blowup,
            v0=tuple(agent.v0 for agent in self.agents),
            w0=self.w0,
        )


def _profile(where: str, source: str, m: int, above: float = -np.inf) -> GridFunction:
    """The expression sampled at the m + 1 grid nodes; a sample that is not finite,
    or not above ``above``, is a SchemaError naming the key and the first such z."""
    z = uniform_nodes(m)
    with np.errstate(all="ignore"):
        values = np.broadcast_to(Expression(source)(z), z.shape)
    rules = {"is not finite": ~np.isfinite(values), f"must stay above {above:g}": values <= above}
    for rule, bad in rules.items():
        if bad.any():
            raise SchemaError([f"{where} = {source} {rule} at z = {z[bad.argmax()]:.6g}"])
    return GridFunction(values)


@dataclass(frozen=True)
class ResolvedScenario:
    """Scenario with every profile sampled; the direct input to simulate()."""

    mode: str
    plant: NominalPlant
    agents: tuple
    topology: CommTopology
    exo: ExoModel
    dt: float
    n_steps: int
    sample_every: int
    snapshot_times: tuple
    blowup_bound: float
    v0: tuple
    w0: tuple

    def __post_init__(self):
        """Reject what ``simulate`` cannot step: one SchemaError names every violation."""
        dt, n_w = self.dt, self.exo.n_w
        bad = violations([("dt", dt), ("blowup_bound", self.blowup_bound)],
                         [("n_steps", self.n_steps), ("sample_every", self.sample_every)])
        if isinstance(self.n_steps, Integral) and self.n_steps > sys.maxsize:
            bad.append(f"n_steps must be at most {sys.maxsize}, the longest array numpy indexes")
        if len(self.w0) != n_w:
            bad.append(f"w0 has {len(self.w0)} entries but needs {n_w}, one per signal state")
        elif not np.isfinite(self.w0).all():
            bad.append(f"w0 = {_write_vector(self.w0)} must be finite")
        if len(self.v0) != len(self.agents):
            bad.append(f"v0 has {len(self.v0)} rows but needs {len(self.agents)}, one per agent")
        elif not all(np.isfinite(row).all() for row in self.v0):
            bad.append(f"v0 = {' ; '.join(map(_write_vector, self.v0))} must be finite")
        if bad:
            raise SchemaError(bad)
        horizon = self.n_steps * dt
        off_grid = [t for t in self.snapshot_times
                    if not 0 <= t <= horizon or abs(t / dt - round(t / dt)) > 1e-9 * (t / dt)]
        if off_grid:
            raise SchemaError([f"[outputs] snapshot_times {off_grid} must be whole numbers "
                               f"of steps dt = {dt} in [0, horizon = {horizon:.10g}]"])

    @property
    def m(self) -> int:
        return self.plant.a.m


# ---------------------------------------------------------------------------
# parsing


# a comment starts with '#' at the start of a line or after whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def _read_sections(text: str):
    """Split into {section: {key: value}}, preserving agent order."""
    sections: dict = {"": {}}
    current = ""
    last_key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].rstrip()
        if not line.strip():
            last_key = None
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            current = stripped[1:-1].strip().lower()
            if current in sections:
                raise ParseError(f"duplicate section [{current}]", line=lineno)
            sections[current] = {}
            last_key = None
            continue
        if line[0].isspace():
            if last_key is None:
                raise ParseError("continuation line without a key", line=lineno)
            sections[current][last_key] += " ; " + stripped
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key = key.strip().lower()
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        sections[current][key] = value.strip()
        last_key = key
    return sections


def _number(token: str) -> float:
    sign, body = (-1.0, token[1:]) if token.startswith("-") else (1.0, token)
    try:
        value = sign * (np.pi if body == "pi" else float(body))
    except ValueError:
        value = np.nan
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


def _integer(raw: str) -> int:
    value = _number(raw)
    if value != int(value):
        raise ValueError(f"{raw!r} is not an integer")
    return int(value)


def _vector(raw: str) -> tuple:
    return tuple(_number(token) for token in raw.replace(",", " ").replace(";", " ").split())


def _expression(raw: str) -> str:
    Expression(raw)
    return raw


def _points(raw: str) -> tuple:
    out = []
    for item in filter(None, map(str.strip, raw.split(","))):
        coeff, at, loc = item.partition("@")
        if not at:
            raise ValueError(f"point weight {item!r} must look like 'coeff @ z'")
        c, z = _number(coeff.strip()), _number(loc.strip())
        if not 0.0 < z < 1.0:
            raise ValueError(f"location {z} must lie in (0, 1)")
        out.append((c, z))
    return tuple(out)


def _write_text(value: str) -> str:
    if value.splitlines() != [value] or value != value.strip() or _COMMENT.search(value):
        raise ValueError(f"text value {value!r} cannot be written to a scenario file")
    return value


def _write_vector(values) -> str:
    return " ".join(map(_FMT, values))


# kind: (read the raw text, write the value back)
_KINDS = {
    "expression": (_expression, str),
    "expressions": (
        lambda raw: tuple(_expression(c.strip()) for c in raw.split(";") if c.strip()),
        " ; ".join,
    ),
    "number": (_number, _FMT),
    "integer": (_integer, str),
    "vector": (_vector, _write_vector),
    "matrix": (
        lambda raw: tuple(_vector(chunk) for chunk in raw.split(";") if chunk.strip()),
        lambda rows: " ; ".join(map(_write_vector, rows)),
    ),
    "points": (_points, lambda points: ", ".join(f"{_FMT(c)} @ {_FMT(z)}" for c, z in points)),
    "text": (str, _write_text),
}


def _signal_dim(values) -> int:
    freqs = (*values.get("reference_frequencies", ()), *values["disturbance_frequencies"])
    return sum(1 if f == 0 else 2 for f in freqs)


# the sizes a default can be filled to, from the values read so far
_SIZES = {
    "one per agent": lambda values: len(values.get("adjacency", ())),
    "one per signal state": _signal_dim,
    "one per P row": lambda values: len(values["P"]),
}


class _Fill(NamedTuple):
    """Default of `entry` repeated to a size; a given value must have that size."""

    entry: object
    size: str


class _Key(NamedTuple):
    section: str
    key: str
    field: str
    kind: str
    default: object
    check: tuple | None = None  # (predicate, requirement) on a value that was given


_REQUIRED = object()
_POSITIVE = (lambda v: v > 0, "must be positive")
_FREQUENCIES = (
    lambda fs: min(fs, default=0) >= 0 and len(set(fs)) == len(fs),
    "must be nonnegative and distinct",
)

# The one list of scenario keys: the parser, its unknown-key check and the
# writer all follow it.  Sizes are read before the rows whose defaults use them.
_KEYS = (
    _Key("", "mode", "mode", "text", _REQUIRED, (
        lambda v: v.lower() in (MODE_LEADER, MODE_LEADERLESS),
        f"must be {MODE_LEADER!r} or {MODE_LEADERLESS!r}",
    )),
    _Key("plant", "a", "plant_a", "expression", _REQUIRED),
    _Key("plant", "q0", "q0", "number", _REQUIRED),
    _Key("plant", "q1", "q1", "number", _REQUIRED),
    _Key("output", "c0", "c0", "expression", "0"),
    _Key("output", "c_b0", "c_b0", "number", 0.0),
    _Key("output", "c_b1", "c_b1", "number", 0.0),
    _Key("output", "points", "points", "points", ()),
    _Key("graph", "adjacency", "adjacency", "matrix", _REQUIRED, (
        lambda rows: all(v >= 0 for row in rows for v in row), "must be nonnegative",
    )),
    _Key("graph", "leader_links", "leader_links", "vector", _Fill(0.0, "one per agent"), (
        lambda links: all(v >= 0 for v in links), "must be nonnegative",
    )),
    _Key("exosystem", "reference_frequencies", "reference_frequencies", "vector", _REQUIRED, (
        lambda fs: len(fs) > 0 and _FREQUENCIES[0](fs), "must be nonempty, nonnegative and distinct",
    )),
    _Key("exosystem", "disturbance_frequencies", "disturbance_frequencies", "vector",
         (), _FREQUENCIES),
    _Key("exosystem", "w0", "w0", "vector", _Fill(0.0, "one per signal state")),
    _Key("exosystem", "p", "p_override", "vector", None),
    _Key("numerics", "grid_points", "grid_points", "integer", 200, (
        lambda v: v >= MIN_GRID_POINTS, f"must be at least {MIN_GRID_POINTS}",
    )),
    _Key("numerics", "dt", "dt", "number", 1e-3, _POSITIVE),
    _Key("numerics", "horizon", "horizon", "number", 20.0, _POSITIVE),
    _Key("numerics", "mu_c", "mu_c", "number", 5.0),
    _Key("numerics", "nu", "nu", "number", None, _POSITIVE),
    _Key("numerics", "riccati_a", "riccati_a", "number", 1.0, _POSITIVE),
    _Key("numerics", "b_y", "b_y", "vector", _Fill(1.0, "one per signal state")),
    _Key("numerics", "blowup", "blowup", "number", 1e8, _POSITIVE),
    _Key("outputs", "sample_every", "sample_every", "integer", 10, (
        lambda v: v >= 1, "must be at least 1",
    )),
    _Key("outputs", "snapshot_times", "snapshot_times", "vector", ()),
    _Key("outputs", "out_dir", "out_dir", "text", None),
    _Key("agent", "delta_lambda", "delta_lambda", "expression", "0"),
    _Key("agent", "delta_a", "delta_a", "expression", "0"),
    _Key("agent", "delta_q0", "delta_q0", "number", 0.0),
    _Key("agent", "delta_q1", "delta_q1", "number", 0.0),
    _Key("agent", "delta_c0", "delta_c0", "expression", "0"),
    _Key("agent", "delta_points", "delta_points", "vector", ()),
    _Key("agent", "delta_c_b0", "delta_c_b0", "number", 0.0),
    _Key("agent", "delta_c_b1", "delta_c_b1", "number", 0.0),
    _Key("agent", "p", "P", "matrix", ()),
    _Key("agent", "g1", "g1", "expressions", _Fill("0", "one per P row")),
    _Key("agent", "g2", "g2", "vector", _Fill(0.0, "one per P row")),
    _Key("agent", "g3", "g3", "vector", _Fill(0.0, "one per P row")),
    _Key("agent", "g4", "g4", "vector", _Fill(0.0, "one per P row")),
    _Key("agent", "x0", "x0", "expression", "0"),
    _Key("agent", "v0", "v0", "vector", _Fill(0.0, "one per signal state")),
)
_SECTIONS = tuple(dict.fromkeys(row.section for row in _KEYS if row.section != "agent"))


def _default(row: _Key, values):
    if isinstance(row.default, _Fill):
        return (row.default.entry,) * _SIZES[row.default.size](values)
    return row.default


def _read(name: str, entries: dict, values, violations: list):
    """Read one section into `values` by the table; absent keys take their defaults."""
    rows = [row for row in _KEYS if row.section == name.partition(" ")[0]]
    known = {row.key for row in rows}
    violations += [
        f"unknown key {key!r} in section [{name or 'top level'}]"
        for key in entries
        if key not in known
    ]
    for row in rows:
        where = f"[{name}] {row.key}" if name else row.key
        default = _default(row, values)
        if default is not _REQUIRED:
            values[row.field] = default
        if row.key not in entries:
            if default is _REQUIRED:
                violations.append(f"[{name or 'top level'}] is missing required key {row.key!r}")
            continue
        raw = entries[row.key]
        try:
            value = _KINDS[row.kind][0](raw)
        except (ValueError, ParseError) as exc:
            violations.append(f"{where}: {exc}")
            continue
        if isinstance(row.default, _Fill) and len(value) != len(default):
            violations.append(
                f"{where} has {len(value)} entries but needs {len(default)}, {row.default.size}"
            )
        elif row.check is not None and not row.check[0](value):
            violations.append(f"{where} = {raw} {row.check[1]}")
        values[row.field] = value


def _build(cls, values):
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def loads(text: str) -> Scenario:
    sections = _read_sections(text)
    if len(sections) == 1 and not sections[""]:
        raise ParseError("scenario file is empty")
    agent_names = [name for name in sections if name.partition(" ")[0] == "agent"]
    violations = [
        f"unknown section [{name}]"
        for name in sections
        if name not in _SECTIONS and name not in agent_names
    ]
    values: dict = {}
    for name in _SECTIONS:
        _read(name, sections.get(name, {}), values, violations)
    expected = [f"agent {i}" for i in range(1, len(agent_names) + 1)]
    agents = {name: dict(values) for name in expected if name in sections}
    for name, agent in agents.items():
        _read(name, sections[name], agent, violations)

    adjacency = values.get("adjacency", ())
    n = len(adjacency)
    if any(len(row) != n for row in adjacency):
        violations.append("[graph] adjacency must be square")
    elif any(adjacency[i][i] != 0 for i in range(n)):
        violations.append("[graph] adjacency diagonal must be zero")
    if set(agent_names) != set(expected):
        violations.append(
            f"agent sections must be named [agent 1] .. [agent N]; found {agent_names}"
        )
    if n and len(agent_names) != n:
        violations.append(
            f"adjacency is {n} x {n} but there are {len(agent_names)} agent sections "
            "(fields adjacency and agents disagree)"
        )
    mode = values.get("mode", "").lower()
    if mode == MODE_LEADERLESS and len(agent_names) < 2:
        violations.append(
            f"mode = {MODE_LEADERLESS} needs at least 2 agents to synchronize, "
            f"got {len(agent_names)}"
        )
    if mode == MODE_LEADERLESS and any(links := values["leader_links"]):
        violations.append(f"[graph] leader_links = {_write_vector(links)} must be zero if leaderless")
    n_w = _signal_dim(values)
    if values["p_override"] is not None and len(values["p_override"]) != n_w:
        violations.append("[exosystem] p must have one entry per signal state")
    for name, agent in agents.items():
        if any(len(row) != n_w for row in agent["P"]):
            violations.append(f"[{name}] P rows must have {n_w} columns")
        if len(agent["delta_points"]) > len(values["points"]):
            violations.append(
                f"[{name}] delta_points has more entries than nominal point weights"
            )
    if violations:
        raise SchemaError(violations)

    values.update(
        mode=mode,
        agents=tuple(_build(AgentConfig, agent) for agent in agents.values()),
        numerics=_build(Numerics, values),
        outputs=_build(OutputOptions, values),
    )
    return _build(Scenario, values)


def load_scenario(path) -> Scenario:
    return loads(read_text(path, "utf-8"))


def serialize(scenario: Scenario) -> str:
    """Canonical text form, keys at their defaults left out; loads(serialize(s)) == s."""
    values = {**vars(scenario), **vars(scenario.numerics), **vars(scenario.outputs)}
    sections = [(name, values) for name in _SECTIONS] + [
        (f"agent {i}", {**values, **vars(agent)})
        for i, agent in enumerate(scenario.agents, start=1)
    ]
    lines = []
    for name, section_values in sections:
        lines += ["", f"[{name}]"] if name else []
        lines += [
            f"{row.key} = {_KINDS[row.kind][1](section_values[row.field])}"
            for row in _KEYS
            if row.section == name.partition(" ")[0]
            and section_values[row.field] != _default(row, section_values)
        ]
    return "\n".join(lines) + "\n"
