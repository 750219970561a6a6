"""Scenario configuration: parsing, validation, serialization, resolution.

A scenario is one human-readable text file with named sections mirroring the
problem data: nominal plant, output map, communication graph, signal model,
per-agent uncertainty and disturbance wiring, numerics and output options.
Spatial profiles are written as closed-form expressions of z so that files
stay small and exact.

Syntax errors raise ParseError with a line number; semantic problems are
collected and raised together as one SchemaError listing every violation.
"""

from dataclasses import dataclass

import numpy as np

from .backstepping import MIN_GRID_POINTS, OutputOperator
from .comm_graph import CommTopology
from .errors import ParseError, SchemaError
from .expressions import Expression
from .grid import GridFunction
from .signal_model import DisturbanceBlock, ExoModel, build_reference_block, merge
from .simulator import AgentSpec, NominalPlant
from .synthesis import MODE_LEADER, MODE_LEADERLESS

_FMT = "{:.17g}".format


@dataclass(frozen=True)
class AgentConfig:
    """Raw per-agent configuration (expressions kept as sources)."""

    delta_lambda: str = "0"
    delta_a: str = "0"
    delta_q0: float = 0.0
    delta_q1: float = 0.0
    delta_c0: str = "0"
    delta_points: tuple = ()
    delta_c_b0: float = 0.0
    delta_c_b1: float = 0.0
    g1: tuple = ()          # one expression per disturbance channel
    g2: tuple = ()
    g3: tuple = ()
    g4: tuple = ()
    P: tuple = ()           # m_i rows over the merged signal state
    x0: str = "0"
    v0: tuple = ()


@dataclass(frozen=True)
class Numerics:
    grid_points: int = 200
    dt: float = 1e-3
    horizon: float = 20.0
    mu_c: float = 5.0
    nu: float | None = None
    riccati_a: float = 1.0
    b_y: tuple = ()
    blowup: float = 1e8


@dataclass(frozen=True)
class OutputOptions:
    sample_every: int = 10
    snapshot_times: tuple = ()
    out_dir: str | None = None


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
    def topology(self) -> CommTopology:
        return CommTopology(
            adjacency=np.array(self.adjacency, dtype=float),
            leader_links=np.array(self.leader_links, dtype=float),
        )

    def exo_model(self) -> ExoModel:
        reference = build_reference_block(self.reference_frequencies)
        n_r = reference[0].shape[0]
        dims = [1 if f == 0.0 else 2 for f in self.disturbance_frequencies]
        blocks = []
        col = n_r
        for freq, dim in zip(self.disturbance_frequencies, dims):
            readouts = {}
            for i, agent in enumerate(self.agents):
                rows = np.array(agent.P, dtype=float).reshape(len(agent.P), -1)
                if rows.size:
                    readouts[i] = rows[:, col : col + dim]
            blocks.append(DisturbanceBlock(frequency=freq, readouts=readouts))
            col += dim
        model = merge(
            reference, blocks, n_agents=self.n_agents, b_y=np.array(self.numerics.b_y)
        )
        if self.p_override is not None:
            model = ExoModel(
                S=model.S,
                p=np.array(self.p_override, dtype=float),
                read_outs=model.read_outs,
                b_y=model.b_y,
                n_reference=model.n_reference,
            )
        return model

    def plant(self, m: int | None = None) -> NominalPlant:
        m = self.numerics.grid_points if m is None else m
        return NominalPlant(
            a=GridFunction.from_callable(Expression(self.plant_a), m),
            q0=self.q0,
            q1=self.q1,
            output=OutputOperator(
                smooth_weight=GridFunction.from_callable(Expression(self.c0), m),
                point_weights=self.points,
                boundary_weights=(self.c_b0, self.c_b1),
            ),
        )

    def agent_specs(self, m: int | None = None) -> tuple:
        m = self.numerics.grid_points if m is None else m
        nodes = np.linspace(0.0, 1.0, m + 1)
        specs = []
        for agent in self.agents:
            n_ch = len(agent.P)
            g1 = np.zeros((m + 1, n_ch))
            for c, expr in enumerate(agent.g1):
                g1[:, c] = Expression(expr)(nodes) * np.ones(m + 1)
            specs.append(
                AgentSpec(
                    delta_lambda=GridFunction.from_callable(
                        Expression(agent.delta_lambda), m
                    ),
                    delta_a=GridFunction.from_callable(Expression(agent.delta_a), m),
                    delta_q0=agent.delta_q0,
                    delta_q1=agent.delta_q1,
                    delta_c0=GridFunction.from_callable(Expression(agent.delta_c0), m),
                    delta_points=agent.delta_points,
                    delta_cb0=agent.delta_c_b0,
                    delta_cb1=agent.delta_c_b1,
                    g1=g1,
                    g2=np.array(agent.g2, dtype=float),
                    g3=np.array(agent.g3, dtype=float),
                    g4=np.array(agent.g4, dtype=float),
                    initial_profile=GridFunction.from_callable(Expression(agent.x0), m),
                )
            )
        return tuple(specs)

    def resolve(
        self,
        m: int | None = None,
        dt: float | None = None,
        horizon: float | None = None,
    ) -> "ResolvedScenario":
        m = self.numerics.grid_points if m is None else int(m)
        dt = self.numerics.dt if dt is None else float(dt)
        horizon = self.numerics.horizon if horizon is None else float(horizon)
        checks = (("dt", dt), ("horizon", horizon))
        bad = [f"{key} = {value} must be positive" for key, value in checks if not value > 0]
        if bad:
            raise SchemaError(bad)
        steps = horizon / dt
        if not 0 < steps < np.inf or abs(steps - round(steps)) > 1e-9 * steps:
            raise SchemaError([
                f"horizon = {horizon} is not a whole number of steps of dt = {dt} "
                f"(horizon / dt = {steps:.10g})"
            ])
        n_steps = round(steps)
        exo = self.exo_model()
        return ResolvedScenario(
            mode=self.mode,
            plant=self.plant(m),
            agents=self.agent_specs(m),
            topology=self.topology(),
            exo=exo,
            m=m,
            dt=dt,
            n_steps=n_steps,
            sample_every=self.outputs.sample_every,
            snapshot_times=self.outputs.snapshot_times,
            blowup_bound=self.numerics.blowup,
            v0=tuple(agent.v0 for agent in self.agents),
            w0=self.w0,
        )


@dataclass(frozen=True)
class ResolvedScenario:
    """Scenario with every profile sampled; the direct input to simulate()."""

    mode: str
    plant: NominalPlant
    agents: tuple
    topology: CommTopology
    exo: ExoModel
    m: int
    dt: float
    n_steps: int
    sample_every: int
    snapshot_times: tuple
    blowup_bound: float
    v0: tuple
    w0: tuple


# ---------------------------------------------------------------------------
# parsing


def _split_tokens(text: str) -> list:
    return text.replace(",", " ").split()


def _to_float(token: str) -> float:
    sign, body = 1.0, token.strip()
    if body.startswith("-"):
        sign, body = -1.0, body[1:]
    if body == "pi":
        return sign * np.pi
    return sign * float(body)


def _read_sections(text: str):
    """Split into {section: {key: (value, line)}}, preserving agent order."""
    sections: dict = {"": {}}
    current = ""
    last_key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
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
            value, key_line = sections[current][last_key]
            sections[current][last_key] = (value + " ; " + stripped, key_line)
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key = key.strip().lower()
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        sections[current][key] = (value.strip(), lineno)
        last_key = key
    return sections


class _Schema:
    """Typed access to the raw sections, accumulating violations."""

    def __init__(self, sections):
        self.sections = sections
        self.violations: list = []
        self.consumed: dict = {name: set() for name in sections}

    def complain(self, message: str):
        self.violations.append(message)

    def get(self, section: str, key: str, default=None, required=False):
        sec = self.sections.get(section)
        if sec is None or key not in sec:
            if required:
                self.complain(f"[{section}] is missing required key {key!r}")
            return default
        self.consumed[section].add(key)
        return sec[key][0]

    def number(self, section, key, default=None, required=False, check=None):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            self.complain(f"[{section}] {key} = {raw!r} is not a number")
            return default
        if check is not None and not check(value):
            self.complain(f"[{section}] {key} = {value} is out of range")
        return value

    def integer(self, section, key, default=None, required=False, minimum=None):
        value = self.number(section, key, required=required)
        if value is None:
            return default
        if value != int(value):
            self.complain(f"[{section}] {key} must be an integer")
            return default
        value = int(value)
        if minimum is not None and value < minimum:
            self.complain(f"[{section}] {key} must be at least {minimum}")
        return value

    def vector(self, section, key, default=(), required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return tuple(default)
        try:
            return tuple(_to_float(v) for v in _split_tokens(raw.replace(";", " ")))
        except ValueError:
            self.complain(f"[{section}] {key} is not a numeric vector")
            return tuple(default)

    def matrix(self, section, key, default=(), required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return tuple(default)
        rows = []
        for chunk in raw.split(";"):
            if not chunk.strip():
                continue
            try:
                rows.append(tuple(_to_float(v) for v in _split_tokens(chunk)))
            except ValueError:
                self.complain(f"[{section}] {key} has a non-numeric row {chunk!r}")
                return tuple(default)
        return tuple(rows)

    def expression(self, section, key, default="0", required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            Expression(raw)
        except ParseError as exc:
            self.complain(f"[{section}] {key}: {exc}")
            return default
        return raw

    def expressions(self, section, key, default=(), required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return tuple(default)
        out = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                Expression(chunk)
            except ParseError as exc:
                self.complain(f"[{section}] {key}: {exc}")
                continue
            out.append(chunk)
        return tuple(out)

    def points(self, section, key):
        raw = self.get(section, key)
        if raw is None:
            return ()
        out = []
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            coeff, at, loc = item.partition("@")
            if not at:
                self.complain(
                    f"[{section}] {key}: point weight {item!r} must look like 'coeff @ z'"
                )
                continue
            try:
                c, z = float(coeff), float(loc)
            except ValueError:
                self.complain(f"[{section}] {key}: point weight {item!r} is not numeric")
                continue
            if not 0.0 < z < 1.0:
                self.complain(f"[{section}] {key}: location {z} must lie in (0, 1)")
                continue
            out.append((c, z))
        return tuple(out)

    def check_unknown(self, known: dict):
        for name, keys in self.sections.items():
            base = name.split()[0] if name else name
            if base not in known:
                self.complain(f"unknown section [{name}]")
                continue
            for key in keys:
                if key not in known[base]:
                    self.complain(f"unknown key {key!r} in section [{name or 'top level'}]")


_KNOWN_KEYS = {
    "": {"mode"},
    "plant": {"a", "q0", "q1"},
    "output": {"c0", "c_b0", "c_b1", "points"},
    "graph": {"adjacency", "leader_links"},
    "exosystem": {"reference_frequencies", "disturbance_frequencies", "w0", "p"},
    "numerics": {
        "grid_points",
        "dt",
        "horizon",
        "mu_c",
        "nu",
        "riccati_a",
        "b_y",
        "blowup",
    },
    "outputs": {"sample_every", "snapshot_times", "out_dir"},
    "agent": {
        "delta_lambda",
        "delta_a",
        "delta_q0",
        "delta_q1",
        "delta_c0",
        "delta_points",
        "delta_c_b0",
        "delta_c_b1",
        "g1",
        "g2",
        "g3",
        "g4",
        "p",
        "x0",
        "v0",
    },
}


def loads(text: str) -> Scenario:
    sections = _read_sections(text)
    if len(sections) == 1 and not sections[""]:
        raise ParseError("scenario file is empty")
    schema = _Schema(sections)
    schema.check_unknown(_KNOWN_KEYS)

    mode = (schema.get("", "mode", required=True) or MODE_LEADER).strip().lower()
    if mode not in (MODE_LEADER, MODE_LEADERLESS):
        schema.complain(
            f"mode must be {MODE_LEADER!r} or {MODE_LEADERLESS!r}, got {mode!r}"
        )

    plant_a = schema.expression("plant", "a", required=True)
    q0 = schema.number("plant", "q0", default=0.0, required=True)
    q1 = schema.number("plant", "q1", default=0.0, required=True)

    c0 = schema.expression("output", "c0", default="0")
    c_b0 = schema.number("output", "c_b0", default=0.0)
    c_b1 = schema.number("output", "c_b1", default=0.0)
    points = schema.points("output", "points")

    adjacency = schema.matrix("graph", "adjacency", required=True)
    n = len(adjacency)
    square = n > 0 and all(len(row) == n for row in adjacency)
    if adjacency and not square:
        schema.complain("[graph] adjacency must be square")
    if any(v < 0 for row in adjacency for v in row):
        schema.complain("[graph] adjacency weights must be nonnegative")
    if square and any(adjacency[i][i] != 0 for i in range(n)):
        schema.complain("[graph] adjacency diagonal must be zero")
    leader_links = schema.vector("graph", "leader_links", default=(0.0,) * n)
    if len(leader_links) != n:
        schema.complain(
            f"[graph] leader_links has {len(leader_links)} entries for {n} agents "
            "(fields adjacency and leader_links disagree)"
        )

    ref_freqs = schema.vector("exosystem", "reference_frequencies", required=True)
    dist_freqs = schema.vector("exosystem", "disturbance_frequencies")
    for name, freqs in (("reference", ref_freqs), ("disturbance", dist_freqs)):
        if any(f < 0 for f in freqs):
            schema.complain(f"[exosystem] {name}_frequencies must be nonnegative")
        if len(set(freqs)) != len(freqs):
            schema.complain(f"[exosystem] {name}_frequencies must be distinct")
    n_w = sum(1 if f == 0 else 2 for f in ref_freqs) + sum(
        1 if f == 0 else 2 for f in dist_freqs
    )
    w0 = schema.vector("exosystem", "w0", default=(0.0,) * n_w)
    if len(w0) != n_w:
        schema.complain(
            f"[exosystem] w0 has {len(w0)} entries but the signal state has {n_w}"
        )
    p_raw = schema.get("exosystem", "p")
    p_override = None
    if p_raw is not None:
        p_override = schema.vector("exosystem", "p")
        if len(p_override) != n_w:
            schema.complain("[exosystem] p must have one entry per signal state")

    agent_sections = sorted(
        (name for name in sections if name.startswith("agent")),
        key=lambda s: int(s.split()[1]) if len(s.split()) > 1 and s.split()[1].isdigit() else 0,
    )
    expected = [f"agent {i + 1}" for i in range(len(agent_sections))]
    if agent_sections != expected:
        schema.complain(
            f"agent sections must be named [agent 1] .. [agent N]; found {agent_sections}"
        )
    if n and len(agent_sections) != n:
        schema.complain(
            f"adjacency is {n} x {n} but there are {len(agent_sections)} agent sections "
            "(fields adjacency and agents disagree)"
        )
    if mode == MODE_LEADERLESS and len(agent_sections) < 2:
        schema.complain(
            f"mode = {MODE_LEADERLESS} needs at least 2 agents to synchronize, "
            f"got {len(agent_sections)}"
        )

    agents = []
    for name in agent_sections:
        p_rows = schema.matrix(name, "p")
        m_i = len(p_rows)
        if any(len(row) != n_w for row in p_rows):
            schema.complain(f"[{name}] P rows must have {n_w} columns")
        g1 = schema.expressions(name, "g1", default=("0",) * m_i)
        g2 = schema.vector(name, "g2", default=(0.0,) * m_i)
        g3 = schema.vector(name, "g3", default=(0.0,) * m_i)
        g4 = schema.vector(name, "g4", default=(0.0,) * m_i)
        for label, seq in (("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4)):
            if len(seq) != m_i:
                schema.complain(
                    f"[{name}] {label} must have {m_i} entries (one per P row)"
                )
        v0 = schema.vector(name, "v0", default=(0.0,) * n_w)
        if len(v0) != n_w:
            schema.complain(f"[{name}] v0 must have {n_w} entries")
        delta_points = schema.vector(name, "delta_points")
        if len(delta_points) > len(points):
            schema.complain(
                f"[{name}] delta_points has more entries than nominal point weights"
            )
        agents.append(
            AgentConfig(
                delta_lambda=schema.expression(name, "delta_lambda"),
                delta_a=schema.expression(name, "delta_a"),
                delta_q0=schema.number(name, "delta_q0", default=0.0),
                delta_q1=schema.number(name, "delta_q1", default=0.0),
                delta_c0=schema.expression(name, "delta_c0"),
                delta_points=delta_points,
                delta_c_b0=schema.number(name, "delta_c_b0", default=0.0),
                delta_c_b1=schema.number(name, "delta_c_b1", default=0.0),
                g1=g1,
                g2=g2,
                g3=g3,
                g4=g4,
                P=p_rows,
                x0=schema.expression(name, "x0"),
                v0=v0,
            )
        )

    numerics = Numerics(
        grid_points=schema.integer("numerics", "grid_points", default=200, minimum=MIN_GRID_POINTS),
        dt=schema.number("numerics", "dt", default=1e-3, check=lambda v: v > 0),
        horizon=schema.number("numerics", "horizon", default=20.0, check=lambda v: v > 0),
        mu_c=schema.number("numerics", "mu_c", default=5.0),
        nu=schema.number("numerics", "nu", default=None),
        riccati_a=schema.number(
            "numerics", "riccati_a", default=1.0, check=lambda v: v > 0
        ),
        b_y=schema.vector("numerics", "b_y", default=(1.0,) * n_w),
        blowup=schema.number("numerics", "blowup", default=1e8, check=lambda v: v > 0),
    )
    if numerics.nu is not None and numerics.nu <= 0:
        schema.complain("[numerics] nu must be positive when given")
    if len(numerics.b_y) != n_w:
        schema.complain(f"[numerics] b_y must have {n_w} entries")

    outputs = OutputOptions(
        sample_every=schema.integer("outputs", "sample_every", default=10, minimum=1),
        snapshot_times=schema.vector("outputs", "snapshot_times"),
        out_dir=schema.get("outputs", "out_dir"),
    )

    if schema.violations:
        raise SchemaError(schema.violations)

    return Scenario(
        mode=mode,
        plant_a=plant_a,
        q0=q0,
        q1=q1,
        c0=c0,
        points=points,
        c_b0=c_b0,
        c_b1=c_b1,
        adjacency=adjacency,
        leader_links=leader_links,
        reference_frequencies=ref_freqs,
        disturbance_frequencies=dist_freqs,
        w0=w0,
        p_override=p_override,
        agents=tuple(agents),
        numerics=numerics,
        outputs=outputs,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def serialize(scenario: Scenario) -> str:
    """Canonical text form; loads(serialize(s)) == s."""

    def vec(values):
        return " ".join(_FMT(v) for v in values)

    def mat(rows):
        return " ; ".join(vec(row) for row in rows)

    lines = [f"mode = {scenario.mode}", ""]
    lines += [
        "[plant]",
        f"a = {scenario.plant_a}",
        f"q0 = {_FMT(scenario.q0)}",
        f"q1 = {_FMT(scenario.q1)}",
        "",
        "[output]",
        f"c0 = {scenario.c0}",
        f"c_b0 = {_FMT(scenario.c_b0)}",
        f"c_b1 = {_FMT(scenario.c_b1)}",
    ]
    if scenario.points:
        lines.append(
            "points = " + ", ".join(f"{_FMT(c)} @ {_FMT(z)}" for c, z in scenario.points)
        )
    lines += [
        "",
        "[graph]",
        f"adjacency = {mat(scenario.adjacency)}",
        f"leader_links = {vec(scenario.leader_links)}",
        "",
        "[exosystem]",
        f"reference_frequencies = {vec(scenario.reference_frequencies)}",
    ]
    if scenario.disturbance_frequencies:
        lines.append(f"disturbance_frequencies = {vec(scenario.disturbance_frequencies)}")
    lines.append(f"w0 = {vec(scenario.w0)}")
    if scenario.p_override is not None:
        lines.append(f"p = {vec(scenario.p_override)}")
    num = scenario.numerics
    lines += [
        "",
        "[numerics]",
        f"grid_points = {num.grid_points}",
        f"dt = {_FMT(num.dt)}",
        f"horizon = {_FMT(num.horizon)}",
        f"mu_c = {_FMT(num.mu_c)}",
    ]
    if num.nu is not None:
        lines.append(f"nu = {_FMT(num.nu)}")
    lines += [
        f"riccati_a = {_FMT(num.riccati_a)}",
        f"b_y = {vec(num.b_y)}",
        f"blowup = {_FMT(num.blowup)}",
        "",
        "[outputs]",
        f"sample_every = {scenario.outputs.sample_every}",
    ]
    if scenario.outputs.snapshot_times:
        lines.append(f"snapshot_times = {vec(scenario.outputs.snapshot_times)}")
    if scenario.outputs.out_dir is not None:
        lines.append(f"out_dir = {scenario.outputs.out_dir}")
    for i, agent in enumerate(scenario.agents, start=1):
        lines += ["", f"[agent {i}]"]
        for key, value in (
            ("delta_lambda", agent.delta_lambda),
            ("delta_a", agent.delta_a),
            ("delta_c0", agent.delta_c0),
            ("x0", agent.x0),
        ):
            if value != "0":
                lines.append(f"{key} = {value}")
        for key, value in (
            ("delta_q0", agent.delta_q0),
            ("delta_q1", agent.delta_q1),
            ("delta_c_b0", agent.delta_c_b0),
            ("delta_c_b1", agent.delta_c_b1),
        ):
            if value != 0.0:
                lines.append(f"{key} = {_FMT(value)}")
        if agent.delta_points:
            lines.append(f"delta_points = {vec(agent.delta_points)}")
        if agent.P:
            lines.append(f"g1 = {' ; '.join(agent.g1)}")
            lines.append(f"g2 = {vec(agent.g2)}")
            lines.append(f"g3 = {vec(agent.g3)}")
            lines.append(f"g4 = {vec(agent.g4)}")
            lines.append(f"p = {mat(agent.P)}")
        lines.append(f"v0 = {vec(agent.v0)}")
    return "\n".join(lines) + "\n"
