"""Property test: the scenario writer and parser are inverse on valid scenarios."""

from hypothesis import given, settings
from hypothesis import strategies as st

from coopreg.backstepping import MIN_GRID_POINTS
from coopreg.scenario import AgentConfig, Numerics, OutputOptions, Scenario, loads, serialize
from coopreg.synthesis import MODE_LEADER, MODE_LEADERLESS

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# '#' starts a comment only at the start of a value or after whitespace
OUT_DIRS = st.text("abz019/._-#", min_size=1, max_size=12).filter(lambda s: s[0] != "#")
EXPRESSIONS = st.sampled_from(
    ["0", "z", "z + 1", "-z", "2*z^2 - 0.5", "sin(pi*z)", "exp(-z)/e", "3*(z - 1)"]
)


def vectors(size, elements=FINITE):
    return st.lists(elements, min_size=size, max_size=size).map(tuple)


def frequencies(min_size):
    return st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=min_size, max_size=2, unique=True
    ).map(tuple)


@st.composite
def agents(draw, n_w, n_points):
    n_rows = draw(st.integers(0, 3))
    return AgentConfig(
        delta_lambda=draw(EXPRESSIONS),
        delta_a=draw(EXPRESSIONS),
        delta_q0=draw(FINITE),
        delta_q1=draw(FINITE),
        delta_c0=draw(EXPRESSIONS),
        delta_points=draw(vectors(draw(st.integers(0, n_points)))),
        delta_c_b0=draw(FINITE),
        delta_c_b1=draw(FINITE),
        g1=draw(vectors(n_rows, EXPRESSIONS)),
        g2=draw(vectors(n_rows)),
        g3=draw(vectors(n_rows)),
        g4=draw(vectors(n_rows)),
        P=draw(vectors(n_rows, vectors(n_w))),
        x0=draw(EXPRESSIONS),
        v0=draw(vectors(n_w)),
    )


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 5))
    reference = draw(frequencies(1))
    disturbance = draw(frequencies(0))
    n_w = sum(1 if f == 0 else 2 for f in reference + disturbance)
    weights = st.floats(min_value=0.0, max_value=10.0)
    mode = draw(st.sampled_from([MODE_LEADER, MODE_LEADERLESS]))
    points = draw(
        st.lists(st.tuples(FINITE, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)), max_size=3)
    )
    return Scenario(
        mode=mode,
        plant_a=draw(EXPRESSIONS),
        q0=draw(FINITE),
        q1=draw(FINITE),
        c0=draw(EXPRESSIONS),
        points=tuple(points),
        c_b0=draw(FINITE),
        c_b1=draw(FINITE),
        adjacency=tuple(
            tuple(0.0 if i == j else draw(weights) for j in range(n)) for i in range(n)
        ),
        # a leaderless scenario has no leader links
        leader_links=draw(vectors(n, weights)) if mode == MODE_LEADER else (0.0,) * n,
        reference_frequencies=reference,
        disturbance_frequencies=disturbance,
        w0=draw(vectors(n_w)),
        p_override=draw(st.none() | vectors(n_w)),
        agents=tuple(draw(agents(n_w, len(points))) for _ in range(n)),
        numerics=Numerics(
            grid_points=draw(st.integers(MIN_GRID_POINTS, 5000)),
            dt=draw(POSITIVE),
            horizon=draw(POSITIVE),
            mu_c=draw(FINITE),
            nu=draw(st.none() | POSITIVE),
            riccati_a=draw(POSITIVE),
            b_y=draw(vectors(n_w)),
            blowup=draw(POSITIVE),
        ),
        outputs=OutputOptions(
            sample_every=draw(st.integers(1, 1000)),
            snapshot_times=tuple(draw(st.lists(FINITE, max_size=3))),
            out_dir=draw(st.none() | OUT_DIRS),
        ),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_serialize_then_loads_is_identity(scenario):
    assert loads(serialize(scenario)) == scenario
