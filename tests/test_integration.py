"""End-to-end runs on a configuration away from the canonical benchmark.

Different boundary coefficients, a curved reaction profile, a point-valued
output weight, a five-state signal model with a harmonic disturbance, output
feedthrough and three agents: exercises every pipeline stage on data with no
special structure.
"""

import numpy as np
import pytest

from coopreg import simulator as sim
from coopreg.cli import run_synthesis
from coopreg.scenario import loads

ALT_SCENARIO = """
mode = leader-follower

[plant]
a = 2*cos(3*z)
q0 = 0
q1 = 1

[output]
c0 = z^2
c_b0 = 0
c_b1 = 1
points = 1 @ 0.5

[graph]
adjacency = 0 0 0 ; 1 0 0 ; 0 1 0
leader_links = 1 0 0

[exosystem]
reference_frequencies = 0 pi
disturbance_frequencies = 2
w0 = 1 1.5 0 0.5 -0.5

[numerics]
grid_points = 64
dt = 0.001
horizon = 16
mu_c = 4
riccati_a = 40
b_y = 1 1 1 1 1

[outputs]
sample_every = 10

[agent 1]
delta_lambda = 0.1*z
delta_a = -0.2
g1 = 1 - z
g2 = 0.5
g3 = 0
g4 = 0.1
p = 0 0 0 2 0
x0 = cos(pi*z)
v0 = 0 0 0 0 0

[agent 2]
delta_lambda = -0.1
delta_a = 0.1*cos(3*z)
g1 = z
g2 = 0
g3 = 1
g4 = 0
p = 0 0 0 0 1
x0 = -1
v0 = 0.2 0 0.1 0 0

[agent 3]
delta_q0 = 0.2
delta_q1 = -0.1
g1 = 0
g2 = 0
g3 = 0
g4 = 0
p = 0 0 0 0 0
x0 = z
v0 = 0 0.3 0 0 0
"""


def test_leader_follower_tracks_mixed_reference():
    scenario = loads(ALT_SCENARIO)
    design = run_synthesis(scenario)
    assert design.passed
    assert min(v for _, v in design.nonblocking) > 1e-6
    trace = sim.simulate(scenario.resolve(), design.gains)
    tail = np.abs(trace.tracking_errors)[trace.times >= 12.8].max()
    assert tail < 0.02
    # the reference mixes a constant and a harmonic
    r = trace.reference
    assert r.max() > 1.0 and r.min() < 0.0 and abs(r.mean()) > 0.1


def test_leaderless_synchronizes_same_plant():
    scenario = loads(
        ALT_SCENARIO.replace("mode = leader-follower", "mode = leaderless").replace(
            "leader_links = 1 0 0", "leader_links = 0 0 0"
        )
    )
    design = run_synthesis(scenario)
    assert design.passed
    assert design.nu == pytest.approx(design.spectral_bound)
    trace = sim.simulate(scenario.resolve(), design.gains)
    tail = trace.pairwise_sync_errors()[trace.times >= 12.8].max()
    assert tail < 0.01
