"""Seeded contact inputs for scripts/differential.py's contact suite."""

import math
import random

from grippertool import ContactModel, GraspState

# fields of draw_contact's draw that one draw in four scales far out of
# the workload range
SCALED = ("mu", "e", "f_n", "g_tool", "alpha", "d_com", "d_obj")


def draw_contact(seed):
    """(ContactModel, GraspState, d_obj) of seed.

    The values are workload-like, with g_tool from 0.2 to 1.2 times
    2*mu*f_n, so that about one hold in six is infeasible. alpha is 0 one
    time in eight and pi one time in eight, the two vertical poses. One
    draw in four scales one field by 10**x, x uniform in [-320, 300] (in
    [-320, 0] for alpha, which must stay in [0, pi]), so that squares and
    products overflow or fall below the normal float range.
    """
    rng = random.Random(seed)
    values = {"mu": rng.uniform(0.05, 1.2), "e": rng.uniform(0.0005, 0.03),
              "f_n": rng.uniform(1.0, 100.0), "d_com": rng.uniform(0.0, 0.1),
              "d_obj": rng.uniform(0.0, 0.2)}
    values["g_tool"] = 2.0 * values["mu"] * values["f_n"] * rng.uniform(0.2, 1.2)
    pose = rng.random()
    values["alpha"] = (0.0 if pose < 0.125 else math.pi if pose < 0.25
                       else rng.uniform(0.0, math.pi))
    if rng.random() < 0.25:
        name = rng.choice(SCALED)
        values[name] *= 10.0 ** rng.uniform(-320.0, 0.0 if name == "alpha" else 300.0)
    model = ContactModel(mu=values["mu"], e=values["e"])
    state = GraspState(f_n=values["f_n"], g_tool=values["g_tool"], alpha=values["alpha"],
                       gamma=0.0, d=0.0, d_com=values["d_com"], theta=0.5)
    return model, state, values["d_obj"]
