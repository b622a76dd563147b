"""Channels in Kraus form, the dual map, and conditioning effects.

Shows the two pictures at work: apply a channel to states, apply its dual
to effects, and verify numerically that both assign the same probabilities.
Ends with the completion of a sub-normalized effect family.
"""

import numpy as np

from qcond import (
    Channel,
    Operation,
    complete_subnormalized,
    condition_effect,
    condition_observable,
    random_effect,
    random_observable,
    random_state,
)

# An amplitude-damping qubit channel with strength 0.3.
gamma = 0.3
damp = Channel([
    np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
    np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
])
print("damping channel, Kraus operators:", len(damp.kraus_stack))

rho = random_state(2, seed=1)
print("input state:\n", np.round(rho.matrix, 4))
print("output state:\n", np.round(damp.apply(rho), 4))

# The dual map moves effects backwards. Probabilities agree either way:
a = random_effect(2, seed=2)
forward = np.trace(damp.apply(rho) @ a.matrix).real
backward = np.trace(rho.matrix @ damp.dual_apply(a).matrix).real
print(f"P via output state   : {forward:.12f}")
print(f"P via conditioned effect: {backward:.12f}")
print("difference:", abs(forward - backward))

# Conditioning an observable maps every effect through the dual.
obs = random_observable(2, 3, seed=3)
conditioned = condition_observable(damp, obs)
print("conditioned observable outcomes:", conditioned.outcomes)

# Trace-preservation is what makes the dual unit-preserving. A
# sub-normalized operation visibly fails that check:
leaky = damp.scaled(0.9)
print("channel dual at identity == identity:",
      np.allclose(damp.dual_apply(np.eye(2)).matrix, np.eye(2)))
print("leaky operation dual at identity:\n",
      np.round(Operation(leaky.kraus_stack).dual_matrix(np.eye(2)), 4))

# Any family of effects with sum <= I completes to an observable by
# spreading the residual evenly; conditioning the completed observable
# reproduces the conditioned family whenever the residual's dual vanishes.
family = [a.matrix / 2, (np.eye(2) - a.matrix) / 2]
completed = complete_subnormalized(damp, family)
print("completed observable sums to identity:",
      np.allclose(sum(e.matrix for e in completed.effects), np.eye(2)))
print("conditioned completion outcome 'x0':\n",
      np.round(condition_effect(damp, completed.effect("x0")).matrix, 4))
