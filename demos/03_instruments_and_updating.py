"""Instruments: outcome statistics plus post-measurement states.

Builds a projective (Lüders) instrument and a generic random one, reads off
the measured observable, updates states on observed outcomes, and forms the
joint observable of "measure the instrument, then measure B", on the
product of the two outcome sets.
"""

import numpy as np

from qcond import (
    Instrument,
    Operation,
    State,
    condition_instrument,
    given_distribution,
    given_observable,
    outcome_probabilities,
    random_instrument,
    random_observable,
    random_state,
)

# A Lüders instrument for the computational qubit basis.
proj0 = np.diag([1.0, 0.0]).astype(complex)
proj1 = np.diag([0.0, 1.0]).astype(complex)
lueders = Instrument(("zero", "one"), (Operation([proj0]), Operation([proj1])))

plus = State.pure([1.0, 1.0])
print("measured observable of the Lüders instrument:",
      outcome_probabilities(plus, lueders.measured_observable()))
print("updated state after outcome 'zero':\n",
      lueders.updated_state("zero", plus).matrix.real)

# A generic instrument from a qubit into a qutrit.
ins = random_instrument(2, 3, 2, seed=4)
rho = random_state(2, seed=5)
print("outcome probabilities:",
      {x: round(ins.subset_probability((x,), rho), 6) for x in ins.outcomes})

# Measuring B after the instrument gives a joint observable, with one
# outcome axis per measurement, whose marginals are exactly the
# instrument's observable and B conditioned by the total channel.
b_obs = random_observable(3, 2, seed=6)
joint = given_observable(b_obs, ins)
m1 = joint.marginal(0)
print("first marginal == measured observable:",
      np.allclose(m1.effect("x0").matrix, ins.measured_observable().effect("x0").matrix))

# Joint probabilities factor through the renormalized post-measurement state.
p = given_distribution(b_obs, ins, rho, ("x0",), b_obs.outcomes)
print("P(first outcome x0, any B outcome) =", round(p, 6),
      "= P(x0) =", round(ins.subset_probability(("x0",), rho), 6))

# Conditioning an instrument by a channel just runs the channel first.
pre = condition_instrument(ins.total_channel(), random_instrument(3, 2, 2, seed=7))
print("conditioned instrument maps dimension", pre.dim_in, "to", pre.dim_out)
