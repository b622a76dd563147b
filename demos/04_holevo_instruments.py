"""Measure-and-prepare (Holevo) instruments and their composition law.

A Holevo instrument measures an observable and prepares a fresh state per
outcome. Composing two of them stays in the family, with joint-outcome
effects weighted by how well the first stage's preparations overlap the
second stage's observable.
"""

import numpy as np

from qcond import (
    given_instrument,
    holevo_compose,
    holevo_instrument,
    instrument_deviation,
    random_holevo_spec,
    random_state,
)

first = random_holevo_spec(2, 3, 2, seed=8)    # qubit -> qutrit
second = random_holevo_spec(3, 2, 2, seed=9)   # qutrit -> qubit

ins_first = holevo_instrument(first)
print("the instrument measures exactly its observable:",
      np.allclose(ins_first.measured_observable().effect("x0").matrix,
                  first.observable.effect("x0").matrix))

rho = random_state(2, seed=10)
out = ins_first.updated_state("x0", rho)
print("whatever came in, outcome x0 prepares the stored state:",
      np.allclose(out.matrix, first.state("x0").matrix))

# Composition: run `first`, then `second`. The closed form never touches a
# Kraus product, yet matches the generic sequential composition as maps.
closed = holevo_compose(second, first)
generic = given_instrument(ins_first, holevo_instrument(second))
print("closed-form composition equals generic composition, deviation:",
      f"{instrument_deviation(closed, generic):.2e}")

# The composed grid is itself measure-and-prepare: its joint effect for
# outcomes (x, y) is tr(alpha_x B_y) * A_x and it prepares beta_y.
x, y = first.observable.outcomes[0], second.observable.outcomes[1]
coeff = np.trace(first.state(x).matrix @ second.observable.effect(y).matrix).real
print("joint effect (x0, y1) equals tr(alpha_x B_y) A_x:",
      np.allclose(closed.op(x, y).measured_effect().matrix,
                  coeff * first.observable.effect(x).matrix, atol=1e-10))
print("joint outcome (x0, y1) prepares beta_y1:",
      np.allclose(closed.op(x, y).apply(rho) / max(np.trace(closed.op(x, y).apply(rho)).real, 1e-12),
                  second.state(y).matrix, atol=1e-9))
