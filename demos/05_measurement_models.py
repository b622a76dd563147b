"""Measurement models: probing a system through an auxiliary space.

A model couples the base system to a probe, then reads a probe observable;
partial trace over the probe extracts what the model measures on the base
space. Separable couplings make every extracted quantity available in
closed form, and the two routes agree to rounding.
"""

import numpy as np

from qcond import (
    KrausSeparableChannel,
    MeasurementModel,
    instrument_deviation,
    observable_deviation,
    random_channel,
    random_instrument,
    random_observable,
    random_state,
)

# Generic route: any interaction instrument into base ⊗ probe works.
interaction = random_instrument(2, 4, 2, seed=11)
probe = random_observable(2, 2, seed=12)
model = MeasurementModel(2, 2, interaction, probe)

pointer = model.measured_pointer_observable()
print("pointer observable the model measures on the base space:")
for y in pointer.outcomes:
    print(f"  outcome {y}:\n{np.round(pointer.effect(y).matrix, 4)}")

rho = random_state(2, seed=13)
meas = model.measured_instrument()
probs = {y: round(float(np.trace(meas.op(y).apply(rho)).real), 6) for y in meas.outcomes}
print("pointer outcome probabilities:", probs)

# The first marginal of the joint observable ignores the probe entirely.
other_probe = random_observable(2, 3, seed=14)
bi_a = model.measured_bi_observable()
bi_b = MeasurementModel(2, 2, interaction, other_probe).measured_bi_observable()
print("interaction marginal is probe-independent:",
      observable_deviation(bi_a.marginal(0), bi_b.marginal(0)) < 1e-10)

# Separable route: couplings of the form sum_i K_i rho K_i† ⊗ rho_i admit
# closed forms for everything, bypassing partial traces.
base = random_channel(2, 2, 2, seed=15)
ks = KrausSeparableChannel(base.kraus_stack, (random_state(2, 16), random_state(2, 17)))
sep_model = ks.model(probe)

fast = ks.measured_instrument(probe)
slow = sep_model.measured_instrument()
print("separable shortcut == partial-trace pipeline (instrument), deviation:",
      f"{instrument_deviation(fast, slow):.2e}")
print("pointer shortcut deviation:",
      f"{observable_deviation(ks.pointer_observable(probe), sep_model.measured_pointer_observable()):.2e}")

w = ks.outcome_weights(probe)
print("coupling weights tr(rho_i P_y) are row-stochastic:", np.allclose(w.sum(axis=1), 1.0))
print("so the pointer observable is a classical post-processing of {K_i†K_i}.")
