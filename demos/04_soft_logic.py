"""Weighted soft-logic rules: grounding, hinge distances, MAP inference.

Atoms take values in [0, 1].  A rule "body -> head" is satisfied to the
degree that the head is at least as true as the conjoined body; its
distance to satisfaction is max(sum(body) - head - (n_body - 1), 0), and
the MAP state minimizes the weighted sum of those distances (optionally
squared) subject to the observed atoms.
"""

import numpy as np

from polyscale.pslengine import (
    RelationalDatabase,
    ground,
    map_inference,
    parse_program,
    print_program,
)

program_text = """
# Influence flows along declared friendships; a grudge pushes back.
# Hinges are squared by default; ^1 makes the grudge rule linear.
open stance/1
closed Friend/2
closed Grudge/2
closed Anchor/1

2.0 : Anchor(x) -> stance(x)
1.0 : Friend(x, y) & stance(x) -> stance(y)
1.0 : Friend(x, y) & !stance(x) -> !stance(y)
0.5 : Grudge(x, y) & stance(x) -> !stance(y) ^1
"""
program = parse_program(program_text)
print("parsed program:")
print(print_program(program))

db = RelationalDatabase()
db.observe("Anchor", ("a",), 1.0)
db.observe("Friend", ("a", "b"), 1.0)
db.observe("Friend", ("b", "c"), 0.8)
db.observe("Grudge", ("a", "d"), 1.0)
for who in "abcd":
    db.add_target("stance", (who,), initial=0.5)

network = ground(program, db)
print(f"ground network: {len(network.free_atoms)} free atoms, "
      f"{len(network)} ground rules")

# Hinge distances at the uniform starting point: the compiled energy has one
# row per ground rule, and max(row, 0) is that rule's distance to satisfaction.
x0 = network.initial.copy()
distances = np.maximum(network.compiled.linear(x0), 0.0)
print("\ndistances at the start (value 0.5 everywhere):")
for rule, d in zip(network.rules, distances):
    body = " & ".join(
        ("!" if l.negated else "") + f"{l.predicate}{l.args}" for l in rule.body
    )
    head = ("!" if rule.head.negated else "") + \
        f"{rule.head.predicate}{rule.head.args}"
    print(f"  {rule.weight:.1f} ^{rule.exponent} : {body} -> {head}   d={d:.3f}")

result = map_inference(network)
print(f"\nMAP inference: energy {result.energy:.6f}, "
      f"{result.iterations} iterations, converged={result.converged}")
for atom, value in sorted(network.values_by_atom(result.values).items()):
    print(f"  stance{atom[1]} = {value:.3f}")

# The anchor drags a up; friendship chains b and c behind it with
# slack growing at each hop; the grudge holds d down.
assert result.values[network.free_index[("stance", ("a",))]] > 0.9
energies = [network.energy(np.clip(result.values + d, 0, 1))
            for d in (-0.05, 0.0, 0.05)]
print(f"\nperturbing all atoms by -0.05/0/+0.05: energies "
      f"{energies[0]:.4f} / {energies[1]:.4f} / {energies[2]:.4f}")
