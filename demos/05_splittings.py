"""
The splitting complexity calculus: compressions always move downhill.

Surfaces are weighed by the sum of (2 - chi)^2 over components, and a
splitting by the non-increasing vector of its thick-level weights,
compared lexicographically (a prefix counts as smaller).  All four
weak-reduction cases strictly decrease that vector, so every rewrite
search bottoms out.
"""

import random

from normalhst.hst import (EMPTY_SURFACE, AbstractSplitting, AbstractSurface,
                           Component, NonseparatingCompression, TORUS,
                           c_surface, genus, is_minimal_reachable,
                           random_descent, random_splitting,
                           splitting_complexity, underlying_splitting,
                           untangle_step, trace_to_json)

print("Complexity of a few surfaces:")
for name, surf in (("sphere", AbstractSurface.of(Component(2))),
                   ("torus", AbstractSurface.of(TORUS)),
                   ("genus two", AbstractSurface.of(genus(2))),
                   ("thrice-punctured torus", AbstractSurface.of(
                       Component(0, 3)))):
    print(f"  {name}: c = {c_surface(surf)}, relative c = "
          f"{c_surface(surf, relative=True)}")

print()
print("A weak reduction where both compressions land on the thin levels")
print("(case 4): three levels collapse to one.")
base = AbstractSplitting.of(AbstractSurface.of(TORUS),
                            AbstractSurface.of(genus(2)),
                            AbstractSurface.of(TORUS))
out = untangle_step(base, 1, NonseparatingCompression(0),
                    NonseparatingCompression(0))
print(f"  before: {splitting_complexity(base)}, "
      f"after: {splitting_complexity(out)} "
      f"({len(base.levels)} levels -> {len(out.levels)})")

print()
print("Underlying splitting: forget spheres, collapse product regions:")
noisy = AbstractSplitting.of(
    EMPTY_SURFACE,
    AbstractSurface.of(TORUS, Component(2)),
    AbstractSurface.of(TORUS),
    AbstractSurface.of(TORUS, Component(2)),
    EMPTY_SURFACE)
clean = underlying_splitting(noisy)
print(f"  {len(noisy.levels)} levels -> "
      f"{[lvl.multiset() for lvl in clean.levels]}")

print()
print("Exhaustive descent from a genus-two Heegaard splitting:")
start = AbstractSplitting.of(EMPTY_SURFACE, AbstractSurface.of(genus(2)),
                             EMPTY_SURFACE)
result = is_minimal_reachable(start)
print(f"  minimum {result.minimum} "
      f"(certified: {result.certified}, "
      f"{result.states_explored} states)")
print(f"  trace: {trace_to_json(result.trace)}")

print()
print("Random rewriting always terminates (strict lexicographic descent):")
rng = random.Random(1)
for _ in range(3):
    splitting = random_splitting(rng)
    steps, final = random_descent(splitting, rng)
    print(f"  {splitting_complexity(splitting, True)} -> "
          f"{splitting_complexity(final, True)} in {steps} moves")
