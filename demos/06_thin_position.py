"""
Morse presentations of links: width, the exchange move, induced
splittings.

Reading bottom to top, a birth inserts two adjacent strands and a death
joins two; the width sums the strand counts between consecutive events.
An independent maximum sitting just above a minimum slides below it and
drops the width by exactly four; the exchange-mode search applies such
slides until none is left.
"""

from normalhst.thin_position import (MorsePresentation, exchange_move,
                                     induced_splitting, legal_exchanges,
                                     thin_position_search, width)


def show(pres, label):
    prof = width(pres)
    print(f"  {label}: events {pres.kinds()}, profile {prof.profile}, "
          f"width {prof.width}")


print("Widths of small presentations:")
show(MorsePresentation.of("B", "D"), "unknot")
show(MorsePresentation.of("B", "B", "D", "D"), "bridge position")
show(MorsePresentation.of("B", "D", "B", "D"), "stacked unknots")

print()
print("The induced splitting of (3-sphere, link) by level spheres:")
pres = MorsePresentation.of("B", "B", "D", "B", "D", "D")
splitting = induced_splitting(pres)
levels = [[[comp.closed_chi, comp.punctures] for comp in lvl.components]
          for lvl in splitting.levels]
print(f"  profile {width(pres).profile} -> levels {levels}")

print()
print("A width-reducing exchange:")
tangled = MorsePresentation.of(("B", 0), ("B", 0), ("B", 0), ("D", 2),
                               ("D", 0), ("D", 0))
print(f"  start: width {width(tangled).width}, "
      f"legal exchanges at births {legal_exchanges(tangled)}")
before, after = width(tangled).width, width(exchange_move(tangled, 2)).width
print(f"  after swapping: width {after} (drop {before - after})")
# Exchanges act on disjoint pairs and commute, so every maximal chain of
# them ends at one presentation, the least width they reach.
thinnest = thin_position_search(tangled, mode="exchange")
witness = " ".join(f"{ev.kind}{ev.position}"
                   for ev in thinnest.witness.events)
print(f"  exchange-mode minimum: width {thinnest.minimum_width} "
      f"(witness {witness}, {thinnest.states_explored} states explored)")

print()
print("Minimal width over all orderings of two births and two deaths:")
four = MorsePresentation.of("B", "B", "D", "D")
free = thin_position_search(four, mode="all")
tied = thin_position_search(four, mode="all", single_component=True)
print(f"  unconstrained: {free.minimum_width} "
      f"(witness {free.witness.kinds()})")
print(f"  single component: {tied.minimum_width} "
      f"(witness {tied.witness.kinds()})")
