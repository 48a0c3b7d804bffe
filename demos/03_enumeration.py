"""
Enumerating normal surfaces two ways and cross-checking.

Vertex surfaces are the extreme rays of the matching cone, found by
exact double description; the brute-force route walks every admissible
lattice vector of bounded weight.  Reduced to primitive extreme
solutions, the two must agree.
"""

from normalhst import library
from normalhst.enumeration import (brute_force_enumerate,
                                   enumerate_vertex_surfaces,
                                   octagon_augmentations,
                                   reduced_extreme_solutions,
                                   find_connected_chi2)
from normalhst.normal_surfaces import reconstruct_surface

for name, tri in library.corpus():
    rays = enumerate_vertex_surfaces(tri)
    lattice = brute_force_enumerate(tri, 6)
    oracle = reduced_extreme_solutions(tri, 6)
    bounded = [v for v in rays if sum(v.normal_coordinates()) <= 6]
    agree = sorted(v.normal_coordinates() for v in bounded) == \
        sorted(v.normal_coordinates() for v in oracle)
    print(f"{name}: {len(rays)} vertex surfaces, "
          f"{len(lattice)} lattice solutions of weight <= 6, "
          f"oracle agreement: {agree}")

print()
print("Connected chi = 2 surfaces (normal sphere candidates) in the")
print("boundary of the 4-simplex:")
penta = library.boundary_4_simplex()
spheres = find_connected_chi2(penta, "vertex")
print(f"  {len(spheres)} found among the vertex surfaces")

print()
print("Octagon augmentation: a lens space admits almost normal surfaces,")
print("the doubled tetrahedron does not (its gluings pair distinct")
print("tetrahedra, so a lone octagon always breaks matching):")
for name, build in (("lens-l41", library.lens_l41),
                    ("doubled", library.doubled_tetrahedron)):
    tri = build()
    augs = octagon_augmentations(tri, brute_force_enumerate(tri, 4))
    print(f"  {name}: {len(augs)} octagon surfaces")
    for vec in augs[:2]:
        summary = reconstruct_surface(tri, vec)
        print(f"    chi {summary.euler_characteristic}, "
              f"components {summary.component_count}")
