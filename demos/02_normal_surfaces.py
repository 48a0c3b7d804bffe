"""
Normal surface vectors: admissibility, reconstruction, Euler
characteristic along two independent routes.

A surface is a vector of triangle/quad/octagon counts per tetrahedron.
Reconstruction stacks parallel copies, glues arcs across faces, and
reads off components, orientability and edge weights; the counting
formula chi = V - E + F must agree with the per-component sum.
"""

from normalhst import library
from normalhst.normal_surfaces import (SurfaceVector, TubeAnnotation,
                                       check_admissible,
                                       euler_characteristic,
                                       reconstruct_surface, vertex_link,
                                       classify)
from normalhst.triangulation import compute_skeleton

tri = library.doubled_tetrahedron()
skeleton = compute_skeleton(tri)

print("Vertex links of the doubled tetrahedron (a 3-sphere):")
for i in range(len(skeleton.vertex_orbits)):
    link = vertex_link(tri, i, skeleton)
    summary = reconstruct_surface(tri, link, skeleton)
    print(f"  orbit {i}: chi {euler_characteristic(tri, link, skeleton)} "
          f"(components {summary.component_count}, "
          f"orientable {summary.orientable}, "
          f"edge weights {summary.edge_weights})")

print()
print("The quad constraint in action:")
bad = SurfaceVector.build(library.single_tetrahedron(),
                          {(0, "quad", 0): 1, (0, "quad", 1): 1})
report = check_admissible(library.single_tetrahedron(), bad)
for violation in report.violations:
    print(f"  {violation.code}: {violation.message}")

print()
print("A non-orientable normal surface: the Klein bottle in L(4,1):")
lens = library.lens_l41()
klein = SurfaceVector.build(lens, {(0, "quad", 1): 1})
summary = reconstruct_surface(lens, klein)
print(f"  chi {summary.euler_characteristic}, closed "
      f"{summary.component_closed[0]}, orientable {summary.orientable}")

print()
print("Almost normal pieces in a single tetrahedron:")
single = library.single_tetrahedron()
octagon = SurfaceVector.build(single, {(0, "oct", 0): 1})
print(f"  octagon: {classify(single, octagon)}, "
      f"chi {euler_characteristic(single, octagon)}")
tube = SurfaceVector.build(
    single, {(0, "tri", 0): 2},
    tube=TubeAnnotation(0, ("tri", 0, 0), ("tri", 0, 1)))
print(f"  tubed triangles: {classify(single, tube)}, "
      f"chi {euler_characteristic(single, tube)} (an annulus)")
