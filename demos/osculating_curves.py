"""Curves on a prescribed support that hug another curve to any order.

Given supports A and B (neither on a line, jointly primitive), every
contact order up to |A| - |erode(conv A, B)| - 1 is realizable: draw a
random curve on B through (1,1), expand its branch as an exact series, and
pick hyperplane sections of the monomial image with prescribed vanishing.
The verifier then reads each order again, along its own expansion of
the branch.
"""

from sparsemult import (
    SupportSet,
    construct_prescribed,
    contact_bound,
    convex_hull,
    intersection_multiplicity_smooth,
    lattice_points,
)

A = lattice_points(convex_hull(SupportSet([(0, 0), (2, 0), (0, 2)])))
B = SupportSet([(0, 0), (1, 0), (0, 1)])
bound = contact_bound(A, B, None)  # the erosion estimate, which convex A meets
print(f"A = lattice points of a doubled simplex ({len(A)} points)")
print(f"B = the unit simplex; contact bound D = {bound}\n")

for m in range(1, bound + 1):
    system = construct_prescribed(A, B, m, seed=2024 + m)
    fresh = intersection_multiplicity_smooth(system.f, system.g, system.point)
    print(f"order {m}: curve on B: {system.f}")
    print(f"         osculant on A: {system.g}")
    print(f"         verifier reports exact order {fresh} at {system.point}\n")

print("every order from 1 through the bound, each certified independently")
