"""Walk through deciding the order of two generated operators.

Builds the Hamacher product and the operator generated by s(x) = 1/x - x,
then shows the three layers of the machinery: the brute-force grid oracle,
the exact subadditivity characterization, and the cheap ratio certificate.
"""

import numpy as np

from subnorms import (
    FamilySpec,
    IntervalGrid,
    compose,
    direct_compare,
    make_family,
    run_criterion,
    serialize_verdict,
    subadditivity_test,
)

grid = IntervalGrid.uniform(201)

T1 = make_family(FamilySpec("hamacher0"))           # s(x) = (1 - x)/x
T2 = make_family(FamilySpec("reciprocal_minus_x"))  # s(x) = 1/x - x

print("Sample values at (0.5, 0.5):")
print(f"  T1 = {T1(0.5, 0.5):.12g}   (1/3)")
print(f"  T2 = {T2(0.5, 0.5):.12g}   ((sqrt(13) - 3)/2)")

print("\nGrid oracle on 201^2 points:")
print(serialize_verdict(direct_compare(T1, T2, grid)))

print("\nExact characterization: T2 <= T1 iff s2 o s1^{-1} is subadditive")
m = compose(T2.generator, T1.generator)
rep = subadditivity_test(m, grid)
print(f"  subadditivity: {rep.verdict}")

print("\nCheap certificate: the generator ratio s2/s1 = 1 + x is non-decreasing")
rep = run_criterion("ratio", T2, T1, grid)
print(f"  ratio criterion: {rep.verdict}")

xs = np.linspace(0.1, 0.9, 5)
ratio = T2.generator(xs) / T1.generator(xs)
print("  ratio samples:", np.round(ratio, 6), "= 1 + x")
