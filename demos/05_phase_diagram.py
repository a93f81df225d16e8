"""Phase diagram of the two-parameter map family.

Each grid point is classified as positive (Bloch closed form, checked against
the map's transfer matrix), completely positive (Choi spectrum),
and, where positive but not CP, tagged with the bisected Werner detection
threshold. The numerically found region differs from the nominal one: the
positive region is gamma1 <= 1/2 AND gamma1 + gamma2 <= 1, the map is NCP
only for 2*gamma1 + gamma2 > 1, and the threshold reaches 1/3 (full
entangled range) only where 2*gamma1 + gamma2 = 3/2.
"""

import math

import nmwit

# One column per quantity, one entry per grid point; the threshold is NaN where there is none.
columns = (column.tolist() for column in nmwit.phase_scan((0.0, 0.6), (0.0, 1.0), (13, 11)))
by_point = {(round(g1, 9), round(g2, 9)): (positive, cp, None if math.isnan(t) else t)
            for g1, g2, positive, cp, t in zip(*columns)}

print("legend: '.' not positive | 'c' positive and CP | digits = Werner threshold")
print("        (threshold printed as first decimal digit: 3 -> 0.3x, etc.)\n")
g2_values = sorted({g2 for _, g2 in by_point}, reverse=True)
g1_values = sorted({g1 for g1, _ in by_point})
for g2 in g2_values:
    cells = []
    for g1 in g1_values:
        positive, cp, threshold = by_point[(g1, g2)]
        if not positive:
            cells.append(".")
        elif cp:
            cells.append("c")
        else:
            cells.append(str(int(threshold * 10)))
    print(f"  g2={g2:4.1f}  " + " ".join(cells))
print("            " + " ".join(f"{g1:.2f}"[2:4].rjust(1)[:1] for g1 in g1_values))
print("            g1 from 0.00 to 0.60")

print("\nselected points:")
for g1, g2 in ((0.5, 0.5), (0.25, 0.6), (0.5, 0.9), (0.2, 0.2)):
    positive, cp, threshold = by_point[(g1, g2)]
    print(f"  ({g1:.2f}, {g2:.2f}): positive={positive} cp={cp} threshold={threshold}")
