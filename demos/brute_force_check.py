"""Cross-validate every generating function against exhaustive enumeration.

The package ships its own ground truth: a brute-force sweep over all
(3n)!/3^n forests.  For each statistic and each n the series coefficient
must equal the enumerated distribution exactly -- no tolerances anywhere.
"""

import time

from shrubstat import build_gf, min_rise_count, rise_distribution

MAX_N = 4  # the full desk-scale check; 5 is past the sweep's guard

for stat in ("ris", "risT", "risB", "risL", "risA", "minris"):
    gf = build_gf(stat, MAX_N)
    print(f"{stat}:")
    for n in range(1, MAX_N + 1):
        start = time.perf_counter()
        if stat == "minris":
            brute = min_rise_count(n)
            formula = gf.coeff(n).coeff(0)
        else:
            brute = rise_distribution(stat, n)
            formula = gf.coeff(n)
        verdict = "PASS" if formula == brute else "FAIL"
        elapsed = time.perf_counter() - start
        print(f"  n={n}: formula {formula}  ==  brute force  [{verdict}, {elapsed:.2f}s]")
    print()
