"""Series routes that no CLI command reaches, run as one library call.

Prints one JSON object mapping each statistic to the coefficient
polynomial at n shrubs (ascending, decimal strings): ``ris`` from the
(1-x)-numerator fraction form and ``risT``/``risB``/``risL`` from their
literal closed forms.  The benchmark compares them with the reciprocal
route that ``shrubstat coeff`` prints.

    PYTHONPATH=src python3 bench/routes.py --n 40
"""

from __future__ import annotations

import argparse
import json

from shrubstat import series


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="number of shrubs")
    n = parser.parse_args(argv).n
    polys = {"ris": series.rise_gf_via_fraction(n).coeff(n)}
    for stat in ("risT", "risB", "risL"):
        polys[stat] = series.closed_form_gf(stat, n).coeff(n)
    out = {stat: [str(c) for c in poly.int_coeffs()] for stat, poly in polys.items()}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
