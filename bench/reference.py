"""Reference task: a fixed amount of interpreter work that does not involve
the program under test.  run.py times it next to every round and scales all
timings by it, so that a machine running slower for a while (other tenants,
frequency changes) moves the reference and the measured processes alike.

Changing this file rescales every timing metric; keep it fixed.
"""

import json
from fractions import Fraction


def main():
    table = {}
    for i in range(1, 6001):
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + Fraction(i % 13 + 1, i % 7 + 1) * (i % 5 - 2)
    print(json.dumps({"reference": str(sum(table.values()))}))


if __name__ == "__main__":
    main()
