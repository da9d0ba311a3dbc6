"""The ``selftest`` command, which ``cli.run_selftest`` imports when it runs."""

import argparse
import random
from fractions import Fraction

from . import bounds, cli
from .bounds import ExponentParams, MomentVector, _index_window
from .events import random_system
from .unions import compare_bounds, union_bound


# (kind, ell) -> (bound, smallest n, range of b as (low, offset from n) or None)
_SHARPNESS_CASES = {
    ("lower", 2): (bounds.lower_bound_two_moments, 2, (1, -1)),
    ("upper", 2): (bounds.upper_bound_two_moments, 2, None),
    ("lower", 3): (bounds.lower_bound_three_moments, 3, (1, -2)),
    ("upper", 3): (bounds.upper_bound_three_moments, 3, (2, -1)),
}


def _sharpness_trial(rng: random.Random) -> str | None:
    """One sharpness case: a vector supported on a bound's own index window
    (``bounds._index_window`` at a drawn b) must achieve the bound exactly.
    Returns an error string on failure."""
    a = rng.choice((1, 2))
    rho = rng.choice((1, 2))
    kind, ell = rng.choice(tuple(_SHARPNESS_CASES))
    bound, smallest, b_range = _SHARPNESS_CASES[kind, ell]
    n = rng.randint(smallest, 9)
    b = 0 if b_range is None else rng.randint(b_range[0], n + b_range[1])
    window = _index_window(kind, ell, b, n)
    vector = [Fraction(0)] * n
    for index in window:
        vector[index - 1] = Fraction(rng.randint(0, 8), rng.randint(1, 9))
    params = ExponentParams(a, rho, len(window), n)
    got, total = bound(MomentVector.from_vector(vector, params)), sum(vector)
    if got != total:
        return (
            f"{kind} ell={ell} a={a} rho={rho} n={n} window={window}: "
            f"bound {got} != exact sum {total}"
        )
    return None


def run_selftest(args: argparse.Namespace) -> int:
    failures: list[str] = []
    rng = random.Random(args.seed)

    exact_hits = 0
    for _ in range(args.sharpness):
        problem = _sharpness_trial(rng)
        if problem is None:
            exact_hits += 1
        else:
            failures.append(f"sharpness: {problem}")
    print(f"sharpness: {exact_hits}/{args.sharpness} exact equalities")

    violations = 0
    for i in range(args.systems):
        system = random_system(
            args.seed * 1_000 + i,
            rng.randint(1, 6),
            rng.randint(1, 64),
            cli.PROFILES[i % len(cli.PROFILES)],
        )
        for a, rho in ((1, 1), (2, 1)):
            report = compare_bounds(system, a, rho)
            for entry in report.entries:
                if not entry.passed:
                    violations += 1
                    failures.append(
                        f"sandwich: seed {args.seed * 1_000 + i} a={a} rho={rho} "
                        f"{entry.name}: value {entry.value} vs exact {report.exact}"
                        + (f" ({entry.error})" if entry.error else "")
                    )
    print(
        f"sandwich: {args.systems} systems x 2 exponent sections, "
        f"{violations} violations"
    )

    systems = {name: cli.reference_system(name) for name in ("s2", "s3")}
    constants = (
        ("s2", "chung_erdos", Fraction(2, 3)),
        ("s2", "de_caen", Fraction(2, 3)),
        ("s2", "kat", Fraction(3, 4)),
        ("s2", "per_event_lower_three", Fraction(3, 4)),
        ("s2", "per_event_upper_three", Fraction(3, 4)),
        ("s3", "de_caen", Fraction(67, 80)),
        ("s3", "kat", Fraction(9, 10)),
        ("s3", "occupancy_lower_two", Fraction(9, 10)),
        ("s3", "occupancy_lower_three", Fraction(9, 10)),
        ("s3", "occupancy_upper_three", Fraction(9, 10)),
        ("s3", "occupancy_upper_two", Fraction(11, 10)),
    )
    hit = 0
    for system, name, want in constants:
        got = union_bound(systems[system], name)
        if got == want:
            hit += 1
        else:
            failures.append(f"constant: {system} {name} = {got}, expected {want}")
    print(f"worked constants: {hit}/{len(constants)} match")

    sample = random_system(args.seed, 3, 12, "dense")
    if cli.serialize_system(sample) == cli.serialize_system(
        random_system(args.seed, 3, 12, "dense")
    ):
        print("round trip: generation is deterministic")
    else:
        failures.append("round trip: repeated generation differed")

    if args.inject_violation:
        report = compare_bounds(systems["s2"])
        entry = report.entries[0]
        corrupted = (entry.value or Fraction(0)) + 1  # deliberate off-by-one
        if not corrupted <= report.exact:
            failures.append(
                f"injected violation detected: corrupted {entry.name} "
                f"= {corrupted} exceeds exact {report.exact}"
            )

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {'FAIL' if failures else 'PASS'}")
    return cli.EXIT_VIOLATION if failures else cli.EXIT_OK
