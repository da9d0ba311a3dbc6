"""The three benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that is its
set-up), offers ``warm_up`` and yields its operations one round at a time.
A round is a fixed mix of operations, so a run of whole rounds has the same
mix on every commit and for every seed. Every operation comes with a check
that verifies its output independently of the library's own pass flags and
returns an Outcome.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational
from pathlib import Path
from time import perf_counter_ns

import unionbounds
from unionbounds import borel_cantelli, cli, events, unions

PROFILES = ("dense", "sparse", "disjoint-ish")
CLASSIC = ("chung_erdos", "de_caen", "kat")  # always evaluated at a = rho = 1
FLOAT_TOL = 1e-9  # the library's default relative tolerance for float checks
CONSOLE = "import sys; from unionbounds.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Outcome:
    """ok: every check passed; exact/eligible: results that came back as
    exact rationals, out of results whose inputs allow exact arithmetic."""

    ok: bool
    exact: int = 0
    eligible: int = 0


FAILED = Outcome(False)


def is_rational(value: object) -> bool:
    return isinstance(value, Rational) and not isinstance(value, bool)


def integral(x) -> bool:
    return isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)


def on_side(kind: str, value, target) -> bool:
    """value <= target for a lower bound, >= for an upper one; exact when
    both are rational, else within the relative float tolerance."""
    if is_rational(value) and is_rational(target):
        return value <= target if kind == "lower" else value >= target
    v, t = float(value), float(target)
    slack = FLOAT_TOL * max(1.0, abs(v), abs(t))
    return v <= t + slack if kind == "lower" else v >= t - slack


def fresh(system: events.EventSystem) -> events.EventSystem:
    """A new object with the same content, so nothing cached on an earlier
    object carries over."""
    return events.EventSystem(system.weights, system.events)


# ------------------------------------------------------------ report_corpus


class ReportCorpus:
    """compare_bounds on a stratified corpus: 1-10 events, 1-256 atoms,
    profiles rotating; one op is one compare_bounds call.

    The shapes are fixed: every pair of event count and atom stratum occurs
    twice, at a quarter and at three quarters of the stratum, so that the
    seed draws only the systems' content and runs on different seeds do the
    same amount of work. One round is the whole corpus.
    """

    SECTIONS = ((1, 1), (2, 1), (1.5, 1.25))
    STRATA = 6

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        size, max_atoms = (12, 32) if tiny else (120, 256)
        width = -(-max_atoms // self.STRATA)
        self.systems = []
        for i in range(size):
            n_events = 1 + i % 10
            low = 1 + ((i // 10) % self.STRATA) * width
            n_atoms = min(max_atoms, low + (2 * (i // 60) + 1) * width // 4)
            system = events.random_system(rng.randrange(2**31), n_events, n_atoms, PROFILES[i % 3])
            self.systems.append((system, events.exact_union_probability(system)))

    def warm_up(self) -> None:
        system, _ = self.systems[-1]
        for a, rho in self.SECTIONS:
            unions.compare_bounds(fresh(system), a, rho)

    def round(self, r: int):
        for system, exact in self.systems:
            copy = fresh(system)
            for a, rho in self.SECTIONS:
                yield (
                    lambda s=copy, a=a, rho=rho: unions.compare_bounds(s, a, rho),
                    lambda report, a=a, rho=rho, exact=exact: self.check(
                        report, a, rho, exact
                    ),
                )

    @staticmethod
    def check(report, a, rho, exact) -> Outcome:
        exact_section = integral(a) and integral(rho)
        ok = report.exact == exact and len(report.entries) == len(unions.BOUND_NAMES)
        hits = eligible = 0
        for entry in report.entries:
            ok = ok and entry.error is None and entry.passed
            ok = ok and entry.value is not None and on_side(entry.kind, entry.value, exact)
            if exact_section or entry.name in CLASSIC:
                eligible += 1
                rational = is_rational(entry.value) and entry.arithmetic == "rational"
                hits += rational
                ok = ok and rational
        return Outcome(ok, hits, eligible)

    @staticmethod
    def corrupt(report):
        first = report.entries[0]
        bad = replace(first, value=first.value + 1)
        return replace(report, entries=(bad,) + report.entries[1:])


# ----------------------------------------------------------------- cli_wide


@dataclass
class CliRun:
    returncode: int
    text: str
    stderr: str


class CliWide:
    """``unionbounds bounds`` as a subprocess on two generated shapes.

    Dense-wide has many atom incidences and few events; sparse many-events
    has few incidences and many events. Per round the dense invocations take
    a little under half the time at the seed commit, the sparse ones the
    rest. The dense tier is 3 single-section runs of the 14 ops, the top 21% of
    latencies, so that the 90th percentile falls in its middle and the
    median among the single-section sparse runs, inside a tier rather than
    on a border. Two sparse runs add a second exponent section.
    """

    SECOND = ("--a", "1", "--rho", "1", "--a", "3/2", "--rho", "5/4")

    tracer = None  # set to a layers.Tracer to run the CLI through launch.py

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.root = Path(unionbounds.__file__).resolve().parents[2]
        dense_shape, sparse_shape = ((4, 60), (30, 200)) if tiny else ((20, 1000), (300, 3000))
        self.inputs = {}
        for name, (n_events, n_atoms), profile in (
            ("dense", dense_shape, "dense"),
            ("sparse", sparse_shape, "sparse"),
        ):
            system = events.random_system(rng.randrange(2**31), n_events, n_atoms, profile)
            path = workdir / f"{name}.json"
            path.write_text(cli.serialize_system(system), encoding="utf-8")
            self.inputs[name] = (path, events.exact_union_probability(system))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env
        sparse = [("sparse", fmt, False) for fmt in ("json", "table", "csv") * 3]
        self.schedule = (
            [("dense", "json", False)]
            + sparse[:3]
            + [("sparse", "json", True), ("dense", "table", False)]
            + sparse[3:6]
            + [("sparse", "csv", True), ("dense", "csv", False)]
            + sparse[6:]
        )
        self.startup_ms = 0.0
        self.children_peak_kb = 0

    def measure_startup(self, repeats: int) -> None:
        """cli.startup_ms: a bare ``import unionbounds.cli`` in a fresh
        interpreter, median of ``repeats``."""
        times = []
        for _ in range(repeats):
            start = perf_counter_ns()
            subprocess.run(
                [sys.executable, "-c", "import unionbounds.cli"],
                env=self.env, cwd=self.root, check=True,
            )
            times.append((perf_counter_ns() - start) / 1e6)
        self.startup_ms = sorted(times)[len(times) // 2]

    def invoke(self, shape: str, fmt: str, second: bool) -> CliRun:
        path, _ = self.inputs[shape]
        out = self.workdir / f"out.{fmt}"
        out.unlink(missing_ok=True)
        args = ["bounds", "--input", str(path), "--format", fmt, "--output", str(out)]
        if second:
            args += self.SECOND
        if self.tracer is None:
            argv = [sys.executable, "-c", CONSOLE] + args
        else:
            stats = self.workdir / "stats.json"
            stats.unlink(missing_ok=True)
            argv = [sys.executable, str(Path(__file__).with_name("launch.py")), str(stats)] + args
        err_path = self.workdir / "cli.err"
        start = perf_counter_ns()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, env=self.env, cwd=self.root,
            )
            # wait4 rather than wait: it returns this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.tracer is not None:
            self.tracer.count("cli.process_ns", perf_counter_ns() - start)
            if stats.exists():
                self.tracer.merge(json.loads(stats.read_text(encoding="utf-8")))
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        self.children_peak_kb = max(self.children_peak_kb, usage.ru_maxrss)
        return CliRun(proc.returncode, text, stderr)

    def warm_up(self) -> None:
        self.invoke("sparse", "csv", False)

    def round(self, r: int):
        for shape, fmt, second in self.schedule:
            exact = self.inputs[shape][1]
            yield (
                lambda shape=shape, fmt=fmt, second=second: self.invoke(shape, fmt, second),
                lambda run, fmt=fmt, second=second, exact=exact: self.check(
                    run, fmt, 2 if second else 1, exact
                ),
            )

    @staticmethod
    def check(run: CliRun, fmt: str, sections: int, exact: Fraction) -> Outcome:
        if run.returncode != 0:
            print(f"exit code {run.returncode}: {run.stderr[-2000:]}", file=sys.stderr)
            return FAILED
        try:
            if fmt == "json":
                return CliWide.check_json(run.text, sections, exact)
            if fmt == "table":
                return CliWide.check_table(run.text, sections, exact)
            return CliWide.check_csv(run.text, sections, exact)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
            return FAILED

    @staticmethod
    def check_json(text: str, sections: int, exact: Fraction) -> Outcome:
        doc = json.loads(text)
        ok = Fraction(doc["exact"]) == exact and len(doc["sections"]) == sections
        hits = eligible = 0
        for section in doc["sections"]:
            exact_section = integral(Fraction(section["a"])) and integral(Fraction(section["rho"]))
            ok = ok and section["all_pass"] is True
            ok = ok and len(section["entries"]) == len(unions.BOUND_NAMES)
            for entry in section["entries"]:
                ok = ok and entry["pass"] is True and entry["error"] is None
                if entry["value_exact"] is not None:
                    ok = ok and on_side(entry["kind"], Fraction(entry["value_exact"]), exact)
                else:
                    ok = ok and on_side(entry["kind"], entry["value"], float(exact))
                if exact_section or entry["name"] in CLASSIC:
                    eligible += 1
                    hits += entry["value_exact"] is not None
                    ok = ok and entry["value_exact"] is not None
        return Outcome(ok, hits, eligible)

    @staticmethod
    def check_table(text: str, sections: int, exact: Fraction) -> Outcome:
        shown = f"{float(exact):.12g}"
        ok = False
        rows = 0
        for line in text.splitlines():
            if line.startswith("exact union probability: "):
                ok = Fraction(line.split()[3]) == exact
            tokens = line.split()
            if tokens and tokens[0] in unions.BOUND_NAMES:
                rows += 1
                # name kind value clamped exact pass; a seventh column is an error note
                ok = ok and len(tokens) == 6 and tokens[4] == shown and tokens[5] == "yes"
        return Outcome(ok and rows == sections * len(unions.BOUND_NAMES), int(ok), 1)

    @staticmethod
    def check_csv(text: str, sections: int, exact: Fraction) -> Outcome:
        shown = f"{float(exact):.12g}"
        table = list(csv.reader(io.StringIO(text)))
        ok = table[0] == ["name", "kind", "value", "clamped", "exact", "pass"]
        for name, kind, value, _, exact_col, passed in table[1:]:
            ok = ok and exact_col == shown and passed == "yes"
            ok = ok and on_side(kind, float(value), float(exact))
        return Outcome(ok and len(table) - 1 == sections * len(unions.BOUND_NAMES))

    @staticmethod
    def corrupt(run: CliRun) -> CliRun:
        return replace(
            run,
            text=run.text.replace('"pass": true', '"pass": false', 1).replace(" yes", " no ", 1),
        )


# ------------------------------------------------------------------ bc_grid


class BcGrid:
    """Horizon grids through bc_lower_estimate, bc_upper_estimate and
    kochen_stone_ratio on four sequence models; one op is one horizon row.
    Each round builds fresh models, so a grid may reuse work across its own
    horizons but never across rounds."""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rng = random.Random(seed)
        scale, step = (10, 1) if tiny else (1, 4)
        self.p_indep = Fraction(1, 3)
        self.ratio = Fraction(9, 10)
        self.p_ident = Fraction(rng.randint(1, 8), rng.randint(9, 19))
        self.system = events.random_system(rng.randrange(2**31), 40 // scale, 200 // scale, "dense")
        self.grids = {
            "independent": [n // scale for n in (10, 100, 300, 1000, 3000, 10000)],
            "geometric": [n // scale for n in (10, 25, 50, 75, 100, 125, 150)],
            "identical": [n // scale for n in (10, 30, 100, 300, 1000, 3000)],
            "explicit": list(range(step, self.system.n_events + 1, step)),
        }
        self.largest_horizons = sum(max(grid) for grid in self.grids.values())
        # P(no event among the first n) of the geometric model, by horizon
        self.geometric_miss = {}
        miss = Fraction(1)
        for k in range(1, max(self.grids["geometric"]) + 1):
            miss *= 1 - self.ratio**k
            self.geometric_miss[k] = miss
        self.oracles = {name: {n: self.oracle(name, n) for n in grid} for name, grid in self.grids.items()}

    def model(self, name: str):
        if name == "independent":
            return borel_cantelli.IndependentSequence(self.p_indep)
        if name == "geometric":
            ratio = self.ratio
            return borel_cantelli.IndependentSequence(lambda k: ratio**k)
        if name == "identical":
            return borel_cantelli.IdenticalSequence(self.p_ident)
        return borel_cantelli.ExplicitSequence(fresh(self.system))

    def oracle(self, name: str, n: int) -> tuple[Fraction, Fraction]:
        """(P(A_1 u ... u A_n), alpha_2 / alpha_1**2) from closed forms."""
        if name == "independent":
            p = self.p_indep
            return 1 - (1 - p) ** n, (n * p + n * n * p * p - n * p * p) / (n * p) ** 2
        if name == "geometric":
            r = self.ratio
            s1 = r * (1 - r**n) / (1 - r)
            s2 = r * r * (1 - r ** (2 * n)) / (1 - r * r)
            return 1 - self.geometric_miss[n], (s1 + s1 * s1 - s2) / (s1 * s1)
        if name == "identical":
            return self.p_ident, 1 / self.p_ident
        prefix = self.system.prefix(n)
        counts = prefix.occupancy_counts
        alpha1 = sum((w * c for w, c in zip(prefix.weights, counts)), Fraction(0))
        alpha2 = sum((w * c * c for w, c in zip(prefix.weights, counts)), Fraction(0))
        return events.exact_union_probability(prefix), alpha2 / (alpha1 * alpha1)

    @staticmethod
    def row(model, n: int):
        return (
            borel_cantelli.bc_lower_estimate(model, n),
            borel_cantelli.bc_upper_estimate(model, 1, n),
            borel_cantelli.kochen_stone_ratio(model, n),
        )

    def warm_up(self) -> None:
        for name, grid in self.grids.items():
            self.row(self.model(name), grid[0])

    def round(self, r: int):
        for name, grid in self.grids.items():
            model = self.model(name)
            for n in grid:
                yield (
                    lambda model=model, n=n: self.row(model, n),
                    lambda row, name=name, n=n: self.check(row, name, n, *self.oracles[name][n]),
                )

    def check(self, row, name: str, n: int, union: Fraction, ks: Fraction) -> Outcome:
        lower, upper, ratio = row
        values = (lower.value, upper.value, upper.window_bound, ratio)
        hits = sum(1 for v in values if is_rational(v))
        ok = hits == len(values) and lower.n == n and upper.n == n
        ok = ok and lower.value <= union <= upper.window_bound and ratio == ks
        if name == "identical":
            ok = ok and lower.value == self.p_ident
        return Outcome(ok, hits, len(values))

    @staticmethod
    def corrupt(row):
        lower, upper, ratio = row
        return replace(lower, value=lower.value + 1), upper, ratio


WORKLOADS = {
    "report_corpus": ReportCorpus,
    "cli_wide": CliWide,
    "bc_grid": BcGrid,
}
