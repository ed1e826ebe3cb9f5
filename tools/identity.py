"""`python3 tools/identity.py [REV]` checks that the working tree gives REV's outputs (REV defaults
to HEAD~1), byte for byte.  REV is extracted with `git archive` into a temporary directory outside
the repo, deleted afterwards.  Each check runs in a subprocess per tree and prints one line: `same`,
or the first line whose output differs.  The exit status is 1 if any check differs.  The checks:

- scan: the default `mdiqkd scan` CSV, with its md5;
- gnuplot: the default `mdiqkd scan --gnuplot` output;
- reference: the rows of perfbench's reference scan seed, which must also pass perfbench's own check
  against perfbench/reference/scan_seed0.csv (the working tree's file, read, never regenerated);
- optimize: `mdiqkd optimize --scenario H1 --distance 100`;
- bound: `mdiqkd bound` for H1, H2, W1 and T1 in Z and X, on the gain records of REV's optimized
  rows at 0, 50 and 150 km and on their Z-only halves, and on H1's 0 km file without the weak
  setting's (x, x) X record, where a Z run writes its Y11 report and then fails: 50 runs, stdout,
  stderr and exit code;
- fingerprints: seeded fingerprints of gain_from_yields records (float.hex), rank_grid rates
  (float.hex) and rate_for_scenario points (repr, or the error raised);
- optimized: seeded random optimize_mu_prime rows (repr), 100 per scenario, each on a config of
  random e_d, d_c, mu_fixed, heralding efficiency and dark rate and cutoff 3-8, at 0-320 km: the
  optimizer is the one caller that evaluates many points on one row context.  Ten more per
  scenario use a unit-efficiency heralding detector, on which T1 and H1 rows end on the
  optimizer's no_valid_point fallback;
- bounds: seeded random gain files through gain_from_yields, emit_gain_csv and parse_gain_csv,
  bounded as `mdiqkd bound` bounds them (Y11 in Z and X, single_pair_gain, e11) by repr, or the
  error raised: H1, H2, W1 and T1 classes, Poisson or thermal, cutoff 3-8, random links, symmetric
  and asymmetric settings, records 1e-12 relative off the settings' intensities (once on both
  sides of them, which is ambiguous) and files missing a record.  Where both Y11 bounds are
  licensed, e11 is also bounded with each setting's s11 zeroed in turn, on the file without that
  setting's X records, which a setting without a denominator must not read;
- tables: `mdiqkd yields --basis both` through runner.main on seeded config files of random e_d and
  d_c (0 included), eta_c and cutoff 2-8, at 0-300 km, and bsm_outcome_distribution (repr) at
  photon counts beyond the link's cutoff, on random relays (misalignment 0 and 1 and dark rate 0
  included), whose pair tables are built for exactly those counts.

Then it prints a `kernels` report, which checks nothing and never fails: the default scan's md5
from both trees under each OpenBLAS kernel of KERNELS, set by OPENBLAS_CORETYPE in the child
processes' environment only, with the kernel each child reports, and whether the two md5s
match.  numpy hands its small matrix products to OpenBLAS, whose kernels round them
differently, so the pinned bits hold for one kernel; the report shows whether both trees still
agree under the others.  A child that fails reads `unavailable`.

It takes about a minute; it needs git, so it is not part of the test suite."""
import hashlib, os, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMES, DISTANCES = ("H1", "H2", "W1", "T1"), (0.0, 50.0, 150.0)
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")

# writes, into argv[1], the gain files of each scheme's optimized default row and its Z-only half,
# and H1's 0 km file without the weak setting's (x, x) X record, and prints the bound arguments
# of each
GAIN_FILES = f"""
import sys
from pathlib import Path
from mdiqkd.decoy import GainTable, gain_from_yields, side_weights
from mdiqkd.keyrate import basis_tables
from mdiqkd.optics import Basis
from mdiqkd.runner import ScanConfig, emit_gain_csv, optimize_mu_prime
from mdiqkd.source import SourceSpec
cfg = ScanConfig()
for scheme in {SCHEMES!r}:
    scenario = cfg.scenario_kind(scheme)
    _, weak_cls, strong_cls = scenario.classes
    for distance in {DISTANCES!r}:
        link = cfg.link_for(distance)
        tables = basis_tables(link)
        row = optimize_mu_prime(scenario, link, cfg, tables)
        both, z_only = GainTable(), GainTable()
        for x, cls in ((row.mu, weak_cls), (row.mu_prime, strong_cls)):
            sides = [side_weights(SourceSpec(scenario.distribution, i, scenario.heralding, cls),
                                  cfg.cutoff) for i in (x, 0.0)]
            for a in sides:
                for b in sides:
                    both.add(gain_from_yields(a, b, tables[0]))
                    z_only.add(gain_from_yields(a, b, tables[0]))
                    both.add(gain_from_yields(a, b, tables[1]))
        halves = [("both", both), ("z", z_only)]
        if (scheme, distance) == ("H1", 0.0):
            weak_x = (Basis.X, row.mu, row.mu, weak_cls)
            halves.append(("no_weak_x", GainTable(
                r for r in both
                if (r.basis, r.alice_intensity, r.bob_intensity, r.trigger_class) != weak_x)))
        for half, table in halves:
            path = Path(sys.argv[1]) / f"{{scheme}}_{{distance:g}}_{{half}}.csv"
            path.write_text(emit_gain_csv(table))
            print(path, scheme, repr(row.mu), repr(row.mu_prime))
"""

# prints the reference seed's rows, and fails on a row perfbench's own check would refuse: a
# valid flag or reason unlike the row recorded in argv[1], or a rate off by more than RATE_REL_TOL
REFERENCE = """
import sys
from pathlib import Path
from workloads import RATE_REL_TOL, load_reference, reference_rows
recorded = load_reference(Path(sys.argv[1]))
for row in reference_rows():
    print(",".join(row))
    ref, rate = recorded[(float(row[0]), row[1])], float(row[6])
    if (row[7] == "1", row[8]) != (ref["valid"], ref["reason"]) or not (
            abs(rate - ref["rate"]) <= RATE_REL_TOL * max(abs(rate), abs(ref["rate"]))):
        sys.exit(f"differs from the recorded row {ref}")
print(f"all {len(recorded)} recorded rows match")
"""

FINGERPRINTS = """
import math, sys
import numpy as np
from mdiqkd.decoy import gain_from_yields, side_weights
from mdiqkd.keyrate import SCENARIO_NAMES, ScenarioKind, basis_tables, rank_grid, rate_for_scenario
from mdiqkd.optics import LinkSpec
from mdiqkd.source import DistributionKind, HeraldingDetector, SourceSpec, TriggerClass

rng = np.random.default_rng(int(sys.argv[1]))


def uniform(lo, hi):
    return float(rng.uniform(lo, hi))


def random_link(cutoff):
    return LinkSpec(uniform(0.0, 250.0), relay_efficiency=uniform(0.05, 0.9),
                    relay_dark_rate=10.0 ** uniform(-8.0, -4.0),
                    misalignment=uniform(0.0, 0.05), cutoff=cutoff)


def source(intensity, cls):
    kind = (DistributionKind.POISSON, DistributionKind.THERMAL)[int(rng.integers(2))]
    heralding = HeraldingDetector(uniform(0.1, 1.0), 10.0 ** uniform(-8.0, -3.0))
    return SourceSpec(kind, intensity, None if cls is TriggerClass.ALL else heralding, cls)


def scenario(i):
    return ScenarioKind(SCENARIO_NAMES[i % 7], uniform(1e-3, 0.99), 10.0 ** uniform(-8.0, -3.0))


def hexes(values):
    return " ".join(float(v).hex() for v in values)


for i in range(160):
    cutoff = 2 + i % 7
    tables = basis_tables(random_link(cutoff))
    x, y = uniform(0.0, 1.5) if i % 5 else 0.0, uniform(0.0, 1.5) if i % 7 else 0.0
    cls = list(TriggerClass)[i % 3]
    for a, b in ((x, y), (y, x), (x, x), (x, 0.0)):
        alice, bob = side_weights(source(a, cls), cutoff), side_weights(source(b, cls), cutoff)
        for table in tables:
            rec = gain_from_yields(alice, bob, table)
            print("gains", i, hexes((rec.gain, rec.qber, rec.tail)))
for i in range(210):
    link = random_link(2 + i % 7)
    grid = np.geomspace(1e-4, 1.5, 60)
    rates, _ = rank_grid(scenario(i), link, uniform(0.01, 0.3), grid, basis_tables(link),
                         uniform(0.99, 1.2))
    print("grids", i, hexes(rates.tolist()))
for i in range(150):
    link, kind = random_link(2 + i % 7), scenario(i)
    tables, mu_fixed, f_ec = basis_tables(link), uniform(0.01, 0.3), uniform(0.99, 1.2)
    for mu_prime in (10.0 ** rng.uniform(-4.0, math.log10(1.5), 10)).tolist():
        mu = kind.weak_intensity(mu_prime, mu_fixed)
        if rng.random() < 0.3:
            mu = uniform(0.01, 1.0) * mu_prime
        try:
            out = repr(rate_for_scenario(kind, link, mu, mu_prime, tables, f_ec))
        except ValueError as exc:
            out = f"{type(exc).__name__}: {exc}"
        print("points", i, out)
"""

# optimized rows on random configs, by public API only, so that REV runs it too
OPTIMIZED = """
import sys
import numpy as np
from mdiqkd.keyrate import SCENARIO_NAMES
from mdiqkd.runner import ScanConfig, optimize_mu_prime

rng = np.random.default_rng(int(sys.argv[1]))
for i in range(100 * len(SCENARIO_NAMES)):
    cfg = ScanConfig(e_d=float(rng.uniform(0.0, 0.05)), d_c=float(10.0 ** rng.uniform(-8.0, -4.0)),
                     mu_fixed=float(rng.uniform(0.01, 0.3)),
                     eta_heralding=float(rng.uniform(0.1, 1.0)),
                     d_heralding=float(10.0 ** rng.uniform(-8.0, -3.0)),
                     cutoff=int(rng.integers(3, 9)), scenario_heralding={})
    scenario = cfg.scenario_kind(SCENARIO_NAMES[i % len(SCENARIO_NAMES)])
    print(i, repr(optimize_mu_prime(scenario, cfg.link_for(float(rng.uniform(0.0, 320.0))), cfg)))
# a unit-efficiency heralding detector leaves a non-triggered setting no weight
for i in range(10 * len(SCENARIO_NAMES)):
    cfg = ScanConfig(eta_heralding=1.0, scenario_heralding={})
    scenario = cfg.scenario_kind(SCENARIO_NAMES[i % len(SCENARIO_NAMES)])
    print("unit", i, repr(optimize_mu_prime(scenario, cfg.link_for(float(rng.uniform(0.0, 200.0))),
                                            cfg)))
"""

# gain files through the CSV round trip, bounded as `mdiqkd bound` bounds them, by public API
BOUNDS = """
import sys
import numpy as np
from mdiqkd.decoy import (BoundUnavailableError, GainTable, e11_upper_bound, gain_from_yields,
                          side_weights, single_pair_gain, y11_lower_bound)
from mdiqkd.keyrate import ScenarioKind, basis_tables
from mdiqkd.optics import Basis, LinkSpec
from mdiqkd.runner import emit_gain_csv, parse_gain_csv
from mdiqkd.source import DistributionKind, SourceSpec

rng = np.random.default_rng(int(sys.argv[1]))


def uniform(lo, hi):
    return float(rng.uniform(lo, hi))


for i in range(400):
    cutoff = 3 + i % 6
    link = LinkSpec(uniform(0.0, 250.0), relay_efficiency=uniform(0.05, 0.9),
                    relay_dark_rate=10.0 ** uniform(-8.0, -4.0), misalignment=uniform(0.0, 0.05),
                    cutoff=cutoff)
    scenario = ScenarioKind(("H1", "H2", "W1", "T1")[i % 4], uniform(0.05, 1.0),
                            10.0 ** uniform(-8.0, -3.0))
    kind = (DistributionKind.POISSON, DistributionKind.THERMAL)[int(rng.integers(2))]
    mu_prime = 10.0 ** uniform(-2.0, 0.2)
    mu = uniform(0.05, 0.9) * mu_prime
    settings = []
    for x, cls in ((mu, scenario.classes[1]), (mu_prime, scenario.classes[2])):
        y = x if i % 3 else x * uniform(0.5, 1.5)
        settings.append(tuple(SourceSpec(kind, v, scenario.heralding, cls) for v in (x, y)))
    # the file's intensities: exact, 1e-12 relative off, or off on both sides (ambiguous)
    noise = (1.0,) if i % 5 else ((1.0 + 1e-12,) if i % 10 else (1.0 + 1e-12, 1.0 - 1e-12))
    records, x_records = [], ([], [])
    for table in basis_tables(link):
        for j, (alice, bob) in enumerate(settings):
            for f in noise:
                sides = [[side_weights(SourceSpec(kind, v * f, s.heralding, s.trigger_class),
                                       cutoff) for v in (s.intensity, 0.0)] for s in (alice, bob)]
                made = [gain_from_yields(a, b, table) for a in sides[0] for b in sides[1]]
                records += made
                if table.basis is Basis.X:
                    x_records[j].extend(made)
    if i % 7 == 0:
        del records[int(rng.integers(len(records)))]
    gains = parse_gain_csv(emit_gain_csv(GainTable(records)))
    weak, strong = settings
    s11 = None
    try:
        bound_z = y11_lower_bound(gains, weak, strong, Basis.Z, cutoff)
        bound_x = y11_lower_bound(gains, weak, strong, Basis.X, cutoff)
        out = f"{bound_z!r} {bound_x!r}"
        if bound_z.conditions_ok and bound_x.conditions_ok:
            s11 = [single_pair_gain(pair, bound_x.value) for pair in settings]
            out += f" {s11!r} {e11_upper_bound(gains, weak, strong, *s11)!r}"
    except (KeyError, BoundUnavailableError) as exc:
        out = f"{type(exc).__name__}: {exc}"
    print(i, out)
    for j in range(2) if s11 is not None else ():
        gone = {id(r) for r in x_records[j]}
        missing = parse_gain_csv(emit_gain_csv(GainTable(r for r in records if id(r) not in gone)))
        zeroed = [0.0 if n == j else s for n, s in enumerate(s11)]
        try:
            out = repr(e11_upper_bound(missing, weak, strong, *zeroed))
        except (KeyError, BoundUnavailableError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        print(i, "s11", j, "zeroed", out)
"""

# yield tables through the CLI on random config files, and outcome distributions at photon counts
# beyond the cutoff, by public API only
TABLES = """
import sys, tempfile
from pathlib import Path
import numpy as np
from mdiqkd.optics import BB84State, LinkSpec, bsm_outcome_distribution
from mdiqkd.runner import main

rng = np.random.default_rng(int(sys.argv[1]))


def uniform(lo, hi):
    return float(rng.uniform(lo, hi))


with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "link.conf"
    for i in range(140):
        e_d = (0.0, 1.0, uniform(0.0, 0.1))[min(i % 6, 2)]
        d_c = 0.0 if i % 4 == 0 else 10.0 ** uniform(-8.0, -3.0)
        config.write_text(f"e_d = {e_d!r}\\nd_c = {d_c!r}\\neta_c = {uniform(0.05, 1.0)!r}\\n"
                          f"cutoff = {2 + i % 7}\\n")
        args = ["yields", "--config", str(config), "--distance", repr(uniform(0.0, 300.0))]
        print("yields", i, args[4:], flush=True)
        print("exit", main([*args, "--basis", "both"]))
states = list(BB84State)
for i in range(300):
    cutoff, m, n = 0, 0, 0
    while not (m + n <= 16 and (max(m, n) > cutoff or cutoff > 8)):
        cutoff, m, n = (int(k) for k in rng.integers((1, 0, 0), (13, 17, 17)))
    link = LinkSpec(uniform(0.0, 300.0), relay_efficiency=uniform(0.05, 1.0),
                    relay_dark_rate=0.0 if i % 5 == 0 else 10.0 ** uniform(-8.0, -3.0),
                    misalignment=(0.0, 1.0, uniform(0.0, 0.1))[min(i % 7, 2)], cutoff=cutoff)
    a, b = states[int(rng.integers(4))], states[int(rng.integers(4))]
    print("bsm", i, m, n, cutoff, a.name, b.name, repr(bsm_outcome_distribution(m, n, a, b, link)))
"""


# the default scan's md5, after the kernel numpy's bundled OpenBLAS runs, by public API only
KERNEL_SCAN = """
import ctypes, hashlib
from pathlib import Path
import numpy
from mdiqkd.runner import ScanConfig, emit_csv, scan
core = "unknown"
for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"):
    get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    core = get().decode()
print(core, hashlib.md5(emit_csv(scan(ScanConfig())).encode()).hexdigest())
"""


def run(tree: Path, *args: str, cwd: Path | None = None, paths=("src",), **env: str) -> list[str]:
    """stdout, stderr and exit code of `python args` on tree's package, with env added to the
    environment, as lines, with the tree's own path written <tree> so that a traceback reads
    alike in both."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(tree / p) for p in paths), **env)
    proc = subprocess.run([sys.executable, *args], cwd=cwd or tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines() + [f"stderr: {line}" for line in proc.stderr.splitlines()]
    return [line.replace(str(tree), "<tree>") for line in lines] + [f"exit {proc.returncode}"]


def bound_runs(tree: Path, files: list[list[str]]) -> list[str]:
    lines = []
    for path, scheme, mu, mu_prime in files:
        for basis in ("Z", "X"):
            args = ("--gains", path, "--scheme", scheme, "--mu", mu, "--mu-prime", mu_prime)
            lines.append(f"bound {Path(path).name} {basis}")
            lines += run(tree, "-m", "mdiqkd", "bound", *args, "--basis", basis)
    return lines


def first_difference(ours: list[str], theirs: list[str]) -> str:
    for i, (a, b) in enumerate(zip(theirs, ours), start=1):
        if a != b:
            return f"line {i}: REV {a!r}, the working tree {b!r}"
    return f"REV has {len(theirs)} lines, the working tree {len(ours)}"


def kernel_scan(tree: Path, kernel: str) -> str:
    """`<kernel the child ran> <md5>` of the tree's default scan, or unavailable."""
    lines = run(tree, "-c", KERNEL_SCAN, OPENBLAS_CORETYPE=kernel)
    return lines[0] if lines[-1] == "exit 0" and len(lines) == 2 else "unavailable"


def main() -> int:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD~1"
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        base, gains = Path(tmp) / "rev", Path(tmp) / "gains"
        base.mkdir(), gains.mkdir()
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        made = run(base, "-c", GAIN_FILES, str(gains))
        if made[-1] != "exit 0":
            sys.exit("REV could not write the gain files:\n" + "\n".join(made))
        files = [line.split() for line in made[:-1]]
        recorded = ROOT / "perfbench" / "reference" / "scan_seed0.csv"
        checks = {
            "scan": lambda tree: run(tree, "-m", "mdiqkd", "scan"),
            "gnuplot": lambda tree: run(tree, "-m", "mdiqkd", "scan", "--gnuplot"),
            "reference": lambda tree: run(tree, "-c", REFERENCE, str(recorded),
                                          cwd=tree / "perfbench", paths=("src", "perfbench")),
            "optimize": lambda tree: run(tree, "-m", "mdiqkd", "optimize", "--scenario", "H1",
                                         "--distance", "100"),
            "bound": lambda tree: bound_runs(tree, files),
            "fingerprints": lambda tree: run(tree, "-c", FINGERPRINTS, "2101"),
            "optimized": lambda tree: run(tree, "-c", OPTIMIZED, "2201"),
            "bounds": lambda tree: run(tree, "-c", BOUNDS, "2401"),
            "tables": lambda tree: run(tree, "-c", TABLES, "2901"),
        }
        print(f"REV {rev} ({commit[:12]}) against the working tree of {ROOT}")
        differs = 0
        for name, check in checks.items():
            theirs, ours = check(base), check(ROOT)
            if ours != theirs:
                same, detail = False, first_difference(ours, theirs)
            elif name != "bound" and ours[-1] != "exit 0":
                # the check itself failed, alike in both trees
                same, detail = False, f"both trees fail: {ours[-2]}"
            else:
                text = "\n".join(ours[:-1]) + "\n"
                same = True
                detail = f"{len(ours) - 1} lines, md5 {hashlib.md5(text.encode()).hexdigest()}"
            differs += not same
            print(f"{'same' if same else 'DIFFERS':<8} {name:<13} {detail}")
        print("kernels: the default scan under each OPENBLAS_CORETYPE (reported, not checked)")
        for kernel in KERNELS:
            theirs, ours = kernel_scan(base, kernel), kernel_scan(ROOT, kernel)
            match = "unavailable" if "unavailable" in (theirs, ours) else (
                "match" if theirs == ours else "DIFFER")
            print(f"  {kernel:<12} REV {theirs:<42} working tree {ours:<42} {match}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
