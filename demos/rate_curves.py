"""Key-rate-versus-distance curves for all seven scenarios.

Runs a coarse scan (25 km steps to keep it quick), prints a summary per
scenario, and optionally writes the full CSV.  The packaged CLI does the
same job: `python3 -m mdiqkd scan --out curves.csv`.
"""

import argparse

from mdiqkd.runner import ConfigError, ScanConfig, emit_csv, parse_distances, scan


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--step", type=float, default=25.0, help="distance step in km")
    ap.add_argument("--out", help="also write the CSV here")
    args = ap.parse_args()

    try:
        distances = parse_distances(f"0:300:{args.step!r}")
    except ConfigError as exc:
        ap.error(str(exc))
    config = ScanConfig(distances=distances)
    points = scan(config)

    curves = {}
    for p in points:
        curves.setdefault(p.scenario, []).append(p)

    print(f"{'scenario':>9} {'rate @ 0 km':>13} {'rate @ 100 km':>14} "
          f"{'cutoff km':>10} {'mu_prime @ 0':>13}")
    for name, pts in sorted(curves.items()):
        at = {p.distance_km: p for p in pts}
        alive = [p.distance_km for p in pts if p.valid and p.rate > 0.0]
        r0 = at[0.0].rate if at[0.0].valid else 0.0
        r100 = at[100.0].rate if 100.0 in at and at[100.0].valid else 0.0
        reach = max(alive) if alive else 0.0
        print(f"{name:>9} {r0:>13.3e} {r100:>14.3e} {reach:>10.0f} "
              f"{at[0.0].mu_prime:>13.4f}")

    print("\nscenario key: W = no heralding, H = heralded Poisson arms,")
    print("T = heralded thermal arms; *0 reads ground truth, the others")
    print("estimate their bounds from gains alone")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_csv(points))
        print(f"\nwrote {len(points)} rows to {args.out}")


if __name__ == "__main__":
    main()
