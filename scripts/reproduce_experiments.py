"""Run the three experiment families at publication scale and drop CSVs
into ./results/.

  timing:    Stiefel and flag grids by n (d = 50) and by d (n = 1000)
  isometry:  St(2000, 100) alpha = 1 and Flag(50, 20, 30, 1900) alpha = 1/2,
             20 vectors with integer lengths in [1, 60]
  verify:    dense-oracle sweeps on small instances of all manifolds

Expect a few minutes of wall time.  Pass --quick for a reduced grid.
"""
import argparse
import pathlib
import sys

from manitrans import bench_cli

ISOMETRY_GRID = "0.1,0.3,0.5,0.7,1.2,1.5,1.7,2.1,3,15"
TIMING_GRID = "0.5,1,2,5,20"


def run(argv):
    """One manitrans-bench command; prints the CSV it wrote."""
    code = bench_cli.main(argv)
    if code != 0:
        sys.exit(code)
    print(f"wrote {argv[argv.index('--out') + 1]}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    n_grid = [100, 200] if args.quick else [100, 200, 1000, 2000]
    d_grid = [5, 10] if args.quick else [5, 10, 20, 100]

    for n in n_grid:
        for alpha in ("0.5", "1"):
            run(["bench", "--manifold", "stiefel", "--n", str(n), "--d", "50",
                 "--alpha", alpha, "--t-grid", TIMING_GRID, "--repeats", "3",
                 "--out", str(outdir / f"timing_stiefel_n{n}_a{alpha}.csv")])
        run(["bench", "--manifold", "flag", "--n", str(n),
             "--d-list", "20,15,15", "--alpha", "0.5",
             "--t-grid", TIMING_GRID, "--repeats", "3",
             "--out", str(outdir / f"timing_flag_n{n}.csv")])
    for d in d_grid:
        run(["bench", "--manifold", "stiefel", "--n", "1000", "--d", str(d),
             "--alpha", "0.5", "--t-grid", TIMING_GRID, "--repeats", "3",
             "--out", str(outdir / f"timing_stiefel_d{d}.csv")])

    iso_n = "200" if args.quick else "2000"
    iso_d = "10" if args.quick else "100"
    run(["isometry", "--manifold", "stiefel", "--n", iso_n, "--d", iso_d,
         "--alpha", "1", "--t-grid", ISOMETRY_GRID, "--vectors", "20",
         "--seed", "42", "--out", str(outdir / "isometry_stiefel.csv")])
    flag_blocks = "5,2,3" if args.quick else "50,20,30"
    run(["isometry", "--manifold", "flag", "--n", iso_n,
         "--d-list", flag_blocks, "--alpha", "0.5",
         "--t-grid", ISOMETRY_GRID, "--vectors", "20", "--seed", "42",
         "--out", str(outdir / "isometry_flag.csv")])

    for case in (["--manifold", "stiefel", "--n", "8", "--d", "3", "--alpha", "1"],
                 ["--manifold", "so", "--n", "6", "--d", "2", "--alpha", "0.8"],
                 ["--manifold", "gl", "--n", "4", "--beta", "0.7"],
                 ["--manifold", "flag", "--n", "10", "--d-list", "2,2",
                  "--alpha", "0.5"],
                 ["--manifold", "grassmann", "--n", "9", "--d", "3"]):
        name = case[1]
        run(["verify", *case, "--t-grid", "0.5,1,2",
             "--out", str(outdir / f"verify_{name}.csv")])


if __name__ == "__main__":
    main()
