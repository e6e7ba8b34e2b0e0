"""Rank 1 of the srm-fanin workload, run as its own process.

Joins rank 0 (the benchmark process) over one loopback socket, then serves
commands broadcast by rank 0: ``[[SOLVE, iterations]]`` loads this rank's
half of the subjects, fits, saves its artifacts and gathers a JSON report
back to rank 0; ``[[QUIT, 0]]`` ends the process.

    python3 perfbench/peer.py --manifest M --first N --coord HOST:PORT --k K --out DIR
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from factorfit import collectives, data_io, srm  # noqa: E402

import fits  # noqa: E402

QUIT, SOLVE = 0, 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--first", type=int, required=True, help="first subject this rank owns")
    parser.add_argument("--coord", required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    entries = data_io.load_manifest(args.manifest, model="srm").subjects[args.first:]
    comm = collectives.SocketCommunicator(1, 2, args.coord, timeout=60.0)
    try:
        while True:
            op, iterations = (int(v) for v in comm.broadcast(None)[0])
            if op == QUIT:
                return 0
            before = dataclasses.asdict(comm.stats)
            config = srm.SrmConfig(k=args.k, iterations=iterations)
            model, fit_s = fits.solve_srm(comm, entries, config, args.out)
            after = dataclasses.asdict(comm.stats)
            report = {
                "stats": {key: after[key] - before[key] for key in after},
                "fit_s": fit_s,
                "digest": fits.mapping_digest(model.W),
                "failures": fits.srm_local_gates(model),
            }
            comm.gather(json.dumps(report).encode())
    finally:
        comm.close()


if __name__ == "__main__":
    sys.exit(main())
