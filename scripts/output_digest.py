"""One digest of what crncalc prints for every benchmark operation.

Runs every operation of perfbench/workloads.py's WORKLOADS through
crncalc.cli.main in this process, seeds in the outer loop and workloads
in the inner one, and prints the number of operations and one sha256
over f"{exit code}\\n{stdout}" of each, in that order.  Two checkouts
whose digests match printed the same bytes and exit codes on all of
them, which is how a change that should not move any output is checked.
With --per-op it first prints one tab-separated line per operation:
workload, seed, argv (shell-quoted) and the sha256 of that operation
alone, so two checkouts' lines name the operations whose output moved.
perfbench is only read.

Usage:
    python scripts/output_digest.py
    python scripts/output_digest.py --workloads grid real --seeds 1
    python scripts/output_digest.py --per-op
"""

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from crncalc import cli  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=["grid", "real", "compile"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--per-op", action="store_true",
                    help="print each operation's workload, seed, argv and sha256 first")
    args = ap.parse_args(argv)

    digest, ops = hashlib.sha256(), 0
    for seed in args.seeds:
        for name in args.workloads:
            for op in WORKLOADS[name](seed):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(op.argv)
                output = f"{code}\n{buf.getvalue()}".encode()
                digest.update(output)
                ops += 1
                if args.per_op:
                    print(name, seed, shlex.join(op.argv), hashlib.sha256(output).hexdigest(),
                          sep="\t")
    print(ops, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
