"""The `prodretrieve` command: `python -m prodretrieve` and the console script.

The command starts OpenBLAS on one thread. The library supplies the
parallelism itself: `search` runs its 256-row query blocks on a thread
pool, `coordinate` forks one worker per shard, and the re-rank overlaps its
distance blocks on one helper thread (`prodretrieve.blas`). A multi-threaded
OpenBLAS spins its idle threads after numpy loads it and after every call;
setting the count after that load leaves the start-up spin.

The trade: a `search` uses at most one core per query block, and the
clustering scan of `cluster` one core, where a multi-threaded OpenBLAS
would use them all. Re-cutting the blocks to fit the cores would change
output bits, so the blocks stay fixed. On a machine with more cores than
that work has blocks, set OPENBLAS_NUM_THREADS (or GOTO_NUM_THREADS or
OMP_NUM_THREADS) to the cores, and give `search` `--threads 1` so that each
block is one BLAS call over all of them: when any of the variables is set,
the command leaves the environment as it is. Importing the library never
changes the environment.
"""
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> None:
    if not any(name in os.environ for name in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS
    from .cli import run

    sys.exit(run())


if __name__ == "__main__":
    main()
