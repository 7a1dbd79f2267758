"""Run the prodretrieve command with its calls traced.

    python3 perfbench/traced_cli.py SPANS_DIR RUN_ID PARENT_SPAN -- ARGS...

The spans are written to SPANS_DIR/<pid>.jsonl when the command ends, with
the top-level span's parent set to PARENT_SPAN. The exit code is the
command's.
"""
import sys

from tracing import Tracer, installed


def main(argv) -> int:
    spans_dir, run_id, parent, sep, *args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(run_id, parent)
    with installed(tracer):
        from prodretrieve import cli

        try:
            return cli.run(args)
        finally:
            tracer.write(spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
