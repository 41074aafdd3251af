"""Run one polyrep CLI command with the tracer installed (traced cli-cold).

    python perfbench/trace_child.py SPANS_OUT OP_ID ARG...

Prints what `polyrep ARG...` prints, exits with its code, and writes the
spans of the run to SPANS_OUT.
"""

import sys

import tracer


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from polyrep import cli

    spans = tracer.Tracer()
    tracer.install(spans)
    spans.current_op = op_id
    try:
        return cli.main(argv)
    finally:
        spans.save(out)


if __name__ == "__main__":
    sys.exit(main())
