"""One conjugations CLI command with the span recorder installed.

    python benchmark/cli_child.py SPANS_FILE CLI_ARGS...

Runs the command exactly as ``python -m conjugations.cli CLI_ARGS...`` would,
after timing ``import conjugations.cli`` as the span ``cli.import``, and
writes the spans to SPANS_FILE before exiting with the command's code.
"""

import sys

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    sid = tracer.begin("cli.import")
    import conjugations.cli

    tracer.end(sid)
    spans.install(tracer)
    try:
        code = conjugations.cli.run(argv)
    finally:
        spans.dump(tracer.spans, out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
