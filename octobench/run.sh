#!/bin/sh
# Builds octobench from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash octobench/run.sh --workload anon-steady --seed 7 --seconds 25 --trace 0
# Run it from the root of the checkout. The build's own messages go to
# standard error; a failed build exits non-zero before any result.
exec dune exec --root . --display quiet --no-print-directory ./octobench/octobench.exe -- "$@"
