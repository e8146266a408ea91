#!/bin/sh
# Does the benchmark repeat on this box? Runs every workload 10 times,
# twice over (about half an hour), and fails on a spread or a
# set-to-set move above a metric's bound. `--workload <name>` checks
# one workload only.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- selfcheck "$@"
