#!/usr/bin/env bash
# Entry point of the end-to-end benchmark; see run.py and README.md.
exec python3 "$(dirname "$0")/run.py" "$@"
