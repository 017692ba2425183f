#!/usr/bin/env bash
# The cap window end to end, under the interpreter named by the one argument:
# README's windows run from 4 to 40, so every family certifies and replays at
# window 40 within 10 s each, every family's certificate keeps its pinned
# bytes, the catalog lists the cap, and the discrete control there must still
# find no obstruction (exit 2).
#
#   scripts/cap_window.sh python3.11
set -euo pipefail
py=${1:?usage: scripts/cap_window.sh PYTHON}
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for id in exB odd_chain brandt luke right_simple_zero:S3; do
  timeout 10 "$py" -m semitop.cli obstruct "$id" -w 40 --out "$tmp/cap-$id.json" > /dev/null
  timeout 10 "$py" -m semitop.cli obstruct "$id" -w 40 --replay "$tmp/cap-$id.json"
done
(cd "$tmp" && sha256sum -c -) <<'PINS'
8704b25634ca4cc00a7db07736a16754f1d84281a17f672141bdd3fd534ad4ef  cap-brandt.json
47ed44efcf0aeb722b494320fd9b675006e0e6e2a9b99854fa85785a7fae125a  cap-luke.json
74473b859463d1814d0c947848fe985a96c88cbb37892e6ce9bda3322535a3d1  cap-exB.json
b5c00f5121041427d29b61ce5ca09558fb59a8ae5a9ed9523b07d8d08f78dcbd  cap-odd_chain.json
a71273c4a32585d4d02588ca75aee5d6905ca154e3ba666ef4dca52db33643b7  cap-right_simple_zero:S3.json
PINS
timeout 10 "$py" -m semitop.cli catalog -w 40 --json > /dev/null
status=0
timeout 10 "$py" -m semitop.cli obstruct right_simple_zero:S3-discrete -w 40 || status=$?
test "$status" -eq 2
