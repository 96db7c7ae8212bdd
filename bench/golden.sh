#!/bin/sh
# Golden paper-figure outputs: every seeded experiment of
# `bench/main.exe --list` prints byte-identical stdout run to run, so a
# refactor that claims "no behaviour change" must leave bench/golden/
# untouched.  Excluded: fig8a/fig8b (wall-clock RS timings) and loc
# (counts source lines).
#
#   sh bench/golden.sh          # regenerate and cmp against bench/golden/
#   sh bench/golden.sh update   # rewrite bench/golden/ (re-baseline)
set -e
cd "$(dirname "$0")/.."
dune build bench/main.exe
exe=_build/default/bench/main.exe
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for name in $($exe --list | awk '{print $1}'); do
  case "$name" in fig8a | fig8b | loc) continue ;; esac
  $exe "$name" >"$out/$name.txt"
  if [ "$1" = update ]; then
    cp "$out/$name.txt" "bench/golden/$name.txt"
  elif ! cmp "$out/$name.txt" "bench/golden/$name.txt"; then
    diff "bench/golden/$name.txt" "$out/$name.txt" || true
    status=1
  fi
done
exit $status
