#!/usr/bin/env bash
# Bad numeric flags and flags a subcommand does not read (a misspelling)
# must make catmark_cli fail cleanly: exit status exactly 1 (an abort would
# exit 134, an ignored flag 0) and a message naming the flag on stderr.
#
#   tools/cli_flag_test.sh path/to/catmark_cli
set -u

cli="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

schema="K:int:pk,A:str:cat"
"$cli" gen --out "$work/data.csv" --n 2000 > /dev/null || exit 1

failures=0
check() {
  local flag="$1"
  shift
  "$@" > "$work/out" 2> "$work/err"
  local status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: exit $status (want 1): $*"
    failures=$((failures + 1))
  elif ! grep -q -- "--$flag" "$work/err"; then
    echo "FAIL: stderr does not name --$flag: $*"
    cat "$work/err"
    failures=$((failures + 1))
  else
    echo "ok: $(head -n 1 "$work/err")"
  fi
}

for bad in "--e 0" "--e abc" "--e -1" "--payload-length 99999999999999"; do
  read -r flag value <<< "$bad"
  flag="${flag#--}"
  check "$flag" "$cli" embed --in "$work/data.csv" --out "$work/marked.csv" \
    --schema "$schema" --key secret --wm 1011001110 "--$flag" "$value"
  check "$flag" "$cli" detect --in "$work/data.csv" --schema "$schema" \
    --key secret --wm 1011001110 --payload-length 200 "--$flag" "$value"
done

# One misspelt flag per subcommand, after an otherwise valid command line.
check paylod-length "$cli" gen --out "$work/gen.csv" --n 10 --paylod-length 4
check paylod-length "$cli" embed --in "$work/data.csv" \
  --out "$work/marked.csv" --schema "$schema" --key secret --wm 1011001110 \
  --e 5 --paylod-length 40
check paylod-length "$cli" detect --in "$work/data.csv" --schema "$schema" \
  --key secret --wm 1011001110 --payload-length 200 --paylod-length 40
check cert "$cli" sweep --in "$work/data.csv" --schema "$schema" \
  --cert "$work/none.txt"
check fractoin "$cli" attack --in "$work/data.csv" --out "$work/att.csv" \
  --schema "$schema" --type alter --fractoin 0.2
check qq "$cli" bandwidth --in "$work/data.csv" --schema "$schema" --qq 0.1
check batches "$cli" stream --in "$work/data.csv" --schema "$schema" \
  --key secret --certificate "$work/none.txt" --out "$work/grown.csv" \
  --batches 64
check thread "$cli" convert --in "$work/data.csv" --out "$work/data.catm" \
  --schema "$schema" --thread 2

[ "$failures" -eq 0 ]
