#!/usr/bin/env bash
# Paired A/B runs of the perfbench benchmark (BENCHMARK.json): a parent
# commit against the working tree, for one workload and seed, with the
# side that runs first alternating from pair to pair.  Prints, per end-to-end metric, both sides'
# median and quartiles, and in how many pairs the working tree won.
#
#   bash scripts/bench-pairs.sh [--parent REV] [--workload NAME] [--seed N]
#                               [--pairs N] [--seconds S]
#
# The parent is checked out as a detached git worktree under $TMPDIR
# and built there; the worktree is removed on exit.
set -euo pipefail

parent=HEAD
workload=fleet-serve
seed=1
pairs=10
seconds=10
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --pairs) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    *) echo "bench-pairs: unknown argument $1" >&2; exit 2 ;;
  esac
done

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
tree="$tmp/parent"
cleanup() {
  git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$tree" "$parent" >/dev/null 2>&1
echo "bench-pairs: parent $(git -C "$tree" rev-parse --short HEAD) vs working tree;" \
  "$workload seed $seed, $pairs pairs of ${seconds}s runs" >&2

# One run: the JSON result is the last line of stdout.
run() {
  (cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
}

# "name better" for each end-to-end metric of BENCHMARK.json.
metrics=$(awk '
  /"end_to_end"/ { inside = 1 }
  inside && /"per_layer"/ { inside = 0 }
  inside && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  inside && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$root/BENCHMARK.json")

# Alternate which side runs first, so drift during the runs (thermal,
# neighbours) does not favour one side.
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$tree" > "$tmp/parent.$i"
    run "$root" > "$tmp/change.$i"
  else
    run "$root" > "$tmp/change.$i"
    run "$tree" > "$tmp/parent.$i"
  fi
  echo "bench-pairs: pair $i/$pairs done" >&2
done

# The value of metric $1 in result file $2.
value() {
  grep -o "\"$1\": {\"value\": [-0-9.e+]*" "$2" | head -n 1 | sed 's/.*: //'
}

# Median and quartiles (linear interpolation) of the numbers on stdin.
stats() {
  sort -g | awk '{ v[NR - 1] = $1 }
    function q(p,   h, l) { h = (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
    END { printf "%.6g [%.6g, %.6g]", q(0.5), q(0.25), q(0.75) }'
}

printf '%-20s %-7s %-36s %-36s %s\n' metric better "parent median [q1, q3]" \
  "change median [q1, q3]" "change wins"
echo "$metrics" | while read -r name better; do
  wins=0
  : > "$tmp/p.vals"
  : > "$tmp/c.vals"
  for i in $(seq 1 "$pairs"); do
    p=$(value "$name" "$tmp/parent.$i")
    c=$(value "$name" "$tmp/change.$i")
    echo "$p" >> "$tmp/p.vals"
    echo "$c" >> "$tmp/c.vals"
    if awk -v p="$p" -v c="$c" -v b="$better" \
      'BEGIN { exit !((b == "higher" && c > p) || (b == "lower" && c < p)) }'; then
      wins=$((wins + 1))
    fi
  done
  printf '%-20s %-7s %-36s %-36s %d/%d\n' "$name" "$better" "$(stats < "$tmp/p.vals")" \
    "$(stats < "$tmp/c.vals")" "$wins" "$pairs"
done
