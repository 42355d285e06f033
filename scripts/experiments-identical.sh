#!/usr/bin/env bash
# Byte-identity of the paper experiments against a parent commit: the
# parent is exported with `git archive` into a temporary directory and
# built there, then every experiment id runs on both builds and their
# stdout is compared with cmp.  Exits 1 if any output differs or any
# run fails.
#
#   bash scripts/experiments-identical.sh [--parent REV] ID...
#
# Each run gets a fresh working directory, so an experiment that writes
# files leaves nothing behind.  Honours TMPDIR.
set -euo pipefail

parent=HEAD
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent=$2; shift 2 ;;
    --*) echo "experiments-identical: unknown argument $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
[ $# -gt 0 ] || { echo "experiments-identical: no experiment ids given" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/experiments-identical.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
echo "experiments-identical: parent $(git -C "$root" rev-parse --short "$parent") vs working tree" >&2
(cd "$tmp/parent" && DUNE_CACHE=disabled dune build --root . --display quiet ./bench/main.exe)
(cd "$root" && dune build --root . --display quiet ./bench/main.exe)

# run SIDE BINARY ID: the experiment's stdout into $tmp/SIDE.ID, from a
# scratch working directory.
run() {
  local dir="$tmp/run.$1.$3"
  mkdir "$dir"
  (cd "$dir" && "$2" "$3" > "$tmp/$1.$3")
}

status=0
for id in "$@"; do
  if ! run parent "$tmp/parent/_build/default/bench/main.exe" "$id"; then
    echo "experiments-identical: $id failed on the parent"; status=1; continue
  fi
  if ! run change "$root/_build/default/bench/main.exe" "$id"; then
    echo "experiments-identical: $id failed on the working tree"; status=1; continue
  fi
  if cmp -s "$tmp/parent.$id" "$tmp/change.$id"; then
    echo "experiments-identical: $id identical"
  else
    echo "experiments-identical: $id differs"; status=1
  fi
done
exit $status
