#!/usr/bin/env bash
# Lists the functions declared in non-test internal/ files that no binary
# links: every main package of the root module and the bench/ driver is
# built without inlining, `go tool nm` lists what each one links (an
# assembly func under its ABI0 name, pkg.name.abi0, read as pkg.name),
# and a declared func missing from every list is reached by tests at most.
#
# Prints the count and the list. Given a ceiling, it exits 1 when the
# count exceeds it (a new unlinked func needs a caller or a deletion);
# without one it is report-only and exits 0.
#
#   bash scripts/unlinked.sh [ceiling]
set -uo pipefail
ceiling=${1:-}
export LC_ALL=C # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 0
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Removes generic instantiation brackets, innermost first, so
# (*shardedTable[go.shape.struct { ... }]).get and
# (t *shardedTable[T]) both become shardedTable.
strip_generics() {
	sed -E ':a; s/\[[^][]*\]//g; ta'
}

for d in $(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$out/bin-$(basename "$d")" "$d" || echo "unlinked: build failed: $d" >&2
done
(cd bench && go build -gcflags=all=-l -o "$out/bin-bench" .) || echo "unlinked: build failed: bench" >&2

for b in "$out"/bin-*; do
	go tool nm "$b"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] (mirabel\/internal\/.*)$/\1/p' | strip_generics | sed -E 's/\.abi0$//' | sort -u >"$out/linked"

# Declared funcs as nm spells them: pkg.Name, pkg.T.Name or pkg.(*T).Name.
for f in $(git ls-files 'internal/*.go' | grep -v '_test\.go$'); do
	pkg="mirabel/$(dirname "$f")"
	grep -E '^func ' "$f" | strip_generics | sed -nE \
		-e "s#^func \([^)]*\*([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+).*#$pkg.(*\1).\2#p" \
		-e "s#^func \(([^)]* )?([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+).*#$pkg.\2.\3#p" \
		-e "s#^func ([A-Za-z0-9_]+).*#$pkg.\1#p"
done | grep -vE '\.init$' | sort -u >"$out/declared"

comm -23 "$out/declared" "$out/linked" >"$out/unlinked"
count=$(wc -l <"$out/unlinked")
echo "unlinked functions: $count"
cat "$out/unlinked"
if [ -n "$ceiling" ] && [ "$count" -gt "$ceiling" ]; then
	echo "unlinked: $count functions no binary links, more than the ceiling of $ceiling" >&2
	exit 1
fi
exit 0
