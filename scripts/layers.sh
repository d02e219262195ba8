#!/usr/bin/env bash
# Runs upnp-bench's Criterion micro-benches and writes the JSON line the
# vendored criterion prints per bench into bench/layers.json, so each
# layer's micro-bench numbers are kept as numbers, next to the commit
# and the CPU count they were measured with.
#
#   scripts/layers.sh                               # every bench target
#   scripts/layers.sh vm_instructions sim_scheduler # only these targets
#
# Each entry holds the bench label and its minimum, median and maximum
# nanoseconds per iteration over the bench's samples. The file is
# rewritten with the targets run; run a parent commit's checkout the
# same way to compare the two.
set -euo pipefail
cd "$(dirname "$0")/.."

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
    mapfile -t targets < <(awk -F'"' '/^\[\[bench\]\]/ { b = 1; next }
                                      b && $1 ~ /^name/ { print $2; b = 0 }' crates/bench/Cargo.toml)
fi

lines=()
for t in "${targets[@]}"; do
    echo "bench $t" >&2
    mapfile -t -O "${#lines[@]}" lines < <(cargo bench --offline -q -p upnp-bench --bench "$t" | grep '^{"bench"')
done

out=bench/layers.json
{
    printf '{\n  "commit": "%s",\n  "cpus": %s,\n  "benches": [\n' \
        "$(git describe --always --dirty)" "$(nproc)"
    for i in "${!lines[@]}"; do
        sep=,
        [ "$i" -eq $((${#lines[@]} - 1)) ] && sep=
        printf '    %s%s\n' "${lines[$i]}" "$sep"
    done
    printf '  ]\n}\n'
} > "$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out (${#lines[@]} benches)" >&2
