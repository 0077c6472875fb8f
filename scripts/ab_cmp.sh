#!/usr/bin/env bash
# A/B byte comparison of two builds' fcctool.
#
# Compress step: writes the seed-2005 web trace (90 s, 250 flows/s)
# and every scenario_gen kind as TSH with NEW's synthetic_trace_gen,
# compresses each file with both builds' fcctool across container x
# backend x --index, and prints which archives differ. Encoder bytes
# may move; the list says where.
#
# Decode step: decodes every OLD archive with both builds and cmp's
# the two TSH outputs. These must all be equal: the exit status is 1
# when any decode differs.
#
# Usage: scripts/ab_cmp.sh OLD_BUILD NEW_BUILD [WORK_DIR]
#   OLD_BUILD, NEW_BUILD  CMake build trees (with examples/fcctool)
#   WORK_DIR              scratch directory (default: a fresh mktemp
#                         -d, removed on exit)
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 OLD_BUILD NEW_BUILD [WORK_DIR]" >&2
    exit 2
fi
OLD_TOOL="$(cd "$1" && pwd)/examples/fcctool"
NEW_TOOL="$(cd "$2" && pwd)/examples/fcctool"
GEN="$(cd "$2" && pwd)/examples/synthetic_trace_gen"
for bin in "$OLD_TOOL" "$NEW_TOOL" "$GEN"; do
    [ -x "$bin" ] || { echo "missing $bin" >&2; exit 2; }
done

if [ "$#" -ge 3 ]; then
    WORK="$3"
    mkdir -p "$WORK"
else
    WORK="$(mktemp -d)"
    trap 'rm -rf "$WORK"' EXIT
fi
cd "$WORK"
mkdir -p traces old new

(cd traces && "$GEN" 90 250 2005 >/dev/null && rm -f synthetic.pcap &&
    mv synthetic.tsh web.tsh && "$GEN" --scenario all 2005 >/dev/null)

# cell label and fcctool flags
CELLS=(
    "fcc1|--container fcc1 --chunk-records 0"
    "fcc2|--container fcc2"
    "fcc3-store|--container fcc3 --backend store"
    "fcc3-store-idx|--container fcc3 --backend store --index"
    "fcc3-deflate|--container fcc3 --backend deflate"
    "fcc3-deflate-idx|--container fcc3 --backend deflate --index"
    "fcc3-range|--container fcc3 --backend range"
    "fcc3-range-idx|--container fcc3 --backend range --index"
)

echo "== compress: OLD vs NEW archive bytes"
same=0
differ=0
for tsh in traces/*.tsh; do
    name="$(basename "$tsh" .tsh)"
    for cell in "${CELLS[@]}"; do
        label="${cell%%|*}"
        read -r -a flags <<<"${cell#*|}"
        out="$name.$label.fcc"
        "$OLD_TOOL" "${flags[@]}" compress "$tsh" "old/$out" >/dev/null
        "$NEW_TOOL" "${flags[@]}" compress "$tsh" "new/$out" >/dev/null
        if cmp -s "old/$out" "new/$out"; then
            same=$((same + 1))
        else
            differ=$((differ + 1))
            printf '  differs  %-28s old %9d B  new %9d B\n' "$out" \
                "$(stat -c %s "old/$out")" "$(stat -c %s "new/$out")"
        fi
    done
done
echo "compress: $same identical, $differ differ"

echo "== decode: OLD archives, OLD vs NEW decoder"
bad=0
total=0
for fcc in old/*.fcc; do
    base="$(basename "$fcc" .fcc)"
    "$OLD_TOOL" decompress "$fcc" "old/$base.tsh" >/dev/null
    "$NEW_TOOL" decompress "$fcc" "new/$base.dec.tsh" >/dev/null
    total=$((total + 1))
    if ! cmp -s "old/$base.tsh" "new/$base.dec.tsh"; then
        bad=$((bad + 1))
        echo "  DECODE DIFFERS  $base"
    fi
    rm -f "old/$base.tsh" "new/$base.dec.tsh"
done
echo "decode: $((total - bad)) of $total identical"
[ "$bad" -eq 0 ]
