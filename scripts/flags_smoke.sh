#!/bin/sh
# Flag-set check: build attestd, appraised, perasim and fleetd, list each
# daemon's flags from its -h output as "name default" lines, and diff
# them against scripts/testdata/flags/<daemon>.txt. A flag that appears,
# disappears or changes its default fails the check; usage text may
# change freely. It also starts fleetd with an empty -listen, which must
# still serve the fleet view on a free port. Run via `make flags-smoke`
# (part of tier-1 `make test`).
#
# Regenerate the expected files after an intended flag change with
#   sh scripts/flags_smoke.sh -update
set -eu

cd "$(dirname "$0")/.."

UPDATE=0
[ "${1:-}" = "-update" ] && UPDATE=1

TMP="$(mktemp -d)"
PID=""
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$TMP"' EXIT INT TERM

# flags prints one "name default" line per flag of a Go flag -h dump
# (default empty when the flag package prints none), sorted by name.
flags() {
    awk '
        function emit() {
            if (name == "") return
            d = ""
            if (match(text, /\(default .*\)$/)) d = substr(text, RSTART + 9, RLENGTH - 10)
            print name, d
        }
        /^  -/ { emit(); name = substr($1, 2); text = ""; next }
        /^    / { sub(/^[ \t]+/, ""); text = (text == "" ? $0 : text " " $0) }
        END { emit() }
    ' | sort
}

status=0
for d in attestd appraised perasim fleetd; do
    go build -o "$TMP/$d" "./cmd/$d"
    # -h exits 0 after printing usage on stderr.
    "$TMP/$d" -h >"$TMP/$d.help" 2>&1 || true
    flags <"$TMP/$d.help" >"$TMP/$d.txt"
    want="scripts/testdata/flags/$d.txt"
    if [ "$UPDATE" = 1 ]; then
        mkdir -p "$(dirname "$want")"
        cp "$TMP/$d.txt" "$want"
        echo "flags-smoke: wrote $want ($(wc -l <"$want" | tr -d ' ') flags)"
        continue
    fi
    if diff -u "$want" "$TMP/$d.txt" >"$TMP/$d.diff"; then
        echo "flags-smoke: $d OK ($(wc -l <"$want" | tr -d ' ') flags)"
    else
        echo "flags-smoke: FAIL — $d flag set differs from $want:"
        cat "$TMP/$d.diff"
        status=1
    fi
done
[ "$UPDATE" = 1 ] && exit 0

# An empty -listen lets net.Listen pick a port; fleetd must serve there.
"$TMP/fleetd" -listen "" -targets http://127.0.0.1:1 >"$TMP/fleetd.out" 2>&1 &
PID=$!
URL=""
i=0
while [ $i -lt 50 ] && kill -0 "$PID" 2>/dev/null; do
    URL="$(sed -n 's|^fleetd: serving fleet view on \(http://[^ ]*\)$|\1|p' "$TMP/fleetd.out")"
    [ -n "$URL" ] && break
    sleep 0.1
    i=$((i + 1))
done
fetch() {
    if command -v curl >/dev/null 2>&1; then curl -fsS "$1"; else wget -qO- "$1"; fi
}
if [ -n "$URL" ] && fetch "$URL" >/dev/null; then
    echo "flags-smoke: fleetd -listen \"\" OK (served $URL)"
else
    echo "flags-smoke: FAIL — fleetd -listen \"\" did not serve its fleet view:"
    cat "$TMP/fleetd.out"
    status=1
fi
exit $status
